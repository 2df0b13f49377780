//! Property-based tests for simtime invariants.

use proptest::prelude::*;
use wearscope_simtime::{Calendar, SimDuration, SimTime, TimeRange, Weekday};

proptest! {
    /// Adding then subtracting a duration is the identity.
    #[test]
    fn add_sub_roundtrip(base in 0u64..1_000_000_000, delta in 0u64..1_000_000) {
        let t = SimTime::from_secs(base);
        let d = SimDuration::from_secs(delta);
        prop_assert_eq!((t + d) - d, t);
    }

    /// day/hour/week indices are consistent with each other.
    #[test]
    fn index_consistency(secs in 0u64..10_000_000_000) {
        let t = SimTime::from_secs(secs);
        prop_assert_eq!(t.week_index(), t.day_index() / 7);
        prop_assert_eq!(t.hour_index() / 24, t.day_index());
        prop_assert!(t.hour_of_day() < 24);
        prop_assert!(t.minute_of_hour() < 60);
        prop_assert!(t.second_of_minute() < 60);
    }

    /// Weekday cycling: +7 days is the identity, weekend is exactly 2/7.
    #[test]
    fn weekday_cycle(day in 0u64..10_000, anchor in 0usize..7) {
        let cal = Calendar::starting_on(Weekday::ALL[anchor]);
        prop_assert_eq!(cal.weekday_of_day(day), cal.weekday_of_day(day + 7));
        let weekends = (day..day + 7).filter(|&d| cal.day_is_weekend(d)).count();
        prop_assert_eq!(weekends, 2);
    }

    /// A range's day iterator covers exactly the days of every contained instant.
    #[test]
    fn day_iter_covers_contents(start in 0u64..1_000_000, len in 1u64..1_000_000) {
        let r = TimeRange::new(SimTime::from_secs(start), SimTime::from_secs(start + len));
        let days: Vec<u64> = r.days().collect();
        prop_assert_eq!(days.len() as u64, r.num_days());
        // First and last instants' days are covered.
        prop_assert_eq!(days.first().copied(), Some(r.start().day_index()));
        let last_instant = SimTime::from_secs(start + len - 1);
        prop_assert_eq!(days.last().copied(), Some(last_instant.day_index()));
        // Days are consecutive.
        for w in days.windows(2) {
            prop_assert_eq!(w[1], w[0] + 1);
        }
    }
}
