//! Orders one simulated day's events by time.
//!
//! No event leaves its day, so an event's time is its day's midnight plus
//! a second of day below [`SECS_PER_DAY`], and a day sorts as a stable
//! counting sort on that second: one pass counts the events of each
//! second, one finds which event goes to each place, and the events are
//! then moved along the permutation's cycles, in place. The result is
//! the order `sort_by_cached_key(time)` gives (ties keep their order), at
//! a cost linear in the events, and like it the sort holds an index per
//! event, never a second copy of the events.

use wearscope_mobilenet::NetworkEvent;
use wearscope_simtime::{SimTime, SECS_PER_DAY};

/// The buffers of a day sort, kept from one day to the next.
#[derive(Debug, Default)]
pub(crate) struct DaySort {
    /// Per second of day, where its events start in the sorted day; while
    /// places are handed out, where its next event goes.
    starts: Vec<u32>,
    /// Per place in the sorted day, the index of the event that goes
    /// there; a place whose event has been moved there names itself.
    sources: Vec<u32>,
}

impl DaySort {
    /// Sorts `events`, all of day `day`, stably by time.
    ///
    /// # Panics
    /// On an event outside day `day`, naming the day and the event's
    /// second counted from the day's midnight.
    pub(crate) fn sort(&mut self, day: u64, events: &mut [NetworkEvent]) {
        let midnight = SimTime::from_days(day).as_secs();
        let second = |event: &NetworkEvent| event.time().as_secs().wrapping_sub(midnight) as usize;
        u32::try_from(events.len()).expect("a day holds fewer than 2^32 events");
        self.starts.clear();
        self.starts.resize(SECS_PER_DAY as usize + 1, 0);
        for event in events.iter() {
            let s = second(event);
            assert!(
                s < SECS_PER_DAY as usize,
                "an event at second {} of day {day} lies outside the day",
                i128::from(event.time().as_secs()) - i128::from(midnight),
            );
            self.starts[s + 1] += 1;
        }
        let mut start = 0;
        for count in &mut self.starts {
            start += *count;
            *count = start;
        }
        self.sources.clear();
        self.sources.resize(events.len(), 0);
        for (i, event) in events.iter().enumerate() {
            let next = &mut self.starts[second(event)];
            self.sources[*next as usize] = i as u32;
            *next += 1;
        }
        // Each cycle of the permutation moves once: the first place's
        // event is set aside, each place then takes its event from the
        // next place of the cycle, and the last takes the one set aside.
        for first in 0..events.len() {
            if self.sources[first] as usize == first {
                continue;
            }
            let set_aside = events[first].clone();
            let mut place = first;
            loop {
                let from = self.sources[place] as usize;
                self.sources[place] = place as u32;
                if from == first {
                    events[place] = set_aside;
                    break;
                }
                events[place] = events[from].clone();
                place = from;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wearscope_trace::UserId;

    /// An event of `user` at `second` of `day`; its IMEI numbers it, so
    /// that events with the same time differ.
    fn event(day: u64, user: u64, second: u64, n: u64) -> NetworkEvent {
        NetworkEvent::Detach {
            t: SimTime::from_secs(SimTime::from_days(day).as_secs() + second),
            user: UserId(user),
            imei: n,
        }
    }

    /// A second of day, often the first or the last, or one of a few so
    /// that users share seconds.
    fn second() -> impl Strategy<Value = u64> {
        (0u8..8, 0..SECS_PER_DAY).prop_map(|(kind, s)| match kind {
            0 => 0,
            1 => SECS_PER_DAY - 1,
            2 | 3 => s % 16,
            _ => s,
        })
    }

    /// Each user's seconds sorted, then the users' runs interleaved as
    /// `picks` choose, the way a day is built user by user.
    fn day_events(day: u64, mut users: Vec<Vec<u64>>, picks: &[usize]) -> Vec<NetworkEvent> {
        for seconds in &mut users {
            seconds.sort_unstable();
            seconds.reverse();
        }
        let mut events = Vec::new();
        let mut picks = picks.iter().cycle();
        while users.iter().any(|s| !s.is_empty()) {
            let open: Vec<usize> = (0..users.len()).filter(|&u| !users[u].is_empty()).collect();
            let user = open[picks.next().map_or(0, |p| p % open.len())];
            let second = users[user].pop().expect("open");
            events.push(event(day, user as u64, second, events.len() as u64));
        }
        events
    }

    proptest! {
        /// On days of interleaved sorted runs, with ties and the day's
        /// first and last seconds, the sort gives the order of the
        /// comparison sort it replaced.
        #[test]
        fn a_day_sorts_as_sort_by_cached_key(
            day in 0u64..400,
            users in prop::collection::vec(prop::collection::vec(second(), 0..120), 1..7),
            picks in prop::collection::vec(0usize..64, 1..40),
        ) {
            let mut events = day_events(day, users, &picks);
            let mut want = events.clone();
            want.sort_by_cached_key(NetworkEvent::time);
            let mut sort = DaySort::default();
            sort.sort(day, &mut events);
            prop_assert_eq!(&events, &want);
            // The buffers carry nothing from one day to the next.
            events.reverse();
            sort.sort(day, &mut events);
            want.reverse();
            want.sort_by_cached_key(NetworkEvent::time);
            prop_assert_eq!(events, want);
        }
    }

    #[test]
    fn an_empty_day_sorts() {
        DaySort::default().sort(3, &mut []);
    }

    #[test]
    #[should_panic(expected = "an event at second 86400 of day 3 lies outside the day")]
    fn an_event_after_its_day_panics() {
        let mut events = vec![event(3, 1, 5, 0), event(4, 1, 0, 1)];
        DaySort::default().sort(3, &mut events);
    }

    #[test]
    #[should_panic(expected = "an event at second -1 of day 3 lies outside the day")]
    fn an_event_before_its_day_panics() {
        let mut events = vec![event(2, 1, SECS_PER_DAY - 1, 0)];
        DaySort::default().sort(3, &mut events);
    }
}
