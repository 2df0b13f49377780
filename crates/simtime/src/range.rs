//! Half-open time ranges and calendar-grained iterators over them.

use crate::duration::SimDuration;
use crate::time::SimTime;
use crate::{SECS_PER_DAY, SECS_PER_HOUR, SECS_PER_WEEK};

/// A half-open interval `[start, end)` on the simulation timeline.
///
/// # Examples
/// ```
/// use wearscope_simtime::{TimeRange, SimTime};
/// let r = TimeRange::new(SimTime::from_days(1), SimTime::from_days(3));
/// assert!(r.contains(SimTime::from_days(2)));
/// assert!(!r.contains(SimTime::from_days(3)));
/// assert_eq!(r.days().count(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct TimeRange {
    start: SimTime,
    end: SimTime,
}

impl TimeRange {
    /// Creates `[start, end)`.
    ///
    /// # Panics
    /// Panics if `end < start`.
    pub fn new(start: SimTime, end: SimTime) -> TimeRange {
        assert!(end >= start, "TimeRange end {end} before start {start}");
        TimeRange { start, end }
    }

    /// The range covering `days` whole days starting at the epoch.
    pub fn first_days(days: u64) -> TimeRange {
        TimeRange::new(SimTime::EPOCH, SimTime::from_days(days))
    }

    /// The range covering day `day_index` (midnight to midnight).
    pub fn day(day_index: u64) -> TimeRange {
        TimeRange::new(
            SimTime::from_days(day_index),
            SimTime::from_days(day_index + 1),
        )
    }

    /// The range covering week `week_index`.
    pub fn week(week_index: u64) -> TimeRange {
        TimeRange::new(
            SimTime::from_weeks(week_index),
            SimTime::from_weeks(week_index + 1),
        )
    }

    /// Inclusive start.
    #[inline]
    pub const fn start(self) -> SimTime {
        self.start
    }

    /// Exclusive end.
    #[inline]
    pub const fn end(self) -> SimTime {
        self.end
    }

    /// The length of the range.
    #[inline]
    pub fn duration(self) -> SimDuration {
        self.end - self.start
    }

    /// `true` if the range is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// `true` if `t` lies inside `[start, end)`.
    #[inline]
    pub fn contains(self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }

    /// Number of calendar days the range touches (partial days count).
    pub fn num_days(self) -> u64 {
        if self.is_empty() {
            return 0;
        }
        (self.end.as_secs() - 1) / SECS_PER_DAY - self.start.as_secs() / SECS_PER_DAY + 1
    }

    /// Number of whole weeks fully covered, rounding the span down.
    pub fn num_whole_weeks(self) -> u64 {
        self.duration().as_secs() / SECS_PER_WEEK
    }

    /// Iterator over the 0-based indices of days the range touches.
    pub fn days(self) -> DayIter {
        if self.is_empty() {
            DayIter { next: 1, last: 0 }
        } else {
            DayIter {
                next: self.start.as_secs() / SECS_PER_DAY,
                last: (self.end.as_secs() - 1) / SECS_PER_DAY,
            }
        }
    }

    /// Iterator over the absolute hour indices the range touches.
    pub fn hours(self) -> HourIter {
        if self.is_empty() {
            HourIter { next: 1, last: 0 }
        } else {
            HourIter {
                next: self.start.as_secs() / SECS_PER_HOUR,
                last: (self.end.as_secs() - 1) / SECS_PER_HOUR,
            }
        }
    }

    /// Iterator over the week indices the range touches.
    pub fn weeks(self) -> WeekIter {
        if self.is_empty() {
            WeekIter { next: 1, last: 0 }
        } else {
            WeekIter {
                next: self.start.as_secs() / SECS_PER_WEEK,
                last: (self.end.as_secs() - 1) / SECS_PER_WEEK,
            }
        }
    }
}

macro_rules! index_iter {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Debug)]
        pub struct $name {
            next: u64,
            last: u64,
        }

        impl Iterator for $name {
            type Item = u64;

            fn next(&mut self) -> Option<u64> {
                if self.next > self.last {
                    None
                } else {
                    let v = self.next;
                    self.next += 1;
                    Some(v)
                }
            }

            fn size_hint(&self) -> (usize, Option<usize>) {
                let n = (self.last + 1).saturating_sub(self.next) as usize;
                (n, Some(n))
            }
        }

        impl ExactSizeIterator for $name {}
    };
}

index_iter!(
    /// Iterator over day indices; see [`TimeRange::days`].
    DayIter
);
index_iter!(
    /// Iterator over absolute hour indices; see [`TimeRange::hours`].
    HourIter
);
index_iter!(
    /// Iterator over week indices; see [`TimeRange::weeks`].
    WeekIter
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "before start")]
    fn inverted_range_panics() {
        let _ = TimeRange::new(SimTime::from_secs(2), SimTime::from_secs(1));
    }

    #[test]
    fn contains_is_half_open() {
        let r = TimeRange::new(SimTime::from_secs(10), SimTime::from_secs(20));
        assert!(r.contains(SimTime::from_secs(10)));
        assert!(r.contains(SimTime::from_secs(19)));
        assert!(!r.contains(SimTime::from_secs(20)));
        assert!(!r.contains(SimTime::from_secs(9)));
    }

    #[test]
    fn day_iteration() {
        let r = TimeRange::first_days(3);
        assert_eq!(r.days().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(r.num_days(), 3);

        // A range straddling a midnight touches both days.
        let r = TimeRange::new(
            SimTime::from_secs(SECS_PER_DAY - 10),
            SimTime::from_secs(SECS_PER_DAY + 10),
        );
        assert_eq!(r.days().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(r.num_days(), 2);
    }

    #[test]
    fn empty_range_iterates_nothing() {
        let r = TimeRange::new(SimTime::from_secs(5), SimTime::from_secs(5));
        assert!(r.is_empty());
        assert_eq!(r.days().count(), 0);
        assert_eq!(r.hours().count(), 0);
        assert_eq!(r.weeks().count(), 0);
        assert_eq!(r.num_days(), 0);
    }

    #[test]
    fn hour_iteration() {
        let r = TimeRange::new(SimTime::from_hours(2), SimTime::from_hours(5));
        assert_eq!(r.hours().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn week_iteration_and_whole_weeks() {
        let r = TimeRange::new(SimTime::EPOCH, SimTime::from_days(17));
        assert_eq!(r.weeks().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(r.num_whole_weeks(), 2);
    }

    #[test]
    fn exact_day_boundary_excludes_next_day() {
        let r = TimeRange::new(SimTime::EPOCH, SimTime::from_days(1));
        assert_eq!(r.days().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn size_hint_is_exact() {
        let r = TimeRange::first_days(5);
        let it = r.days();
        assert_eq!(it.size_hint(), (5, Some(5)));
        assert_eq!(it.len(), 5);
    }
}
