//! The [`SimTime`] instant type.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

use crate::duration::SimDuration;
use crate::{SECS_PER_DAY, SECS_PER_HOUR, SECS_PER_MINUTE, SECS_PER_WEEK};

/// An instant on the simulation timeline: whole seconds since the start of
/// the observation window (the *epoch*, `SimTime::EPOCH`).
///
/// `SimTime` is `Copy`, totally ordered, and supports saturating arithmetic
/// with [`SimDuration`]. Calendar queries that depend on which weekday the
/// epoch fell on (weekday, weekend) live on [`crate::Calendar`]; queries that
/// do not (hour of day, day index, week index) live here.
///
/// # Examples
/// ```
/// use wearscope_simtime::{SimTime, SimDuration};
/// let t = SimTime::from_days(3) + SimDuration::from_hours(14);
/// assert_eq!(t.day_index(), 3);
/// assert_eq!(t.hour_of_day(), 14);
/// assert_eq!(t.week_index(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the observation window.
    pub const EPOCH: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `secs` seconds after the epoch.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Creates an instant `minutes` minutes after the epoch.
    #[inline]
    pub const fn from_minutes(minutes: u64) -> Self {
        SimTime(minutes * SECS_PER_MINUTE)
    }

    /// Creates an instant `hours` hours after the epoch.
    #[inline]
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * SECS_PER_HOUR)
    }

    /// Creates an instant at midnight starting day `days` (0-based).
    #[inline]
    pub const fn from_days(days: u64) -> Self {
        SimTime(days * SECS_PER_DAY)
    }

    /// Creates an instant at the start of week `weeks` (0-based).
    #[inline]
    pub const fn from_weeks(weeks: u64) -> Self {
        SimTime(weeks * SECS_PER_WEEK)
    }

    /// Seconds since the epoch.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The 0-based day this instant falls in.
    #[inline]
    pub const fn day_index(self) -> u64 {
        self.0 / SECS_PER_DAY
    }

    /// The 0-based week this instant falls in.
    #[inline]
    pub const fn week_index(self) -> u64 {
        self.0 / SECS_PER_WEEK
    }

    /// Hour of day, `0..24`.
    #[inline]
    pub const fn hour_of_day(self) -> u8 {
        ((self.0 % SECS_PER_DAY) / SECS_PER_HOUR) as u8
    }

    /// Minute of hour, `0..60`.
    #[inline]
    pub const fn minute_of_hour(self) -> u8 {
        ((self.0 % SECS_PER_HOUR) / SECS_PER_MINUTE) as u8
    }

    /// Second of minute, `0..60`.
    #[inline]
    pub const fn second_of_minute(self) -> u8 {
        (self.0 % SECS_PER_MINUTE) as u8
    }

    /// The absolute hour index since the epoch (day 0 hour 0 = 0).
    #[inline]
    pub const fn hour_index(self) -> u64 {
        self.0 / SECS_PER_HOUR
    }

    /// Duration since `earlier`, or zero if `earlier` is later than `self`.
    #[inline]
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_secs(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at `SimTime::MAX`.
    #[inline]
    pub const fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.as_secs()))
    }

    /// Subtracts a duration, saturating at the epoch.
    #[inline]
    pub const fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.as_secs()))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_secs())
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_secs();
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.as_secs())
    }
}

impl SubAssign<SimDuration> for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.as_secs();
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d{}+{:02}:{:02}:{:02}",
            self.day_index(),
            self.hour_of_day(),
            self.minute_of_hour(),
            self.second_of_minute()
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(SimTime::EPOCH.as_secs(), 0);
        assert_eq!(SimTime::EPOCH.day_index(), 0);
        assert_eq!(SimTime::EPOCH.hour_of_day(), 0);
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_minutes(90), SimTime::from_secs(5400));
        assert_eq!(SimTime::from_hours(24), SimTime::from_days(1));
        assert_eq!(SimTime::from_days(7), SimTime::from_weeks(1));
    }

    #[test]
    fn field_extraction() {
        let t = SimTime::from_secs(2 * SECS_PER_DAY + 13 * SECS_PER_HOUR + 47 * 60 + 5);
        assert_eq!(t.day_index(), 2);
        assert_eq!(t.hour_of_day(), 13);
        assert_eq!(t.minute_of_hour(), 47);
        assert_eq!(t.second_of_minute(), 5);
        assert_eq!(t.hour_index(), 2 * 24 + 13);
        assert_eq!(t.week_index(), 0);
    }

    #[test]
    fn week_index_rolls_at_day_seven() {
        assert_eq!(SimTime::from_days(6).week_index(), 0);
        assert_eq!(SimTime::from_days(7).week_index(), 1);
        assert_eq!(SimTime::from_days(20).week_index(), 2);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_hours(5);
        assert_eq!(t + SimDuration::from_hours(3), SimTime::from_hours(8));
        assert_eq!(t - SimDuration::from_hours(5), SimTime::EPOCH);
        assert_eq!(
            SimTime::from_hours(8) - SimTime::from_hours(5),
            SimDuration::from_hours(3)
        );
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::EPOCH.saturating_sub(SimDuration::from_secs(10)),
            SimTime::EPOCH
        );
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(10)),
            SimTime::MAX
        );
        assert_eq!(
            SimTime::EPOCH.saturating_since(SimTime::from_secs(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn debug_format() {
        let t = SimTime::from_secs(SECS_PER_DAY + 2 * SECS_PER_HOUR + 3 * 60 + 4);
        assert_eq!(format!("{t:?}"), "d1+02:03:04");
    }

    #[test]
    fn ordering_matches_seconds() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::from_days(1) > SimTime::from_hours(23));
    }
}
