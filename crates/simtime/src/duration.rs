//! The [`SimDuration`] span type.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::{SECS_PER_DAY, SECS_PER_HOUR, SECS_PER_MINUTE, SECS_PER_WEEK};

/// A non-negative span of simulation time, in whole seconds.
///
/// # Examples
/// ```
/// use wearscope_simtime::SimDuration;
/// let d = SimDuration::from_hours(2) + SimDuration::from_minutes(30);
/// assert_eq!(d.as_secs(), 9000);
/// assert_eq!(d.as_hours_f64(), 2.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration of `secs` seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// A duration of `minutes` minutes.
    #[inline]
    pub const fn from_minutes(minutes: u64) -> Self {
        SimDuration(minutes * SECS_PER_MINUTE)
    }

    /// A duration of `hours` hours.
    #[inline]
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * SECS_PER_HOUR)
    }

    /// A duration of `days` days.
    #[inline]
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * SECS_PER_DAY)
    }

    /// A duration of `weeks` weeks.
    #[inline]
    pub const fn from_weeks(weeks: u64) -> Self {
        SimDuration(weeks * SECS_PER_WEEK)
    }

    /// Whole seconds in this duration.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Duration in fractional hours.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / SECS_PER_HOUR as f64
    }

    /// `true` if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction clamped at zero.
    #[inline]
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.0 / SECS_PER_DAY;
        let h = (self.0 % SECS_PER_DAY) / SECS_PER_HOUR;
        let m = (self.0 % SECS_PER_HOUR) / SECS_PER_MINUTE;
        let s = self.0 % SECS_PER_MINUTE;
        if d > 0 {
            write!(f, "{d}d{h:02}h{m:02}m{s:02}s")
        } else if h > 0 {
            write!(f, "{h}h{m:02}m{s:02}s")
        } else if m > 0 {
            write!(f, "{m}m{s:02}s")
        } else {
            write!(f, "{s}s")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(SimDuration::from_minutes(2).as_secs(), 120);
        assert_eq!(SimDuration::from_hours(1).as_secs(), 3_600);
        assert_eq!(SimDuration::from_days(2).as_secs(), 172_800);
        assert_eq!(SimDuration::from_weeks(1).as_secs(), 604_800);
    }

    #[test]
    fn fractional_views() {
        assert_eq!(SimDuration::from_minutes(90).as_hours_f64(), 1.5);
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_hours(2);
        let b = SimDuration::from_minutes(30);
        assert_eq!(a + b, SimDuration::from_minutes(150));
        assert_eq!(a - b, SimDuration::from_minutes(90));
        assert_eq!(a * 3, SimDuration::from_hours(6));
        assert_eq!(a / 4, SimDuration::from_minutes(30));
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = SimDuration::from_secs(5);
        let b = SimDuration::from_secs(9);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a).as_secs(), 4);
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", SimDuration::from_secs(42)), "42s");
        assert_eq!(format!("{:?}", SimDuration::from_secs(62)), "1m02s");
        assert_eq!(format!("{:?}", SimDuration::from_secs(3723)), "1h02m03s");
        assert_eq!(
            format!("{:?}", SimDuration::from_secs(SECS_PER_DAY + 3723)),
            "1d01h02m03s"
        );
    }

    #[test]
    fn zero() {
        assert!(SimDuration::ZERO.is_zero());
        assert!(!SimDuration::from_secs(1).is_zero());
    }
}
