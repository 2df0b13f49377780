//! Event-time window geometry.
//!
//! Windows are **index-addressed**: window `k` covers the half-open range
//! `[k * slide, k * slide + width)`. For tumbling windows (`slide ==
//! width`) each timestamp maps to exactly one index; for sliding windows
//! (`slide < width`) a timestamp belongs to `width / slide` consecutive
//! indices. A record exactly at a window's end boundary belongs to the
//! *next* window (half-open semantics).

use std::ops::RangeInclusive;

use wearscope_simtime::{SimDuration, SimTime};

/// A tumbling or sliding event-time window configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    width: SimDuration,
    slide: SimDuration,
}

impl WindowSpec {
    /// Tumbling windows of the given width.
    ///
    /// # Errors
    /// Fails for a zero width.
    pub fn tumbling(width: SimDuration) -> Result<WindowSpec, String> {
        WindowSpec::sliding(width, width)
    }

    /// Sliding windows: `width` long, advancing by `slide`.
    ///
    /// # Errors
    /// Fails unless `0 < slide <= width`.
    pub fn sliding(width: SimDuration, slide: SimDuration) -> Result<WindowSpec, String> {
        if width.is_zero() {
            return Err("window width must be positive".into());
        }
        if slide.is_zero() {
            return Err("window slide must be positive".into());
        }
        if slide > width {
            return Err(format!(
                "slide ({}s) must not exceed width ({}s)",
                slide.as_secs(),
                width.as_secs()
            ));
        }
        Ok(WindowSpec { width, slide })
    }

    /// Window width.
    pub fn width(&self) -> SimDuration {
        self.width
    }

    /// Window slide (equals width for tumbling windows).
    pub fn slide(&self) -> SimDuration {
        self.slide
    }

    /// The inclusive range of window indices containing `t`.
    pub fn assign(&self, t: SimTime) -> RangeInclusive<u64> {
        let ts = t.as_secs();
        let slide = self.slide.as_secs();
        let width = self.width.as_secs();
        let hi = ts / slide;
        let lo = if ts < width {
            0
        } else {
            (ts - width) / slide + 1
        };
        lo..=hi
    }

    /// The `[start, end)` bounds of window `index`.
    pub fn bounds(&self, index: u64) -> (SimTime, SimTime) {
        let start = index.saturating_mul(self.slide.as_secs());
        (
            SimTime::from_secs(start),
            SimTime::from_secs(start.saturating_add(self.width.as_secs())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tumbling_assigns_single_window_with_half_open_boundary() {
        let spec = WindowSpec::tumbling(SimDuration::from_hours(1)).unwrap();
        assert_eq!(spec.slide(), spec.width());
        assert_eq!(spec.assign(SimTime::from_secs(0)), 0..=0);
        assert_eq!(spec.assign(SimTime::from_secs(3599)), 0..=0);
        // Exactly at the boundary: next window.
        assert_eq!(spec.assign(SimTime::from_secs(3600)), 1..=1);
        assert_eq!(
            spec.bounds(1),
            (SimTime::from_secs(3600), SimTime::from_secs(7200))
        );
    }

    #[test]
    fn sliding_assigns_width_over_slide_windows() {
        let spec =
            WindowSpec::sliding(SimDuration::from_hours(1), SimDuration::from_minutes(15)).unwrap();
        // t = 3700s: windows sliding by 900s, width 3600s.
        let ids: Vec<u64> = spec.assign(SimTime::from_secs(3700)).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        for id in ids {
            let (start, end) = spec.bounds(id);
            assert!(start.as_secs() <= 3700 && 3700 < end.as_secs());
        }
        // Early timestamps clamp at window 0.
        assert_eq!(spec.assign(SimTime::from_secs(100)), 0..=0);
        assert_eq!(spec.assign(SimTime::from_secs(1000)), 0..=1);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(WindowSpec::tumbling(SimDuration::ZERO).is_err());
        assert!(WindowSpec::sliding(SimDuration::from_hours(1), SimDuration::ZERO).is_err());
        assert!(
            WindowSpec::sliding(SimDuration::from_minutes(10), SimDuration::from_hours(1)).is_err()
        );
    }
}
