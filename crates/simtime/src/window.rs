//! The paper's nested observation windows.

use std::io;
use std::path::Path;

use crate::calendar::Calendar;
use crate::range::TimeRange;
use crate::time::SimTime;
use crate::SECS_PER_DAY;

/// The study layout: a long *summary* window with a shorter *detailed* window
/// at its tail, exactly as in the paper (five months of summary statistics,
/// detailed MME + proxy logs for the final seven weeks).
///
/// # Examples
/// ```
/// use wearscope_simtime::ObservationWindow;
/// let w = ObservationWindow::paper();
/// assert_eq!(w.summary().num_days(), 151);
/// assert_eq!(w.detailed().num_whole_weeks(), 7);
/// assert!(w.summary().contains(w.detailed().start()));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObservationWindow {
    summary: TimeRange,
    detailed: TimeRange,
    calendar: Calendar,
}

impl ObservationWindow {
    /// The longest summary window a world's `manifest.tsv` may declare:
    /// 100 years of days. The analyses size per-day tables by the summary
    /// window (Fig. 2(a)'s adoption trend has one slot per day), so a
    /// larger count would be an allocation abort, not a report.
    pub const MAX_MANIFEST_DAYS: u64 = 36_525;

    /// The paper's layout: 151 summary days (~5 months), with the last
    /// 49 days (7 weeks) retained in detail. Day 0 is a Friday.
    pub fn paper() -> ObservationWindow {
        ObservationWindow::new(151, 49, Calendar::PAPER)
    }

    /// A compact layout for tests and benches: 6 summary weeks with the last
    /// 2 weeks detailed.
    pub fn compact() -> ObservationWindow {
        ObservationWindow::new(42, 14, Calendar::PAPER)
    }

    /// A window of `summary_days` total days whose final `detailed_days` days
    /// keep detailed logs.
    ///
    /// # Panics
    /// Panics if either window is empty, `detailed_days > summary_days`,
    /// or the summary window's seconds overflow a `u64`.
    pub fn new(summary_days: u64, detailed_days: u64, calendar: Calendar) -> ObservationWindow {
        ObservationWindow::checked(summary_days, detailed_days, calendar)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ObservationWindow::new`] for day counts that come from outside
    /// the program: the layouts `new` panics on are errors.
    fn checked(
        summary_days: u64,
        detailed_days: u64,
        calendar: Calendar,
    ) -> Result<ObservationWindow, String> {
        if summary_days == 0 {
            return Err("summary window must be non-empty".into());
        }
        if detailed_days == 0 {
            return Err("detailed window must be non-empty".into());
        }
        if detailed_days > summary_days {
            return Err(format!(
                "detailed window ({detailed_days}d) exceeds summary window ({summary_days}d)"
            ));
        }
        if summary_days.checked_mul(SECS_PER_DAY).is_none() {
            return Err(format!(
                "a summary window of {summary_days} days overflows the clock"
            ));
        }
        let summary = TimeRange::first_days(summary_days);
        let detailed = TimeRange::new(
            SimTime::from_days(summary_days - detailed_days),
            SimTime::from_days(summary_days),
        );
        Ok(ObservationWindow {
            summary,
            detailed,
            calendar,
        })
    }

    /// [`ObservationWindow::read_manifest`] on the file's text.
    fn from_manifest(text: &str) -> Result<ObservationWindow, String> {
        let (mut summary, mut detailed) = (None, None);
        for line in text.lines() {
            let Some((key, value)) = line.split_once('\t') else {
                continue;
            };
            let slot = match key {
                "summary_days" => &mut summary,
                "detailed_days" => &mut detailed,
                _ => continue,
            };
            let days = value.trim().parse::<u64>();
            *slot = Some(days.map_err(|_| format!("bad {key} `{value}`"))?);
        }
        let (Some(summary), Some(detailed)) = (summary, detailed) else {
            return Err("missing window layout".into());
        };
        let window = ObservationWindow::checked(summary, detailed, Calendar::PAPER)?;
        if summary > Self::MAX_MANIFEST_DAYS {
            return Err(format!(
                "a summary window of {summary} days is longer than the {} a manifest may declare",
                Self::MAX_MANIFEST_DAYS
            ));
        }
        Ok(window)
    }

    /// The window the world under `dir` declares in its `manifest.tsv`:
    /// `summary_days` and `detailed_days` lines (`key<TAB>value`), on the
    /// paper's calendar. Other keys are ignored.
    ///
    /// # Errors
    /// The file cannot be read, a day count is missing or not a number,
    /// the layout is one [`ObservationWindow::new`] panics on, or the
    /// summary window is longer than
    /// [`MAX_MANIFEST_DAYS`](ObservationWindow::MAX_MANIFEST_DAYS); the
    /// message names `manifest.tsv`.
    pub fn read_manifest(dir: &Path) -> io::Result<ObservationWindow> {
        let named =
            |kind, message: String| io::Error::new(kind, format!("manifest.tsv: {message}"));
        let text = std::fs::read_to_string(dir.join("manifest.tsv"))
            .map_err(|e| named(e.kind(), e.to_string()))?;
        ObservationWindow::from_manifest(&text).map_err(|m| named(io::ErrorKind::InvalidData, m))
    }

    /// The full summary window.
    #[inline]
    pub fn summary(&self) -> TimeRange {
        self.summary
    }

    /// The detailed tail window.
    #[inline]
    pub fn detailed(&self) -> TimeRange {
        self.detailed
    }

    /// The calendar anchoring weekdays.
    #[inline]
    pub fn calendar(&self) -> Calendar {
        self.calendar
    }

    /// The last 7 days of the summary window (the "last week" cohort of
    /// Fig. 2(b)).
    pub fn last_week(&self) -> TimeRange {
        TimeRange::new(
            self.summary.end() - crate::SimDuration::from_days(7),
            self.summary.end(),
        )
    }

    /// `true` if instant `t` falls in the detailed window.
    #[inline]
    pub fn in_detail(&self, t: SimTime) -> bool {
        self.detailed.contains(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Weekday;

    #[test]
    fn paper_layout() {
        let w = ObservationWindow::paper();
        assert_eq!(w.summary().num_days(), 151);
        assert_eq!(w.detailed().num_days(), 49);
        assert_eq!(w.detailed().end(), w.summary().end());
        assert_eq!(w.calendar().day0(), Weekday::Friday);
    }

    #[test]
    fn detailed_is_suffix_of_summary() {
        let w = ObservationWindow::new(30, 10, Calendar::PAPER);
        assert_eq!(w.detailed().start(), SimTime::from_days(20));
        assert_eq!(w.detailed().end(), SimTime::from_days(30));
        assert!(w.summary().start() <= w.detailed().start());
        assert_eq!(w.summary().end(), w.detailed().end());
    }

    #[test]
    fn last_week_ends_the_summary() {
        let w = ObservationWindow::new(30, 10, Calendar::PAPER);
        assert_eq!(w.last_week().end(), SimTime::from_days(30));
        assert_eq!(w.last_week().num_days(), 7);
    }

    #[test]
    fn in_detail_respects_bounds() {
        let w = ObservationWindow::new(30, 10, Calendar::PAPER);
        assert!(!w.in_detail(SimTime::from_days(19)));
        assert!(w.in_detail(SimTime::from_days(20)));
        assert!(w.in_detail(SimTime::from_days(29)));
        assert!(!w.in_detail(SimTime::from_days(30)));
    }

    #[test]
    #[should_panic(expected = "exceeds summary window")]
    fn detailed_longer_than_summary_panics() {
        let _ = ObservationWindow::new(10, 20, Calendar::PAPER);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_summary_panics() {
        let _ = ObservationWindow::new(0, 0, Calendar::PAPER);
    }

    #[test]
    fn checked_rejects_each_bad_layout() {
        let checked = |s, d| ObservationWindow::checked(s, d, Calendar::PAPER);
        let too_long = u64::MAX / SECS_PER_DAY + 1;
        for (s, d, want) in [
            (0, 0, "summary window must be non-empty".to_string()),
            (7, 0, "detailed window must be non-empty".into()),
            (
                5,
                7,
                "detailed window (7d) exceeds summary window (5d)".into(),
            ),
            (
                too_long,
                7,
                format!("a summary window of {too_long} days overflows the clock"),
            ),
        ] {
            assert_eq!(checked(s, d), Err(want));
        }
        let longest = checked(too_long - 1, 7).unwrap();
        assert_eq!(longest.summary().num_days(), too_long - 1);
        assert_eq!(
            checked(30, 10),
            Ok(ObservationWindow::new(30, 10, Calendar::PAPER))
        );
    }

    #[test]
    fn manifest_parses_and_rejects_bad_layouts() {
        let parse = ObservationWindow::from_manifest;
        assert_eq!(
            parse("seed\t7\nsummary_days\t42\ndetailed_days\t14\n"),
            Ok(ObservationWindow::new(42, 14, Calendar::PAPER))
        );
        assert_eq!(
            parse("summary_days\t36525\ndetailed_days\t7\n"),
            Ok(ObservationWindow::new(36_525, 7, Calendar::PAPER))
        );
        let cases = [
            ("seed\t7\n", "missing window layout"),
            ("summary_days\t42\n", "missing window layout"),
            (
                "summary_days\tx\ndetailed_days\t7\n",
                "bad summary_days `x`",
            ),
            (
                "summary_days\t0\ndetailed_days\t7\n",
                "summary window must be non-empty",
            ),
            (
                "summary_days\t7\ndetailed_days\t0\n",
                "detailed window must be non-empty",
            ),
            (
                "summary_days\t5\ndetailed_days\t7\n",
                "detailed window (7d) exceeds summary window (5d)",
            ),
            (
                "summary_days\t18446744073709551615\ndetailed_days\t7\n",
                "a summary window of 18446744073709551615 days overflows the clock",
            ),
            (
                "summary_days\t36526\ndetailed_days\t7\n",
                "a summary window of 36526 days is longer than the 36525 a manifest may declare",
            ),
            (
                "summary_days\t1000000000000\ndetailed_days\t7\n",
                "a summary window of 1000000000000 days is longer than the 36525 a manifest may \
                 declare",
            ),
        ];
        for (text, want) in cases {
            assert_eq!(parse(text), Err(want.to_string()), "{text:?}");
        }
    }

    #[test]
    fn read_manifest_names_the_file() {
        let dir = std::env::temp_dir().join(format!("wearscope-manifest-{}", std::process::id()));
        let missing = ObservationWindow::read_manifest(&dir).unwrap_err();
        assert!(
            missing.to_string().starts_with("manifest.tsv: "),
            "{missing}"
        );
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("manifest.tsv"),
            "summary_days\t5\ndetailed_days\t7\n",
        )
        .unwrap();
        let err = ObservationWindow::read_manifest(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "manifest.tsv: detailed window (7d) exceeds summary window (5d)"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
