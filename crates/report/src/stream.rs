//! Per-window reports for the streaming engine.
//!
//! A [`WindowReport`] is the finalized summary of one event-time window:
//! emitted once, when the low watermark passes the window's end (plus the
//! attribution slack). [`StreamSummary`] collects every emitted window
//! plus stream-level counters; its rendering is **deterministic** — no
//! wall-clock timestamps, no resume markers — so a killed-and-resumed run
//! and an uninterrupted one produce byte-identical report files, the
//! invariant the CI kill/resume step diffs for.

use core::fmt::Write as _;

use wearscope_core::snapshot::{Row, RowWriter, SnapshotError};

use crate::quality::DataQuality;

/// The finalized summary of one event-time window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowReport {
    /// Window index (`start = index * slide`).
    pub index: u64,
    /// Inclusive window start, in sim-seconds.
    pub start_secs: u64,
    /// Exclusive window end, in sim-seconds.
    pub end_secs: u64,
    /// Proxy records absorbed (all devices).
    pub proxy_records: u64,
    /// MME records absorbed.
    pub mme_records: u64,
    /// Wearable proxy transactions absorbed.
    pub wearable_tx: u64,
    /// Wearable proxy bytes absorbed.
    pub wearable_bytes: u64,
    /// Distinct users seen in the window (proxy side).
    pub users: u64,
    /// Wearable transactions attributed to an app.
    pub attributed: u64,
    /// Records that arrived after the watermark had passed their timestamp
    /// but within the allowed lateness, and were merged into this window.
    pub late_merged: u64,
    /// `true` if backpressure forced this window out before its watermark
    /// (drop-oldest policy) — its counts may be incomplete.
    pub forced: bool,
}

impl WindowReport {
    /// Human-readable one-liner, stable across runs.
    pub fn render_line(&self) -> String {
        format!(
            "window {:>6}  [{:>9}s, {:>9}s)  proxy={} mme={} users={} wtx={} wbytes={} attributed={} late={}{}",
            self.index,
            self.start_secs,
            self.end_secs,
            self.proxy_records,
            self.mme_records,
            self.users,
            self.wearable_tx,
            self.wearable_bytes,
            self.attributed,
            self.late_merged,
            if self.forced { "  [forced]" } else { "" },
        )
    }

    /// Machine-readable TSV line (the `--report` and checkpoint format),
    /// without its newline.
    pub fn to_tsv(&self) -> String {
        let mut line = String::new();
        RowWriter::new(&mut line)
            .put(self.index)
            .put(self.start_secs)
            .put(self.end_secs)
            .put(self.proxy_records)
            .put(self.mme_records)
            .put(self.wearable_tx)
            .put(self.wearable_bytes)
            .put(self.users)
            .put(self.attributed)
            .put(self.late_merged)
            .put(self.forced)
            .end();
        line.pop();
        line
    }

    /// Parses the fields of a line written by [`WindowReport::to_tsv`].
    ///
    /// # Errors
    /// Fails on a missing, malformed or extra field.
    pub fn from_tsv(mut row: Row<'_>) -> Result<WindowReport, SnapshotError> {
        let report = WindowReport {
            index: row.field()?,
            start_secs: row.field()?,
            end_secs: row.field()?,
            proxy_records: row.field()?,
            mme_records: row.field()?,
            wearable_tx: row.field()?,
            wearable_bytes: row.field()?,
            users: row.field()?,
            attributed: row.field()?,
            late_merged: row.field()?,
            forced: row.field()?,
        };
        row.end()?;
        Ok(report)
    }
}

/// End-of-stream summary: every emitted window in index order, plus
/// stream-level counters and the data-quality ledger.
#[derive(Clone, Debug, Default)]
pub struct StreamSummary {
    /// Emitted windows, ascending by index, gaps filled with empty windows.
    pub windows: Vec<WindowReport>,
    /// Seen/kept/quarantined ledger (same shape as the batch loader's).
    pub quality: DataQuality,
    /// Total late-but-within-lateness records merged across all windows.
    pub late_merged: u64,
    /// Final low watermark in sim-seconds (`None` for an empty stream).
    pub final_watermark_secs: Option<u64>,
}

impl StreamSummary {
    /// Windows emitted early by drop-oldest backpressure.
    fn forced(&self) -> usize {
        self.windows.iter().filter(|w| w.forced).count()
    }

    /// Full deterministic report: one line per window, then totals.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== stream windows ==\n");
        for w in &self.windows {
            out.push_str(&w.render_line());
            out.push('\n');
        }
        out.push_str("== stream summary ==\n");
        let _ = writeln!(
            out,
            "windows emitted: {} ({} forced)",
            self.windows.len(),
            self.forced()
        );
        let _ = writeln!(out, "late merged: {}", self.late_merged);
        match self.final_watermark_secs {
            Some(w) => {
                let _ = writeln!(out, "final watermark: {w}s");
            }
            None => {
                let _ = writeln!(out, "final watermark: none (empty stream)");
            }
        }
        let _ = writeln!(out, "quality: {}", self.quality.summary_line());
        out
    }

    /// One-line summary for log output.
    pub fn summary_line(&self) -> String {
        format!(
            "{} windows ({} forced), {} late merged, {}",
            self.windows.len(),
            self.forced(),
            self.late_merged,
            self.quality.summary_line()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WindowReport {
        WindowReport {
            index: 3,
            start_secs: 10800,
            end_secs: 14400,
            proxy_records: 120,
            mme_records: 44,
            wearable_tx: 17,
            wearable_bytes: 90210,
            users: 9,
            attributed: 11,
            late_merged: 2,
            forced: false,
        }
    }

    fn parse(line: &str) -> Result<WindowReport, String> {
        WindowReport::from_tsv(Row::new(line, 1)).map_err(|e| e.to_string())
    }

    #[test]
    fn tsv_roundtrip() {
        let w = sample();
        assert_eq!(
            w.to_tsv(),
            "3\t10800\t14400\t120\t44\t17\t90210\t9\t11\t2\t0"
        );
        assert_eq!(parse(&w.to_tsv()).unwrap(), w);
        let forced = WindowReport { forced: true, ..w };
        assert_eq!(parse(&forced.to_tsv()).unwrap(), forced);
    }

    #[test]
    fn tsv_rejects_malformed() {
        assert_eq!(
            parse("1\t2\t3").unwrap_err(),
            "snapshot line 1: missing field 4"
        );
        let w = sample().to_tsv().replace("120", "x");
        assert_eq!(
            parse(&w).unwrap_err(),
            "snapshot line 1: field 4: `x` is not a u64"
        );
        let flag = sample().to_tsv().replace("\t2\t0", "\t2\t2");
        assert_eq!(
            parse(&flag).unwrap_err(),
            "snapshot line 1: field 11: `2` is not a 0/1 flag"
        );
        let extra = format!("{}\t7", sample().to_tsv());
        assert_eq!(
            parse(&extra).unwrap_err(),
            "snapshot line 1: unexpected field 12 `7`"
        );
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let mut s = StreamSummary {
            late_merged: 2,
            final_watermark_secs: Some(14100),
            ..StreamSummary::default()
        };
        s.windows.push(sample());
        s.quality.records_seen = 164;
        s.quality.records_kept = 164;
        let a = s.render();
        let b = s.render();
        assert_eq!(a, b);
        assert!(a.contains("window      3"), "{a}");
        assert!(a.contains("windows emitted: 1 (0 forced)"), "{a}");
        assert!(a.contains("final watermark: 14100s"), "{a}");
        assert!(s.summary_line().contains("1 windows"));
    }

    #[test]
    fn forced_window_is_marked() {
        let w = WindowReport {
            forced: true,
            ..sample()
        };
        assert!(w.render_line().ends_with("[forced]"));
        // The summary counts the forced windows among its reports.
        let s = StreamSummary {
            windows: vec![sample(), w],
            ..StreamSummary::default()
        };
        assert!(s.render().contains("windows emitted: 2 (1 forced)"));
        assert!(s.summary_line().starts_with("2 windows (1 forced)"));
    }
}
