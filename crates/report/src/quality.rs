//! Data-quality accounting for quarantine-and-degrade ingestion.
//!
//! Operational cellular logs are never clean: truncated tails, bit flips,
//! duplicated or reordered records, devices missing from the TAC database.
//! Instead of failing the whole run on the first bad byte, the resilient
//! loader quarantines individual records with a typed
//! [`QuarantineReason`] and degrades gracefully; this module is the ledger
//! it reports against — how many records were seen, kept, and dropped per
//! reason, plus any shards that failed outright.

use core::fmt;

use wearscope_core::snapshot::Field;

use crate::table::Table;

/// Why one record was quarantined instead of analyzed.
///
/// Reasons are checked in a fixed order (parse first, then content), so a
/// record with several defects always gets the same reason regardless of
/// shard layout or worker count — the determinism contract of the
/// quarantine path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QuarantineReason {
    /// The line ended before the schema was complete (file truncation or a
    /// lost fragment).
    Truncated,
    /// A field failed to parse, the line had extra fields, or an escape
    /// sequence was malformed (bit flips, garbage lines).
    BadField,
    /// An exact copy of an earlier record in the same log.
    Duplicate,
    /// The record's timestamp regresses behind the log's high-water mark
    /// (logs are written time-sorted; regressions indicate corruption).
    OutOfOrder,
    /// The timestamp lies beyond the observation horizon (clock skew).
    Skewed,
    /// The IMEI is not a structurally valid device identity (Luhn check
    /// failure — a device the TAC database could never resolve).
    UnknownImei,
    /// An MME record names a sector the cell plan (`sectors.tsv`) does
    /// not have.
    UnknownSector,
}

impl QuarantineReason {
    /// Every reason: the parse faults, then the content faults (new
    /// reasons go last, so per-reason rows keep their columns).
    pub const ALL: [QuarantineReason; 7] = [
        QuarantineReason::Truncated,
        QuarantineReason::BadField,
        QuarantineReason::Duplicate,
        QuarantineReason::OutOfOrder,
        QuarantineReason::Skewed,
        QuarantineReason::UnknownImei,
        QuarantineReason::UnknownSector,
    ];

    /// Stable lowercase label (used in `quarantine.log` and tables).
    pub fn name(self) -> &'static str {
        match self {
            QuarantineReason::Truncated => "truncated",
            QuarantineReason::BadField => "bad-field",
            QuarantineReason::Duplicate => "duplicate",
            QuarantineReason::OutOfOrder => "out-of-order",
            QuarantineReason::Skewed => "skewed",
            QuarantineReason::UnknownImei => "unknown-imei",
            QuarantineReason::UnknownSector => "unknown-sector",
        }
    }

    fn index(self) -> usize {
        match self {
            QuarantineReason::Truncated => 0,
            QuarantineReason::BadField => 1,
            QuarantineReason::Duplicate => 2,
            QuarantineReason::OutOfOrder => 3,
            QuarantineReason::Skewed => 4,
            QuarantineReason::UnknownImei => 5,
            QuarantineReason::UnknownSector => 6,
        }
    }
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A reason as its [`name`](QuarantineReason::name), in checkpoints.
impl Field for QuarantineReason {
    fn write(&self, out: &mut String) {
        out.push_str(self.name());
    }

    fn parse(s: &str) -> Result<Self, String> {
        QuarantineReason::ALL
            .into_iter()
            .find(|r| r.name() == s)
            .ok_or_else(|| format!("`{s}` is not a quarantine reason"))
    }
}

/// Per-reason quarantine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuarantineCounts {
    counts: [u64; QuarantineReason::ALL.len()],
}

impl QuarantineCounts {
    /// Records one quarantined record.
    pub fn note(&mut self, reason: QuarantineReason) {
        self.add(reason, 1);
    }

    /// Records `n` quarantined records.
    pub fn add(&mut self, reason: QuarantineReason, n: u64) {
        self.counts[reason.index()] += n;
    }

    /// Count for one reason.
    pub fn get(&self, reason: QuarantineReason) -> u64 {
        self.counts[reason.index()]
    }

    /// Total quarantined records across all reasons.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `true` when nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Adds another counter set (e.g. the other log's).
    pub fn merge(&mut self, other: &QuarantineCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

/// The data-quality section of an ingest run: records seen vs kept, and
/// quarantine counts by reason.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DataQuality {
    /// Non-blank log lines considered (kept + quarantined).
    pub records_seen: u64,
    /// Records that survived parse + validation and reached the analysis.
    pub records_kept: u64,
    /// Quarantined records by reason.
    pub quarantined: QuarantineCounts,
}

impl DataQuality {
    /// Fraction of seen records that were quarantined (0 for an empty run).
    pub fn quarantine_rate(&self) -> f64 {
        if self.records_seen == 0 {
            0.0
        } else {
            self.quarantined.total() as f64 / self.records_seen as f64
        }
    }

    /// Lines that failed to decode: the `truncated` and `bad-field`
    /// quarantines. The content checks never use those two reasons.
    pub fn malformed(&self) -> u64 {
        self.quarantined.get(QuarantineReason::Truncated)
            + self.quarantined.get(QuarantineReason::BadField)
    }

    /// Coverage: fraction of seen records kept (1 for an empty run).
    pub fn coverage(&self) -> f64 {
        if self.records_seen == 0 {
            1.0
        } else {
            self.records_kept as f64 / self.records_seen as f64
        }
    }

    /// Folds another quality section into this one (load + compute phases,
    /// or per-source sections).
    pub fn merge(&mut self, other: &DataQuality) {
        self.records_seen += other.records_seen;
        self.records_kept += other.records_kept;
        self.quarantined.merge(&other.quarantined);
    }

    /// One-line summary for log output.
    pub fn summary_line(&self) -> String {
        if self.quarantined.is_empty() {
            format!("kept all {} records (clean)", self.records_kept)
        } else {
            let mut by_reason: Vec<String> = Vec::new();
            for reason in QuarantineReason::ALL {
                let n = self.quarantined.get(reason);
                if n > 0 {
                    by_reason.push(format!("{n} {reason}"));
                }
            }
            format!(
                "kept {}/{} records ({:.2}% quarantined: {})",
                self.records_kept,
                self.records_seen,
                self.quarantine_rate() * 100.0,
                by_reason.join(", "),
            )
        }
    }

    /// Per-reason table for verbose output: one row per reason that
    /// quarantined records, then the kept row.
    pub fn render_table(&self) -> String {
        let mut t = Table::new(vec!["reason", "records", "share of seen"]);
        for reason in QuarantineReason::ALL {
            let n = self.quarantined.get(reason);
            if n == 0 {
                continue;
            }
            let share = if self.records_seen == 0 {
                0.0
            } else {
                n as f64 / self.records_seen as f64
            };
            t.row(vec![
                reason.name().into(),
                n.to_string(),
                format!("{:.4}%", share * 100.0),
            ]);
        }
        t.row(vec![
            "kept".into(),
            self.records_kept.to_string(),
            format!("{:.4}%", self.coverage() * 100.0),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_note_and_merge() {
        let mut a = QuarantineCounts::default();
        a.note(QuarantineReason::Truncated);
        a.note(QuarantineReason::Duplicate);
        a.note(QuarantineReason::Duplicate);
        let mut b = QuarantineCounts::default();
        b.note(QuarantineReason::UnknownImei);
        a.merge(&b);
        assert_eq!(a.get(QuarantineReason::Truncated), 1);
        assert_eq!(a.get(QuarantineReason::Duplicate), 2);
        assert_eq!(a.get(QuarantineReason::UnknownImei), 1);
        assert_eq!(a.total(), 4);
        assert!(!a.is_empty());
        assert!(QuarantineCounts::default().is_empty());
    }

    #[test]
    fn quality_rates_and_summary() {
        let mut q = DataQuality {
            records_seen: 1000,
            records_kept: 990,
            ..DataQuality::default()
        };
        for _ in 0..7 {
            q.quarantined.note(QuarantineReason::BadField);
        }
        for _ in 0..3 {
            q.quarantined.note(QuarantineReason::OutOfOrder);
        }
        assert!((q.quarantine_rate() - 0.01).abs() < 1e-12);
        assert_eq!(q.malformed(), 7);
        assert!((q.coverage() - 0.99).abs() < 1e-12);
        let line = q.summary_line();
        assert!(line.contains("990/1000"), "{line}");
        assert!(line.contains("7 bad-field"), "{line}");
        let table = q.render_table();
        assert!(table.contains("out-of-order"), "{table}");
        // Reasons that quarantined nothing get no row.
        assert!(!table.contains("skewed"), "{table}");
    }

    #[test]
    fn empty_quality_is_benign() {
        let q = DataQuality::default();
        assert_eq!(q.quarantine_rate(), 0.0);
        assert_eq!(q.coverage(), 1.0);
        assert!(q.summary_line().contains("clean"));
    }

    #[test]
    fn merge_folds_sections() {
        let mut a = DataQuality {
            records_seen: 10,
            records_kept: 9,
            ..DataQuality::default()
        };
        a.quarantined.note(QuarantineReason::Skewed);
        let mut b = DataQuality {
            records_seen: 5,
            records_kept: 4,
            ..DataQuality::default()
        };
        b.quarantined.note(QuarantineReason::Truncated);
        a.merge(&b);
        assert_eq!(a.records_seen, 15);
        assert_eq!(a.records_kept, 13);
        assert_eq!(a.quarantined.total(), 2);
    }

    #[test]
    fn reason_labels_are_stable() {
        // quarantine.log is a machine-readable artifact; its labels are API.
        let labels: Vec<&str> = QuarantineReason::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(
            labels,
            vec![
                "truncated",
                "bad-field",
                "duplicate",
                "out-of-order",
                "skewed",
                "unknown-imei",
                "unknown-sector"
            ]
        );
    }
}
