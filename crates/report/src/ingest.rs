//! The loader's run report.
//!
//! The loader (`wearscope-ingest`) cuts each log into byte-range chunks
//! and books every line in its log's ledger; the [`IngestReport`] carries
//! the ledgers' merged counts, the worker and chunk counts and the wall
//! time, and renders the `load:` line `wearscope analyze` prints.

use std::time::Duration;

use crate::quality::DataQuality;

/// Which log a chunk or a quarantined record came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardSource {
    /// The persisted proxy TSV log.
    Proxy,
    /// The persisted MME TSV log.
    Mme,
}

impl ShardSource {
    /// Short label for tables.
    pub fn name(self) -> &'static str {
        match self {
            ShardSource::Proxy => "proxy",
            ShardSource::Mme => "mme",
        }
    }
}

/// The full ingest run: worker and chunk counts, data quality, and wall
/// time.
#[derive(Clone, Debug, Default)]
pub struct IngestReport {
    /// Workers the run used.
    pub workers: usize,
    /// Chunks the two logs were cut into.
    pub shards: usize,
    /// Records seen, kept and quarantined: both logs' ledgers, merged.
    pub quality: DataQuality,
    /// End-to-end wall time of the parallel section.
    pub wall: Duration,
}

impl IngestReport {
    /// Records parsed: the lines seen that did not fail to decode.
    pub fn records(&self) -> u64 {
        self.quality.records_seen - self.parse_errors()
    }

    /// Lines that failed to decode.
    pub fn parse_errors(&self) -> u64 {
        self.quality.malformed()
    }

    /// Records per second of wall time (0 for an instantaneous run).
    pub fn records_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.records() as f64 / secs
        } else {
            0.0
        }
    }

    /// One-line summary for log output.
    pub fn summary_line(&self) -> String {
        format!(
            "ingested {} records in {} shards with {} workers in {:.1?} ({:.0} records/s, {} parse errors)",
            self.records(),
            self.shards,
            self.workers,
            self.wall,
            self.records_per_sec(),
            self.parse_errors(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::QuarantineReason;

    #[test]
    fn parsed_records_are_the_lines_seen_less_the_malformed_ones() {
        let mut quality = DataQuality {
            records_seen: 152,
            records_kept: 148,
            ..DataQuality::default()
        };
        quality.quarantined.note(QuarantineReason::Truncated);
        quality.quarantined.note(QuarantineReason::BadField);
        quality.quarantined.note(QuarantineReason::Duplicate);
        quality.quarantined.note(QuarantineReason::Skewed);
        let report = IngestReport {
            workers: 4,
            shards: 2,
            quality,
            wall: Duration::from_millis(30),
        };
        assert_eq!(report.records(), 150);
        assert_eq!(report.parse_errors(), 2);
        assert!(report.records_per_sec() > 0.0);
        let line = report.summary_line();
        assert!(line.contains("150 records in 2 shards"), "{line}");
        assert!(line.contains("2 parse errors"), "{line}");
    }

    #[test]
    fn empty_report_is_benign() {
        let report = IngestReport::default();
        assert_eq!(report.records(), 0);
        assert_eq!(report.records_per_sec(), 0.0);
    }
}
