//! Progress accounting for the parallel log loader.
//!
//! The loader (`wearscope-ingest`) hands every worker a byte-range shard
//! of a log and collects one [`ShardProgress`] per shard; the
//! [`IngestReport`] aggregates them into the totals and the human-readable
//! summary printed by `wearscope analyze --workers N`.

use std::time::Duration;

use crate::quality::DataQuality;

/// Which log a shard came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardSource {
    /// A byte range of the persisted proxy TSV log.
    Proxy,
    /// A byte range of the persisted MME TSV log.
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

/// Per-shard progress counters, filled by the worker that processed it.
#[derive(Clone, Debug)]
pub struct ShardProgress {
    /// Shard index within its source (merge order).
    pub shard: usize,
    /// Which log the shard came from.
    pub source: ShardSource,
    /// Records successfully parsed/absorbed.
    pub records: u64,
    /// Bytes covered by the shard.
    pub bytes: u64,
    /// Lines that failed to parse.
    pub parse_errors: u64,
    /// Wall time the worker spent on this shard.
    pub wall: Duration,
}

/// The full ingest run: worker count, per-shard progress, data quality,
/// and wall time.
#[derive(Clone, Debug, Default)]
pub struct IngestReport {
    /// Workers the run used.
    pub workers: usize,
    /// One entry per shard, in merge (shard-index) order per source.
    pub shards: Vec<ShardProgress>,
    /// Records seen, kept and quarantined, and the error budget.
    pub quality: DataQuality,
    /// End-to-end wall time of the parallel section.
    pub wall: Duration,
}

impl IngestReport {
    /// Total records absorbed across all shards.
    pub fn records(&self) -> u64 {
        self.shards.iter().map(|s| s.records).sum()
    }

    /// Total bytes covered across all shards.
    pub fn bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes).sum()
    }

    /// Total parse errors across all shards.
    pub fn parse_errors(&self) -> u64 {
        self.shards.iter().map(|s| s.parse_errors).sum()
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
            self.shards.len(),
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

    fn shard(i: usize, records: u64, errors: u64) -> ShardProgress {
        ShardProgress {
            shard: i,
            source: ShardSource::Proxy,
            records,
            bytes: records * 50,
            parse_errors: errors,
            wall: Duration::from_millis(10),
        }
    }

    #[test]
    fn totals_sum_over_shards() {
        let report = IngestReport {
            workers: 4,
            shards: vec![shard(0, 100, 0), shard(1, 50, 2)],
            wall: Duration::from_millis(30),
            ..IngestReport::default()
        };
        assert_eq!(report.records(), 150);
        assert_eq!(report.bytes(), 7500);
        assert_eq!(report.parse_errors(), 2);
        assert!(report.records_per_sec() > 0.0);
        assert!(report.summary_line().contains("150 records"));
    }

    #[test]
    fn empty_report_is_benign() {
        let report = IngestReport::default();
        assert_eq!(report.records(), 0);
        assert_eq!(report.records_per_sec(), 0.0);
    }
}
