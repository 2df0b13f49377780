//! Quarantine-and-degrade record validation.
//!
//! Per-record defects are quarantined — written to `quarantine.log` with a
//! typed [`QuarantineReason`] — instead of aborting the load. Two layers:
//!
//! * **Parse faults** (chunk-local): malformed lines collected by the
//!   parse workers, mapped to `Truncated`/`BadField` by
//!   [`reason_for_codec`].
//! * **Content faults**: duplicates, timestamp regressions, clock skew,
//!   structurally invalid IMEIs and sectors outside the cell plan, decided
//!   one record at a time by a [`RecordValidator`] per log. The batch
//!   pipeline feeds it each log's records **in file order** on the calling
//!   thread, so every quarantine decision is independent of worker count
//!   and chunk layout — the
//!   determinism contract the `ingest_determinism` proptests pin down. The
//!   streaming runtime feeds the same validator in arrival order.

use std::collections::{vec_deque, VecDeque};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use wearscope_core::hash::HashSet;
use wearscope_core::snapshot::{RowWriter, SnapshotError, SnapshotReader};
use wearscope_devicedb::Imei;
use wearscope_geo::SectorDirectory;
use wearscope_obs::Registry;
use wearscope_report::{DataQuality, QuarantineReason, ShardSource};
use wearscope_simtime::{ObservationWindow, SimDuration, SimTime};
use wearscope_trace::{CodecError, MmeRecord, ProxyRecord};

use crate::error::IngestError;

/// Knobs for the resilient loader.
#[derive(Clone, Debug)]
pub struct IngestOptions {
    /// Abort when a log's quarantined fraction exceeds this budget
    /// (`--max-error-rate`; default 1%).
    pub max_error_rate: f64,
    /// Horizon for the clock-skew check: records stamped after this are
    /// quarantined as `Skewed`. `None` disables the check.
    pub max_timestamp: Option<SimTime>,
    /// Sectors in the world's cell plan: an MME record naming a sector
    /// outside it is quarantined as `UnknownSector`. `None` disables the
    /// check.
    pub sector_count: Option<u32>,
    /// Where to write `quarantine.log` (`None` = don't write).
    pub quarantine_log: Option<PathBuf>,
    /// Registry the load reports into: records seen/kept/quarantined per
    /// reason and bytes read (deterministic section), per-shard read times
    /// and retry counts (timing section). A fresh, unobserved registry by
    /// default, so callers that don't care pay only a few atomic adds.
    pub metrics: Registry,
}

/// The default `--max-error-rate`: abort above 1% quarantined.
pub const DEFAULT_MAX_ERROR_RATE: f64 = 0.01;

impl Default for IngestOptions {
    fn default() -> IngestOptions {
        IngestOptions {
            max_error_rate: DEFAULT_MAX_ERROR_RATE,
            max_timestamp: None,
            sector_count: None,
            quarantine_log: None,
            metrics: Registry::new(),
        }
    }
}

impl IngestOptions {
    /// Options for analyzing the world under `dir` whose metadata is
    /// already parsed: quarantine log beside the data, a skew horizon of
    /// the `window`'s summary end plus 2 days of slack, and the sector
    /// count of the cell plan `sectors`. A `None` disables its check.
    pub fn from_metadata(
        dir: &Path,
        window: Option<ObservationWindow>,
        sectors: Option<&SectorDirectory>,
    ) -> IngestOptions {
        IngestOptions {
            quarantine_log: Some(dir.join("quarantine.log")),
            max_timestamp: window
                .map(|w| w.summary().end().saturating_add(SimDuration::from_days(2))),
            sector_count: sectors.and_then(|p| u32::try_from(p.len()).ok()),
            ..IngestOptions::default()
        }
    }

    /// [`IngestOptions::from_metadata`] over the world's `manifest.tsv`
    /// and `sectors.tsv`, each read here; a file that does not parse
    /// disables its check.
    pub fn for_world(dir: &Path) -> IngestOptions {
        let window = ObservationWindow::read_manifest(dir).ok();
        let plan = File::open(dir.join("sectors.tsv"))
            .and_then(|f| SectorDirectory::read_tsv(BufReader::new(f)))
            .ok();
        IngestOptions::from_metadata(dir, window, plan.as_ref())
    }

    /// Same options with a different error budget.
    pub fn with_max_error_rate(mut self, rate: f64) -> IngestOptions {
        self.max_error_rate = rate;
        self
    }

    /// Same options reporting into `metrics` instead of a private registry.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Registry) -> IngestOptions {
        self.metrics = metrics;
        self
    }
}

/// Maps a shard reader's line-level decode failure to its quarantine
/// reason: too few fields means the record was cut short; everything else
/// is content damage within the line.
pub fn reason_for_codec(error: &CodecError) -> QuarantineReason {
    match error {
        CodecError::MissingField { .. } => QuarantineReason::Truncated,
        CodecError::BadField { .. }
        | CodecError::TrailingFields { .. }
        | CodecError::BadEscape
        | CodecError::InvalidUtf8 => QuarantineReason::BadField,
    }
}

/// Where in its log a quarantined record sat: a physical line (parse
/// faults) or a record index in file order (content faults).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Position {
    /// 1-based global line number.
    Line(u64),
    /// 0-based record index among successfully parsed records.
    Record(u64),
}

impl core::fmt::Display for Position {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Position::Line(n) => write!(f, "line:{n}"),
            Position::Record(n) => write!(f, "record:{n}"),
        }
    }
}

/// One log's record ledger, the only one batch and stream keep: the
/// log's [`RecordValidator`], the lines seen and records kept, the
/// parsed-record index behind `record:N`, the quarantine counts by reason,
/// the log's first malformed line and first rejected record, and its
/// high-water mark. Kept plus quarantined is always seen.
///
/// `quarantine.log` lists a log's malformed lines before its rejected
/// records, so the first malformed line, if there is one, is the log's
/// first entry: the one the `--max-error-rate` error names.
#[derive(Clone, Debug)]
pub struct LogLedger<R> {
    pub(crate) source: ShardSource,
    /// The log's content checks (a resumed run restores their duplicate
    /// memory here).
    pub validator: RecordValidator<R>,
    /// Lines seen (parsed records plus malformed lines), records kept and
    /// quarantines by reason; no budget.
    quality: DataQuality,
    /// Records parsed so far: the next record's `record:N` index.
    pub(crate) records: u64,
    /// The first malformed line's 1-based number, and its reason.
    first_malformed: Option<(u64, QuarantineReason)>,
    /// The first rejected record's index, and its reason.
    first_rejected: Option<(u64, QuarantineReason)>,
    /// The newest timestamp among the records kept: the watermark batch
    /// checks the log's next record against.
    high_water: SimTime,
}

impl<R: LogRecord> LogLedger<R> {
    /// An empty ledger for `source` that judges records with `validator`.
    pub fn new(source: ShardSource, validator: RecordValidator<R>) -> LogLedger<R> {
        LogLedger {
            source,
            validator,
            quality: DataQuality::default(),
            records: 0,
            first_malformed: None,
            first_rejected: None,
            high_water: SimTime::EPOCH,
        }
    }

    /// The newest timestamp among the records kept so far.
    pub fn high_water(&self) -> SimTime {
        self.high_water
    }

    /// Books the line at 1-based `line`, which failed to decode.
    pub fn malformed(&mut self, line: u64, reason: QuarantineReason) {
        self.quality.records_seen += 1;
        self.quality.quarantined.note(reason);
        self.first_malformed.get_or_insert((line, reason));
    }

    /// Judges the log's next parsed record as [`RecordValidator::check`]
    /// does, and books the verdict.
    ///
    /// # Errors
    /// The [`Rejection`] of a quarantined record.
    pub fn check(
        &mut self,
        record: &R,
        watermark: SimTime,
        sealed: bool,
    ) -> Result<Imei, Rejection> {
        let verdict = self.validator.check(record, watermark, sealed);
        match &verdict {
            Ok(_) => {
                self.quality.records_kept += 1;
                self.high_water = self.high_water.max(record.timestamp());
            }
            Err(rejection) => {
                self.quality.quarantined.note(rejection.reason);
                self.first_rejected
                    .get_or_insert((self.records, rejection.reason));
            }
        }
        self.quality.records_seen += 1;
        self.records += 1;
        verdict
    }

    /// The `--max-error-rate` rule, applied when the run ends: at most
    /// `budget` of the lines seen may be quarantined. The error names the
    /// log's first `quarantine.log` entry, as in `proxy line:12 bad-field`
    /// or `mme record:0 skewed`.
    ///
    /// # Errors
    /// [`IngestError::ErrorBudget`] when more than `budget` of the lines
    /// seen were quarantined.
    pub fn check_budget(&self, budget: f64) -> Result<(), IngestError> {
        let (seen, quarantined) = (self.quality.records_seen, self.quality.quarantined.total());
        if seen == 0 || quarantined as f64 / seen as f64 <= budget {
            return Ok(());
        }
        let first = match (self.first_malformed, self.first_rejected) {
            (Some((line, reason)), _) => Some((Position::Line(line), reason)),
            (None, Some((index, reason))) => Some((Position::Record(index), reason)),
            (None, None) => None,
        };
        Err(IngestError::ErrorBudget {
            source: self.source,
            first: first.map_or_else(String::new, |(position, reason)| {
                format!("{} {position} {reason}", self.source.name())
            }),
            quarantined,
            seen,
            budget,
        })
    }

    /// This log's part of a run's [`DataQuality`], with no budget set.
    pub fn quality(&self) -> DataQuality {
        self.quality
    }

    /// Writes the ledger's counts as one checkpoint row tagged `tag`:
    /// seen, kept, the next record index, one count per reason in
    /// [`QuarantineReason::ALL`] order, the first malformed line and the
    /// first rejected record as `N:reason`, or `-`, then the high-water
    /// mark.
    pub fn snapshot_row(&self, out: &mut String, tag: &str) {
        let q = &self.quality;
        let mut row = RowWriter::tagged(out, tag)
            .put(q.records_seen)
            .put(q.records_kept)
            .put(self.records);
        for reason in QuarantineReason::ALL {
            row = row.put(q.quarantined.get(reason));
        }
        row.put(self.first_malformed)
            .put(self.first_rejected)
            .put(self.high_water)
            .end();
    }

    /// Reads a row [`snapshot_row`](Self::snapshot_row) wrote into this
    /// ledger, whose validator it keeps.
    ///
    /// # Errors
    /// A bad or missing field, or kept plus quarantined not adding up to
    /// seen.
    pub fn restore_row(
        &mut self,
        r: &mut SnapshotReader<'_>,
        tag: &str,
    ) -> Result<(), SnapshotError> {
        let mut row = r.tagged(tag)?;
        let q = &mut self.quality;
        *q = DataQuality::default();
        q.records_seen = row.field()?;
        q.records_kept = row.field()?;
        self.records = row.field()?;
        let mut accounted = Some(q.records_kept);
        for reason in QuarantineReason::ALL {
            let n = row.field()?;
            q.quarantined.add(reason, n);
            accounted = accounted.and_then(|a| a.checked_add(n));
        }
        self.first_malformed = row.field()?;
        self.first_rejected = row.field()?;
        self.high_water = row.field()?;
        if accounted != Some(q.records_seen) {
            return Err(row.err("records kept and quarantined do not add up to records seen"));
        }
        row.end()
    }
}

/// One `quarantine.log` entry.
#[derive(Clone, Debug)]
pub(crate) struct QuarantineEntry {
    pub source: ShardSource,
    pub position: Position,
    pub reason: QuarantineReason,
    pub detail: String,
}

// One record per line: `source \t position \t reason \t detail` —
// grep-friendly and stable across worker counts.
impl core::fmt::Display for QuarantineEntry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}\t{}\t{}\t{}",
            self.source.name(),
            self.position,
            self.reason,
            self.detail
        )
    }
}

/// A log record the content checks can judge: exact equality for the
/// duplicate check, plus the fields the other checks read. Records are
/// small `Copy` values, so the duplicate memory holds copies.
pub trait LogRecord: std::hash::Hash + Eq + Copy {
    /// Event timestamp.
    fn timestamp(&self) -> SimTime;
    /// Raw IMEI field.
    fn imei(&self) -> u64;
    /// The cell-plan sector the record names, if its log names one.
    fn sector(&self) -> Option<u32> {
        None
    }
}

impl LogRecord for ProxyRecord {
    fn timestamp(&self) -> SimTime {
        self.timestamp
    }
    fn imei(&self) -> u64 {
        self.imei
    }
}

impl LogRecord for MmeRecord {
    fn timestamp(&self) -> SimTime {
        self.timestamp
    }
    fn imei(&self) -> u64 {
        self.imei
    }
    fn sector(&self) -> Option<u32> {
        Some(self.sector)
    }
}

/// Why [`RecordValidator::check`] refused a record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rejection {
    /// The quarantine reason.
    pub reason: QuarantineReason,
    /// The `quarantine.log` detail text.
    pub detail: String,
}

/// The content checks for one log, shared by the batch loader and the
/// streaming runtime.
///
/// The caller supplies the watermark, which must never decrease: batch
/// passes its log's own high-water mark (the newest kept timestamp),
/// stream passes `max_event − lateness` over the merged pair of logs.
/// Quarantined records change no state, so one skewed timestamp cannot
/// cascade into quarantining the rest of the log.
///
/// The duplicate memory holds the kept records at or after the
/// watermark, by time, then arrival within a second. A record that passes
/// the watermark check can only equal one of its own second, so
/// [`check`](RecordValidator::check) looks for a copy only there and
/// forgets the records behind the watermark: batch holds about one
/// second of records, stream its lateness span. A second of 32 or more
/// records is also indexed by a hash set, so a long run is not scanned
/// once per record.
///
/// A small direct-mapped memo keeps IMEIs that passed the Luhn check, so
/// a device's records are checked once while its slot holds it.
#[derive(Clone, Debug)]
pub struct RecordValidator<R> {
    /// Clock-skew horizon: records stamped after it are `Skewed`.
    horizon: Option<SimTime>,
    /// Cell-plan size: a record naming a sector at or past it is
    /// `UnknownSector`.
    sector_count: Option<u32>,
    /// Remembered records, by time, then arrival within a second.
    memory: VecDeque<R>,
    /// The remembered records of the seconds with at least 32 of them.
    indexed: HashSet<R>,
    /// IMEIs that passed the check, each in the slot [`imei_slot`] picks.
    checked: Box<[Option<Imei>; IMEI_MEMO]>,
}

/// The run length of one second at which its records are indexed.
const INDEX_RUN: usize = 32;

/// Slots in the memo of checked IMEIs.
const IMEI_MEMO: usize = 1024;

/// A raw IMEI's memo slot: the top bits of a multiplicative hash, so
/// IMEIs that differ in any digit spread over the slots.
fn imei_slot(raw: u64) -> usize {
    (raw.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - IMEI_MEMO.ilog2())) as usize
}

impl<R: LogRecord> RecordValidator<R> {
    /// A validator with an empty memory and skew horizon `horizon`
    /// (`None` disables the skew check).
    pub fn new(horizon: Option<SimTime>) -> RecordValidator<R> {
        RecordValidator {
            horizon,
            sector_count: None,
            memory: VecDeque::new(),
            indexed: HashSet::default(),
            checked: Box::new([None; IMEI_MEMO]),
        }
    }

    /// The same validator, also checking each record's sector against a
    /// cell plan of `sector_count` sectors (`None` disables the check).
    #[must_use]
    pub fn with_sector_count(mut self, sector_count: Option<u32>) -> RecordValidator<R> {
        self.sector_count = sector_count;
        self
    }

    /// Judges one record and remembers it if kept. Check precedence —
    /// content identity first, then sequence: `UnknownImei` →
    /// `UnknownSector` → `Skewed` →
    /// `OutOfOrder` (behind `watermark`, or `sealed`: the caller has
    /// already closed everything the record could go to) → `Duplicate`.
    ///
    /// A kept record's IMEI comes back checked, so the fold can look its
    /// device up without a second Luhn check.
    ///
    /// # Errors
    /// The [`Rejection`] of a quarantined record.
    pub fn check(
        &mut self,
        record: &R,
        watermark: SimTime,
        sealed: bool,
    ) -> Result<Imei, Rejection> {
        let ts = record.timestamp();
        let Some(imei) = self.checked_imei(record.imei()) else {
            return Err(Rejection {
                reason: QuarantineReason::UnknownImei,
                detail: format!("imei {} is not a valid device identity", record.imei()),
            });
        };
        let (reason, detail) = if let Some(sector) = record
            .sector()
            .filter(|&s| self.sector_count.is_some_and(|n| s >= n))
        {
            (
                QuarantineReason::UnknownSector,
                format!("sector {sector} is not in the cell plan"),
            )
        } else if self.horizon.is_some_and(|horizon| ts > horizon) {
            (
                QuarantineReason::Skewed,
                format!(
                    "timestamp {}s is past the observation horizon",
                    ts.as_secs()
                ),
            )
        } else if ts < watermark {
            (
                QuarantineReason::OutOfOrder,
                format!(
                    "timestamp {}s regresses behind {}s",
                    ts.as_secs(),
                    watermark.as_secs()
                ),
            )
        } else if sealed {
            (
                QuarantineReason::OutOfOrder,
                format!("timestamp {}s falls only in sealed windows", ts.as_secs()),
            )
        } else if self.forget_behind(watermark).remember(*record) {
            return Ok(imei);
        } else {
            (
                QuarantineReason::Duplicate,
                "exact copy of an earlier record".into(),
            )
        };
        Err(Rejection { reason, detail })
    }

    /// `raw` as a checked IMEI, from the memo if its slot holds it; a
    /// valid one that is not there takes the slot. `None` if the Luhn
    /// check fails, which leaves the memo as it was.
    fn checked_imei(&mut self, raw: u64) -> Option<Imei> {
        let slot = &mut self.checked[imei_slot(raw)];
        match *slot {
            Some(imei) if imei.as_u64() == raw => Some(imei),
            _ => {
                let imei = Imei::from_u64(raw).ok()?;
                *slot = Some(imei);
                Some(imei)
            }
        }
    }

    /// Adds `record` to the duplicate memory; `false` if it was already
    /// there.
    pub fn remember(&mut self, record: R) -> bool {
        let ts = record.timestamp();
        // Newer than every remembered record: its second holds nothing.
        if self.memory.back().is_none_or(|r| r.timestamp() < ts) {
            self.memory.push_back(record);
            return true;
        }
        // Records come mostly in time order, so the second's run usually
        // ends the memory: it is walked back over from there unless it
        // is long enough to be indexed, and searched for otherwise.
        let len = self.memory.len();
        let tail = self.memory.iter().rev().take(INDEX_RUN);
        let (start, end) = match tail.take_while(|r| r.timestamp() == ts).count() {
            0 | INDEX_RUN => (
                self.memory.partition_point(|r| r.timestamp() < ts),
                self.memory.partition_point(|r| r.timestamp() <= ts),
            ),
            n => (len - n, len),
        };
        let run = self.memory.range(start..end);
        if run.len() >= INDEX_RUN {
            if !self.indexed.insert(record) {
                return false;
            }
        } else if run.clone().any(|r| *r == record) {
            return false;
        } else if run.len() + 1 == INDEX_RUN {
            self.indexed.extend(run.copied().chain([record]));
        }
        self.memory.insert(end, record);
        true
    }

    /// Forgets the records behind `watermark`: no record a check keeps
    /// can equal one of them.
    fn forget_behind(&mut self, watermark: SimTime) -> &mut Self {
        while let Some(r) = self.memory.pop_front_if(|r| r.timestamp() < watermark) {
            if !self.indexed.is_empty() {
                self.indexed.remove(&r);
            }
        }
        self
    }

    /// The remembered records at or after `watermark`, in time order, then
    /// arrival order within a timestamp (the checkpoint body;
    /// [`remember`](Self::remember) them in this order to restore the
    /// memory).
    pub fn remembered(&self, watermark: SimTime) -> vec_deque::Iter<'_, R> {
        let start = self.memory.partition_point(|r| r.timestamp() < watermark);
        self.memory.range(start..)
    }
}

/// Writes `quarantine.log`: one [`QuarantineEntry`] per line, proxy
/// entries before MME, parse faults before content faults within a source
/// — a deterministic artifact for any worker count.
pub(crate) fn write_quarantine_log(path: &Path, entries: &[QuarantineEntry]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for e in entries {
        writeln!(w, "{e}")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::load::{LogIngest, PhaseTimers};
    use wearscope_devicedb::DeviceDb;
    use wearscope_report::QuarantineCounts;
    use wearscope_trace::{HostId, Scheme, TsvShard, UserId};

    fn rec(db: &DeviceDb, t: u64, user: u64) -> ProxyRecord {
        ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei: db.example_imei(db.wearable_tacs()[0], user as u32).as_u64(),
            host: HostId::intern("api.weather.com"),
            scheme: Scheme::Https,
            bytes_down: 100,
            bytes_up: 10,
        }
    }

    /// The batch path: `records` split into `shards` file-order chunks and
    /// taken through the pipeline's per-log validation.
    fn run_sharded(
        records: Vec<ProxyRecord>,
        shards: usize,
        opts: &IngestOptions,
    ) -> (Vec<ProxyRecord>, Vec<QuarantineEntry>) {
        let per = records.len().div_ceil(shards.max(1)).max(1);
        let mut rest = records.into_iter().peekable();
        let mut log = LogIngest::new(ShardSource::Proxy, opts);
        let mut timers = PhaseTimers::default();
        let mut kept = Vec::new();
        while rest.peek().is_some() {
            let records: Vec<ProxyRecord> = rest.by_ref().take(per).collect();
            let mut chunk = TsvShard {
                lines: records.len() as u64,
                records,
                bytes: 0,
                errors: Vec::new(),
            };
            log.take(&mut chunk, &mut timers, |k, _| kept.extend_from_slice(k));
        }
        let (ledger, entries) = log.finish();
        let quality = ledger.quality();
        assert_eq!(entries.len() as u64, quality.quarantined.total());
        assert_eq!(quality.records_kept, kept.len() as u64);
        (kept, entries)
    }

    fn run(
        records: Vec<ProxyRecord>,
        opts: &IngestOptions,
    ) -> (Vec<ProxyRecord>, QuarantineCounts) {
        let (kept, entries) = run_sharded(records, 1, opts);
        let mut counts = QuarantineCounts::default();
        for e in &entries {
            counts.note(e.reason);
        }
        (kept, counts)
    }

    #[test]
    fn clean_records_all_kept() {
        let db = DeviceDb::standard();
        let records: Vec<ProxyRecord> = (0..20).map(|i| rec(&db, i * 10, i)).collect();
        let (kept, counts) = run(records.clone(), &IngestOptions::default());
        assert_eq!(kept, records);
        assert!(counts.is_empty());
    }

    #[test]
    fn duplicates_quarantine_second_occurrence_only() {
        let db = DeviceDb::standard();
        let a = rec(&db, 10, 1);
        let records = vec![a, a, rec(&db, 20, 2)];
        let (kept, counts) = run(records, &IngestOptions::default());
        assert_eq!(kept.len(), 2);
        assert_eq!(counts.get(QuarantineReason::Duplicate), 1);
    }

    #[test]
    fn regression_quarantined_equal_timestamps_kept() {
        let db = DeviceDb::standard();
        let records = vec![rec(&db, 100, 1), rec(&db, 100, 2), rec(&db, 50, 3)];
        let (kept, counts) = run(records, &IngestOptions::default());
        assert_eq!(kept.len(), 2);
        assert_eq!(counts.get(QuarantineReason::OutOfOrder), 1);
        assert_eq!(kept[1].user, UserId(2));
    }

    #[test]
    fn duplicates_interleaved_at_one_timestamp() {
        // Copies among distinct records sharing the high-water timestamp
        // are still caught after the set was cleared by an advance.
        let db = DeviceDb::standard();
        let distinct =
            [(50, 0), (100, 1), (100, 2), (100, 3), (101, 1)].map(|(t, u)| rec(&db, t, u));
        let records = [0, 1, 2, 1, 3, 2, 1, 4, 3].map(|i| distinct[i]);
        let (kept, counts) = run(records.to_vec(), &IngestOptions::default());
        assert_eq!(counts.get(QuarantineReason::Duplicate), 3);
        // The copy after the advance to 101 regresses instead.
        assert_eq!(counts.get(QuarantineReason::OutOfOrder), 1);
        assert_eq!(kept, [0, 1, 2, 3, 4].map(|i| distinct[i]));
    }

    /// The content checks with a duplicate set over the whole log, as they
    /// were before the set was pruned at the watermark.
    fn whole_log_reference(
        records: &[ProxyRecord],
        opts: &IngestOptions,
    ) -> Vec<(Position, QuarantineReason)> {
        let mut seen = HashSet::default();
        let mut watermark = SimTime::EPOCH;
        let mut out = Vec::new();
        for (i, r) in records.iter().enumerate() {
            let reason = if Imei::from_u64(r.imei).is_err() {
                QuarantineReason::UnknownImei
            } else if opts.max_timestamp.is_some_and(|h| r.timestamp > h) {
                QuarantineReason::Skewed
            } else if r.timestamp < watermark {
                QuarantineReason::OutOfOrder
            } else if !seen.insert(r) {
                QuarantineReason::Duplicate
            } else {
                watermark = r.timestamp;
                continue;
            };
            out.push((Position::Record(i as u64), reason));
        }
        out
    }

    proptest::proptest! {
        /// On random logs with copies, regressions, skew, bad IMEIs and
        /// runs of equal timestamps, some past the length at which a run
        /// is indexed, split into 1–3 shards, the validator's pruned
        /// memory quarantines exactly what a whole-log set does.
        #[test]
        fn pruned_duplicate_set_matches_whole_log(
            ops in proptest::prop::collection::vec((0u8..8, 0u64..3, 0u64..4, 0usize..1000), 0..200),
            shards in 1usize..4,
        ) {
            let db = DeviceDb::standard();
            let opts = IngestOptions {
                max_timestamp: Some(SimTime::from_secs(10_000)),
                ..IngestOptions::default()
            };
            let mut records: Vec<ProxyRecord> = Vec::new();
            let mut now = 0u64;
            for (kind, step, user, pick) in ops {
                if kind == 7 {
                    // A run at `now` longer than INDEX_RUN, with about a
                    // quarter of it copies of earlier records of the run.
                    now += step;
                    records.extend((0..INDEX_RUN as u64 + 16).map(|j| {
                        let u = if (j + pick as u64).is_multiple_of(4) { j / 2 } else { j };
                        rec(&db, now, 100 + u)
                    }));
                    continue;
                }
                let r = match kind {
                    0..=2 => {
                        now += step;
                        rec(&db, now, user)
                    }
                    3 if !records.is_empty() => records[pick % records.len()],
                    4 => rec(&db, now.saturating_sub(step + 1), user),
                    5 => rec(&db, 20_000 + step, user),
                    _ => {
                        let mut bad = rec(&db, now, user);
                        bad.imei += 1; // breaks the Luhn check digit
                        bad
                    }
                };
                records.push(r);
            }
            let expected = whole_log_reference(&records, &opts);
            let n = records.len();
            let (kept, entries) = run_sharded(records, shards, &opts);
            let got: Vec<(Position, QuarantineReason)> =
                entries.iter().map(|e| (e.position, e.reason)).collect();
            proptest::prop_assert_eq!(got, expected);
            proptest::prop_assert_eq!(kept.len() + entries.len(), n);
        }
    }

    /// The stream's content checks with a duplicate set over the whole
    /// log: the watermark trails the newest kept record by `lateness`.
    fn stream_reference(
        records: &[ProxyRecord],
        horizon: SimTime,
        lateness: u64,
    ) -> Vec<(usize, QuarantineReason)> {
        let mut seen = HashSet::default();
        let mut newest: Option<SimTime> = None;
        let mut out = Vec::new();
        for (i, r) in records.iter().enumerate() {
            let watermark = newest.map_or(SimTime::EPOCH, |t| {
                t.saturating_sub(SimDuration::from_secs(lateness))
            });
            let reason = if Imei::from_u64(r.imei).is_err() {
                QuarantineReason::UnknownImei
            } else if r.timestamp > horizon {
                QuarantineReason::Skewed
            } else if r.timestamp < watermark {
                QuarantineReason::OutOfOrder
            } else if !seen.insert(r) {
                QuarantineReason::Duplicate
            } else {
                newest = newest.max(Some(r.timestamp));
                continue;
            };
            out.push((i, reason));
        }
        out
    }

    proptest::proptest! {
        /// In the stream's shape — arrival order, the watermark at the
        /// newest kept time minus the lateness, records late within it and
        /// past it, copies, runs past the indexed length, skew, bad IMEIs
        /// and more devices than the IMEI memo has slots — the validator
        /// quarantines exactly what a whole-log set does, and hands back
        /// each kept record's IMEI.
        #[test]
        fn stream_shaped_checks_match_whole_log(
            ops in proptest::prop::collection::vec((0u8..9, 0u64..4, 0u64..3000, 0usize..1000), 0..250),
            lateness in 0u64..40,
        ) {
            let db = DeviceDb::standard();
            let horizon = SimTime::from_secs(100_000);
            let mut records: Vec<ProxyRecord> = Vec::new();
            let mut now = 0u64;
            for (kind, step, user, pick) in ops {
                match kind {
                    0..=2 => {
                        now += step;
                        records.push(rec(&db, now, user));
                    }
                    // Late by up to twice the lateness: within it or past it.
                    3 | 4 => {
                        let back = pick as u64 % (2 * lateness + 2);
                        records.push(rec(&db, now.saturating_sub(back), user % 8));
                    }
                    5 if !records.is_empty() => records.push(records[pick % records.len()]),
                    6 => records.push(rec(&db, 200_000 + step, user)),
                    7 => {
                        let mut bad = rec(&db, now, user);
                        bad.imei += 1 + step % 9; // breaks the Luhn check digit
                        records.push(bad);
                    }
                    _ => records.extend((0..INDEX_RUN as u64 + 8).map(|j| {
                        let u = if (j + pick as u64).is_multiple_of(3) { j / 2 } else { j };
                        rec(&db, now, 5000 + u)
                    })),
                }
            }
            let expected = stream_reference(&records, horizon, lateness);
            let mut v = RecordValidator::new(Some(horizon));
            let mut newest: Option<SimTime> = None;
            let mut got = Vec::new();
            for (i, r) in records.iter().enumerate() {
                let watermark = newest.map_or(SimTime::EPOCH, |t| {
                    t.saturating_sub(SimDuration::from_secs(lateness))
                });
                match v.check(r, watermark, false) {
                    Ok(imei) => {
                        proptest::prop_assert_eq!(imei.as_u64(), r.imei);
                        newest = newest.max(Some(r.timestamp));
                    }
                    Err(rejection) => got.push((i, rejection.reason)),
                }
            }
            proptest::prop_assert_eq!(got, expected);
        }
    }

    /// Two valid IMEIs that share a memo slot, in alternation, are each
    /// kept and handed back; an invalid IMEI that shares the slot of a
    /// remembered one is still `UnknownImei`, and leaves the slot alone.
    #[test]
    fn imei_memo_slot_sharing() {
        let db = DeviceDb::standard();
        let tac = db.wearable_tacs()[0];
        let first = db.example_imei(tac, 1);
        let slot = imei_slot(first.as_u64());
        let rival = (2..)
            .map(|serial| db.example_imei(tac, serial))
            .find(|imei| imei_slot(imei.as_u64()) == slot)
            .expect("a rival in the same slot");
        let invalid = (first.as_u64() + 1..)
            .find(|&raw| Imei::from_u64(raw).is_err() && imei_slot(raw) == slot)
            .expect("an invalid IMEI in the same slot");
        let with_imei = |t: u64, imei: u64| ProxyRecord {
            imei,
            ..rec(&db, t, 1)
        };
        let mut v = RecordValidator::new(None);
        for t in 0..6 {
            let imei = if t % 2 == 0 { first } else { rival };
            let kept = v.check(&with_imei(t, imei.as_u64()), SimTime::EPOCH, false);
            assert_eq!(kept, Ok(imei), "second {t}");
            assert_eq!(v.checked[slot], Some(imei));
        }
        let rejected = v
            .check(&with_imei(10, invalid), SimTime::EPOCH, false)
            .unwrap_err();
        assert_eq!(rejected.reason, QuarantineReason::UnknownImei);
        assert_eq!(
            rejected.detail,
            format!("imei {invalid} is not a valid device identity")
        );
        assert_eq!(v.checked[slot], Some(rival));
        let kept = v.check(&with_imei(11, rival.as_u64()), SimTime::EPOCH, false);
        assert_eq!(kept, Ok(rival));
    }

    #[test]
    fn remembered_lists_live_records_by_time_then_arrival() {
        let db = DeviceDb::standard();
        let [a, b, c, d] = [(20, 1), (10, 2), (20, 3), (10, 4)].map(|(t, u)| rec(&db, t, u));
        let mut v = RecordValidator::new(None);
        for r in [&a, &b, &c, &d] {
            assert!(v.remember(*r));
        }
        assert!(!v.remember(c));
        let live = |v: &RecordValidator<ProxyRecord>, t| -> Vec<ProxyRecord> {
            v.remembered(SimTime::from_secs(t)).copied().collect()
        };
        assert_eq!(live(&v, 0), [b, d, a, c]);
        // Records behind the watermark are left out before any forgetting.
        assert_eq!(live(&v, 15), [a, c]);

        // An indexed run at 15 s, remembered between the two seconds.
        let run: Vec<ProxyRecord> = (0..2 * INDEX_RUN as u64)
            .map(|u| rec(&db, 15, 10 + u))
            .collect();
        for r in &run {
            assert!(v.remember(*r));
        }
        assert!(!v.remember(run[INDEX_RUN]));
        let expected: Vec<ProxyRecord> = [b, d]
            .into_iter()
            .chain(run.iter().copied())
            .chain([a, c])
            .collect();
        assert_eq!(live(&v, 0), expected);

        // Restoring from `remembered()` rebuilds the same memory.
        let mut restored = RecordValidator::new(None);
        for r in v.remembered(SimTime::from_secs(15)) {
            assert!(restored.remember(*r));
        }
        assert_eq!(live(&restored, 0), live(&v, 15));
        let late = rec(&db, 15, 999);
        for r in run.iter().chain([&a, &c, &late]) {
            let w = SimTime::from_secs(15);
            assert_eq!(
                restored.check(r, w, false),
                v.check(r, w, false),
                "record of user {:?}",
                r.user
            );
        }
        assert_eq!(live(&restored, 0), live(&v, 0));
    }

    #[test]
    fn one_second_of_copies_is_not_quadratic() {
        // 100 000 distinct records in one second, then a copy of each: a
        // scan of the second per record would take minutes.
        let db = DeviceDb::standard();
        let t = SimTime::from_secs(7);
        let records: Vec<ProxyRecord> = (0..100_000).map(|u| rec(&db, 7, u)).collect();
        let mut v = RecordValidator::new(None);
        for r in &records {
            assert!(v.check(r, t, false).is_ok());
        }
        let duplicates = records
            .iter()
            .filter(|r| {
                v.check(r, t, false)
                    .is_err_and(|e| e.reason == QuarantineReason::Duplicate)
            })
            .count();
        assert_eq!(duplicates, 100_000);
        assert_eq!(v.remembered(t).len(), 100_000);
        // Once the watermark passes the second, its records and their
        // index are forgotten.
        let next = rec(&db, 8, 0);
        assert!(v.check(&next, next.timestamp, false).is_ok());
        assert_eq!(v.memory, [next]);
        assert!(v.indexed.is_empty());
    }

    #[test]
    fn skew_does_not_cascade_into_out_of_order() {
        // One record stamped far past the horizon must not drag the
        // high-water mark forward and quarantine everything after it.
        let db = DeviceDb::standard();
        let opts = IngestOptions {
            max_timestamp: Some(SimTime::from_days(100)),
            ..IngestOptions::default()
        };
        let mut records = vec![rec(&db, 10, 1)];
        records.push(rec(&db, SimTime::from_days(4000).as_secs(), 2));
        records.extend((2..10).map(|i| rec(&db, 20 + i, i)));
        let (kept, counts) = run(records, &opts);
        assert_eq!(counts.get(QuarantineReason::Skewed), 1);
        assert_eq!(counts.get(QuarantineReason::OutOfOrder), 0);
        assert_eq!(kept.len(), 9);
    }

    #[test]
    fn invalid_imei_quarantined() {
        let db = DeviceDb::standard();
        let mut bad = rec(&db, 10, 1);
        bad.imei += 1; // breaks the Luhn check digit
        let records = vec![rec(&db, 5, 0), bad, rec(&db, 20, 2)];
        let (kept, counts) = run(records, &IngestOptions::default());
        assert_eq!(kept.len(), 2);
        assert_eq!(counts.get(QuarantineReason::UnknownImei), 1);
    }

    #[test]
    fn sector_outside_the_plan_quarantined() {
        let db = DeviceDb::standard();
        let mme = |t: u64, sector: u32| MmeRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(1),
            imei: db.example_imei(db.wearable_tacs()[0], 1).as_u64(),
            event: wearscope_trace::MmeEvent::SectorUpdate,
            sector,
        };
        let mut v = RecordValidator::new(None).with_sector_count(Some(3));
        assert!(v.check(&mme(10, 2), SimTime::EPOCH, false).is_ok());
        let rejection = v.check(&mme(20, 3), SimTime::EPOCH, false).unwrap_err();
        assert_eq!(rejection.reason, QuarantineReason::UnknownSector);
        assert_eq!(rejection.detail, "sector 3 is not in the cell plan");
        // Without a plan, any sector passes; the check never applies to
        // proxy records, which name no sector.
        let mut open = RecordValidator::new(None);
        assert!(open.check(&mme(30, 999_999), SimTime::EPOCH, false).is_ok());
        let mut proxy = RecordValidator::new(None).with_sector_count(Some(0));
        assert!(proxy.check(&rec(&db, 10, 1), SimTime::EPOCH, false).is_ok());
    }

    #[test]
    fn codec_errors_map_to_reasons() {
        assert_eq!(
            reason_for_codec(&CodecError::MissingField { index: 3 }),
            QuarantineReason::Truncated
        );
        assert_eq!(
            reason_for_codec(&CodecError::BadField {
                index: 0,
                expected: "u64"
            }),
            QuarantineReason::BadField
        );
        assert_eq!(
            reason_for_codec(&CodecError::BadEscape),
            QuarantineReason::BadField
        );
        assert_eq!(
            reason_for_codec(&CodecError::InvalidUtf8),
            QuarantineReason::BadField
        );
    }

    #[test]
    fn options_for_world_reads_manifest_horizon() {
        let dir = std::env::temp_dir().join(format!("wearscope-opts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("manifest.tsv"),
            "seed\t7\nsummary_days\t42\ndetailed_days\t42\n",
        )
        .unwrap();
        let opts = IngestOptions::for_world(&dir);
        assert_eq!(opts.max_timestamp, Some(SimTime::from_days(44)));
        assert_eq!(opts.quarantine_log, Some(dir.join("quarantine.log")));
        assert_eq!(opts.sector_count, None, "no cell plan, no sector check");
        std::fs::write(dir.join("sectors.tsv"), "0\t40\t-3\t\n1\t40.1\t-3\t\n").unwrap();
        assert_eq!(IngestOptions::for_world(&dir).sector_count, Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }
}
