//! The streaming runtime: validation, windowing, watermarks, emission.
//!
//! [`StreamRuntime`] pulls items from an [`EventSource`] and keeps each
//! open event-time window as its [`CorePartials`] — the partials the batch
//! fold absorbs into — and its late-merge count. The **low watermark** is
//! `max_event_time − lateness`:
//!
//! * a record behind the watermark is quarantined as `OutOfOrder` (the
//!   streaming analogue of the batch loader's high-water-mark check);
//! * a record behind the max event time but at-or-ahead of the watermark
//!   is **late-merged**: absorbed normally and counted;
//! * a window finalizes once the watermark passes its end plus the ±60 s
//!   attribution slack, so the [`Attributor`] has released every
//!   transaction inside it with its final app;
//! * a user-day wholly inside a window is final once the watermark passes
//!   its end: no record of it can be admitted any more, and no other
//!   tumbling window holds one. The window then keeps the day as its
//!   farthest sector pair, not its sector set
//!   ([`MobilityPartial::close_days`]).
//!
//! Validation and bookkeeping are the batch loader's: one [`LogLedger`]
//! per log, whose [`RecordValidator`] is fed this watermark instead of the
//! log's own high-water mark. The ledgers are checkpointed, so a resumed
//! run counts and judges its logs as an uninterrupted one does.
//!
//! Windows are emitted strictly in index order; an index range with no
//! records between two active windows still yields (all-zero) reports, so
//! downstream consumers see a gapless timeline. When the open-window cap
//! is hit, [`Backpressure::Block`] surfaces a typed error and
//! [`Backpressure::DropOldest`] force-emits the oldest windows early,
//! marking their reports `forced`. Every emission pushes one report, so
//! the reports alone say how many windows were forced and whether the
//! timeline has started: the runtime keeps neither.
//!
//! Merging every *tumbling* window's partials in index order and
//! finishing once reproduces the batch [`CoreAggregates`] bit-identically
//! (the golden equivalence the integration tests pin). Sliding windows
//! count a record in each window that holds it, so their partials
//! describe each window, not a partition of the stream.
//!
//! [`CoreAggregates`]: wearscope_core::CoreAggregates
//! [`MobilityPartial::close_days`]: wearscope_core::merge::MobilityPartial::close_days
//!
//! [`StreamRuntime::pump`] renders each periodic checkpoint on the
//! runtime thread and hands it to a writer thread that makes it durable,
//! so the runtime never waits on the disk unless the previous write is
//! still running.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::mpsc;
use std::thread::{self, Scope, ScopedJoinHandle};
use std::time::Instant;

use wearscope_core::sessions::{AttributedTx, Attributor, SESSION_GAP_SECS};
use wearscope_core::snapshot::SnapshotError;
use wearscope_core::{CorePartials, StudyContext};
use wearscope_devicedb::DeviceClass;
use wearscope_ingest::{reason_for_codec, IngestError, LogLedger, RecordValidator};
use wearscope_obs::{Counter, Gauge, Histogram, Registry};
use wearscope_report::{DataQuality, QuarantineReason, ShardSource, StreamSummary, WindowReport};
use wearscope_simtime::{SimDuration, SimTime, SECS_PER_DAY};
use wearscope_trace::{MmeRecord, ProxyRecord};

use crate::source::{panicked, EventSource, Feed, Next, Polling, SourcePosition};
use crate::window::WindowSpec;

/// What to do when the open-window cap is reached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backpressure {
    /// Refuse the record with [`StreamError::Backpressure`] — the caller
    /// decides whether to retry, widen the cap, or abort.
    #[default]
    Block,
    /// Force-emit the oldest open windows early (reports marked `forced`).
    DropOldest,
}

impl Backpressure {
    /// Stable CLI/checkpoint label.
    pub fn name(self) -> &'static str {
        match self {
            Backpressure::Block => "block",
            Backpressure::DropOldest => "drop-oldest",
        }
    }

    /// Parses a [`Backpressure::name`] label.
    ///
    /// # Errors
    /// Fails on anything else.
    pub fn parse(s: &str) -> Result<Backpressure, String> {
        match s {
            "block" => Ok(Backpressure::Block),
            "drop-oldest" => Ok(Backpressure::DropOldest),
            other => Err(format!(
                "unknown backpressure policy `{other}` (expected `block` or `drop-oldest`)"
            )),
        }
    }
}

/// Streaming-run configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamConfig {
    /// Window geometry.
    pub spec: WindowSpec,
    /// Allowed lateness: how far behind the max event time a record may
    /// arrive and still be merged.
    pub lateness: SimDuration,
    /// Open-window cap (sliding windows open `width/slide` per instant).
    pub max_open_windows: usize,
    /// Policy at the cap.
    pub backpressure: Backpressure,
    /// Clock-skew horizon (same semantics as the batch loader's).
    pub max_timestamp: Option<SimTime>,
    /// Sectors in the cell plan: an MME record naming one outside it is
    /// quarantined, as the batch loader does. `None` disables the check.
    pub sector_count: Option<u32>,
    /// Keep each emitted window's partial aggregates in memory so the
    /// whole stream can be merged and finished into batch aggregates
    /// (the golden-equivalence path; off for plain report runs).
    pub collect_aggregates: bool,
}

impl StreamConfig {
    /// A configuration with the default cap (4096), blocking backpressure,
    /// no skew horizon, no sector check, and aggregate collection off.
    pub fn new(spec: WindowSpec, lateness: SimDuration) -> StreamConfig {
        StreamConfig {
            spec,
            lateness,
            max_open_windows: 4096,
            backpressure: Backpressure::Block,
            max_timestamp: None,
            sector_count: None,
            collect_aggregates: false,
        }
    }
}

/// Error from the streaming runtime.
#[derive(Debug)]
pub enum StreamError {
    /// I/O error from the source or checkpoint file.
    Io(io::Error),
    /// The open-window cap was hit under [`Backpressure::Block`].
    Backpressure {
        /// Open windows at the time.
        open: usize,
        /// The configured cap.
        limit: usize,
    },
    /// A checkpoint file failed to parse.
    Checkpoint {
        /// 1-based line number within the checkpoint.
        line: u64,
        /// What went wrong.
        message: String,
    },
    /// A checkpoint was written in another checkpoint format version.
    CheckpointVersion {
        /// The version the checkpoint's header names.
        found: u32,
        /// The version this build reads.
        expected: u32,
    },
    /// A checkpoint was written under a different configuration.
    ConfigMismatch(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream I/O error: {e}"),
            StreamError::Backpressure { open, limit } => write!(
                f,
                "open-window cap hit ({open} open, limit {limit}); raise --max-open or use --backpressure drop-oldest"
            ),
            StreamError::Checkpoint { line, message } => {
                write!(f, "checkpoint line {line}: {message}")
            }
            StreamError::CheckpointVersion { found, expected } => write!(
                f,
                "checkpoint format v{found} is not the v{expected} this build reads; rerun without --resume"
            ),
            StreamError::ConfigMismatch(m) => write!(f, "checkpoint config mismatch: {m}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> StreamError {
        StreamError::Io(e)
    }
}

impl From<SnapshotError> for StreamError {
    fn from(e: SnapshotError) -> StreamError {
        StreamError::Checkpoint {
            line: e.line,
            message: e.message,
        }
    }
}

/// Why [`StreamRuntime::pump`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PumpOutcome {
    /// The source reported end-of-stream.
    Finished,
    /// The source has nothing right now but may grow (follow mode).
    Pending,
    /// The `stop_after` record budget was hit (simulated crash: **no**
    /// checkpoint is written at the stop point).
    Stopped,
}

/// Knobs for one [`StreamRuntime::pump`] call.
#[derive(Clone, Debug, Default)]
pub struct PumpOptions {
    /// Write a checkpoint to this path every N processed items.
    pub checkpoint: Option<(std::path::PathBuf, u64)>,
    /// Hard-stop after this many processed items — a deterministic stand-in
    /// for `kill -9` in the CI kill/resume drill. Nothing is flushed.
    pub stop_after: Option<u64>,
}

/// Pre-registered metric handles for one streaming run.
///
/// The runtime is single-threaded, so everything derived from stream
/// content and configuration — records, quarantines, window emissions,
/// checkpoints handed over, the open-window gauge, the watermark — goes
/// in the registry's deterministic section. Only checkpoint write
/// latency (`stream.checkpoint_write_us`, on whichever thread writes),
/// the time the runtime waited to hand a checkpoint to the writer thread
/// (`stream.checkpoint_wait_ns`), the time it spent releasing attribution
/// and emitting windows (`stream.emit_ns`), and its time per phase of a
/// run of records are wall-clock and land in the timing section. The
/// phases are `stream.validate_ns` (taking items from the source and
/// checking them, reader waits and emission excluded), `stream.absorb_ns`
/// (folding the kept ones into their windows, closing final user-days)
/// and `stream.attribute_ns` (handing wearable transactions to the
/// attributor), timed once per run, never per record. Counters start at
/// zero per process:
/// a resumed run reports the work *it* did, not the checkpoint's
/// cumulative [`DataQuality`] ledger.
///
/// The per-record counts (records processed, kept and quarantined by
/// reason, late merges, watermark-only quarantines) and the watermark
/// reach the registry only when
/// [`StreamRuntime::sync_metrics`] runs: when `pump` returns, at `finish`
/// and at `write_checkpoint`. The runtime keeps them in its log ledgers
/// and a plain field.
#[derive(Clone, Debug)]
pub(crate) struct StreamObs {
    records_processed: Counter,
    records_kept: Counter,
    quarantined: Vec<(QuarantineReason, Counter)>,
    late_merged: Counter,
    watermark_only_quarantined: Counter,
    windows_emitted: Counter,
    forced_emits: Counter,
    backpressure_blocks: Counter,
    checkpoints: Counter,
    open_windows: Gauge,
    open_windows_peak: Gauge,
    watermark_secs: Gauge,
    checkpoint_write_us: Histogram,
    checkpoint_wait_ns: Counter,
    emit_ns: Counter,
    validate_ns: Counter,
    absorb_ns: Counter,
    attribute_ns: Counter,
    /// The runtime's quality section, late merges and watermark-only
    /// quarantines as last added to the registry.
    synced: Cell<(DataQuality, u64, u64)>,
}

impl StreamObs {
    pub(crate) fn new(m: &Registry) -> StreamObs {
        StreamObs {
            records_processed: m.counter("stream.records_processed"),
            records_kept: m.counter("stream.records_kept"),
            quarantined: QuarantineReason::ALL
                .into_iter()
                .map(|r| (r, m.counter(&format!("stream.quarantined.{}", r.name()))))
                .collect(),
            late_merged: m.counter("stream.late_merged"),
            watermark_only_quarantined: m.counter("stream.watermark_only_quarantined"),
            windows_emitted: m.counter("stream.windows_emitted"),
            forced_emits: m.counter("stream.forced_emits"),
            backpressure_blocks: m.counter("stream.backpressure_blocks"),
            checkpoints: m.counter("stream.checkpoints"),
            open_windows: m.gauge("stream.open_windows"),
            open_windows_peak: m.gauge("stream.open_windows_peak"),
            watermark_secs: m.gauge("stream.watermark_secs"),
            checkpoint_write_us: m
                .timing_histogram("stream.checkpoint_write_us", &[100, 1_000, 10_000, 100_000]),
            checkpoint_wait_ns: m.timing_counter("stream.checkpoint_wait_ns"),
            emit_ns: m.timing_counter("stream.emit_ns"),
            validate_ns: m.timing_counter("stream.validate_ns"),
            absorb_ns: m.timing_counter("stream.absorb_ns"),
            attribute_ns: m.timing_counter("stream.attribute_ns"),
            synced: Cell::default(),
        }
    }
}

impl Default for StreamObs {
    fn default() -> StreamObs {
        // A fresh private registry: metrics are always recorded, just
        // unobservable unless the caller routed them somewhere.
        StreamObs::new(&Registry::new())
    }
}

/// The incremental event-time streaming engine.
pub struct StreamRuntime<'s> {
    pub(crate) ctx: &'s StudyContext<'s>,
    pub(crate) config: StreamConfig,
    /// Largest kept event timestamp (`None` before the first kept record).
    pub(crate) max_event: Option<SimTime>,
    /// The next window index to emit (`None` before the first kept
    /// record); once a window is emitted, every window below it is sealed.
    pub(crate) progress: Option<u64>,
    /// Open windows by index: each window's partials and its late merges.
    pub(crate) open: BTreeMap<u64, (CorePartials, u64)>,
    /// Emitted window reports, ascending index.
    pub(crate) reports: Vec<WindowReport>,
    /// `reports` as checkpoint lines, each report's `to_tsv` and a
    /// newline, appended as it is emitted so a checkpoint only copies them.
    pub(crate) reports_tsv: String,
    /// Emitted windows' partials (only with `collect_aggregates`).
    pub(crate) collected: Vec<(u64, CorePartials)>,
    /// An emitted window's partials, cleared, kept to be the next window
    /// opened, so its maps are not allocated again (without
    /// `collect_aggregates`).
    spare: Option<CorePartials>,
    pub(crate) attributor: Attributor,
    /// Each log's validator and counts.
    pub(crate) proxy: LogLedger<ProxyRecord>,
    pub(crate) mme: LogLedger<MmeRecord>,
    /// Kept records that arrived behind the max event time.
    pub(crate) late_merged: u64,
    /// Records quarantined out of order by the merged watermark although
    /// they are not behind their own log's high-water mark, the one
    /// batch checks them against (DESIGN decision 9). Counted per run,
    /// as the registry's other counters are.
    watermark_only_quarantined: u64,
    /// Every day before this one was final when the open windows were
    /// last closed.
    final_days: u64,
    /// Kept records not yet folded into their windows (see
    /// [`keep`](StreamRuntime::keep)).
    run: Vec<Kept>,
    /// A window range last found open, while no window was emitted since.
    open_range: Option<(u64, u64)>,
    /// The span of seconds `from..to` whose windows are `lo..=hi`, as
    /// `(from, to, lo, hi)`: the last record's.
    assigned: (SimTime, SimTime, u64, u64),
    /// The watermark at which [`keep`](StreamRuntime::keep) next closes
    /// final user-days and emits due windows; no later than needed,
    /// earlier only at the cost of a run folded sooner.
    settle_at: SimTime,
    /// Nanoseconds the current run's absorb and attribution took.
    phases: (u64, u64),
    /// Metric handles (a private unobserved registry unless
    /// [`with_metrics`](StreamRuntime::with_metrics) routed them).
    pub(crate) obs: StreamObs,
}

/// The attribution slack every window close waits out.
fn slack() -> SimDuration {
    SimDuration::from_secs(SESSION_GAP_SECS)
}

/// Whether window `index` of `spec` is due under watermark `w`: past its
/// end plus the attribution slack.
fn due(spec: WindowSpec, index: u64, w: SimTime) -> bool {
    let (_, end) = spec.bounds(index);
    end.saturating_add(slack()) <= w
}

/// Kept records a run holds at most before they are folded in.
const RUN_RECORDS: usize = 256;

/// A record of either log, copied out of its chunk.
#[derive(Clone, Copy, Debug)]
enum Record {
    Proxy(ProxyRecord),
    Mme(MmeRecord),
}

impl Record {
    fn timestamp(&self) -> SimTime {
        match self {
            Record::Proxy(r) => r.timestamp,
            Record::Mme(r) => r.timestamp,
        }
    }

    /// Folds the record into one window's partials.
    fn absorb_into(
        &self,
        partials: &mut CorePartials,
        ctx: &StudyContext<'_>,
        device: Option<DeviceClass>,
    ) {
        match self {
            Record::Proxy(r) => {
                partials.absorb_proxy(ctx, r, device);
            }
            Record::Mme(r) => partials.absorb_mme(ctx, r, device),
        }
    }
}

/// A kept record waiting in the run to be folded in.
#[derive(Clone, Copy, Debug)]
struct Kept {
    record: Record,
    /// The device class of the IMEI the validator checked.
    device: Option<DeviceClass>,
    /// The windows `lo..=hi` it goes into.
    windows: (u64, u64),
    /// Whether it arrived behind the max event time.
    late: bool,
}

impl<'s> StreamRuntime<'s> {
    /// A fresh runtime over `ctx` (typically built over an **empty** store
    /// — records arrive through the source, and device classification
    /// falls back to the live device DB).
    pub fn new(ctx: &'s StudyContext<'s>, config: StreamConfig) -> StreamRuntime<'s> {
        StreamRuntime {
            ctx,
            config,
            max_event: None,
            progress: None,
            open: BTreeMap::new(),
            reports: Vec::new(),
            reports_tsv: String::new(),
            collected: Vec::new(),
            spare: None,
            attributor: Attributor::new(),
            proxy: LogLedger::new(
                ShardSource::Proxy,
                RecordValidator::new(config.max_timestamp),
            ),
            mme: LogLedger::new(
                ShardSource::Mme,
                RecordValidator::new(config.max_timestamp).with_sector_count(config.sector_count),
            ),
            late_merged: 0,
            watermark_only_quarantined: 0,
            final_days: 0,
            run: Vec::with_capacity(RUN_RECORDS),
            open_range: None,
            assigned: (SimTime::EPOCH, SimTime::EPOCH, 0, 0),
            settle_at: SimTime::EPOCH,
            phases: (0, 0),
            obs: StreamObs::default(),
        }
    }

    /// Routes this runtime's metrics into `registry` instead of the
    /// default private one. Call before processing any items (handles are
    /// fresh, so counts recorded earlier stay behind).
    #[must_use]
    pub fn with_metrics(mut self, registry: &Registry) -> StreamRuntime<'s> {
        self.obs = StreamObs::new(registry);
        self.obs.synced.set(self.synced_counts());
        self
    }

    /// The counts [`sync_metrics`](Self::sync_metrics) adds to the
    /// registry.
    fn synced_counts(&self) -> (DataQuality, u64, u64) {
        (
            self.quality(),
            self.late_merged,
            self.watermark_only_quarantined,
        )
    }

    /// Adds the records processed, kept and quarantined, the late merges
    /// and the watermark-only quarantines since the last call to the
    /// registry's counters, and sets the watermark gauge if a record was
    /// kept since then (only a kept record moves it).
    fn sync_metrics(&self) {
        let counts = self.synced_counts();
        let (now, late_merged, watermark_only) = counts;
        let (was, was_late_merged, was_watermark_only) = self.obs.synced.replace(counts);
        self.obs
            .records_processed
            .add(now.records_seen - was.records_seen);
        self.obs
            .records_kept
            .add(now.records_kept - was.records_kept);
        for (reason, counter) in &self.obs.quarantined {
            counter.add(now.quarantined.get(*reason) - was.quarantined.get(*reason));
        }
        self.obs.late_merged.add(late_merged - was_late_merged);
        self.obs
            .watermark_only_quarantined
            .add(watermark_only - was_watermark_only);
        if now.records_kept != was.records_kept {
            self.obs
                .watermark_secs
                .set(self.watermark().as_secs() as i64);
        }
    }

    /// The current low watermark.
    pub fn watermark(&self) -> SimTime {
        self.max_event
            .map_or(SimTime::EPOCH, |m| m.saturating_sub(self.config.lateness))
    }

    /// Source items processed so far (kept + quarantined + malformed).
    pub fn records_processed(&self) -> u64 {
        self.proxy.quality().records_seen + self.mme.quality().records_seen
    }

    /// Both logs' ledgers as one quality section: seen, kept and
    /// quarantined by reason.
    pub(crate) fn quality(&self) -> DataQuality {
        let mut quality = self.proxy.quality();
        quality.merge(&self.mme.quality());
        quality
    }

    /// Currently open windows.
    pub fn open_windows(&self) -> usize {
        self.open.len()
    }

    /// Window reports emitted so far, ascending index. Grows as the
    /// watermark closes windows — a tailing caller can print
    /// `reports()[seen..]` after each [`pump`] round to surface windows
    /// live instead of waiting for the stream to end.
    ///
    /// [`pump`]: StreamRuntime::pump
    pub fn reports(&self) -> &[WindowReport] {
        &self.reports
    }

    /// The run's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Takes items from `feed` until it waits or ends, or `left` items are
    /// taken: the source's next items, checked, admitted records kept in
    /// the run, and the run folded in before this returns (also when it
    /// fails). Returns why it stopped, or `None` after `left` items.
    fn take<F: Feed>(
        &mut self,
        feed: &mut F,
        left: u64,
    ) -> Result<Option<PumpOutcome>, StreamError> {
        let (started, waited) = (Instant::now(), feed.waited_ns());
        let emitted = self.obs.emit_ns.get();
        let taken = self.take_items(feed, left);
        let flushed = self.flush();
        let elapsed = started.elapsed().as_nanos() as u64;
        let (absorb, attribute) = std::mem::take(&mut self.phases);
        let elsewhere = absorb + attribute + (feed.waited_ns() - waited);
        let elsewhere = elsewhere + (self.obs.emit_ns.get() - emitted);
        self.obs.validate_ns.add(elapsed.saturating_sub(elsewhere));
        self.obs.absorb_ns.add(absorb);
        self.obs.attribute_ns.add(attribute);
        let outcome = taken?;
        flushed?;
        Ok(outcome)
    }

    /// [`take`](StreamRuntime::take)'s loop over the items.
    fn take_items<F: Feed>(
        &mut self,
        feed: &mut F,
        mut left: u64,
    ) -> Result<Option<PumpOutcome>, StreamError> {
        while left > 0 {
            let most = usize::try_from(left).unwrap_or(usize::MAX);
            let (taken, kept) = match feed.next()? {
                Next::Proxies(records) => self.take_records(records, most, Record::Proxy),
                Next::Mmes(records) => self.take_records(records, most, Record::Mme),
                Next::Malformed(kind, line, error) => {
                    let reason = reason_for_codec(&error);
                    match kind {
                        ShardSource::Proxy => self.proxy.malformed(line, reason),
                        ShardSource::Mme => self.mme.malformed(line, reason),
                    }
                    left -= 1;
                    continue;
                }
                Next::Pending => return Ok(Some(PumpOutcome::Pending)),
                Next::End => return Ok(Some(PumpOutcome::Finished)),
            };
            feed.serve(taken);
            left -= taken as u64;
            kept?;
        }
        Ok(None)
    }

    /// Checks and keeps up to `most` of `records`, which come next in a
    /// row: how many it took, and the error that stopped it, if any.
    fn take_records<R: Copy>(
        &mut self,
        records: &[R],
        most: usize,
        record: fn(R) -> Record,
    ) -> (usize, Result<(), StreamError>) {
        let records = &records[..records.len().min(most)];
        for (i, r) in records.iter().enumerate() {
            if let Some(kept) = self.admit(record(*r)) {
                if let Err(e) = self.keep(kept) {
                    return (i + 1, Err(e));
                }
            }
        }
        (records.len(), Ok(()))
    }

    /// Checks one record against its log's ledger under the current
    /// watermark. A kept record moves the stream clock and the next window
    /// to emit, and comes back with the windows it goes into; it is folded
    /// in later, with its run.
    fn admit(&mut self, record: Record) -> Option<Kept> {
        let ts = record.timestamp();
        let (lo, hi) = self.windows_of(ts);
        // After forced emission, a record whose every target window is
        // sealed has nowhere to go. Before any emission the timeline may
        // still start lower, so nothing is sealed yet.
        let sealed = !self.reports.is_empty() && self.progress.is_some_and(|next| hi < next);
        let watermark = self.watermark();
        let (verdict, own_high_water) = match &record {
            Record::Proxy(r) => (
                self.proxy.check(r, watermark, sealed),
                self.proxy.high_water(),
            ),
            Record::Mme(r) => (self.mme.check(r, watermark, sealed), self.mme.high_water()),
        };
        let imei = match verdict {
            Ok(imei) => imei,
            Err(rejection) => {
                // The validator checks the watermark after the IMEI, the
                // sector and the skew horizon, as batch does.
                let watermark_only = rejection.reason == QuarantineReason::OutOfOrder
                    && (own_high_water..watermark).contains(&ts);
                self.watermark_only_quarantined += u64::from(watermark_only);
                return None;
            }
        };
        let next_emit = match self.progress {
            Some(next) if !self.reports.is_empty() => next,
            // Nothing emitted yet: a within-lateness record earlier than
            // the first one moves the timeline's start down.
            next => next.map_or(lo, |next| next.min(lo)),
        };
        if self.progress != Some(next_emit) {
            self.progress = Some(next_emit);
            // A window may fall due sooner now.
            self.settle_at = SimTime::EPOCH;
        }
        let late = self.max_event.is_some_and(|m| ts < m);
        self.late_merged += u64::from(late);
        if self.max_event.is_none_or(|m| m < ts) {
            self.max_event = Some(ts);
        }
        Some(Kept {
            record,
            device: self.ctx.device_class_of(imei),
            windows: (lo.max(next_emit), hi),
            late,
        })
    }

    /// Keeps an admitted record in the run, which is folded in at once
    /// when it is full or the record makes work due.
    ///
    /// Folding a run later changes nothing: as long as no window is
    /// opened or emitted and no user-day closes, a record's verdict does
    /// not depend on the records before it having been folded. So the run
    /// is folded in before a record that opens a window, which is then
    /// folded alone (opening may force older windows out), and right after
    /// a record that moves the watermark past a due window or a midnight,
    /// before that work is done.
    ///
    /// # Errors
    /// [`StreamError::Backpressure`] under [`Backpressure::Block`] at the
    /// open-window cap.
    fn keep(&mut self, kept: Kept) -> Result<(), StreamError> {
        let opens = !self.windows_open(kept.windows);
        if opens {
            self.flush()?;
        }
        self.run.push(kept);
        if opens || self.run.len() == RUN_RECORDS {
            self.flush()?;
        }
        if opens {
            // Opening may have forced windows out.
            self.settle_at = SimTime::EPOCH;
        }
        if self.watermark() >= self.settle_at {
            self.flush()?;
            let started = Instant::now();
            self.close_final_days();
            self.phases.0 += started.elapsed().as_nanos() as u64;
            self.advance_watermark();
            self.settle_at = self.next_settle();
        }
        Ok(())
    }

    /// The watermark at which the next window falls due or the next
    /// user-day becomes final, whichever comes first.
    fn next_settle(&self) -> SimTime {
        let midnight = (self.final_days + 1).saturating_mul(SECS_PER_DAY);
        let midnight = SimTime::from_secs(midnight);
        match self.progress {
            Some(next) => midnight.min(self.config.spec.bounds(next).1.saturating_add(slack())),
            None => midnight,
        }
    }

    /// The windows `lo..=hi` that hold second `ts`: computed once per span
    /// of seconds that share them.
    fn windows_of(&mut self, ts: SimTime) -> (u64, u64) {
        let (from, to, lo, hi) = self.assigned;
        if from <= ts && ts < to {
            return (lo, hi);
        }
        let spec = self.config.spec;
        let ids = spec.assign(ts);
        let (lo, hi) = (*ids.start(), *ids.end());
        // Second `hi * slide` opens window `hi`; window `lo - 1` ends
        // where `lo` becomes the first window holding the second.
        let from = match lo.checked_sub(1) {
            Some(before) => spec.bounds(hi).0.max(spec.bounds(before).1),
            None => spec.bounds(hi).0,
        };
        let to = spec.bounds(hi.saturating_add(1)).0.min(spec.bounds(lo).1);
        self.assigned = (from, to, lo, hi);
        (lo, hi)
    }

    /// Whether windows `lo..=hi` are all open: one lookup per range, until
    /// a window is emitted.
    fn windows_open(&mut self, (lo, hi): (u64, u64)) -> bool {
        if self.open_range == Some((lo, hi)) {
            return true;
        }
        let open = self.open.range(lo..=hi).count() as u64 == hi - lo + 1;
        if open {
            self.open_range = Some((lo, hi));
        }
        open
    }

    /// Folds the run's records into their windows, then hands its
    /// wearable transactions to the attributor, in stream order, and
    /// empties it.
    ///
    /// # Errors
    /// [`StreamError::Backpressure`] under [`Backpressure::Block`], from
    /// a record that opens a window at the cap: it is then folded into
    /// the windows before the one refused, and not attributed.
    fn flush(&mut self) -> Result<(), StreamError> {
        if self.run.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        let mut run = std::mem::take(&mut self.run);
        let absorbed = self.absorb(&run);
        let absorbed_at = Instant::now();
        if absorbed.is_ok() {
            self.attribute(&run);
        }
        self.phases.0 += (absorbed_at - started).as_nanos() as u64;
        self.phases.1 += absorbed_at.elapsed().as_nanos() as u64;
        run.clear();
        self.run = run;
        absorbed
    }

    /// Folds each record of `run` into its windows, looking the windows up
    /// once per stretch of records that share them. A record whose windows
    /// are not all open is alone in its run, and opens them one by one
    /// under the backpressure policy, as it is folded into each.
    fn absorb(&mut self, run: &[Kept]) -> Result<(), StreamError> {
        let ctx = self.ctx;
        for stretch in run.chunk_by(|a, b| a.windows == b.windows) {
            let (lo, hi) = stretch[0].windows;
            if self.windows_open((lo, hi)) {
                for (_, (partials, late_merged)) in self.open.range_mut(lo..=hi) {
                    for k in stretch {
                        *late_merged += u64::from(k.late);
                        k.record.absorb_into(partials, ctx, k.device);
                    }
                }
                continue;
            }
            for k in stretch {
                for id in lo..=hi {
                    let (partials, late_merged) = match self.open.get_mut(&id) {
                        Some(window) => window,
                        None => self.open_window(id)?,
                    };
                    *late_merged += u64::from(k.late);
                    k.record.absorb_into(partials, ctx, k.device);
                }
            }
        }
        Ok(())
    }

    /// Hands the wearable proxy records of `run` to the attributor.
    fn attribute(&mut self, run: &[Kept]) {
        for k in run {
            if let (Record::Proxy(r), Some(DeviceClass::CellularWearable)) = (&k.record, k.device) {
                self.attributor.observe(
                    r.user,
                    r.timestamp,
                    self.ctx.host_class(r.host).classification,
                    r.bytes_total(),
                );
            }
        }
    }

    /// Once the watermark passes a midnight, closes in each open window
    /// the user-days it holds wholly that are now final.
    fn close_final_days(&mut self) {
        let final_days = self.watermark().day_index();
        if final_days <= self.final_days {
            return;
        }
        self.final_days = final_days;
        for (&id, (partials, _)) in &mut self.open {
            let days = final_window_days(self.config.spec, id, final_days);
            partials.mobility.close_days(self.ctx.sectors, days);
        }
    }

    /// Routes released transactions into their windows by event time.
    /// Target windows are provably still open (a transaction is released
    /// no later than the close of any window containing it); windows
    /// sealed early by forced emission are skipped.
    fn route_attributed(&mut self, emitted: &[AttributedTx]) {
        let next_emit = self.progress.unwrap_or(0);
        for tx in emitted {
            for id in self.config.spec.assign(tx.timestamp) {
                if id < next_emit {
                    continue;
                }
                if let Some((partials, _)) = self.open.get_mut(&id) {
                    partials.absorb_attributed(tx);
                }
            }
        }
    }

    /// Advances the watermark machinery after a kept record: only when a
    /// window is actually due, so the attributor sweep amortizes to once
    /// per slide, resolve waiting transactions and emit every due window
    /// (including empty gaps).
    fn advance_watermark(&mut self) {
        let w = self.watermark();
        let Some(next_emit) = self.progress else {
            return;
        };
        let spec = self.config.spec;
        if !due(spec, next_emit, w) {
            return;
        }
        // Release attribution up to the watermark *before* sealing windows:
        // every transaction in a due window is past its future-anchor
        // horizon (t + 60 < end + 60 <= W).
        let started = Instant::now();
        let mut emitted = Vec::new();
        self.attributor.advance(w, &mut emitted);
        self.route_attributed(&emitted);
        while self.progress.is_some_and(|next| due(spec, next, w)) {
            self.emit_next(false);
        }
        self.obs.emit_ns.add(started.elapsed().as_nanos() as u64);
    }

    /// Emits window `next_emit` (an absent index emits an all-zero report)
    /// and advances the cursor.
    fn emit_next(&mut self, forced: bool) {
        let index = self.progress.expect("emission needs progress");
        self.progress = Some(index + 1);
        self.open_range = None;
        let (mut partials, late_merged) = self.open.remove(&index).unwrap_or_default();
        let report = window_report(self.config.spec, index, &partials, late_merged, forced);
        self.push_report(report);
        self.obs.windows_emitted.inc();
        self.obs.open_windows.set(self.open.len() as i64);
        if forced {
            self.obs.forced_emits.inc();
        }
        if self.config.collect_aggregates {
            self.collected.push((index, partials));
        } else if self.spare.is_none() {
            partials.clear();
            self.spare = Some(partials);
        }
    }

    /// Appends an emitted report, and its checkpoint line.
    pub(crate) fn push_report(&mut self, report: WindowReport) {
        self.reports_tsv.push_str(&report.to_tsv());
        self.reports_tsv.push('\n');
        self.reports.push(report);
    }

    /// Opens window `id`, which is not open, under the backpressure
    /// policy.
    fn open_window(&mut self, id: u64) -> Result<&mut (CorePartials, u64), StreamError> {
        if self.open.len() >= self.config.max_open_windows {
            match self.config.backpressure {
                Backpressure::Block => {
                    self.obs.backpressure_blocks.inc();
                    return Err(StreamError::Backpressure {
                        open: self.open.len(),
                        limit: self.config.max_open_windows,
                    });
                }
                Backpressure::DropOldest => {
                    // Seal everything up to and including the oldest open
                    // window; the early reports are marked `forced`.
                    let oldest = *self.open.keys().next().expect("cap > 0 implies non-empty");
                    while self.progress.is_some_and(|next| next <= oldest) {
                        self.emit_next(true);
                    }
                }
            }
        }
        let partials = self.spare.take().unwrap_or_default();
        let open = self.open.len() as i64 + 1;
        self.obs.open_windows.set(open);
        self.obs.open_windows_peak.set_max(open);
        Ok(self.open.entry(id).or_insert((partials, 0)))
    }

    /// Pulls the source until it ends, stalls, or the stop budget is hit,
    /// writing periodic checkpoints if configured.
    ///
    /// A [`WorldSource`](crate::WorldSource) is read where its records lie
    /// in its chunks ([`EventSource::as_world`]); any other source is
    /// polled item by item. Either way the records go through the same
    /// runs: checked one by one, then folded into their windows a run at a
    /// time (timed as `stream.validate_ns`, `stream.absorb_ns` and
    /// `stream.attribute_ns`).
    ///
    /// Each periodic checkpoint is rendered here, at the record it is due,
    /// and handed to a `stream-checkpoint` thread that writes it as
    /// [`write_checkpoint`](StreamRuntime::write_checkpoint) does. The
    /// hand-off waits while the previous write is still running, so at
    /// most one write is in flight. The thread starts at this call's
    /// first checkpoint and is joined before the call returns, whatever
    /// the outcome: every checkpoint handed over is on disk by then.
    ///
    /// # Errors
    /// Source I/O, checkpoint I/O, or backpressure under
    /// [`Backpressure::Block`]. A failed checkpoint write is returned at
    /// the next hand-off or when the call ends, whichever comes first.
    pub fn pump<S: EventSource>(
        &mut self,
        source: &mut S,
        opts: &PumpOptions,
    ) -> Result<PumpOutcome, StreamError> {
        match source.as_world() {
            Some(world) => self.pump_feed(world, opts),
            None => self.pump_feed(
                &mut Polling {
                    source,
                    event: None,
                },
                opts,
            ),
        }
    }

    /// [`pump`](StreamRuntime::pump) over either kind of source.
    fn pump_feed<F: Feed>(
        &mut self,
        feed: &mut F,
        opts: &PumpOptions,
    ) -> Result<PumpOutcome, StreamError> {
        let outcome = thread::scope(|scope| {
            let mut writer = None;
            let outcome = self.pump_into(feed, opts, scope, &mut writer);
            // A failed write stops the writer, which ends the loop at the
            // next hand-off: the write's error is the cause.
            writer.map_or(Ok(()), CheckpointWriter::join)?;
            outcome
        });
        feed.sync();
        self.sync_metrics();
        outcome
    }

    /// [`pump`](StreamRuntime::pump)'s loop, handing checkpoints to
    /// `writer` (started on first use): items are taken up to the next
    /// checkpoint or the stop, whichever comes first.
    fn pump_into<'scope, 'env, F: Feed>(
        &mut self,
        feed: &mut F,
        opts: &'env PumpOptions,
        scope: &'scope Scope<'scope, 'env>,
        writer: &mut Option<CheckpointWriter<'scope>>,
    ) -> Result<PumpOutcome, StreamError> {
        let every = match &opts.checkpoint {
            Some((_, every)) => *every,
            None => 0,
        };
        loop {
            let processed = self.records_processed();
            let mut left = u64::MAX;
            if let Some(budget) = opts.stop_after {
                if processed >= budget {
                    return Ok(PumpOutcome::Stopped);
                }
                left = budget - processed;
            }
            if every > 0 {
                left = left.min(every - processed % every);
            }
            if let Some(outcome) = self.take(feed, left)? {
                return Ok(outcome);
            }
            let Some((path, every)) = &opts.checkpoint else {
                continue;
            };
            if *every > 0 && self.records_processed().is_multiple_of(*every) {
                let text = crate::checkpoint::to_text(self, feed.committed());
                let w = match writer {
                    Some(w) => w,
                    None => writer.insert(CheckpointWriter::spawn(scope, path, &self.obs)?),
                };
                if !w.hand_over(text, &self.obs.checkpoint_wait_ns) {
                    return Err(io::Error::other("the checkpoint writer stopped").into());
                }
                self.obs.checkpoints.inc();
            }
        }
    }

    /// Atomically writes a checkpoint (temp file + rename).
    ///
    /// # Errors
    /// Checkpoint-file I/O.
    pub fn write_checkpoint(
        &self,
        path: &Path,
        position: Option<SourcePosition>,
    ) -> Result<(), StreamError> {
        self.sync_metrics();
        let started = Instant::now();
        crate::checkpoint::write(path, &crate::checkpoint::to_text(self, position))?;
        self.obs.checkpoints.inc();
        self.obs
            .checkpoint_write_us
            .observe(started.elapsed().as_micros() as u64);
        Ok(())
    }

    /// End of stream: resolves all pending attribution and emits every
    /// remaining window (trailing empty indices between open windows
    /// included; nothing past the highest open one).
    pub fn finish(&mut self) {
        let started = Instant::now();
        let mut emitted = Vec::new();
        self.attributor.flush(&mut emitted);
        self.route_attributed(&emitted);
        while !self.open.is_empty() {
            self.emit_next(false);
        }
        self.obs.emit_ns.add(started.elapsed().as_nanos() as u64);
        self.sync_metrics();
    }

    /// Applies `analyze`'s `--max-error-rate` rule to each log, proxy
    /// first, over the whole log (a resumed run's ledgers carry the
    /// checkpointed counts): call it when the run ends.
    ///
    /// # Errors
    /// [`IngestError::ErrorBudget`] for the first log over `budget`.
    pub fn check_error_budget(&self, budget: f64) -> Result<(), IngestError> {
        self.proxy.check_budget(budget)?;
        self.mme.check_budget(budget)
    }

    /// Consumes the runtime into its summary and (if collected) the
    /// emitted windows' partial aggregates in index order.
    pub fn into_results(self) -> (StreamSummary, Vec<(u64, CorePartials)>) {
        let final_watermark_secs = self.max_event.map(|_| self.watermark().as_secs());
        let quality = self.quality();
        (
            StreamSummary {
                windows: self.reports,
                quality,
                late_merged: self.late_merged,
                final_watermark_secs,
            },
            self.collected,
        )
    }
}

/// The days window `index` of `spec` holds wholly that are before day
/// `final_days`: the days it may keep closed.
pub(crate) fn final_window_days(spec: WindowSpec, index: u64, final_days: u64) -> Range<u64> {
    let (start, end) = spec.bounds(index);
    let first = start.as_secs().div_ceil(SECS_PER_DAY);
    first..(end.as_secs() / SECS_PER_DAY).min(final_days)
}

/// The report of window `index` of `spec`, from its partials and its late
/// merges: its record and wearable totals are the partials'.
fn window_report(
    spec: WindowSpec,
    index: u64,
    p: &CorePartials,
    late_merged: u64,
    forced: bool,
) -> WindowReport {
    let (start, end) = spec.bounds(index);
    let wearable = p.wearable.transactions.values();
    WindowReport {
        index,
        start_secs: start.as_secs(),
        end_secs: end.as_secs(),
        proxy_records: p.traffic.per_user.values().map(|&(_, tx)| tx).sum(),
        mme_records: p.quality.mme_records,
        wearable_tx: wearable.clone().map(|txs| txs.len() as u64).sum(),
        wearable_bytes: wearable.flatten().map(|&(_, bytes)| bytes).sum(),
        users: p.traffic.per_user.len() as u64,
        attributed: p.attributed.iter().filter(|t| t.app.is_some()).count() as u64,
        late_merged,
        forced,
    }
}

/// The thread that makes a pump's periodic checkpoints durable.
struct CheckpointWriter<'scope> {
    /// Rendered checkpoints; a rendezvous channel, so a hand-off waits
    /// for the writer to be idle.
    texts: mpsc::SyncSender<String>,
    thread: ScopedJoinHandle<'scope, io::Result<()>>,
}

impl<'scope> CheckpointWriter<'scope> {
    /// Starts the writer of checkpoints to `path`; it records each
    /// write's latency as `obs` does.
    fn spawn<'env>(
        scope: &'scope Scope<'scope, 'env>,
        path: &'env Path,
        obs: &StreamObs,
    ) -> io::Result<CheckpointWriter<'scope>> {
        let (texts, received) = mpsc::sync_channel::<String>(0);
        let write_us = obs.checkpoint_write_us.clone();
        let thread = thread::Builder::new()
            .name("stream-checkpoint".into())
            .spawn_scoped(scope, move || {
                // The first failed write ends the thread, which drops the
                // receiver: the runtime's next hand-off fails.
                for text in received {
                    let started = Instant::now();
                    crate::checkpoint::write(path, &text)?;
                    write_us.observe(started.elapsed().as_micros() as u64);
                }
                Ok(())
            })?;
        Ok(CheckpointWriter { texts, thread })
    }

    /// Hands `text` over, waiting while the previous write runs; `false`
    /// if the writer stopped on a failed write.
    fn hand_over(&self, text: String, wait_ns: &Counter) -> bool {
        let started = Instant::now();
        let sent = self.texts.send(text).is_ok();
        wait_ns.add(started.elapsed().as_nanos() as u64);
        sent
    }

    /// Lets the last write finish and returns the first failed one.
    fn join(self) -> io::Result<()> {
        drop(self.texts);
        self.thread
            .join()
            .unwrap_or_else(|payload| Err(panicked("checkpoint writer", payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{Polled, StreamEvent};
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::DeviceDb;
    use wearscope_geo::SectorDirectory;
    use wearscope_simtime::{Calendar, ObservationWindow};
    use wearscope_trace::{HostId, Scheme, TraceStore, UserId};

    struct Fixture {
        store: TraceStore,
        db: DeviceDb,
        sectors: SectorDirectory,
        catalog: AppCatalog,
    }

    impl Fixture {
        fn new() -> Fixture {
            Fixture {
                store: TraceStore::new(),
                db: DeviceDb::standard(),
                sectors: SectorDirectory::new(),
                catalog: AppCatalog::standard(),
            }
        }

        fn ctx(&self) -> StudyContext<'_> {
            StudyContext::new(
                &self.store,
                &self.db,
                &self.sectors,
                &self.catalog,
                ObservationWindow::new(14, 14, Calendar::PAPER),
            )
        }

        fn proxy(&self, user: u64, t: u64, host: &str) -> StreamEvent {
            StreamEvent::Proxy(ProxyRecord {
                timestamp: SimTime::from_secs(t),
                user: UserId(user),
                imei: self
                    .db
                    .example_imei(self.db.wearable_tacs()[0], user as u32)
                    .as_u64(),
                host: HostId::intern(host),
                scheme: Scheme::Https,
                bytes_down: 100,
                bytes_up: 0,
            })
        }
    }

    /// An in-process channel source: an empty channel polls
    /// [`Polled::Pending`], a disconnected one [`Polled::End`]. Not
    /// resumable.
    struct ChannelSource {
        rx: mpsc::Receiver<StreamEvent>,
    }

    impl ChannelSource {
        /// A connected `(sender, source)` pair.
        fn pair() -> (mpsc::Sender<StreamEvent>, ChannelSource) {
            let (tx, rx) = mpsc::channel();
            (tx, ChannelSource { rx })
        }
    }

    impl EventSource for ChannelSource {
        fn poll(&mut self) -> io::Result<Polled> {
            match self.rx.try_recv() {
                Ok(ev) => Ok(Polled::Event(ev)),
                Err(mpsc::TryRecvError::Empty) => Ok(Polled::Pending),
                Err(mpsc::TryRecvError::Disconnected) => Ok(Polled::End),
            }
        }

        fn position(&self) -> Option<SourcePosition> {
            None
        }
    }

    /// Pumps `events` through `rt`, in order, as one source.
    fn feed(
        rt: &mut StreamRuntime<'_>,
        events: impl IntoIterator<Item = StreamEvent>,
    ) -> Result<PumpOutcome, StreamError> {
        let (tx, mut src) = ChannelSource::pair();
        for ev in events {
            tx.send(ev).unwrap();
        }
        drop(tx);
        rt.pump(&mut src, &PumpOptions::default())
    }

    #[test]
    fn channel_source_polls_until_disconnect() {
        let fx = Fixture::new();
        let (tx, mut src) = ChannelSource::pair();
        assert!(matches!(src.poll().unwrap(), Polled::Pending));
        tx.send(fx.proxy(1, 5, "api.weather.com")).unwrap();
        assert!(matches!(
            src.poll().unwrap(),
            Polled::Event(StreamEvent::Proxy(_))
        ));
        drop(tx);
        assert!(matches!(src.poll().unwrap(), Polled::End));
        assert!(src.position().is_none());
    }

    fn hour_config(lateness: u64) -> StreamConfig {
        StreamConfig::new(
            WindowSpec::tumbling(SimDuration::from_hours(1)).unwrap(),
            SimDuration::from_secs(lateness),
        )
    }

    #[test]
    fn windows_emit_in_order_with_zero_gaps() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let mut rt = StreamRuntime::new(&ctx, hour_config(0));
        // Active window 0, silent window 1, active window 2.
        for ev in [
            fx.proxy(1, 100, "api.weather.com"),
            fx.proxy(1, 7500, "api.weather.com"),
        ] {
            feed(&mut rt, [ev]).unwrap();
        }
        rt.finish();
        let (summary, _) = rt.into_results();
        assert_eq!(summary.windows.len(), 3);
        assert_eq!(summary.windows[0].proxy_records, 1);
        assert_eq!(summary.windows[1], {
            let mut w = WindowReport {
                index: 1,
                start_secs: 3600,
                end_secs: 7200,
                ..WindowReport::default()
            };
            w.forced = false;
            w
        });
        assert_eq!(summary.windows[2].proxy_records, 1);
        assert_eq!(summary.quality.records_kept, 2);
    }

    #[test]
    fn watermark_emission_happens_before_end_of_stream() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let mut rt = StreamRuntime::new(&ctx, hour_config(0));
        feed(&mut rt, [fx.proxy(1, 100, "api.weather.com")]).unwrap();
        // Watermark 3659: window 0 (end 3600) not yet due (3600+60 > 3659).
        feed(&mut rt, [fx.proxy(1, 3659, "api.weather.com")]).unwrap();
        assert_eq!(rt.reports.len(), 0);
        // Watermark 3660: due.
        feed(&mut rt, [fx.proxy(1, 3660, "api.weather.com")]).unwrap();
        assert_eq!(rt.reports.len(), 1);
        assert_eq!(rt.reports[0].proxy_records, 1);
    }

    #[test]
    fn late_records_merge_and_stale_records_quarantine() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let mut rt = StreamRuntime::new(&ctx, hour_config(600));
        for t in [1000u64, 2000, 1500, 1399] {
            feed(&mut rt, [fx.proxy(1, t, "api.weather.com")]).unwrap();
        }
        // 1500 < max_event 2000 → late-merged; 1399 < watermark 1400 → out
        // of order.
        assert_eq!(rt.late_merged, 1);
        assert_eq!(
            rt.quality().quarantined.get(QuarantineReason::OutOfOrder),
            1
        );
        assert_eq!(rt.quality().records_kept, 3);
    }

    #[test]
    fn duplicates_are_caught_within_the_lateness_horizon() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let mut rt = StreamRuntime::new(&ctx, hour_config(600));
        let ev = fx.proxy(1, 1000, "api.weather.com");
        feed(&mut rt, [ev.clone()]).unwrap();
        feed(&mut rt, [ev]).unwrap();
        assert_eq!(rt.quality().quarantined.get(QuarantineReason::Duplicate), 1);
        assert_eq!(rt.quality().records_kept, 1);
    }

    #[test]
    fn block_backpressure_errors_and_drop_oldest_forces() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let mut config = hour_config(0);
        config.max_open_windows = 2;
        // Three windows forced open at once: lateness keeps none closeable.
        config.lateness = SimDuration::from_hours(10);
        let mut rt = StreamRuntime::new(&ctx, config);
        feed(&mut rt, [fx.proxy(1, 100, "api.weather.com")]).unwrap();
        feed(&mut rt, [fx.proxy(1, 3700, "api.weather.com")]).unwrap();
        let err = feed(&mut rt, [fx.proxy(1, 7300, "api.weather.com")]).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Backpressure { open: 2, limit: 2 }
        ));

        config.backpressure = Backpressure::DropOldest;
        let mut rt = StreamRuntime::new(&ctx, config);
        for t in [100, 3700, 7300] {
            feed(&mut rt, [fx.proxy(1, t, "api.weather.com")]).unwrap();
        }
        assert_eq!(rt.reports.len(), 1);
        assert!(rt.reports[0].forced);
        // A record for the sealed window now has nowhere to go.
        feed(&mut rt, [fx.proxy(1, 200, "api.weather.com")]).unwrap();
        assert_eq!(
            rt.quality().quarantined.get(QuarantineReason::OutOfOrder),
            1
        );
        rt.finish();
        let (summary, _) = rt.into_results();
        let forced: Vec<bool> = summary.windows.iter().map(|w| w.forced).collect();
        assert_eq!(forced, [true, false, false]);
        assert!(summary.render().contains("windows emitted: 3 (1 forced)"));
    }

    /// A window's report totals, checked against counts taken record by
    /// record: users 1 and 2 carry watches, user 3 a phone.
    #[test]
    fn window_report_totals_its_partials() {
        use wearscope_devicedb::DeviceClass;

        let fx = Fixture::new();
        let ctx = fx.ctx();
        let phone = fx.db.tacs_of_class(DeviceClass::Smartphone)[0];
        let (mut proxy_records, mut wearable_tx, mut wearable_bytes) = (0, 0, 0);
        let mut partials = CorePartials::default();
        for i in 0..15u64 {
            let user = 1 + i % 3;
            let watch = user != 3;
            let tac = if watch {
                fx.db.wearable_tacs()[0]
            } else {
                phone
            };
            let r = ProxyRecord {
                timestamp: SimTime::from_secs(100 + i * 7),
                user: UserId(user),
                imei: fx.db.example_imei(tac, user as u32).as_u64(),
                host: HostId::intern("api.weather.com"),
                scheme: Scheme::Https,
                bytes_down: 100 + i,
                bytes_up: 11,
            };
            partials.absorb_proxy(&ctx, &r, ctx.device_class(r.imei));
            proxy_records += 1;
            if watch {
                wearable_tx += 1;
                wearable_bytes += 111 + i;
            }
        }
        let spec = hour_config(0).spec;
        let report = window_report(spec, 2, &partials, 1, true);
        assert_eq!(
            report,
            WindowReport {
                index: 2,
                start_secs: 7200,
                end_secs: 10_800,
                proxy_records,
                mme_records: 0,
                wearable_tx,
                wearable_bytes,
                users: 3,
                attributed: 0,
                late_merged: 1,
                forced: true,
            }
        );
    }

    #[test]
    fn metrics_mirror_the_quality_ledger() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let reg = Registry::new();
        let mut rt = StreamRuntime::new(&ctx, hour_config(600)).with_metrics(&reg);
        // 1500 late-merges, 1399 is behind the watermark (1400), and a
        // replay of the t=2000 record is a duplicate.
        for t in [1000u64, 2000, 1500, 1399] {
            feed(&mut rt, [fx.proxy(1, t, "api.weather.com")]).unwrap();
        }
        feed(&mut rt, [fx.proxy(1, 2000, "api.weather.com")]).unwrap();
        rt.finish();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["stream.records_processed"], 5);
        assert_eq!(snap.counters["stream.records_kept"], 3);
        assert_eq!(snap.counters["stream.late_merged"], 1);
        assert_eq!(snap.counters["stream.quarantined.out-of-order"], 1);
        assert_eq!(snap.counters["stream.quarantined.duplicate"], 1);
        // 1399 is behind the proxy log's own high-water mark, 2000, too.
        assert_eq!(snap.counters["stream.watermark_only_quarantined"], 0);
        assert_eq!(snap.counters["stream.quarantined.truncated"], 0);
        assert_eq!(snap.counters["stream.windows_emitted"], 1);
        assert_eq!(snap.counters["stream.forced_emits"], 0);
        assert_eq!(snap.counters["stream.backpressure_blocks"], 0);
        // All three kept records share window 0; finish drained it.
        assert_eq!(snap.gauges["stream.open_windows"], 0);
        assert_eq!(snap.gauges["stream.open_windows_peak"], 1);
        assert_eq!(snap.gauges["stream.watermark_secs"], 1400);
    }

    /// A released transaction behind a later-stamped one still waiting
    /// reaches its window before the window seals: window 0 counts the
    /// late first-party transaction, and all four transactions land.
    #[test]
    fn released_transactions_reach_their_window_before_it_seals() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let mut config = hour_config(600);
        config.collect_aggregates = true;
        let mut rt = StreamRuntime::new(&ctx, config);
        for (t, host) in [
            (3700, "cdn.telemetry.example"),
            (3300, "api.weather.com"),
            (4300, "cdn.telemetry.example"),
            (9000, "cdn.telemetry.example"),
        ] {
            feed(&mut rt, [fx.proxy(1, t, host)]).unwrap();
        }
        rt.finish();
        assert_eq!(rt.late_merged, 1);
        let (summary, collected) = rt.into_results();
        assert_eq!(summary.windows[0].attributed, 1);
        let routed: usize = collected.iter().map(|(_, p)| p.attributed.len()).sum();
        assert_eq!(routed, 4);
    }

    /// The one way batch and stream validation disagree at lateness 0.
    /// A proxy record with a bad IMEI, stamped far ahead, parks the proxy
    /// log in the merge while the MME log advances past the next proxy
    /// record. Batch measures that record against the proxy log's own
    /// high-water mark and keeps it; stream measures it against the
    /// merged watermark and quarantines it `OutOfOrder`, and counts it in
    /// `stream.watermark_only_quarantined`.
    #[test]
    fn merged_watermark_is_the_only_rule_batch_does_not_share() {
        use wearscope_ingest::{load_store_resilient, IngestOptions};
        use wearscope_trace::{MmeEvent, TsvRecord};

        let fx = Fixture::new();
        let proxy = |t: u64| match fx.proxy(1, t, "api.weather.com") {
            StreamEvent::Proxy(r) => r,
            StreamEvent::Mme(_) => unreachable!(),
        };
        let mme = |t: u64| MmeRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(1),
            imei: proxy(0).imei,
            event: MmeEvent::SectorUpdate,
            sector: 0,
        };
        let mut far_ahead = proxy(5000);
        far_ahead.imei += 1; // breaks the Luhn check digit
        let proxy_log = [proxy(100), far_ahead, proxy(200)];
        let mme_log = [mme(150), mme(4000), mme(6000)];
        let dir = std::env::temp_dir().join(format!("wearscope-rule-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let lines =
            |records: &[String]| records.iter().map(|l| format!("{l}\n")).collect::<String>();
        std::fs::write(
            dir.join("proxy.log"),
            lines(&proxy_log.map(|r| r.to_line())),
        )
        .unwrap();
        std::fs::write(dir.join("mme.log"), lines(&mme_log.map(|r| r.to_line()))).unwrap();

        let opts = IngestOptions::default().with_max_error_rate(1.0);
        let (_, batch) = load_store_resilient(&dir, 1, &opts).unwrap();
        assert_eq!(
            batch.quality.quarantined.get(QuarantineReason::UnknownImei),
            1
        );
        assert_eq!(
            batch.quality.quarantined.get(QuarantineReason::OutOfOrder),
            0
        );
        assert_eq!(batch.quality.records_kept, 5);

        let ctx = fx.ctx();
        let reg = Registry::new();
        let mut rt = StreamRuntime::new(&ctx, hour_config(0)).with_metrics(&reg);
        let mut src = crate::source::WorldSource::open(&dir, false).unwrap();
        assert_eq!(
            rt.pump(&mut src, &PumpOptions::default()).unwrap(),
            PumpOutcome::Finished
        );
        let (stream, _) = rt.into_results();
        assert_eq!(
            stream
                .quality
                .quarantined
                .get(QuarantineReason::UnknownImei),
            1
        );
        assert_eq!(
            stream.quality.quarantined.get(QuarantineReason::OutOfOrder),
            1
        );
        assert_eq!(stream.quality.records_kept, 4);
        let counters = reg.snapshot().counters;
        assert_eq!(counters["stream.watermark_only_quarantined"], 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pump_channel_source_to_completion() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let (tx, mut src) = ChannelSource::pair();
        let mut rt = StreamRuntime::new(&ctx, hour_config(0));
        for t in [10, 20, 3900] {
            let StreamEvent::Proxy(r) = fx.proxy(1, t, "api.weather.com") else {
                unreachable!()
            };
            tx.send(StreamEvent::Proxy(r)).unwrap();
        }
        assert_eq!(
            rt.pump(&mut src, &PumpOptions::default()).unwrap(),
            PumpOutcome::Pending
        );
        drop(tx);
        assert_eq!(
            rt.pump(&mut src, &PumpOptions::default()).unwrap(),
            PumpOutcome::Finished
        );
        assert_eq!(rt.records_processed(), 3);
        rt.finish();
        let (summary, _) = rt.into_results();
        assert_eq!(summary.windows.len(), 2);
        assert_eq!(summary.final_watermark_secs, Some(3900));
    }

    #[test]
    fn stop_after_is_a_hard_stop() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let (tx, mut src) = ChannelSource::pair();
        for t in [10, 20, 30, 40] {
            let StreamEvent::Proxy(r) = fx.proxy(1, t, "api.weather.com") else {
                unreachable!()
            };
            tx.send(StreamEvent::Proxy(r)).unwrap();
        }
        drop(tx);
        let mut rt = StreamRuntime::new(&ctx, hour_config(0));
        let opts = PumpOptions {
            stop_after: Some(2),
            ..PumpOptions::default()
        };
        assert_eq!(rt.pump(&mut src, &opts).unwrap(), PumpOutcome::Stopped);
        assert_eq!(rt.records_processed(), 2);
    }
}
