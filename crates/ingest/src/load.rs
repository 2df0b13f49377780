//! The batch pipeline over persisted `proxy.log` / `mme.log` files.
//!
//! Each log is cut into fixed-size, newline-aligned byte chunks
//! (`CHUNK_BYTES`, 64 KiB, planned by [`wearscope_trace::plan_tsv_shards`]).
//! `workers` shard threads parse them: each claims the next chunk in file
//! order, proxy first, then MME, as long as fewer than `workers ×
//! (IN_FLIGHT + 1)` chunks are claimed and not yet taken (`IN_FLIGHT`,
//! two, parsed chunks waiting per worker, and the one it is parsing). The
//! calling thread takes the chunks in the same order. It quarantines each
//! chunk's malformed lines, runs the log's [`RecordValidator`] against the
//! log's own high-water mark, and hands the kept records to a sink while
//! the workers parse ahead. [`fold_logs_resilient`] folds them into the
//! aggregates through one [`Fold`], so memory follows fold state, not log
//! size; [`load_store_resilient`] collects them into a [`TraceStore`].
//!
//! No chunk allocates once the pipeline is running. Each worker reads all
//! its chunks through one [`ShardReader`] (one open file, reopened when
//! the log changes, and one line buffer), into a parsed chunk from a pool
//! the calling thread gives each chunk back to once it has validated and
//! sunk it. So at most `workers × (IN_FLIGHT + 1) + 1` parsed chunks exist
//! at once: the claimed ones and the one being folded. A calling thread
//! that has to wait waits for half of the claimed window to be parsed,
//! not for one chunk, so it sleeps and wakes once per batch of chunks.
//!
//! Both **quarantine and degrade**: malformed lines, duplicates,
//! timestamp regressions, clock skew, invalid IMEIs and sectors outside
//! the cell plan are quarantined per record (see [`crate::quarantine`])
//! and the run succeeds on the survivors, up to the `--max-error-rate`
//! budget. Chunk reads retry transient I/O errors with backoff and run
//! under `catch_unwind`, so a poisoned chunk is a typed error, not a
//! crash.
//!
//! Every quarantine decision is a function of file content and file order
//! only: chunks are cut by size, not by worker count, and are validated in
//! file order. So runs are bit-identical for every worker count, corrupted
//! input included.

use std::any::Any;
use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use wearscope_core::merge::Fold;
use wearscope_core::{CoreAggregates, StudyContext};
use wearscope_devicedb::Imei;
use wearscope_obs::{Counter, Registry};
use wearscope_report::{DataQuality, IngestReport, QuarantineReason, ShardSource};
use wearscope_trace::{
    plan_tsv_shards, ByteRange, MmeRecord, ProxyRecord, ShardReader, TraceStore, TsvShard,
};

use crate::error::{with_io_retry, IngestError};
use crate::quarantine::{
    reason_for_codec, write_quarantine_log, IngestOptions, LogLedger, LogRecord, Position,
    QuarantineEntry, RecordValidator, Rejection,
};
use crate::MAX_WORKERS;

/// Bytes per chunk: a proxy chunk parses into about a thousand records, so
/// the chunks in flight stay small next to the fold state.
const CHUNK_BYTES: u64 = 64 * 1024;

/// Parsed chunks per worker that may wait for the calling thread.
const IN_FLIGHT: usize = 2;

/// One chunk read: which log, which of its chunks, and the byte range.
struct Task<'a> {
    source: ShardSource,
    path: &'a Path,
    shard: usize,
    range: ByteRange,
}

enum Parsed {
    Proxy(TsvShard<ProxyRecord>),
    Mme(TsvShard<MmeRecord>),
}

impl Parsed {
    fn source(&self) -> ShardSource {
        match self {
            Parsed::Proxy(_) => ShardSource::Proxy,
            Parsed::Mme(_) => ShardSource::Mme,
        }
    }
}

/// The chunks between the parse workers and the calling thread. Workers
/// claim tasks in order and leave each outcome in its slot; the calling
/// thread takes the outcomes in the same order and gives each parsed
/// chunk back to be parsed into again.
struct Queue {
    state: Mutex<QueueState>,
    /// Signalled for the calling thread when its next outcome is in.
    parsed: Condvar,
    /// Signalled for the workers when the calling thread takes an outcome
    /// or stops.
    taken: Condvar,
    /// The most tasks claimed and not yet taken.
    window: usize,
}

#[derive(Default)]
struct QueueState {
    /// The next task a worker claims.
    claimed: usize,
    /// The outcomes of the claimed tasks not yet taken, in task order:
    /// `None` while a worker parses it.
    outcomes: VecDeque<Option<Done>>,
    /// Parsed chunks given back, to parse into again.
    pool: Vec<Parsed>,
    /// The outcomes at the front that are in.
    ready: usize,
    /// Workers waiting for the window to move.
    idle: usize,
    /// While the calling thread waits: the outcomes it waits to be ready.
    wake_at: Option<usize>,
    /// The calling thread takes no more outcomes.
    stopped: bool,
}

impl Queue {
    fn new(window: usize) -> Queue {
        Queue {
            state: Mutex::default(),
            parsed: Condvar::new(),
            taken: Condvar::new(),
            window,
        }
    }

    /// The state, also after a panic elsewhere: every change to it is
    /// made whole under the lock.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// For a worker: the next task and a parsed chunk to read it into, once
    /// the window has room; `None` when the tasks are all claimed or the
    /// calling thread has stopped.
    fn claim(&self, tasks: &[Task<'_>]) -> Option<(usize, Parsed)> {
        let mut state = self.lock();
        while !state.stopped && state.claimed < tasks.len() && state.outcomes.len() >= self.window {
            state.idle += 1;
            state = self
                .taken
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.idle -= 1;
        }
        if state.stopped || state.claimed == tasks.len() {
            return None;
        }
        let task = state.claimed;
        state.claimed += 1;
        state.outcomes.push_back(None);
        Some((task, reusable(&mut state.pool, tasks[task].source)))
    }

    /// For a worker: the outcome of a task it claimed.
    fn finish(&self, task: usize, done: Done) {
        let mut state = self.lock();
        // The calling thread's next task is `claimed - outcomes.len()`,
        // and it waits for this one before it takes any later one.
        let slot = task + state.outcomes.len() - state.claimed;
        state.outcomes[slot] = Some(done);
        while state.outcomes.get(state.ready).is_some_and(Option::is_some) {
            state.ready += 1;
        }
        if state.wake_at.is_some_and(|n| state.ready >= n) {
            self.parsed.notify_one();
        }
    }

    /// For the calling thread: its next outcome, once parsed, after giving
    /// back the chunk it parsed before, if any. `left` counts the tasks it
    /// has still to take, this one included.
    fn take(&self, given_back: Option<Parsed>, left: usize) -> Done {
        let mut state = self.lock();
        state.pool.extend(given_back);
        if state.ready == 0 {
            // A wait costs a sleep and a wake-up, so it is for half a
            // window of outcomes, not one: the workers parse on meanwhile.
            let batch = self.window.div_ceil(2).min(left);
            state.wake_at = Some(batch);
            while state.ready < batch {
                state = self
                    .parsed
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.wake_at = None;
        }
        let done = state.outcomes.pop_front().flatten().expect("ready");
        state.ready -= 1;
        if state.idle > 0 {
            self.taken.notify_one();
        }
        done
    }
}

/// Stops the workers when dropped: the calling thread leaves the loop
/// over the tasks, by returning or by unwinding.
struct StopOnDrop<'q>(&'q Queue);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.lock().stopped = true;
        self.0.taken.notify_all();
    }
}

/// A worker's outcome for one chunk: the parsed chunk and its parse time,
/// an I/O error that survived the retries, or a panic's message.
type Done = Result<io::Result<(Parsed, Duration)>, String>;

/// Where the pipeline hands each chunk's kept records, with the IMEIs
/// the validator checked: every proxy chunk, then every MME chunk, each
/// in file order.
trait Sink {
    fn proxy(&mut self, kept: &[ProxyRecord], imeis: &[Imei]);
    fn mme(&mut self, kept: &[MmeRecord], imeis: &[Imei]);
}

impl Sink for Fold<'_> {
    fn proxy(&mut self, kept: &[ProxyRecord], imeis: &[Imei]) {
        for (r, &imei) in kept.iter().zip(imeis) {
            self.kept_proxy(r, imei);
        }
        self.release_attributed();
    }

    fn mme(&mut self, kept: &[MmeRecord], imeis: &[Imei]) {
        for (r, &imei) in kept.iter().zip(imeis) {
            self.kept_mme(r, imei);
        }
    }
}

/// Collects the kept records of both logs.
#[derive(Default)]
struct Collect {
    proxy: Vec<ProxyRecord>,
    mme: Vec<MmeRecord>,
}

impl Sink for Collect {
    fn proxy(&mut self, kept: &[ProxyRecord], _: &[Imei]) {
        self.proxy.extend_from_slice(kept);
    }

    fn mme(&mut self, kept: &[MmeRecord], _: &[Imei]) {
        self.mme.extend_from_slice(kept);
    }
}

/// Folds the logs under `dir` into the aggregates of `ctx` as `workers`
/// shard threads (clamped to `1..=`[`MAX_WORKERS`]) parse them,
/// quarantining per-record faults per `opts` instead of aborting. The
/// result equals [`CoreAggregates::sequential`] over the store
/// [`load_store_resilient`] returns, for every worker count.
///
/// # Errors
/// As [`load_store_resilient`].
pub fn fold_logs_resilient(
    dir: &Path,
    workers: usize,
    opts: &IngestOptions,
    ctx: &StudyContext<'_>,
) -> Result<(CoreAggregates, IngestReport), IngestError> {
    let mut fold = Fold::new(ctx);
    let report = run(dir, workers, opts, CHUNK_BYTES, &mut fold)?;
    Ok((fold.into_partials().finish(ctx), report))
}

/// Loads the store under `dir` (as written by `TraceStore::save`) with
/// `workers` shard threads (clamped to `1..=`[`MAX_WORKERS`]),
/// quarantining per-record faults per `opts` instead of aborting.
///
/// # Errors
/// [`IngestError::Io`] for filesystem errors outside the chunks,
/// [`IngestError::ShardFailed`] when a chunk panicked or exhausted its I/O
/// retries (the first failed chunk in proxy-then-MME, lowest-index order
/// is reported), and [`IngestError::ErrorBudget`] when a log's
/// quarantined fraction exceeds `opts.max_error_rate` (`quarantine.log` is
/// still written first).
pub fn load_store_resilient(
    dir: &Path,
    workers: usize,
    opts: &IngestOptions,
) -> Result<(TraceStore, IngestReport), IngestError> {
    load_in_chunks(dir, workers, opts, CHUNK_BYTES)
}

/// [`load_store_resilient`] with chunks of about `chunk_bytes` bytes.
fn load_in_chunks(
    dir: &Path,
    workers: usize,
    opts: &IngestOptions,
    chunk_bytes: u64,
) -> Result<(TraceStore, IngestReport), IngestError> {
    let mut logs = Collect::default();
    let report = run(dir, workers, opts, chunk_bytes, &mut logs)?;
    // Kept records never regress in time, so the store's stable time sort
    // leaves them in file order.
    Ok((TraceStore::from_records(logs.proxy, logs.mme), report))
}

/// Accumulated phase times of the calling thread.
#[derive(Default)]
pub(crate) struct PhaseTimers {
    /// Waiting for the next chunk in file order.
    wait: Duration,
    /// Quarantining malformed lines and running the content checks.
    validate: Duration,
    /// Handing the kept records to the sink.
    fold: Duration,
    /// The parse workers' time on each log's chunks: proxy, then MME.
    parse: [Duration; 2],
}

/// The pipeline: plans both logs' chunks, parses them on `workers`
/// threads, and validates and sinks them in file order on this one.
fn run<S: Sink>(
    dir: &Path,
    workers: usize,
    opts: &IngestOptions,
    chunk_bytes: u64,
    sink: &mut S,
) -> Result<IngestReport, IngestError> {
    let workers = workers.clamp(1, MAX_WORKERS);
    let start = Instant::now();
    let proxy_path = dir.join("proxy.log");
    let mme_path = dir.join("mme.log");
    let plan = |source, path| -> io::Result<Vec<Task<'_>>> {
        let chunks = std::fs::metadata(path)?.len().div_ceil(chunk_bytes.max(1));
        let ranges = plan_tsv_shards(path, usize::try_from(chunks).unwrap_or(usize::MAX))?;
        Ok(ranges
            .into_iter()
            .enumerate()
            .map(|(shard, range)| Task {
                source,
                path,
                shard,
                range,
            })
            .collect())
    };
    let mut tasks = plan(ShardSource::Proxy, &proxy_path)?;
    tasks.extend(plan(ShardSource::Mme, &mme_path)?);

    let retries = opts.metrics.counter("ingest.io_retries");
    let threads = workers.min(tasks.len()).max(1);
    let shard_us = opts.metrics.timing_histogram(
        "ingest.shard_read_us",
        &[100, 1_000, 10_000, 100_000, 1_000_000],
    );
    let mut proxy = LogIngest::new(ShardSource::Proxy, opts);
    let mut mme = LogIngest::new(ShardSource::Mme, opts);
    let mut timers = PhaseTimers::default();
    let queue = Queue::new(threads * (IN_FLIGHT + 1));
    std::thread::scope(|s| {
        for _ in 0..threads {
            let (tasks, queue, retries) = (&tasks, &queue, &retries);
            s.spawn(move || parse_chunks(tasks, queue, retries));
        }
        let _stop = StopOnDrop(&queue);
        // Tasks are proxy chunks, then MME chunks, each by ascending index,
        // so the first failure met here is the deterministic one to report.
        let mut given_back = None;
        for (i, t) in tasks.iter().enumerate() {
            let waited = Instant::now();
            let done = queue.take(given_back.take(), tasks.len() - i);
            timers.wait += waited.elapsed();
            let (mut parsed, wall) = match done {
                Ok(Ok(done)) => done,
                Ok(Err(e)) => return Err(shard_failed(t, false, e.to_string())),
                Err(panic) => return Err(shard_failed(t, true, panic)),
            };
            shard_us.observe(wall.as_micros() as u64);
            timers.parse[usize::from(t.source == ShardSource::Mme)] += wall;
            match &mut parsed {
                Parsed::Proxy(chunk) => {
                    proxy.take(chunk, &mut timers, |kept, imeis| sink.proxy(kept, imeis));
                }
                Parsed::Mme(chunk) => {
                    mme.take(chunk, &mut timers, |kept, imeis| sink.mme(kept, imeis));
                }
            }
            // Tasks are grouped by log: once a log's last chunk is in,
            // its chunks are dropped, not given back.
            if tasks.get(i + 1).is_some_and(|next| next.source == t.source) {
                given_back = Some(parsed);
            }
        }
        Ok(())
    })?;
    let (proxy, mut entries) = proxy.finish();
    let (mme, mme_entries) = mme.finish();
    entries.extend(mme_entries);
    let (proxy_quality, mme_quality) = (proxy.quality(), mme.quality());

    record_source_metrics(&opts.metrics, ShardSource::Proxy, &proxy_quality, &tasks);
    record_source_metrics(&opts.metrics, ShardSource::Mme, &mme_quality, &tasks);
    record_pool_timings(&opts.metrics, workers, tasks.len(), &timers, start);

    if let Some(path) = &opts.quarantine_log {
        if entries.is_empty() {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(IngestError::Io(e)),
            }
        } else {
            write_quarantine_log(path, &entries)?;
        }
    }

    proxy.check_budget(opts.max_error_rate)?;
    mme.check_budget(opts.max_error_rate)?;

    let mut quality = proxy_quality;
    quality.merge(&mme_quality);
    Ok(IngestReport {
        workers,
        shards: tasks.len(),
        quality,
        wall: start.elapsed(),
    })
}

/// A parse worker: claims the next task, parses it through its one
/// reader and leaves the outcome in the queue, until the tasks run out or
/// the calling thread stops taking them.
fn parse_chunks(tasks: &[Task<'_>], queue: &Queue, retries: &Counter) {
    let mut reader = ShardReader::new();
    while let Some((task, mut parsed)) = queue.claim(tasks) {
        let t0 = Instant::now();
        let read = catch_unwind(AssertUnwindSafe(|| {
            read_task(&tasks[task], &mut reader, &mut parsed, retries)
        }));
        let done = match read {
            Ok(Ok(())) => Ok(Ok((parsed, t0.elapsed()))),
            Ok(Err(e)) => Ok(Err(e)),
            Err(payload) => Err(panic_message(payload.as_ref())),
        };
        queue.finish(task, done);
    }
}

/// A parsed chunk to read a chunk of `source` into: one given back for
/// that log, or a new one. Given-back chunks of the other log are dropped.
fn reusable(pool: &mut Vec<Parsed>, source: ShardSource) -> Parsed {
    while let Some(parsed) = pool.pop() {
        if parsed.source() == source {
            return parsed;
        }
    }
    match source {
        ShardSource::Proxy => Parsed::Proxy(TsvShard::default()),
        ShardSource::Mme => Parsed::Mme(TsvShard::default()),
    }
}

/// A panic payload's message: its `&str` or `String`, or a placeholder
/// for any other payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

/// Reads one chunk into `parsed` (of the chunk's log) inside a worker,
/// retrying transient I/O errors with backoff.
fn read_task(
    t: &Task<'_>,
    reader: &mut ShardReader,
    parsed: &mut Parsed,
    retries: &Counter,
) -> io::Result<()> {
    #[cfg(test)]
    test_hooks::maybe_panic(t.path, t.source, t.shard);
    let retries = Some(retries);
    match parsed {
        Parsed::Proxy(chunk) => with_io_retry(|| reader.read_into(t.path, t.range, chunk), retries),
        Parsed::Mme(chunk) => with_io_retry(|| reader.read_into(t.path, t.range, chunk), retries),
    }
}

fn shard_failed(t: &Task<'_>, panicked: bool, detail: String) -> IngestError {
    IngestError::ShardFailed {
        source: t.source,
        shard: t.shard,
        panicked,
        detail,
    }
}

/// One log's ledger while its chunks arrive in file order, plus what only
/// batch keeps: the line base, the `quarantine.log` entries and the
/// checked IMEIs of the chunk in hand.
pub(crate) struct LogIngest<R> {
    ledger: LogLedger<R>,
    /// Lines in the chunks taken so far: a chunk's line base.
    line_base: u64,
    parse_entries: Vec<QuarantineEntry>,
    content_entries: Vec<QuarantineEntry>,
    /// The checked IMEIs of the chunk's kept records, in order.
    imeis: Vec<Imei>,
}

impl<R: LogRecord> LogIngest<R> {
    pub(crate) fn new(source: ShardSource, opts: &IngestOptions) -> LogIngest<R> {
        let validator =
            RecordValidator::new(opts.max_timestamp).with_sector_count(opts.sector_count);
        LogIngest {
            ledger: LogLedger::new(source, validator),
            line_base: 0,
            parse_entries: Vec::new(),
            content_entries: Vec::new(),
            imeis: Vec::new(),
        }
    }

    /// Takes the log's next chunk: its parse errors become quarantine
    /// entries at global line numbers, each parsed record passes the
    /// content checks against the log's high-water mark, and the kept
    /// records go to `sink`.
    pub(crate) fn take(
        &mut self,
        chunk: &mut TsvShard<R>,
        timers: &mut PhaseTimers,
        sink: impl FnOnce(&[R], &[Imei]),
    ) {
        let t0 = Instant::now();
        let source = self.ledger.source;
        for (local_line, error) in &chunk.errors {
            let (line, reason) = (self.line_base + local_line, reason_for_codec(error));
            self.ledger.malformed(line, reason);
            self.parse_entries.push(QuarantineEntry {
                source,
                position: Position::Line(line),
                reason,
                detail: error.to_string(),
            });
        }
        self.line_base += chunk.lines;
        self.imeis.clear();
        chunk.records.retain(|record| {
            let position = Position::Record(self.ledger.records);
            match self.ledger.check(record, self.ledger.high_water(), false) {
                Ok(imei) => {
                    self.imeis.push(imei);
                    true
                }
                Err(Rejection { reason, detail }) => {
                    self.content_entries.push(QuarantineEntry {
                        source,
                        position,
                        reason,
                        detail,
                    });
                    false
                }
            }
        });
        let t1 = Instant::now();
        sink(&chunk.records, &self.imeis);
        timers.validate += t1 - t0;
        timers.fold += t1.elapsed();
    }

    /// The log's ledger and its `quarantine.log` entries: parse faults,
    /// then content faults.
    pub(crate) fn finish(self) -> (LogLedger<R>, Vec<QuarantineEntry>) {
        let mut entries = self.parse_entries;
        entries.extend(self.content_entries);
        (self.ledger, entries)
    }
}

/// Records one source's outcome into the registry: records seen/kept,
/// quarantined-per-reason and decode errors from its ledger, and the bytes
/// its chunks cover (the file size). All are functions of file content
/// alone.
fn record_source_metrics(m: &Registry, source: ShardSource, quality: &DataQuality, tasks: &[Task]) {
    let name = source.name();
    m.counter(&format!("ingest.{name}.records_seen"))
        .add(quality.records_seen);
    m.counter(&format!("ingest.{name}.records_kept"))
        .add(quality.records_kept);
    for reason in QuarantineReason::ALL {
        m.counter(&format!("ingest.{name}.quarantined.{}", reason.name()))
            .add(quality.quarantined.get(reason));
    }
    let chunks = tasks.iter().filter(|t| t.source == source);
    m.counter(&format!("trace.{name}.bytes_read"))
        .add(chunks.map(|t| t.range.len()).sum());
    m.counter(&format!("trace.{name}.decode_errors"))
        .add(quality.malformed());
}

/// Pipeline timings: worker and chunk counts, the calling thread's
/// accumulated wait, validate and fold times, and each log's summed chunk
/// parse time (the per-chunk parse times went into `ingest.shard_read_us`
/// as the chunks arrived). All clock- or thread-dependent, hence the
/// timing section.
fn record_pool_timings(
    m: &Registry,
    workers: usize,
    shards: usize,
    timers: &PhaseTimers,
    start: Instant,
) {
    m.timing_gauge("ingest.workers").set(workers as i64);
    m.timing_counter("ingest.shards").add(shards as u64);
    for (name, spent) in [
        ("ingest.wait_ns", timers.wait),
        ("ingest.validate_ns", timers.validate),
        ("ingest.fold_ns", timers.fold),
        ("ingest.proxy.parse_ns", timers.parse[0]),
        ("ingest.mme.parse_ns", timers.parse[1]),
    ] {
        m.timing_counter(name).add(spent.as_nanos() as u64);
    }
    m.timing_gauge("ingest.load_wall_us")
        .set(start.elapsed().as_micros() as i64);
}

#[cfg(test)]
pub(crate) mod test_hooks {
    //! Deterministic fault injection for the pipeline tests: panic when a
    //! specific (file, source, chunk) is read. Keyed by the log file's
    //! path so concurrently running tests (each with its own temp dir)
    //! never trip each other's hook.
    use std::path::{Path, PathBuf};
    use std::sync::Mutex;

    use wearscope_report::ShardSource;

    pub(crate) static PANIC_ON: Mutex<Option<(PathBuf, ShardSource, usize)>> = Mutex::new(None);

    pub(super) fn maybe_panic(path: &Path, source: ShardSource, shard: usize) {
        // Clone and release the lock before panicking so the unwind does
        // not poison the hook for the other tests in this binary.
        let hook = PANIC_ON
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        if let Some((p, s, i)) = hook {
            if p == path && s == source && i == shard {
                panic!("injected shard fault");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_report::QuarantineReason;
    use wearscope_simtime::SimTime;
    use wearscope_trace::{HostId, MmeEvent, Scheme, UserId};

    fn sample_store() -> TraceStore {
        let db = wearscope_devicedb::DeviceDb::standard();
        let proxy = (0..500u64)
            .map(|i| ProxyRecord {
                timestamp: SimTime::from_secs(i * 37),
                user: UserId(i % 11),
                imei: db
                    .example_imei(db.wearable_tacs()[0], (i % 11) as u32)
                    .as_u64(),
                host: HostId::intern(&format!("host-{}.example.com", i % 5)),
                scheme: if i % 2 == 0 {
                    Scheme::Https
                } else {
                    Scheme::Http
                },
                bytes_down: i * 13,
                bytes_up: i,
            })
            .collect();
        let mme = (0..200u64)
            .map(|i| MmeRecord {
                timestamp: SimTime::from_secs(i * 91),
                user: UserId(i % 11),
                imei: db
                    .example_imei(db.wearable_tacs()[0], (i % 11) as u32)
                    .as_u64(),
                event: if i % 5 == 4 {
                    MmeEvent::Detach
                } else {
                    MmeEvent::SectorUpdate
                },
                sector: (i % 7) as u32,
            })
            .collect();
        TraceStore::from_records(proxy, mme)
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("wearscope-pload-{tag}-{}", std::process::id()))
    }

    /// Replaces the `victim`-th proxy line with `replacement`.
    fn replace_proxy_line(dir: &Path, victim: usize, replacement: &str) {
        let path = dir.join("proxy.log");
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        let mut out = String::new();
        for (i, line) in lines.iter().enumerate() {
            if i == victim {
                out.push_str(replacement);
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        std::fs::write(&path, out).unwrap();
    }

    /// Chunks small enough that the sample logs span many of them.
    const SMALL: u64 = 1024;

    #[test]
    fn chunked_load_returns_the_saved_store() {
        let store = sample_store();
        let dir = temp_dir("eq");
        store.save(&dir).unwrap();
        for workers in [1, 2, 5] {
            for chunk_bytes in [SMALL, CHUNK_BYTES] {
                let (parallel, report) =
                    load_in_chunks(&dir, workers, &IngestOptions::default(), chunk_bytes).unwrap();
                assert_eq!(parallel.proxy(), store.proxy(), "workers={workers}");
                assert_eq!(parallel.mme(), store.mme(), "workers={workers}");
                assert_eq!(
                    report.records(),
                    (store.proxy().len() + store.mme().len()) as u64
                );
                assert_eq!(report.parse_errors(), 0);
                assert!(report.quality.quarantined.is_empty());
                // The chunk layout follows the chunk size, not the workers.
                assert!(report.shards > 2 || chunk_bytes == CHUNK_BYTES);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Folding the records as they are parsed gives the aggregates of the
    /// sequential fold over the loaded store, at any worker count.
    #[test]
    fn pipeline_fold_equals_fold_over_the_store() {
        use wearscope_appdb::AppCatalog;
        use wearscope_devicedb::DeviceDb;
        use wearscope_geo::{GeoPoint, SectorDirectory};
        use wearscope_simtime::{Calendar, ObservationWindow};

        let store = sample_store();
        let dir = temp_dir("fold");
        store.save(&dir).unwrap();
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let mut sectors = SectorDirectory::new();
        for i in 0..7 {
            sectors.push(GeoPoint::new(40.0 + 0.1 * f64::from(i), -3.0), None);
        }
        let window = ObservationWindow::new(14, 14, Calendar::PAPER);
        let store_ctx = StudyContext::new(&store, &db, &sectors, &catalog, window);
        let want = CoreAggregates::sequential(&store_ctx);
        assert!(!want.transaction_sectors.is_empty());
        let empty = TraceStore::new();
        let ctx = StudyContext::new(&empty, &db, &sectors, &catalog, window);
        for workers in [1, 3] {
            let mut fold = Fold::new(&ctx);
            let report = run(&dir, workers, &IngestOptions::default(), SMALL, &mut fold).unwrap();
            assert!(report.shards > 2);
            let got = fold.into_partials().finish(&ctx);
            assert_eq!(got.activity, want.activity, "workers={workers}");
            assert_eq!(got.traffic, want.traffic, "workers={workers}");
            assert_eq!(got.mobility, want.mobility, "workers={workers}");
            assert_eq!(got.attributed, want.attributed, "workers={workers}");
            assert_eq!(got.owners, want.owners, "workers={workers}");
            assert_eq!(
                got.transaction_sectors, want.transaction_sectors,
                "workers={workers}"
            );
        }
        let (got, _) = fold_logs_resilient(&dir, 2, &IngestOptions::default(), &ctx).unwrap();
        assert_eq!(got.activity, want.activity);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_line_fails_a_zero_budget_load() {
        let store = sample_store();
        let dir = temp_dir("bad");
        store.save(&dir).unwrap();
        replace_proxy_line(&dir, 250, "not\ta\tvalid\trecord");
        let opts = IngestOptions::default().with_max_error_rate(0.0);
        match load_store_resilient(&dir, 4, &opts) {
            Err(IngestError::ErrorBudget {
                source,
                quarantined,
                ..
            }) => {
                assert_eq!(source, ShardSource::Proxy);
                assert_eq!(quarantined, 1);
            }
            other => panic!("expected ErrorBudget, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resilient_load_quarantines_and_stays_deterministic() {
        let store = sample_store();
        let dir = temp_dir("resilient");
        store.save(&dir).unwrap();
        // One garbage line, one duplicated line, one out-of-order swap.
        let path = dir.join("proxy.log");
        let content = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = content.lines().map(str::to_string).collect();
        lines[100] = "garbage line".into();
        let dup = lines[200].clone();
        lines.insert(201, dup);
        lines.swap(300, 301);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let opts = IngestOptions {
            quarantine_log: Some(dir.join("quarantine.log")),
            ..IngestOptions::default()
        };
        let mut baseline: Option<(TraceStore, Vec<u64>)> = None;
        for workers in [1, 2, 5, 8] {
            let (loaded, report) = load_in_chunks(&dir, workers, &opts, SMALL).unwrap();
            let q = &report.quality;
            assert_eq!(q.quarantined.get(QuarantineReason::BadField), 1);
            assert_eq!(q.quarantined.get(QuarantineReason::Duplicate), 1);
            assert_eq!(q.quarantined.get(QuarantineReason::OutOfOrder), 1);
            assert_eq!(q.records_seen, 701);
            assert_eq!(q.records_kept, 698);
            let counts: Vec<u64> = wearscope_report::QuarantineReason::ALL
                .iter()
                .map(|r| q.quarantined.get(*r))
                .collect();
            match &baseline {
                None => baseline = Some((loaded, counts)),
                Some((first, first_counts)) => {
                    assert_eq!(loaded.proxy(), first.proxy(), "workers={workers}");
                    assert_eq!(loaded.mme(), first.mme(), "workers={workers}");
                    assert_eq!(&counts, first_counts, "workers={workers}");
                }
            }
        }
        let log = std::fs::read_to_string(dir.join("quarantine.log")).unwrap();
        assert_eq!(log.lines().count(), 3, "{log}");
        assert!(log.contains("bad-field"), "{log}");
        assert!(log.contains("duplicate"), "{log}");
        assert!(log.contains("out-of-order"), "{log}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_resilient_load_removes_stale_quarantine_log() {
        let store = sample_store();
        let dir = temp_dir("cleanlog");
        store.save(&dir).unwrap();
        std::fs::write(dir.join("quarantine.log"), "stale\n").unwrap();
        let opts = IngestOptions {
            quarantine_log: Some(dir.join("quarantine.log")),
            ..IngestOptions::default()
        };
        let (_, report) = load_store_resilient(&dir, 3, &opts).unwrap();
        assert!(report.quality.quarantined.is_empty());
        assert!(!dir.join("quarantine.log").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_budget_failure_names_the_first_entry_at_any_worker_count() {
        let store = sample_store();
        let dir = temp_dir("budget");
        store.save(&dir).unwrap();
        // Corrupt ~4% of proxy lines — over the default 1% budget.
        let path = dir.join("proxy.log");
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<String> = content
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i % 25 == 0 {
                    "xx".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = load_store_resilient(&dir, 4, &IngestOptions::default()).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("(first: proxy line:1 bad-field)"), "{text}");
        for workers in [1, 2, 3] {
            let other = load_in_chunks(&dir, workers, &IngestOptions::default(), SMALL);
            assert_eq!(other.unwrap_err().to_string(), text, "workers={workers}");
        }
        match err {
            IngestError::ErrorBudget {
                source,
                quarantined,
                seen,
                ..
            } => {
                assert_eq!(source, ShardSource::Proxy);
                assert_eq!(quarantined, 20);
                assert_eq!(seen, 500);
            }
            other => panic!("expected ErrorBudget, got {other}"),
        }
        // The quarantine log was still written for the post-mortem.
        let opts = IngestOptions {
            quarantine_log: Some(dir.join("quarantine.log")),
            ..IngestOptions::default()
        };
        assert!(load_store_resilient(&dir, 4, &opts).is_err());
        assert_eq!(
            std::fs::read_to_string(dir.join("quarantine.log"))
                .unwrap()
                .lines()
                .count(),
            20
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The resilient loader's registry: deterministic counters identical
    /// across worker counts.
    #[test]
    fn resilient_load_metrics_are_deterministic() {
        let store = sample_store();
        let dir = temp_dir("metrics");
        store.save(&dir).unwrap();
        replace_proxy_line(&dir, 100, "garbage line");
        let proxy_bytes = std::fs::metadata(dir.join("proxy.log")).unwrap().len();

        let mut baseline: Option<wearscope_obs::Snapshot> = None;
        for workers in [1, 4] {
            let reg = wearscope_obs::Registry::new();
            let opts = IngestOptions::default().with_metrics(reg.clone());
            load_in_chunks(&dir, workers, &opts, SMALL).unwrap();
            let snap = reg.snapshot();
            assert_eq!(snap.counters["ingest.proxy.records_seen"], 500);
            assert_eq!(snap.counters["ingest.proxy.records_kept"], 499);
            assert_eq!(snap.counters["ingest.proxy.quarantined.bad-field"], 1);
            assert_eq!(snap.counters["ingest.mme.records_seen"], 200);
            assert_eq!(snap.counters["ingest.io_retries"], 0);
            assert_eq!(snap.counters["trace.proxy.bytes_read"], proxy_bytes);
            assert_eq!(snap.counters["trace.proxy.decode_errors"], 1);
            // The deterministic section is byte-identical across workers.
            let mut stripped = snap.clone();
            stripped.timing = Default::default();
            match &baseline {
                None => baseline = Some(stripped),
                Some(first) => assert_eq!(&stripped, first, "workers={workers}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_logs_load_cleanly() {
        let dir = temp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("proxy.log"), "").unwrap();
        std::fs::write(dir.join("mme.log"), "").unwrap();
        for workers in [1, 4] {
            let (store, report) =
                load_store_resilient(&dir, workers, &IngestOptions::default()).unwrap();
            assert!(store.is_empty());
            assert_eq!(report.quality.records_seen, 0);
            assert_eq!(report.quality.coverage(), 1.0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panicking_shard_is_isolated_and_reported() {
        let store = sample_store();
        let dir = temp_dir("panic");
        store.save(&dir).unwrap();
        let proxy_path = dir.join("proxy.log");
        *test_hooks::PANIC_ON.lock().unwrap() = Some((proxy_path.clone(), ShardSource::Proxy, 1));
        let result = load_in_chunks(&dir, 4, &IngestOptions::default(), SMALL);
        *test_hooks::PANIC_ON.lock().unwrap() = None;
        match result {
            Err(IngestError::ShardFailed {
                source,
                shard,
                panicked,
                detail,
            }) => {
                assert_eq!(source, ShardSource::Proxy);
                assert_eq!(shard, 1);
                assert!(panicked);
                assert!(detail.contains("injected"), "{detail}");
            }
            other => panic!("expected ShardFailed, got {:?}", other.map(|_| ())),
        }
        // The same world loads fine once the poison is gone.
        let (loaded, _) = load_in_chunks(&dir, 4, &IngestOptions::default(), SMALL).unwrap();
        assert_eq!(loaded.len(), store.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}
