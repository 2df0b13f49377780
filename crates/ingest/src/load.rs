//! Parallel loading of persisted `proxy.log` / `mme.log` files.
//!
//! The shard planner ([`wearscope_trace::plan_tsv_shards`]) splits each
//! file into record-aligned byte ranges; the crate's worker pool then parses
//! ranges concurrently and the shards are concatenated in file order, so
//! the resulting [`TraceStore`] is identical to a sequential
//! [`TraceStore::load`] for any worker count.
//!
//! [`load_store_resilient`] **quarantines and degrades**: malformed lines,
//! duplicates, timestamp regressions, clock skew, and invalid IMEIs are
//! quarantined per record (see [`crate::quarantine`]) and the load succeeds
//! on the survivors, up to the `--max-error-rate` budget. Shard reads retry
//! transient I/O errors with backoff and run under `catch_unwind`, so a
//! poisoned shard is recorded as failed while the remaining shards
//! complete.
//!
//! Every quarantine decision is a function of file content and file order
//! only — never of shard layout or scheduling — so resilient loads are
//! bit-identical for every worker count, corrupted input included.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use wearscope_obs::{Counter, Registry};
use wearscope_report::{
    DataQuality, IngestReport, QuarantineCounts, QuarantineReason, ShardProgress, ShardSource,
};
use wearscope_simtime::SimTime;
use wearscope_trace::{
    plan_tsv_shards, read_tsv_shard, ByteRange, MmeRecord, ProxyRecord, TraceStore, TsvShard,
};

use crate::error::{with_io_retry, IngestError};
use crate::pool::run_indexed;
use crate::quarantine::{
    reason_for_codec, write_quarantine_log, IngestOptions, LogRecord, Position, QuarantineEntry,
    RecordValidator, Rejection,
};
use crate::MAX_WORKERS;

/// Byte-range shards per worker and log: enough queue granularity that
/// work stealing evens out skewed shards, without drowning the progress
/// report.
const SHARDS_PER_WORKER: usize = 4;

/// One shard read: which log, which of its shards, and the byte range.
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

/// Loads the store under `dir` (as written by `TraceStore::save`) with a
/// pool of `workers` shard readers (clamped to `1..=`[`MAX_WORKERS`]),
/// quarantining per-record faults per `opts` instead of aborting.
///
/// # Errors
/// [`IngestError::Io`] for filesystem errors outside the shards,
/// [`IngestError::ShardFailed`] when a shard panicked or exhausted its I/O
/// retries (the remaining shards still complete; the first failed shard in
/// proxy-then-MME, lowest-index order is reported), and
/// [`IngestError::ErrorBudget`] when a log's quarantined fraction exceeds
/// `opts.max_error_rate` (`quarantine.log` is still written first).
pub fn load_store_resilient(
    dir: &Path,
    workers: usize,
    opts: &IngestOptions,
) -> Result<(TraceStore, IngestReport), IngestError> {
    let workers = workers.clamp(1, MAX_WORKERS);
    let start = Instant::now();
    let proxy_path = dir.join("proxy.log");
    let mme_path = dir.join("mme.log");
    let max_shards = workers.saturating_mul(SHARDS_PER_WORKER);
    let plan = |source, path| -> io::Result<Vec<Task<'_>>> {
        Ok(plan_tsv_shards(path, max_shards)?
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
    let results = run_indexed(workers, &tasks, |t| {
        let t0 = Instant::now();
        read_task(t, &retries).map(|parsed| (parsed, t0.elapsed()))
    });

    let mut proxy_shards = Vec::new();
    let mut mme_shards = Vec::new();
    let mut progress = Vec::with_capacity(results.len());
    // Task order is proxy first, then MME, each by ascending shard, so the
    // first failure met here is the deterministic one to report.
    for (t, result) in tasks.iter().zip(results) {
        let (parsed, wall) = match result {
            Ok(Ok(done)) => done,
            Ok(Err(e)) => return Err(shard_failed(t, false, e.to_string())),
            Err(panic) => return Err(shard_failed(t, true, panic)),
        };
        progress.push(match parsed {
            Parsed::Proxy(shard) => {
                let p = shard_progress(t, &shard, wall);
                proxy_shards.push(shard);
                p
            }
            Parsed::Mme(shard) => {
                let p = shard_progress(t, &shard, wall);
                mme_shards.push(shard);
                p
            }
        });
    }

    let proxy = process_source(ShardSource::Proxy, proxy_shards, opts);
    let mme = process_source(ShardSource::Mme, mme_shards, opts);

    record_source_metrics(&opts.metrics, ShardSource::Proxy, &proxy, &progress);
    record_source_metrics(&opts.metrics, ShardSource::Mme, &mme, &progress);
    record_pool_timings(&opts.metrics, workers, &progress, start);

    if let Some(path) = &opts.quarantine_log {
        if proxy.entries.is_empty() && mme.entries.is_empty() {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(IngestError::Io(e)),
            }
        } else {
            let mut entries = proxy.entries.clone();
            entries.extend(mme.entries.iter().cloned());
            write_quarantine_log(path, &entries)?;
        }
    }

    check_budget(ShardSource::Proxy, &proxy, opts)?;
    check_budget(ShardSource::Mme, &mme, opts)?;

    let mut quarantined = proxy.counts;
    quarantined.merge(&mme.counts);
    let quality = DataQuality {
        records_seen: proxy.seen + mme.seen,
        records_kept: (proxy.kept.len() + mme.kept.len()) as u64,
        quarantined,
        failed_shards: Vec::new(),
        max_error_rate: opts.max_error_rate,
    };

    // Concatenated in shard-index order = file order; `from_records`' stable
    // time sort then reproduces the sequential load exactly.
    let store = TraceStore::from_records(proxy.kept, mme.kept);
    let report = IngestReport {
        workers,
        shards: progress,
        quality,
        wall: start.elapsed(),
    };
    Ok((store, report))
}

/// Reads one shard inside a pool worker, retrying transient I/O errors
/// with backoff.
fn read_task(t: &Task<'_>, retries: &Counter) -> io::Result<Parsed> {
    #[cfg(test)]
    test_hooks::maybe_panic(t.path, t.source, t.shard);
    let retries = Some(retries);
    if t.source == ShardSource::Proxy {
        with_io_retry(|| read_tsv_shard(t.path, t.range), retries).map(Parsed::Proxy)
    } else {
        with_io_retry(|| read_tsv_shard(t.path, t.range), retries).map(Parsed::Mme)
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

/// One log's post-pool outcome: survivors plus the quarantine ledger.
pub(crate) struct SourceOutcome<R> {
    pub(crate) kept: Vec<R>,
    /// Non-blank lines attempted: parsed records + malformed lines.
    pub(crate) seen: u64,
    pub(crate) counts: QuarantineCounts,
    pub(crate) entries: Vec<QuarantineEntry>,
}

/// Drains one source's shards in file order into the survivors: shard-local
/// parse errors become global quarantine entries, and each parsed record
/// passes the content checks against the log's own high-water mark.
pub(crate) fn process_source<R: LogRecord>(
    source: ShardSource,
    shards: Vec<TsvShard<R>>,
    opts: &IngestOptions,
) -> SourceOutcome<R> {
    // Parse-fault entries, then content-fault entries.
    let mut entries = Vec::new();
    let mut content_entries = Vec::new();
    let mut kept = Vec::with_capacity(shards.iter().map(|s| s.records.len()).sum());
    let mut validator = RecordValidator::new(opts.max_timestamp);
    let mut high_water = SimTime::EPOCH;
    let (mut seen, mut line_base, mut record_index) = (0u64, 0u64, 0u64);
    for shard in shards {
        entries.extend(
            shard
                .errors
                .iter()
                .map(|(local_line, error)| QuarantineEntry {
                    source,
                    position: Position::Line(line_base + local_line),
                    reason: reason_for_codec(error),
                    detail: error.to_string(),
                }),
        );
        seen += (shard.errors.len() + shard.records.len()) as u64;
        line_base += shard.lines;
        for record in shard.records {
            match validator.check(&record, high_water, false) {
                Ok(()) => {
                    high_water = record.timestamp();
                    kept.push(record);
                }
                Err(Rejection { reason, detail }) => content_entries.push(QuarantineEntry {
                    source,
                    position: Position::Record(record_index),
                    reason,
                    detail,
                }),
            }
            record_index += 1;
        }
    }
    entries.append(&mut content_entries);
    let mut counts = QuarantineCounts::default();
    for e in &entries {
        counts.note(e.reason);
    }
    SourceOutcome {
        kept,
        seen,
        counts,
        entries,
    }
}

/// Records one source's outcome into the registry: records seen/kept and
/// quarantined-per-reason (all functions of file content alone), plus the
/// source's byte and decode-error totals from the shard progress (their
/// sums are the file size and the malformed-line count, both independent
/// of shard layout).
fn record_source_metrics<R>(
    m: &Registry,
    source: ShardSource,
    outcome: &SourceOutcome<R>,
    progress: &[ShardProgress],
) {
    let name = source.name();
    m.counter(&format!("ingest.{name}.records_seen"))
        .add(outcome.seen);
    m.counter(&format!("ingest.{name}.records_kept"))
        .add(outcome.kept.len() as u64);
    for reason in QuarantineReason::ALL {
        m.counter(&format!("ingest.{name}.quarantined.{}", reason.name()))
            .add(outcome.counts.get(reason));
    }
    let (bytes, decode_errors) = progress
        .iter()
        .filter(|p| p.source == source)
        .fold((0u64, 0u64), |(b, e), p| (b + p.bytes, e + p.parse_errors));
    m.counter(&format!("trace.{name}.bytes_read")).add(bytes);
    m.counter(&format!("trace.{name}.decode_errors"))
        .add(decode_errors);
}

/// Pool-level timings: worker count, shard count, and the per-shard read
/// wall-time distribution. All shard-layout- or clock-dependent, hence the
/// timing section.
fn record_pool_timings(m: &Registry, workers: usize, progress: &[ShardProgress], start: Instant) {
    m.timing_gauge("ingest.workers").set(workers as i64);
    m.timing_counter("ingest.shards").add(progress.len() as u64);
    let shard_us = m.timing_histogram(
        "ingest.shard_read_us",
        &[100, 1_000, 10_000, 100_000, 1_000_000],
    );
    for p in progress {
        shard_us.observe(p.wall.as_micros() as u64);
    }
    m.timing_gauge("ingest.load_wall_us")
        .set(start.elapsed().as_micros() as i64);
}

fn check_budget<R>(
    source: ShardSource,
    outcome: &SourceOutcome<R>,
    opts: &IngestOptions,
) -> Result<(), IngestError> {
    let quarantined = outcome.counts.total();
    if outcome.seen == 0 || quarantined as f64 / outcome.seen as f64 <= opts.max_error_rate {
        return Ok(());
    }
    // Name the log's first `quarantine.log` entry — where an operator
    // should start looking, and a function of file content alone.
    let first = outcome.entries.first().map_or_else(String::new, |e| {
        format!("{} {} {}", e.source.name(), e.position, e.reason.name())
    });
    Err(IngestError::ErrorBudget {
        source,
        first,
        quarantined,
        seen: outcome.seen,
        budget: opts.max_error_rate,
    })
}

fn shard_progress<R>(t: &Task<'_>, tsv: &TsvShard<R>, wall: Duration) -> ShardProgress {
    ShardProgress {
        shard: t.shard,
        source: t.source,
        records: tsv.records.len() as u64,
        bytes: tsv.bytes,
        parse_errors: tsv.errors.len() as u64,
        wall,
    }
}

#[cfg(test)]
pub(crate) mod test_hooks {
    //! Deterministic fault injection for the pool tests: panic when a
    //! specific (file, source, shard) is read. Keyed by the log file's
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

    #[test]
    fn parallel_load_equals_sequential_load() {
        let store = sample_store();
        let dir = temp_dir("eq");
        store.save(&dir).unwrap();
        let sequential = TraceStore::load(&dir).unwrap();
        for workers in [1, 2, 5] {
            let (parallel, report) =
                load_store_resilient(&dir, workers, &IngestOptions::default()).unwrap();
            assert_eq!(parallel.proxy(), sequential.proxy(), "workers={workers}");
            assert_eq!(parallel.mme(), sequential.mme(), "workers={workers}");
            assert_eq!(
                report.records(),
                (store.proxy().len() + store.mme().len()) as u64
            );
            assert_eq!(report.parse_errors(), 0);
            assert!(report.quality.quarantined.is_empty());
            assert!(report.shards.len() > 1 || workers == 1);
        }
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
            let (loaded, report) = load_store_resilient(&dir, workers, &opts).unwrap();
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
            let other = load_store_resilient(&dir, workers, &IngestOptions::default());
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
            load_store_resilient(&dir, workers, &opts).unwrap();
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
        let result = load_store_resilient(&dir, 4, &IngestOptions::default());
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
        // The same world loads fine once the poison is gone: the pool was
        // not torn down permanently.
        let (loaded, _) = load_store_resilient(&dir, 4, &IngestOptions::default()).unwrap();
        assert_eq!(loaded.len(), store.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}
