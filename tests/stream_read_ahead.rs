//! The stream's chunk hand-off: each log is parsed into chunks, on a
//! reader thread or on the caller's, and merged where its records lie.
//! On a generated world and on a `corrupt --faults all` copy of it, the
//! source yields, item for item and position for position, what a
//! single-threaded reference yields: each log split by `read_until` and
//! merged one record of lookahead at a time, by the rules the stream
//! source keeps (a malformed line is served when its lane reaches it,
//! ties go to the proxy log, a record past the skew horizon is served at
//! once). A runtime fed from chunks, on either thread, or item by item,
//! writes the same checkpoints, reports and deterministic metrics. A
//! followed log whose last line arrives in two parts is served whole.
//!
//! That a panic on the reader thread is a typed error is pinned by the
//! source's unit tests, which can make the reader panic.

use std::collections::BTreeMap;
use std::io::BufRead as _;
use std::path::{Path, PathBuf};

use wearscope::faults::{corrupt_world, FaultSpec};
use wearscope::ingest::{IngestOptions, LogRecord};
use wearscope::obs::Registry;
use wearscope::prelude::*;
use wearscope::report::ShardSource;
use wearscope::stream::{
    EventSource, Polled, PumpOptions, PumpOutcome, SourcePosition, StreamEvent,
};
use wearscope::trace::io::Decoded;
use wearscope::trace::{decode_log_line, TsvRecord};

fn tiny_world(seed: u64) -> GeneratedWorld {
    let mut config = ScenarioConfig::compact(seed);
    config.wearable_users = 60;
    config.comparison_users = 80;
    config.through_device_users = 20;
    generate(&config)
}

fn open(dir: &Path) -> WorldSource {
    WorldSource::open(dir, false)
        .expect("open source")
        .with_horizon(IngestOptions::for_world(dir).max_timestamp)
}

/// Every poll's outcome with the position after it, up to the end.
fn transcript(src: &mut impl EventSource) -> Vec<String> {
    let mut out = Vec::new();
    loop {
        match src.poll().expect("poll") {
            Polled::End => return out,
            polled => out.push(format!("{polled:?} @ {:?}", src.position())),
        }
    }
}

/// One log read by the reference: its lines as `read_until` splits them,
/// each with its number, its end offset and what it decodes to, and one
/// record of lookahead.
struct RefLane<R> {
    kind: ShardSource,
    wrap: fn(R) -> StreamEvent,
    lines: Vec<(u64, u64, Decoded<R>)>,
    /// The next line to read.
    next: usize,
    /// The record read but not served, with its line's number and end.
    stash: Option<(R, u64, u64)>,
    /// Offset and line count after the last line served (after every
    /// line, once the log has ended).
    committed: (u64, u64),
}

impl<R: TsvRecord + LogRecord> RefLane<R> {
    fn new(kind: ShardSource, wrap: fn(R) -> StreamEvent, path: &Path) -> RefLane<R> {
        let mut reader = std::io::BufReader::new(std::fs::File::open(path).unwrap());
        let (mut lines, mut line, mut end) = (Vec::new(), Vec::new(), 0);
        while reader.read_until(b'\n', &mut line).unwrap() > 0 {
            end += line.len() as u64;
            lines.push((lines.len() as u64 + 1, end, decode_log_line::<R>(&line)));
            line.clear();
        }
        RefLane {
            kind,
            wrap,
            lines,
            next: 0,
            stash: None,
            committed: (0, 0),
        }
    }

    /// Reads up to the next record, past blank lines; a malformed line on
    /// the way is served at once.
    fn refill(&mut self) -> Option<Polled> {
        while self.stash.is_none() {
            let Some((line, end, decoded)) = self.lines.get(self.next).cloned() else {
                if let Some(&(line, end, _)) = self.lines.last() {
                    self.committed = (end, line);
                }
                return None;
            };
            self.next += 1;
            match decoded {
                None => {}
                Some(Ok(record)) => self.stash = Some((record, line, end)),
                Some(Err(error)) => {
                    self.committed = (end, line);
                    return Some(Polled::Malformed {
                        kind: self.kind,
                        line,
                        error,
                    });
                }
            }
        }
        None
    }

    fn time(&self) -> Option<SimTime> {
        self.stash.map(|(r, ..)| r.timestamp())
    }

    fn emit(&mut self) -> Polled {
        let (record, line, end) = self.stash.take().expect("a stashed record");
        self.committed = (end, line);
        Polled::Event((self.wrap)(record))
    }
}

/// What the stream source must serve for the world in `dir`, with the
/// position after each item.
fn reference(dir: &Path) -> Vec<String> {
    let horizon = IngestOptions::for_world(dir).max_timestamp;
    let mut proxy = RefLane::new(
        ShardSource::Proxy,
        StreamEvent::Proxy,
        &dir.join("proxy.log"),
    );
    let mut mme = RefLane::new(ShardSource::Mme, StreamEvent::Mme, &dir.join("mme.log"));
    let mut out = Vec::new();
    loop {
        let polled = if let Some(malformed) = proxy.refill() {
            malformed
        } else if let Some(malformed) = mme.refill() {
            malformed
        } else if horizon.is_some_and(|h| proxy.time().is_some_and(|t| t > h)) {
            proxy.emit()
        } else if horizon.is_some_and(|h| mme.time().is_some_and(|t| t > h)) {
            mme.emit()
        } else {
            match (proxy.time(), mme.time()) {
                (None, None) => return out,
                (Some(p), m) if m.is_none_or(|m| p <= m) => proxy.emit(),
                _ => mme.emit(),
            }
        };
        let position = SourcePosition {
            proxy_offset: proxy.committed.0,
            proxy_line: proxy.committed.1,
            mme_offset: mme.committed.0,
            mme_line: mme.committed.1,
        };
        out.push(format!("{polled:?} @ {:?}", Some(position)));
    }
}

/// A source polled item by item: the runtime takes a copy of each record
/// through `poll`, not the record where it lies in its chunk.
struct ItemByItem(WorldSource);

impl EventSource for ItemByItem {
    fn poll(&mut self) -> std::io::Result<Polled> {
        self.0.poll()
    }

    fn position(&self) -> Option<SourcePosition> {
        self.0.position()
    }
}

/// What a stream run leaves behind: the summary, the checkpoint and the
/// deterministic metrics.
#[derive(Debug, PartialEq)]
struct Run {
    summary: String,
    checkpoint: String,
    metrics: BTreeMap<String, u64>,
}

/// Streams `dir` through `source` with a checkpoint every `every` items,
/// stopping after `stop_after` items if given.
fn stream<S: EventSource>(
    dir: &Path,
    ckpt: &Path,
    every: u64,
    stop_after: Option<u64>,
    source: impl FnOnce(WorldSource, &Registry) -> S,
) -> Run {
    let db = DeviceDb::standard();
    let catalog = AppCatalog::standard();
    let empty = TraceStore::new();
    let saved = GeneratedWorld::load_with_store(dir, TraceStore::new()).expect("load metadata");
    let ctx = StudyContext::new(&empty, &db, &saved.sectors, &catalog, saved.window);
    let spec = WindowSpec::tumbling(SimDuration::from_hours(1)).unwrap();
    let mut config = StreamConfig::new(spec, SimDuration::from_secs(300));
    let opts = IngestOptions::for_world(dir);
    config.max_timestamp = opts.max_timestamp;
    config.sector_count = opts.sector_count;
    let metrics = Registry::new();
    let mut rt = StreamRuntime::new(&ctx, config).with_metrics(&metrics);
    let mut src = source(open(dir).with_metrics(&metrics), &metrics);
    let pump = PumpOptions {
        checkpoint: Some((ckpt.to_path_buf(), every)),
        stop_after,
    };
    let outcome = rt.pump(&mut src, &pump).expect("pump");
    if outcome == PumpOutcome::Finished {
        rt.finish();
        rt.write_checkpoint(ckpt, src.position())
            .expect("checkpoint");
    }
    drop(src);
    let checkpoint = std::fs::read_to_string(ckpt).unwrap_or_default();
    let summary = rt.into_results().0.render();
    Run {
        summary,
        checkpoint,
        metrics: metrics.snapshot().counters,
    }
}

fn here(src: WorldSource, _: &Registry) -> WorldSource {
    src
}

fn ahead(src: WorldSource, metrics: &Registry) -> WorldSource {
    src.read_ahead(metrics).expect("spawn reader")
}

fn item_by_item(src: WorldSource, _: &Registry) -> ItemByItem {
    ItemByItem(src)
}

fn check_world(dir: &Path, work: &Path) {
    let want = reference(dir);
    assert!(want.len() > 1000, "{} items", want.len());
    assert_eq!(transcript(&mut open(dir)), want, "on the caller's thread");
    let mut got = open(dir).read_ahead(&Registry::new()).expect("spawn");
    assert_eq!(transcript(&mut got), want, "read ahead");

    let ckpt = |name: &str| work.join(format!("{name}.ckpt"));
    for every in [777, 5000] {
        let want = stream(dir, &ckpt("here"), every, None, here);
        assert!(!want.checkpoint.is_empty());
        let got = stream(dir, &ckpt("ahead"), every, None, ahead);
        assert_eq!(got, want, "checkpoint every {every}, read ahead");
        let got = stream(dir, &ckpt("items"), every, None, item_by_item);
        assert_eq!(got, want, "checkpoint every {every}, item by item");
    }
    // Stopped runs: the last checkpoint and every counter, the bytes
    // included, are the same, however far the reader got ahead: the
    // bytes are those of the items served, not of what was read.
    for (every, stop) in [(1, 300), (777, 6000)] {
        let want = stream(dir, &ckpt("here-stop"), every, Some(stop), here);
        let got = stream(dir, &ckpt("ahead-stop"), every, Some(stop), ahead);
        assert_eq!(got, want, "checkpoint every {every}, stop after {stop}");
        let got = stream(dir, &ckpt("items-stop"), every, Some(stop), item_by_item);
        assert_eq!(got, want, "item by item, stop after {stop}");
    }
}

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wearscope-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

#[test]
fn read_ahead_matches_the_bare_source_on_clean_and_corrupted_worlds() {
    let work = work_dir("readahead");
    let dir = work.join("world");
    tiny_world(7).save(&dir).expect("save world");
    check_world(&dir, &work);

    let spec: FaultSpec = "all".parse().expect("spec");
    corrupt_world(&dir, 3, &spec).expect("corrupt");
    check_world(&dir, &work);
    std::fs::remove_dir_all(&work).ok();
}

/// Polls until the source waits or ends: each item, and the position
/// where it stopped.
fn serve(src: &mut WorldSource, out: &mut Vec<String>) -> SourcePosition {
    loop {
        match src.poll().expect("poll") {
            Polled::Pending | Polled::End => return src.position().expect("a position"),
            polled => out.push(format!("{polled:?}")),
        }
    }
}

/// A followed world whose proxy log's last line arrives in two parts: the
/// first part is held back, the source waits with its position before
/// that line, and once the line is complete it is served. Every item of
/// the whole world is served once, each log's in file order.
#[test]
fn a_followed_log_cut_in_its_last_line_is_served_whole() {
    let work = work_dir("readahead-follow");
    let dir = work.join("world");
    tiny_world(7).save(&dir).expect("save world");
    let proxy_log = std::fs::read(dir.join("proxy.log")).unwrap();
    let last_start = proxy_log[..proxy_log.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap()
        + 1;
    let cut = last_start + (proxy_log.len() - last_start) / 2;
    let whole = reference(&dir);
    let per_log = |items: &[String], kind: &str| -> Vec<String> {
        items
            .iter()
            .filter(|i| i.contains(kind))
            .map(|i| i.split(" @ ").next().unwrap().to_string())
            .collect()
    };

    std::fs::write(dir.join("proxy.log"), &proxy_log[..cut]).unwrap();
    let mut src = WorldSource::open(&dir, true)
        .unwrap()
        .with_horizon(IngestOptions::for_world(&dir).max_timestamp)
        .read_ahead(&Registry::new())
        .unwrap();
    let mut got = Vec::new();
    let waiting = serve(&mut src, &mut got);
    assert_eq!(waiting.proxy_offset, last_start as u64);
    assert!(matches!(src.poll().unwrap(), Polled::Pending));
    std::fs::write(dir.join("proxy.log"), &proxy_log).unwrap();
    serve(&mut src, &mut got);
    src.finish();
    let end = serve(&mut src, &mut got);
    assert_eq!(end.proxy_offset, proxy_log.len() as u64);
    for kind in ["Proxy", "Mme"] {
        assert_eq!(per_log(&got, kind), per_log(&whole, kind), "{kind}");
    }
    assert_eq!(got.len(), whole.len());
    std::fs::remove_dir_all(&work).ok();
}
