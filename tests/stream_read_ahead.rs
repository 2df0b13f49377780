//! The read-ahead source moves log reading onto a thread of its own; it
//! must change nothing else. On a generated world and on a `corrupt
//! --faults all` copy of it, it yields what a bare `WorldSource` yields,
//! item for item with the same positions, and a runtime fed through it
//! writes the same checkpoints, reports and deterministic metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use wearscope::faults::{corrupt_world, FaultSpec};
use wearscope::ingest::IngestOptions;
use wearscope::obs::Registry;
use wearscope::prelude::*;
use wearscope::stream::{EventSource, Polled, PumpOptions, PumpOutcome, ReadAhead};

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
    let mut src = source(open(dir), &metrics);
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
    // As `wearscope stream` does before it writes `--metrics`: a
    // read-ahead source counts the last items it handed out when dropped.
    drop(src);
    let checkpoint = std::fs::read_to_string(ckpt).unwrap_or_default();
    let summary = rt.into_results().0.render();
    Run {
        summary,
        checkpoint,
        metrics: metrics.snapshot().counters,
    }
}

fn bare(src: WorldSource, metrics: &Registry) -> WorldSource {
    src.with_metrics(metrics)
}

fn ahead(src: WorldSource, metrics: &Registry) -> ReadAhead {
    ReadAhead::spawn(src, metrics).expect("spawn reader")
}

fn check_world(dir: &Path, work: &Path) {
    let want = transcript(&mut open(dir));
    assert!(want.len() > 1000, "{} items", want.len());
    let mut got = ReadAhead::spawn(open(dir), &Registry::new()).expect("spawn reader");
    assert_eq!(transcript(&mut got), want);

    let ckpt = |name: &str| work.join(format!("{name}.ckpt"));
    for every in [777, 5000] {
        let want = stream(dir, &ckpt("bare"), every, None, bare);
        let got = stream(dir, &ckpt("ahead"), every, None, ahead);
        assert!(!want.checkpoint.is_empty());
        assert_eq!(got, want, "checkpoint every {every}");
    }
    // Stopped runs: the last checkpoint and every counter, the bytes
    // included, are the same, however far the reader got ahead: both
    // sources count the bytes of the items they hand out, not of what
    // they have read.
    for (every, stop) in [(1, 300), (777, 6000)] {
        let want = stream(dir, &ckpt("bare-stop"), every, Some(stop), bare);
        let got = stream(dir, &ckpt("ahead-stop"), every, Some(stop), ahead);
        assert_eq!(got, want, "checkpoint every {every}, stop after {stop}");
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
