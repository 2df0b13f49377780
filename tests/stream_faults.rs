//! `corrupt` → `stream` smoke path: the streaming engine's quarantine and
//! lateness counters must line up with the injector's own report, the same
//! way the batch resilient loader's do.
//!
//! Two corruption profiles:
//!
//! * classes with a 1:1 quarantine reason (truncate/garbage/badimei/skew/
//!   dup) — per-reason counts equal the injected counts exactly;
//! * `reorder` alone — with a lateness horizon wider than any displacement
//!   the records are *merged late*, not quarantined: the out-of-order
//!   counter stays zero and `late_merged` is bounded by the injector's
//!   swap count.

use wearscope::faults::{corrupt_world, FaultClass, FaultSpec};
use wearscope::ingest::{fold_logs_resilient, IngestOptions, DEFAULT_MAX_ERROR_RATE};
use wearscope::prelude::*;
use wearscope::report::{QuarantineReason, ShardSource};
use wearscope::stream::{checkpoint, EventSource, Polled, PumpOptions, PumpOutcome, StreamRuntime};

fn tiny_world(seed: u64) -> GeneratedWorld {
    let mut config = ScenarioConfig::compact(seed);
    config.wearable_users = 60;
    config.comparison_users = 80;
    config.through_device_users = 20;
    generate(&config)
}

/// Streams a world directory to completion with the given lateness:
/// the summary, and the run's verdict under the default error budget.
fn stream_world(
    dir: &std::path::Path,
    lateness_secs: u64,
) -> (wearscope::report::StreamSummary, Result<(), String>) {
    stream_world_killed_at(dir, lateness_secs, None)
}

/// [`stream_world`], killed after `kill` items (if set) and resumed from
/// a checkpoint of the runtime and source position taken there, as
/// `stream --checkpoint DIR --resume` does.
fn stream_world_killed_at(
    dir: &std::path::Path,
    lateness_secs: u64,
    kill: Option<u64>,
) -> (wearscope::report::StreamSummary, Result<(), String>) {
    let db = DeviceDb::standard();
    let catalog = AppCatalog::standard();
    let empty = TraceStore::new();
    let saved_window = GeneratedWorld::load_with_store(dir, TraceStore::new())
        .expect("load metadata")
        .window;
    let sectors = SectorDirectory::new();
    let ctx = StudyContext::new(&empty, &db, &sectors, &catalog, saved_window);
    let spec = WindowSpec::tumbling(SimDuration::from_hours(1)).unwrap();
    let mut config = StreamConfig::new(spec, SimDuration::from_secs(lateness_secs));
    config.max_timestamp = IngestOptions::for_world(dir).max_timestamp;
    let mut rt = StreamRuntime::new(&ctx, config);
    let mut src = WorldSource::open(dir, false)
        .expect("open source")
        .with_horizon(config.max_timestamp);
    if let Some(stop_after) = kill {
        let opts = PumpOptions {
            stop_after: Some(stop_after),
            ..PumpOptions::default()
        };
        assert_eq!(
            rt.pump(&mut src, &opts).expect("pump"),
            PumpOutcome::Stopped
        );
        let text = checkpoint::to_text(&rt, src.position());
        let (resumed, position) = checkpoint::from_text(&ctx, config, &text).expect("restore");
        rt = resumed;
        src = WorldSource::resume(dir, &position.expect("a world position"), false)
            .expect("resume source")
            .with_horizon(config.max_timestamp);
    }
    assert_eq!(
        rt.pump(&mut src, &PumpOptions::default()).expect("pump"),
        PumpOutcome::Finished
    );
    rt.finish();
    let budget = rt
        .check_error_budget(DEFAULT_MAX_ERROR_RATE)
        .map_err(|e| e.to_string());
    (rt.into_results().0, budget)
}

#[test]
fn injected_faults_surface_as_matching_stream_quarantine_counts() {
    let world = tiny_world(7);
    let dir = std::env::temp_dir().join(format!("wearscope-strfault-{}", std::process::id()));
    world.save(&dir).expect("save world");

    let spec: FaultSpec = "truncate=1,garbage=0.002,badimei=0.002,skew=0.002,dup=0.002"
        .parse()
        .expect("spec");
    let injected = corrupt_world(&dir, 3, &spec).expect("corrupt");
    for class in [
        FaultClass::Truncate,
        FaultClass::Garbage,
        FaultClass::BadImei,
        FaultClass::Skew,
        FaultClass::Duplicate,
    ] {
        assert!(injected.count(class) > 0, "class {class} never fired");
    }

    // A one-hour lateness horizon comfortably covers the duplicate
    // adjacency, so the duplicate set still remembers every original.
    let (summary, _) = stream_world(&dir, 3600);
    let q = &summary.quality.quarantined;
    assert_eq!(
        q.get(QuarantineReason::Truncated),
        injected.count(FaultClass::Truncate),
        "truncated"
    );
    assert_eq!(
        q.get(QuarantineReason::BadField),
        injected.count(FaultClass::Garbage),
        "bad-field"
    );
    assert_eq!(
        q.get(QuarantineReason::UnknownImei),
        injected.count(FaultClass::BadImei),
        "unknown-imei"
    );
    assert_eq!(
        q.get(QuarantineReason::Skewed),
        injected.count(FaultClass::Skew),
        "skewed"
    );
    assert_eq!(
        q.get(QuarantineReason::Duplicate),
        injected.count(FaultClass::Duplicate),
        "duplicate"
    );
    assert_eq!(q.get(QuarantineReason::OutOfOrder), 0, "out-of-order");
    assert_eq!(
        summary.quality.records_seen,
        summary.quality.records_kept + q.total()
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reordered_records_within_the_lateness_horizon_merge_late() {
    let world = tiny_world(11);
    let dir = std::env::temp_dir().join(format!("wearscope-strorder-{}", std::process::id()));
    world.save(&dir).expect("save world");

    let spec = FaultSpec::single(FaultClass::Reorder, 0.002);
    let injected = corrupt_world(&dir, 3, &spec).expect("corrupt");
    let swaps = injected.count(FaultClass::Reorder);
    assert!(swaps > 0, "reorder never fired");

    let (summary, budget) = stream_world(&dir, 3600);
    assert_eq!(budget, Ok(()));
    assert!(
        summary.quality.quarantined.is_empty(),
        "a 1h lateness horizon absorbs adjacent swaps: {}",
        summary.quality.summary_line()
    );
    assert!(
        summary.late_merged > 0,
        "reordering must show up as late merges"
    );
    assert!(
        summary.late_merged <= 2 * swaps,
        "each swap displaces at most two records ({} late, {swaps} swaps)",
        summary.late_merged
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_fails_the_batch_error_budget_with_the_same_message() {
    let world = tiny_world(5);
    let dir = std::env::temp_dir().join(format!("wearscope-strbudget-{}", std::process::id()));
    world.save(&dir).expect("save world");
    // A 15-day summary window on a 42-day world puts every detailed record
    // past the skew horizon: the whole proxy log is quarantined.
    let manifest = dir.join("manifest.tsv");
    let text = std::fs::read_to_string(&manifest).expect("read manifest");
    let days = text
        .lines()
        .find(|l| l.starts_with("summary_days\t"))
        .expect("summary_days line");
    std::fs::write(&manifest, text.replace(days, "summary_days\t15")).expect("write manifest");

    let db = DeviceDb::standard();
    let catalog = AppCatalog::standard();
    let empty = TraceStore::new();
    let window = GeneratedWorld::load_with_store(&dir, TraceStore::new())
        .expect("load metadata")
        .window;
    let sectors = SectorDirectory::new();
    let ctx = StudyContext::new(&empty, &db, &sectors, &catalog, window);
    let batch = fold_logs_resilient(&dir, 2, &IngestOptions::for_world(&dir), &ctx)
        .expect_err("analyze fails the budget")
        .to_string();

    let (summary, budget) = stream_world(&dir, 300);
    assert_eq!(summary.quality.records_kept, 0);
    let stream = budget.expect_err("stream fails the budget");
    assert_eq!(stream, batch);
    assert!(
        stream.contains("(100.000%)") && stream.ends_with("(first: proxy record:0 skewed)"),
        "{stream}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A resumed run judges the logs as an uninterrupted one: killed before,
/// inside or after an early stretch of malformed proxy lines (2 % of the
/// log), each resumed run fails the error budget with `analyze`'s message
/// and ends with the uninterrupted run's data quality.
#[test]
fn resumed_stream_keeps_the_error_budget() {
    let world = tiny_world(7);
    let dir = std::env::temp_dir().join(format!("wearscope-strresume-{}", std::process::id()));
    world.save(&dir).expect("save world");
    // Lines 2, 3, … get a non-numeric user field.
    let path = dir.join("proxy.log");
    let text = std::fs::read_to_string(&path).expect("read proxy log");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let damaged = lines.len() / 50 + 1;
    for line in &mut lines[1..=damaged] {
        let mut fields: Vec<&str> = line.split('\t').collect();
        fields[1] = "x";
        *line = fields.join("\t");
    }
    std::fs::write(&path, lines.join("\n") + "\n").expect("write proxy log");

    // Where the damaged lines fall among the merged items.
    let mut src = WorldSource::open(&dir, false).expect("open source");
    let mut malformed = Vec::new();
    let mut items = 0u64;
    loop {
        match src.poll().expect("poll") {
            Polled::Malformed {
                kind: ShardSource::Proxy,
                ..
            } => malformed.push(items),
            Polled::Event(_) | Polled::Malformed { .. } => {}
            Polled::Pending | Polled::End => break,
        }
        items += 1;
    }
    assert_eq!(malformed.len(), damaged);
    let (first, last) = (malformed[0], malformed[damaged - 1]);

    let db = DeviceDb::standard();
    let catalog = AppCatalog::standard();
    let empty = TraceStore::new();
    let window = GeneratedWorld::load_with_store(&dir, TraceStore::new())
        .expect("load metadata")
        .window;
    let sectors = SectorDirectory::new();
    let ctx = StudyContext::new(&empty, &db, &sectors, &catalog, window);
    let batch = fold_logs_resilient(&dir, 2, &IngestOptions::for_world(&dir), &ctx)
        .expect_err("analyze fails the budget")
        .to_string();
    assert!(
        batch.starts_with(&format!("proxy log: {damaged}/"))
            && batch.ends_with("(first: proxy line:2 bad-field)"),
        "{batch}"
    );

    let (whole, budget) = stream_world(&dir, 300);
    assert_eq!(budget, Err(batch.clone()));
    for kill in [first, (first + last) / 2, last + 1 + (items - last) / 2] {
        let (resumed, budget) = stream_world_killed_at(&dir, 300, Some(kill));
        assert_eq!(budget, Err(batch.clone()), "killed after {kill} items");
        assert_eq!(resumed.quality, whole.quality, "killed after {kill} items");
        assert_eq!(resumed.windows, whole.windows, "killed after {kill} items");
    }

    std::fs::remove_dir_all(&dir).ok();
}
