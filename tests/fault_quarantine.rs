//! Golden fault-matrix test: a quick-scale world corrupted with **every**
//! fault class at a fixed seed must quarantine an exactly known set of
//! records — same per-reason counts for every worker count — and the full
//! analysis over the survivors must still complete.
//!
//! Where a fault class maps 1:1 onto a quarantine reason the expectation
//! is derived from the injector's own report (bitflip/garbage → bad-field,
//! badimei → unknown-imei, skew → skewed, dup → duplicate, truncate →
//! truncated). `reorder` is the one class whose detection depends on data
//! (a swap of equal timestamps is benign), so its count is pinned as a
//! golden value for the fixed (world seed, corruption seed) pair.

use std::path::Path;
use std::process::Command;

use wearscope::core::{CoreAggregates, StudyResults};
use wearscope::faults::{corrupt_world, FaultClass, FaultSpec};
use wearscope::ingest::{load_store_resilient, IngestOptions};
use wearscope::prelude::*;
use wearscope::report::{ExperimentReport, QuarantineReason};
use wearscope::trace::{read_tsv_shard, ByteRange, MmeRecord, ProxyRecord, TsvRecord};

/// Same population as `wearscope --scale quick`.
fn quick_world(seed: u64) -> GeneratedWorld {
    let mut config = ScenarioConfig::compact(seed);
    config.wearable_users = 150;
    config.comparison_users = 200;
    config.through_device_users = 50;
    generate(&config)
}

/// `reorder` swaps detected as out-of-order for (world seed 7, fault
/// seed 3): pinned golden value — a swap of equal timestamps is benign, so
/// this is data-dependent and below the injector's reorder count.
const GOLDEN_OUT_OF_ORDER: u64 = 141;

#[test]
fn every_fault_class_quarantines_exact_counts_and_analysis_completes() {
    let world = quick_world(7);
    let dir = std::env::temp_dir().join(format!("wearscope-faultgold-{}", std::process::id()));
    world.save(&dir).expect("save world");

    // Sanity: the pristine world quarantines nothing.
    let clean_opts = IngestOptions::for_world(&dir);
    let (_, clean_report) = load_store_resilient(&dir, 4, &clean_opts).expect("clean load");
    assert!(
        clean_report.quality.quarantined.is_empty(),
        "clean world must not quarantine: {}",
        clean_report.quality.summary_line()
    );

    // Every class at 0.1% per line (truncate fires once per file) — total
    // corruption stays under the default 1% budget.
    let spec: FaultSpec =
        "truncate=1,bitflip=0.001,garbage=0.001,dup=0.001,reorder=0.001,crlf=0.001,\
         badimei=0.001,skew=0.001"
            .parse()
            .expect("spec");
    let injected = corrupt_world(&dir, 3, &spec).expect("corrupt");
    for class in FaultClass::ALL {
        assert!(
            injected.count(class) > 0,
            "class {class} never fired — grow the world or the rate"
        );
    }

    let opts = IngestOptions::for_world(&dir);
    let mut first: Option<TraceStore> = None;
    for workers in [1usize, 4, 8] {
        let (store, report) = load_store_resilient(&dir, workers, &opts)
            .unwrap_or_else(|e| panic!("resilient load (workers={workers}) failed: {e}"));
        let q = &report.quality.quarantined;

        // Classes with a 1:1 reason, derived from the injector's report.
        assert_eq!(
            q.get(QuarantineReason::Truncated),
            injected.count(FaultClass::Truncate),
            "truncated (workers={workers})"
        );
        assert_eq!(
            q.get(QuarantineReason::BadField),
            injected.count(FaultClass::BitFlip) + injected.count(FaultClass::Garbage),
            "bad-field (workers={workers})"
        );
        assert_eq!(
            q.get(QuarantineReason::Duplicate),
            injected.count(FaultClass::Duplicate),
            "duplicate (workers={workers})"
        );
        assert_eq!(
            q.get(QuarantineReason::UnknownImei),
            injected.count(FaultClass::BadImei),
            "unknown-imei (workers={workers})"
        );
        assert_eq!(
            q.get(QuarantineReason::Skewed),
            injected.count(FaultClass::Skew),
            "skewed (workers={workers})"
        );
        // CRLF endings are tolerated by the reader — zero quarantine.
        // Reorder detection is data-dependent: golden-pinned.
        assert_eq!(
            q.get(QuarantineReason::OutOfOrder),
            GOLDEN_OUT_OF_ORDER,
            "out-of-order (workers={workers}); injector swapped {}",
            injected.count(FaultClass::Reorder)
        );
        assert!(q.get(QuarantineReason::OutOfOrder) <= injected.count(FaultClass::Reorder));

        // The quarantine log lists exactly the quarantined records.
        let log = std::fs::read_to_string(dir.join("quarantine.log")).expect("quarantine.log");
        assert_eq!(log.lines().count() as u64, q.total());

        match &first {
            None => first = Some(store),
            Some(f) => {
                assert_eq!(store.proxy(), f.proxy(), "workers={workers}");
                assert_eq!(store.mme(), f.mme(), "workers={workers}");
            }
        }
    }

    // The full analysis pipeline completes over the survivors — the same
    // calls `wearscope analyze` makes, under the default error budget.
    let survivors = first.unwrap();
    let saved = GeneratedWorld::load_with_store(&dir, survivors).expect("load world metadata");
    let db = DeviceDb::standard();
    let catalog = AppCatalog::standard();
    let ctx = StudyContext::new(&saved.store, &db, &saved.sectors, &catalog, saved.window);
    let aggs = CoreAggregates::sequential(&ctx);
    let results = StudyResults::new(&ctx, &saved.summaries, &aggs);
    assert!(!ExperimentReport::from_results(&results).render().is_empty());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corruption_past_the_budget_aborts_naming_the_first_quarantined_record() {
    let world = quick_world(11);
    let dir = std::env::temp_dir().join(format!("wearscope-faultbudget-{}", std::process::id()));
    world.save(&dir).expect("save world");
    // 5% garbage — far past the default 1% budget.
    let spec = FaultSpec::single(FaultClass::Garbage, 0.05);
    corrupt_world(&dir, 3, &spec).expect("corrupt");
    let err = load_store_resilient(&dir, 4, &IngestOptions::for_world(&dir))
        .expect_err("budget must abort");
    let msg = err.to_string();
    assert!(msg.contains("(first: proxy line:"), "{msg}");
    assert!(msg.contains("--max-error-rate"), "{msg}");
    // The message depends on the file alone, not on the shard layout.
    for workers in [1, 2, 3] {
        let other = load_store_resilient(&dir, workers, &IngestOptions::for_world(&dir))
            .expect_err("budget must abort");
        assert_eq!(other.to_string(), msg, "workers={workers}");
    }
    // A raised budget turns the same world loadable.
    let opts = IngestOptions::for_world(&dir).with_max_error_rate(0.10);
    assert!(load_store_resilient(&dir, 4, &opts).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

/// Records and malformed lines of the whole log at `path`, parsed as one
/// chunk.
fn whole_log_parse<R: TsvRecord>(path: &Path) -> (u64, u64) {
    let end = std::fs::metadata(path).expect("log size").len();
    let shard = read_tsv_shard::<R>(path, ByteRange { start: 0, end }).expect("read log");
    (shard.records.len() as u64, shard.errors.len() as u64)
}

#[test]
fn ingest_report_parse_counts_are_the_ledgers_and_match_a_whole_log_parse() {
    let world = quick_world(7);
    let dir = std::env::temp_dir().join(format!("wearscope-faultparse-{}", std::process::id()));
    world.save(&dir).expect("save world");
    corrupt_world(&dir, 3, &"all".parse().expect("spec")).expect("corrupt");
    let (proxy_records, proxy_errors) = whole_log_parse::<ProxyRecord>(&dir.join("proxy.log"));
    let (mme_records, mme_errors) = whole_log_parse::<MmeRecord>(&dir.join("mme.log"));
    assert!(proxy_errors > 0, "the corruption must break some lines");
    for workers in [1, 4] {
        let (_, report) = load_store_resilient(&dir, workers, &IngestOptions::for_world(&dir))
            .expect("load under the default budget");
        let q = &report.quality;
        let malformed = q.quarantined.get(QuarantineReason::Truncated)
            + q.quarantined.get(QuarantineReason::BadField);
        assert_eq!(report.parse_errors(), malformed, "workers={workers}");
        assert_eq!(
            report.records(),
            q.records_seen - malformed,
            "workers={workers}"
        );
        assert_eq!(
            report.parse_errors(),
            proxy_errors + mme_errors,
            "workers={workers}"
        );
        assert_eq!(
            report.records(),
            proxy_records + mme_records,
            "workers={workers}"
        );
        assert!(report.shards > 0, "workers={workers}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The trace-QA line of `wearscope analyze --world DIR --full ARGS`,
/// which must exit 0.
fn trace_qa_line(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wearscope"))
        .arg("analyze")
        .arg("--world")
        .arg(dir)
        .arg("--full")
        .args(args)
        .output()
        .expect("run wearscope");
    assert!(
        out.status.success(),
        "analyze {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let qa = stdout.lines().skip_while(|l| *l != "== trace QA ==").nth(1);
    qa.expect("a trace QA line").to_string()
}

#[test]
fn trace_qa_judges_what_ingest_quarantined() {
    let world = quick_world(11);
    let dir = std::env::temp_dir().join(format!("wearscope-faultqa-{}", std::process::id()));
    world.save(&dir).expect("save world");
    let clean = trace_qa_line(&dir, &[]);
    assert!(clean.ends_with("healthy: true"), "{clean}");

    // About 15% of the lines quarantined: past the verdict's 1% tolerance,
    // under the raised error budget, so the run succeeds.
    corrupt_world(&dir, 3, &"all=0.03".parse().expect("spec")).expect("corrupt");
    let (_, report) = load_store_resilient(
        &dir,
        2,
        &IngestOptions::for_world(&dir).with_max_error_rate(0.2),
    )
    .expect("load under the raised budget");
    let loss = report.quality.quarantine_rate();
    assert!(loss > 0.01 && loss <= 0.2, "quarantined {loss}");
    let dirty = trace_qa_line(&dir, &["--max-error-rate", "0.2"]);
    assert!(dirty.ends_with("healthy: false"), "{dirty}");
    std::fs::remove_dir_all(&dir).ok();
}
