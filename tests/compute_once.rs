//! Compute once: the per-output entry points (`render_full_report`,
//! `Takeaways::compute_with`, `FigureCsvExporter::with_aggregates`) and
//! rendering from one `StudyResults` over a 2-worker load's aggregates give
//! the same bytes — full report, experiment table and every figure CSV — on a
//! quick world, clean and after `corrupt --faults all`.

use std::path::Path;

use wearscope::core::{CoreAggregates, StudyResults};
use wearscope::faults::{corrupt_world, FaultSpec};
use wearscope::ingest::{load_store_resilient, IngestOptions};
use wearscope::prelude::*;
use wearscope::report::{
    export_figures, render_full, render_full_report, ExperimentReport, FigureCsvExporter,
};

/// Every file under `dir` with its bytes, sorted by name.
fn read_tree(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("read csv dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (e.file_name(), std::fs::read(e.path()).expect("read csv"))
        })
        .collect();
    files.sort();
    files
}

fn assert_single_implementation(world: &Path, out: &Path) {
    let opts = IngestOptions::for_world(world);
    let (store, _) = load_store_resilient(world, 2, &opts).expect("load");
    let saved = GeneratedWorld::load_with_store(world, store).expect("load metadata");
    let db = DeviceDb::standard();
    let catalog = AppCatalog::standard();
    let ctx = StudyContext::new(&saved.store, &db, &saved.sectors, &catalog, saved.window);
    let summaries = &saved.summaries;

    let full = render_full_report(&ctx, summaries);
    let aggs = CoreAggregates::sequential(&ctx);
    let takeaways = Takeaways::compute_with(&ctx, summaries, &aggs);
    let table =
        ExperimentReport::from_takeaways_with_window(&takeaways, saved.window.summary().num_days())
            .render();
    let legacy_csv = out.join("legacy");
    FigureCsvExporter::with_aggregates(&ctx, summaries, &aggs)
        .export_all(&legacy_csv)
        .expect("export legacy csv");

    let results = StudyResults::new(&ctx, summaries, &aggs);
    assert_eq!(render_full(&results, 0.0), full);
    assert_eq!(ExperimentReport::from_results(&results).render(), table);
    let csv = out.join("results");
    let written = export_figures(&results, &csv).expect("export csv");
    let fresh = read_tree(&csv);
    assert_eq!(fresh.len(), written);
    assert!(read_tree(&legacy_csv) == fresh, "figure CSVs differ");
}

#[test]
fn entry_points_match_one_study_results_clean_and_corrupted() {
    let mut config = ScenarioConfig::compact(7);
    config.wearable_users = 150;
    config.comparison_users = 200;
    config.through_device_users = 50;
    let base = std::env::temp_dir().join(format!("wearscope-compute-once-{}", std::process::id()));
    let world = base.join("world");
    generate(&config).save(&world).expect("save world");

    assert_single_implementation(&world, &base.join("clean"));
    let faults: FaultSpec = "all".parse().expect("fault spec");
    corrupt_world(&world, 3, &faults).expect("corrupt");
    assert_single_implementation(&world, &base.join("corrupted"));

    std::fs::remove_dir_all(&base).ok();
}
