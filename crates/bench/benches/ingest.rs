//! Ingest throughput: the one fused aggregate fold, the byte-range
//! parallel file loader, and the cost of the quarantine path on a
//! 1%-corrupted world.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use wearscope_bench::{ctx, small_world};
use wearscope_core::merge::CoreAggregates;
use wearscope_faults::{corrupt_world, FaultSpec};
use wearscope_ingest::{load_store_resilient, IngestOptions};

fn worker_count_candidates() -> Vec<usize> {
    let cpus = wearscope_ingest::default_workers();
    let mut counts = vec![1, 2, cpus];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn fold(c: &mut Criterion) {
    let world = small_world();
    let study = ctx(world);
    let records = (world.store.proxy().len() + world.store.mme().len()) as u64;

    let mut group = c.benchmark_group("ingest-fold");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records));
    group.bench_function("sequential", |b| {
        b.iter(|| CoreAggregates::sequential(black_box(&study)))
    });
    group.finish();
}

fn parallel_load(c: &mut Criterion) {
    let world = small_world();
    let records = (world.store.proxy().len() + world.store.mme().len()) as u64;
    let dir = std::env::temp_dir().join(format!("wearscope-bench-load-{}", std::process::id()));
    world.save(&dir).expect("saving bench world");

    let opts = IngestOptions::default();
    let mut group = c.benchmark_group("ingest-load");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records));
    for workers in worker_count_candidates() {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| b.iter(|| load_store_resilient(black_box(&dir), workers, &opts).unwrap()),
        );
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// Quarantine-path overhead: resilient load of a clean world vs the same
/// world corrupted at ~1% per line. Tracked in EXPERIMENTS.md.
fn corrupted_load(c: &mut Criterion) {
    let world = small_world();
    let records = (world.store.proxy().len() + world.store.mme().len()) as u64;
    let workers = wearscope_ingest::default_workers();

    let clean_dir =
        std::env::temp_dir().join(format!("wearscope-bench-clean-{}", std::process::id()));
    world.save(&clean_dir).expect("saving clean bench world");
    let dirty_dir =
        std::env::temp_dir().join(format!("wearscope-bench-dirty-{}", std::process::id()));
    world.save(&dirty_dir).expect("saving dirty bench world");
    let spec: FaultSpec = "bitflip=0.004,dup=0.002,reorder=0.002,badimei=0.002"
        .parse()
        .expect("spec");
    corrupt_world(&dirty_dir, 3, &spec).expect("corrupting bench world");

    let mut group = c.benchmark_group("ingest-load-corrupted");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records));
    for (label, dir) in [("clean", &clean_dir), ("corrupted-1pct", &dirty_dir)] {
        let opts = IngestOptions::for_world(dir).with_max_error_rate(0.05);
        group.bench_function(label, |b| {
            b.iter(|| load_store_resilient(black_box(dir), workers, &opts).unwrap())
        });
    }
    group.finish();
    std::fs::remove_dir_all(&clean_dir).ok();
    std::fs::remove_dir_all(&dirty_dir).ok();
}

criterion_group!(benches, fold, parallel_load, corrupted_load);
criterion_main!(benches);
