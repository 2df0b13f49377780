//! Substrate throughput benches: world generation, log codec, store
//! operations, and the classifier — the moving parts underneath every
//! figure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use wearscope_appdb::{AppCatalog, SniClassifier};
use wearscope_bench::small_world;
use wearscope_synthpop::{generate, ScenarioConfig};
use wearscope_trace::{LogReader, LogWriter, ProxyRecord, TraceStore, TsvRecord};

fn generation_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation");
    group.sample_size(10);
    for users in [50u32, 150, 400] {
        group.bench_with_input(BenchmarkId::new("users", users), &users, |b, &users| {
            let mut config = ScenarioConfig::compact(2000 + u64::from(users));
            config.wearable_users = users;
            config.comparison_users = users;
            config.through_device_users = users / 4;
            config.workers = 1;
            b.iter(|| generate(black_box(&config)))
        });
    }
    // Ablation-adjacent: worker scaling on a fixed population.
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                let mut config = ScenarioConfig::compact(3000);
                config.wearable_users = 300;
                config.comparison_users = 300;
                config.through_device_users = 80;
                config.workers = workers;
                b.iter(|| generate(black_box(&config)))
            },
        );
    }
    group.finish();
}

fn codec_throughput(c: &mut Criterion) {
    let world = small_world();
    let records: Vec<ProxyRecord> = world.store.proxy().iter().take(50_000).cloned().collect();
    let mut encoded = Vec::new();
    {
        let mut w = LogWriter::new(&mut encoded);
        for r in &records {
            w.write(r).unwrap();
        }
        w.flush().unwrap();
    }
    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("encode_proxy", |b| {
        b.iter(|| {
            let mut out = 0usize;
            for r in &records {
                out += black_box(r.to_line()).len();
            }
            out
        })
    });
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("decode_proxy", |b| {
        b.iter(|| {
            LogReader::<_, ProxyRecord>::new(black_box(encoded.as_slice()))
                .collect::<Result<Vec<_>, _>>()
                .unwrap()
                .len()
        })
    });
    group.finish();
}

fn store_operations(c: &mut Criterion) {
    let world = small_world();
    let proxy: Vec<ProxyRecord> = world.store.proxy().to_vec();
    let mme = world.store.mme().to_vec();
    let mut group = c.benchmark_group("store");
    group.sample_size(20);
    group.bench_function("from_records_sort", |b| {
        b.iter(|| TraceStore::from_records(black_box(proxy.clone()), black_box(mme.clone())))
    });
    let store = TraceStore::from_records(proxy, mme);
    let detail = world.config.window.detailed();
    group.bench_function("range_query", |b| {
        b.iter(|| {
            let slice = store.proxy_in(black_box(detail));
            slice.len()
        })
    });
    group.finish();
}

fn classifier_throughput(c: &mut Criterion) {
    let catalog = AppCatalog::standard();
    let classifier = SniClassifier::build(&catalog);
    let world = small_world();
    let hosts: Vec<&str> = world
        .store
        .proxy()
        .iter()
        .take(20_000)
        .map(|r| r.host.as_str())
        .collect();
    let mut group = c.benchmark_group("classifier");
    group.throughput(Throughput::Elements(hosts.len() as u64));
    group.bench_function("classify_trace_hosts", |b| {
        b.iter(|| {
            hosts
                .iter()
                .filter(|h| classifier.classify(black_box(h)).is_some())
                .count()
        })
    });
    group.bench_function("build_classifier", |b| {
        b.iter(|| SniClassifier::build(black_box(&catalog)))
    });
    group.finish();
}

criterion_group!(
    pipeline,
    generation_scaling,
    codec_throughput,
    store_operations,
    classifier_throughput
);
criterion_main!(pipeline);
