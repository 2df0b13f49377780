//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. longest-suffix **trie vs linear scan** for SNI classification;
//! 2. **bucket grid vs brute force** nearest-sector lookup;
//! 3. **merged time-sort vs per-user ordering** of generated events;
//! 4. **session-gap sensitivity** of the 1-minute sessionization rule.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use wearscope_appdb::{AppCatalog, Classification, SniClassifier};
use wearscope_bench::{ctx, small_world};
use wearscope_geo::{GeoPoint, SectorGrid};

/// Ablation 1: the production trie against the naive per-signature suffix
/// scan it replaces.
fn classifier_trie_vs_linear(c: &mut Criterion) {
    let catalog = AppCatalog::standard();
    let trie = SniClassifier::build(&catalog);
    // The linear baseline: (suffix, classification) pairs, longest first.
    let mut signatures: Vec<(String, Classification)> = Vec::new();
    for (id, app) in catalog.iter() {
        for d in app.domains {
            signatures.push((d.to_string(), Classification::FirstParty(id)));
        }
    }
    for tp in wearscope_appdb::third_party_domains() {
        signatures.push((tp.domain.to_string(), Classification::ThirdParty(tp.class)));
    }
    signatures.sort_by_key(|(d, _)| std::cmp::Reverse(d.len()));
    let linear = |host: &str| -> Option<Classification> {
        let host = host.to_ascii_lowercase();
        signatures
            .iter()
            .find(|(sig, _)| {
                host == *sig
                    || (host.len() > sig.len()
                        && host.ends_with(sig.as_str())
                        && host.as_bytes()[host.len() - sig.len() - 1] == b'.')
            })
            .map(|(_, c)| *c)
    };

    let world = small_world();
    let hosts: Vec<&str> = world
        .store
        .proxy()
        .iter()
        .take(10_000)
        .map(|r| r.host.name())
        .collect();
    // Sanity: both classify identically on trace hosts.
    for h in hosts.iter().take(500) {
        assert_eq!(trie.classify(h), linear(h), "mismatch on {h}");
    }

    let mut group = c.benchmark_group("ablation_classifier");
    group.throughput(Throughput::Elements(hosts.len() as u64));
    group.bench_function("trie", |b| {
        b.iter(|| {
            hosts
                .iter()
                .filter(|h| trie.classify(black_box(h)).is_some())
                .count()
        })
    });
    group.bench_function("linear_scan", |b| {
        b.iter(|| {
            hosts
                .iter()
                .filter(|h| linear(black_box(h)).is_some())
                .count()
        })
    });
    group.finish();
}

/// Ablation 2: bucket-grid nearest sector vs brute force over the directory.
fn grid_vs_brute_force(c: &mut Criterion) {
    let world = small_world();
    let dir = &world.sectors;
    let grid = SectorGrid::build(dir);
    let queries: Vec<GeoPoint> = (0..2_000)
        .map(|i| {
            let t = i as f64 / 2_000.0;
            GeoPoint::new(38.0 + 5.0 * t, -6.0 + 7.0 * (1.0 - t))
        })
        .collect();
    let mut group = c.benchmark_group("ablation_nearest_sector");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("bucket_grid", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| grid.nearest(black_box(*q)).unwrap().raw())
                .sum::<u32>()
        })
    });
    group.bench_function("brute_force", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| {
                    dir.iter()
                        .min_by(|a, b| {
                            q.distance_km(a.location)
                                .partial_cmp(&q.distance_km(b.location))
                                .unwrap()
                        })
                        .unwrap()
                        .id
                        .raw()
                })
                .sum::<u32>()
        })
    });
    group.finish();
}

/// Ablation 3: cost of globally time-sorting a day's events vs leaving them
/// in per-user order (what the merged event stream buys).
fn event_ordering(c: &mut Criterion) {
    let world = small_world();
    let mut events: Vec<(u64, u64)> = world
        .store
        .proxy()
        .iter()
        .map(|r| (r.user.raw(), r.timestamp.as_secs()))
        .collect();
    // Shuffle into per-user order first.
    events.sort_unstable();
    let mut group = c.benchmark_group("ablation_event_ordering");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function("sort_by_time", |b| {
        b.iter(|| {
            let mut v = events.clone();
            v.sort_unstable_by_key(|&(_, t)| t);
            v.len()
        })
    });
    group.bench_function("clone_only_baseline", |b| {
        b.iter(|| {
            let v = events.clone();
            v.len()
        })
    });
    group.finish();
}

/// Ablation 4: sensitivity of the paper's 1-minute sessionization gap —
/// runtime is flat in the gap, but the resulting session count (printed via
/// criterion labels in the bench names) is what the parameter controls.
fn session_gap_sensitivity(c: &mut Criterion) {
    use wearscope_core::sessions::{attribute_transactions, sessionize_with_gap};
    let world = small_world();
    let context = ctx(world);
    let attributed = attribute_transactions(&context);
    let mut group = c.benchmark_group("ablation_session_gap");
    for gap in [15u64, 60, 300] {
        group.bench_function(format!("gap_{gap}s"), |b| {
            b.iter(|| sessionize_with_gap(black_box(&attributed), gap).len())
        });
    }
    group.finish();
}

criterion_group!(
    ablations,
    classifier_trie_vs_linear,
    grid_vs_brute_force,
    event_ordering,
    session_gap_sensitivity
);
criterion_main!(ablations);
