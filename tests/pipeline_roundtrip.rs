//! Cross-crate round-trip tests: logs written to disk and reloaded must
//! drive the pipeline to identical results, determinism must hold end to
//! end, and the reader must survive injected corruption.

use std::io::Write;
use wearscope::core::hash::HashSet;

use wearscope::core::{CoreAggregates, StudyResults};
use wearscope::ingest::{load_store_resilient, IngestError, IngestOptions};
use wearscope::prelude::*;
use wearscope::synthpop::manifest::fnv1a;

fn small_world(seed: u64) -> GeneratedWorld {
    let mut config = ScenarioConfig::compact(seed);
    config.wearable_users = 120;
    config.comparison_users = 150;
    config.through_device_users = 40;
    generate(&config)
}

/// Users seen in either log with a SIM-enabled wearable IMEI, by a plain
/// scan of the store: the reference for the fold's `CoreAggregates::owners`.
fn owners_by_scan(ctx: &StudyContext<'_>) -> HashSet<UserId> {
    let proxy = ctx.store.proxy().iter().map(|r| (r.user, r.imei));
    let mme = ctx.store.mme().iter().map(|r| (r.user, r.imei));
    proxy
        .chain(mme)
        .filter(|&(_, imei)| ctx.device_class(imei) == Some(DeviceClass::CellularWearable))
        .map(|(user, _)| user)
        .collect()
}

fn takeaways_of(world: &GeneratedWorld, store: &TraceStore) -> Takeaways {
    let ctx = StudyContext::new(
        store,
        &world.db,
        &world.sectors,
        &world.apps,
        world.config.window,
    );
    let aggs = CoreAggregates::sequential(&ctx);
    Takeaways::from_results(&StudyResults::new(&ctx, &world.summaries, &aggs))
}

#[test]
fn disk_roundtrip_preserves_analysis() {
    let world = small_world(71);
    let dir = std::env::temp_dir().join(format!("wearscope-e2e-{}", std::process::id()));
    world.store.save(&dir).expect("save traces");
    let (reloaded, report) =
        load_store_resilient(&dir, 2, &IngestOptions::default()).expect("load traces");
    assert!(report.quality.quarantined.is_empty());
    assert_eq!(reloaded.proxy(), world.store.proxy());
    assert_eq!(reloaded.mme(), world.store.mme());

    let a = takeaways_of(&world, &world.store);
    let b = takeaways_of(&world, &reloaded);
    assert_eq!(a.median_tx_bytes, b.median_tx_bytes);
    assert_eq!(a.owner_bytes_ratio, b.owner_bytes_ratio);
    assert_eq!(a.single_location_share, b.single_location_share);
    assert_eq!(a.mean_apps_per_user, b.mean_apps_per_user);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generation_fully_deterministic_end_to_end() {
    let a = small_world(72);
    let b = small_world(72);
    let ta = takeaways_of(&a, &a.store);
    let tb = takeaways_of(&b, &b.store);
    assert_eq!(ta.median_tx_bytes, tb.median_tx_bytes);
    assert_eq!(ta.data_active_share, tb.data_active_share);
    assert_eq!(ta.owner_displacement_km, tb.owner_displacement_km);
    assert_eq!(ta.entropy_ratio, tb.entropy_ratio);
    assert_eq!(a.stats.events, b.stats.events);
}

#[test]
fn different_seeds_give_different_worlds() {
    let a = small_world(73);
    let b = small_world(74);
    assert_ne!(a.store.proxy().len(), b.store.proxy().len());
}

#[test]
fn corrupted_log_lines_are_reported_not_ignored() {
    use wearscope::trace::{ProxyRecord, TsvRecord};
    let world = small_world(75);
    let dir = std::env::temp_dir().join(format!("wearscope-corrupt-{}", std::process::id()));
    world.store.save(&dir).expect("save traces");

    // Inject garbage in the middle of the proxy log.
    let path = dir.join("proxy.log");
    let mut content = std::fs::read_to_string(&path).unwrap();
    let insert_at = content.len() / 2;
    let insert_at = content[..insert_at].rfind('\n').map_or(0, |i| i + 1);
    content.insert_str(insert_at, "THIS IS NOT A RECORD\n");
    std::fs::File::create(&path)
        .unwrap()
        .write_all(content.as_bytes())
        .unwrap();

    // A zero error budget fails the load on the one bad line...
    let strict = IngestOptions {
        max_error_rate: 0.0,
        ..IngestOptions::default()
    };
    match load_store_resilient(&dir, 2, &strict) {
        Err(IngestError::ErrorBudget { quarantined, .. }) => assert_eq!(quarantined, 1),
        other => panic!(
            "expected an error-budget failure, got {:?}",
            other.map(|_| ())
        ),
    }

    // ...while the default budget quarantines exactly that line.
    let (store, report) =
        load_store_resilient(&dir, 2, &IngestOptions::default()).expect("load traces");
    assert_eq!(report.parse_errors(), 1);
    assert_eq!(store.proxy(), world.store.proxy());

    // Round-trip sanity for a single record line.
    let line = world.store.proxy()[0].to_line();
    assert_eq!(
        ProxyRecord::from_line(&line).unwrap(),
        world.store.proxy()[0]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analysis_ignores_foreign_devices() {
    // Records from devices outside the device DB must not crash the pipeline
    // nor count as wearables.
    let world = small_world(76);
    let n_before_owners = {
        let ctx = StudyContext::new(
            &world.store,
            &world.db,
            &world.sectors,
            &world.apps,
            world.config.window,
        );
        owners_by_scan(&ctx).len()
    };
    // Inject transactions from an unknown IMEI (valid Luhn, unknown TAC).
    let foreign = wearscope::devicedb::Imei::from_parts(
        wearscope::devicedb::Tac::new(99_123_456).unwrap(),
        7,
    )
    .unwrap()
    .as_u64();
    let mut proxy = world.store.proxy().to_vec();
    proxy.extend((0..50u64).map(|k| ProxyRecord {
        timestamp: world.config.window.detailed().start() + SimDuration::from_secs(60 * k),
        user: UserId(0xDEAD_0000 + k),
        imei: foreign,
        host: HostId::intern("api.weather.com"),
        scheme: wearscope::trace::Scheme::Https,
        bytes_down: 1_000,
        bytes_up: 100,
    }));
    let store = TraceStore::from_records(proxy, world.store.mme().to_vec());
    let ctx = StudyContext::new(
        &store,
        &world.db,
        &world.sectors,
        &world.apps,
        world.config.window,
    );
    let owners = owners_by_scan(&ctx);
    assert_eq!(
        owners.len(),
        n_before_owners,
        "foreign devices must not become owners"
    );
    assert_eq!(CoreAggregates::sequential(&ctx).owners, owners);
    assert_eq!(ctx.device_class(foreign), None);
    // Pipeline still runs.
    let aggs = CoreAggregates::sequential(&ctx);
    let t = Takeaways::from_results(&StudyResults::new(&ctx, &world.summaries, &aggs));
    assert!(t.median_tx_bytes > 0.0);
}

#[test]
fn network_summaries_consistent_with_logs() {
    // Every wearable user seen in the detailed proxy log must appear in the
    // proxy's long-horizon summary for those days.
    let world = small_world(77);
    let ctx = StudyContext::new(
        &world.store,
        &world.db,
        &world.sectors,
        &world.apps,
        world.config.window,
    );
    let detail_days = world.config.window.detailed();
    let from = detail_days.start().day_index();
    let to = detail_days.end().day_index() + 1;
    let summary_users = world.summaries.wearable_traffic.users_in_days(from, to);
    for r in ctx.wearable_proxy() {
        assert!(
            summary_users.contains(&r.user),
            "user {:?} in log but not in summary",
            r.user
        );
    }
}

/// The FNV-1a fingerprint of each of a saved world's six files, in name
/// order.
fn world_fingerprints(dir: &std::path::Path) -> Vec<(&'static str, u64)> {
    [
        "manifest.tsv",
        "mme.log",
        "proxy.log",
        "sectors.tsv",
        "summary_mme.tsv",
        "summary_traffic.tsv",
    ]
    .into_iter()
    .map(|name| (name, fnv1a(&std::fs::read(dir.join(name)).unwrap())))
    .collect()
}

/// Saved worlds are pinned to known-good bytes, clean and after
/// `corrupt --seed 3 --faults all`: an encoder or injector change that
/// moves one byte of any file fails here, not only in a comparison of two
/// runs of the same code.
#[test]
fn saved_world_bytes_are_pinned() {
    use wearscope::faults::{corrupt_world, FaultSpec, DEFAULT_RATE};
    let world = small_world(71);
    let dir = std::env::temp_dir().join(format!("wearscope-pinned-{}", std::process::id()));
    world.save(&dir).expect("save world");
    assert_eq!(
        world_fingerprints(&dir),
        [
            ("manifest.tsv", 0xff380c2c3182b2fe),
            ("mme.log", 0x35a7c549ee86b9bd),
            ("proxy.log", 0xdedbd5d9a7e415c2),
            ("sectors.tsv", 0x6b18f2fcfb57dfdd),
            ("summary_mme.tsv", 0xcb0df1a95f4653dd),
            ("summary_traffic.tsv", 0xbd7bdb341afec7a8),
        ]
    );
    // Seed 5 under specs that each leave most lines to the copy path:
    // nothing injected, swaps and `\r\n`s, and a cut tail.
    for (spec, want) in [
        (
            "dup=0",
            [
                ("mme.log", 0x35a7c549ee86b9bd),
                ("proxy.log", 0xdedbd5d9a7e415c2),
            ],
        ),
        (
            "reorder=0.3,crlf=0.3",
            [
                ("mme.log", 0xadb64b8436f1f152),
                ("proxy.log", 0x631c616e5bf22016),
            ],
        ),
        (
            "truncate,dup=0.5,reorder=0.5",
            [
                ("mme.log", 0x4c6d55a05173caed),
                ("proxy.log", 0x9361b78b1d0c6a9c),
            ],
        ),
        (
            "all=0.2",
            [
                ("mme.log", 0x640309176bb80e20),
                ("proxy.log", 0x68b6626d0c8d4f1c),
            ],
        ),
    ] {
        let copy = dir.join(spec.replace([',', '='], "-"));
        std::fs::create_dir_all(&copy).unwrap();
        for (log, _) in want {
            std::fs::copy(dir.join(log), copy.join(log)).unwrap();
        }
        corrupt_world(&copy, 5, &spec.parse::<FaultSpec>().unwrap()).expect("corrupt copy");
        let got = want.map(|(log, _)| (log, fnv1a(&std::fs::read(copy.join(log)).unwrap())));
        assert_eq!(got, want, "seed 5, {spec}");
        std::fs::remove_dir_all(&copy).unwrap();
    }
    corrupt_world(&dir, 3, &FaultSpec::all(DEFAULT_RATE)).expect("corrupt world");
    assert_eq!(
        world_fingerprints(&dir),
        [
            ("manifest.tsv", 0xff380c2c3182b2fe),
            ("mme.log", 0xce9bc494bd6439c0),
            ("proxy.log", 0xfe2d56426134f57c),
            ("sectors.tsv", 0x6b18f2fcfb57dfdd),
            ("summary_mme.tsv", 0xcb0df1a95f4653dd),
            ("summary_traffic.tsv", 0xbd7bdb341afec7a8),
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}
