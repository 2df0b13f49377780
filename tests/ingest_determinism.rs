//! Properties: the one fused pass ([`CoreAggregates::sequential`]) is
//! *bit-identical* to every analysis's own entry point, the values it
//! derives from the one activity record match direct counts over the log,
//! and the resilient loader keeps the same records for every worker count.
//!
//! `PartialEq` on the aggregates already catches most divergence, but the
//! contract in `wearscope_core::merge` is stronger — no float may differ in
//! a single bit — so the float-bearing series are additionally compared
//! through `f64::to_bits` (which also distinguishes `0.0` from `-0.0`).

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use proptest::TestCaseError;

use wearscope::core::activity::{user_activity, HourlyProfile, TransactionStats};
use wearscope::core::apps::AppPopularity;
use wearscope::core::compare::user_traffic;
use wearscope::core::merge::CoreAggregates;
use wearscope::core::mobility::MobilityIndex;
use wearscope::core::sessions::attribute_transactions;
use wearscope::faults::{corrupt_world, FaultSpec};
use wearscope::ingest::{load_store_resilient, IngestOptions};
use wearscope::prelude::*;
use wearscope::report::QuarantineReason;
use wearscope::simtime::Calendar;
use wearscope::trace::{MmeEvent, MmeRecord, ProxyRecord, Scheme};

const HOSTS: [&str; 6] = [
    "api.weather.com",
    "maps.googleapis.com",
    "ssl.google-analytics.com",
    "media.akamaized.net",
    "gateway.icloud.com",
    "cdn.jsdelivr.net",
];

/// Raw proxy draw: (user, time offset s, host idx, https, down, up).
fn arb_proxy() -> impl Strategy<Value = Vec<(u64, u64, usize, bool, u64, u64)>> {
    prop::collection::vec(
        (
            0u64..24,
            0u64..14 * 86_400,
            0usize..HOSTS.len(),
            any::<bool>(),
            0u64..500_000,
            0u64..20_000,
        ),
        0..300,
    )
}

/// Raw MME draw: (user, time offset s, sector, detach?).
fn arb_mme() -> impl Strategy<Value = Vec<(u64, u64, u32, bool)>> {
    prop::collection::vec(
        (0u64..24, 0u64..14 * 86_400, 0u32..5, any::<bool>()),
        0..150,
    )
}

/// Assigns user `u` an IMEI: even users get a SIM-wearable, odd users a
/// smartphone, so the wearable filter and owner/rest split both matter.
fn imei_for(db: &DeviceDb, u: u64) -> u64 {
    let tacs = if u.is_multiple_of(2) {
        db.wearable_tacs()
    } else {
        db.tacs_of_class(DeviceClass::Smartphone)
    };
    db.example_imei(tacs[(u as usize / 2) % tacs.len()], u as u32)
        .as_u64()
}

fn bits(samples: &[f64]) -> Vec<u64> {
    samples.iter().map(|x| x.to_bits()).collect()
}

/// Builds the proxy and MME record vectors from the raw draws.
fn build_records(
    db: &DeviceDb,
    proxy_raw: Vec<(u64, u64, usize, bool, u64, u64)>,
    mme_raw: Vec<(u64, u64, u32, bool)>,
) -> (Vec<ProxyRecord>, Vec<MmeRecord>) {
    let proxy = proxy_raw
        .into_iter()
        .map(|(u, t, h, https, down, up)| ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(u),
            imei: imei_for(db, u),
            host: HostId::intern(HOSTS[h]),
            scheme: if https { Scheme::Https } else { Scheme::Http },
            bytes_down: down,
            bytes_up: up,
        })
        .collect();
    let mme = mme_raw
        .into_iter()
        .map(|(u, t, sector, detach)| MmeRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(u),
            imei: imei_for(db, u),
            event: if detach {
                MmeEvent::Detach
            } else {
                MmeEvent::SectorUpdate
            },
            sector,
        })
        .collect();
    (proxy, mme)
}

/// The five sectors every record draw refers to.
fn sectors() -> SectorDirectory {
    let mut sectors = SectorDirectory::new();
    for i in 0..5 {
        sectors.push(
            wearscope::geo::GeoPoint::new(40.0 + 0.07 * f64::from(i), -3.0 - 0.05 * f64::from(i)),
            None,
        );
    }
    sectors
}

/// Folds `store` once with [`CoreAggregates::sequential`] and checks every
/// aggregate against the analysis's own entry point, floats bit for bit.
fn assert_fused_matches_entry_points(
    db: &DeviceDb,
    store: &TraceStore,
) -> Result<(), TestCaseError> {
    let sectors = sectors();
    let catalog = AppCatalog::standard();
    let ctx = StudyContext::new(
        store,
        db,
        &sectors,
        &catalog,
        ObservationWindow::new(14, 14, Calendar::PAPER),
    );
    let fused = CoreAggregates::sequential(&ctx);

    let activity = user_activity(&ctx);
    let hourly = HourlyProfile::compute(&ctx);
    let tx_stats = TransactionStats::compute(&ctx, &activity);
    let traffic = user_traffic(&ctx);
    let mobility = MobilityIndex::build(&ctx);
    let attributed = attribute_transactions(&ctx);
    let popularity = AppPopularity::compute(&attributed);

    // Structural equality over everything first.
    prop_assert_eq!(&fused.activity, &activity);
    prop_assert_eq!(&fused.hourly, &hourly);
    prop_assert_eq!(&fused.tx_stats, &tx_stats);
    prop_assert_eq!(&fused.traffic, &traffic);
    prop_assert_eq!(&fused.mobility, &mobility);
    prop_assert_eq!(&fused.attributed, &attributed);
    prop_assert_eq!(&fused.popularity, &popularity);

    // Then bit-exactness of every float series.
    prop_assert_eq!(
        bits(fused.tx_stats.size.samples()),
        bits(tx_stats.size.samples())
    );
    prop_assert_eq!(
        bits(fused.tx_stats.hourly_tx_per_user.samples()),
        bits(tx_stats.hourly_tx_per_user.samples())
    );
    prop_assert_eq!(
        bits(fused.tx_stats.hourly_bytes_per_user.samples()),
        bits(tx_stats.hourly_bytes_per_user.samples())
    );
    prop_assert_eq!(
        fused.tx_stats.median_bytes.to_bits(),
        tx_stats.median_bytes.to_bits()
    );
    for hour in 0..24 {
        for (f, e) in [
            (&fused.hourly.weekday[hour], &hourly.weekday[hour]),
            (&fused.hourly.weekend[hour], &hourly.weekend[hour]),
        ] {
            prop_assert_eq!(f.active_users.to_bits(), e.active_users.to_bits());
            prop_assert_eq!(f.transactions.to_bits(), e.transactions.to_bits());
            prop_assert_eq!(f.bytes.to_bits(), e.bytes.to_bits());
        }
    }
    let mut users: Vec<_> = mobility.per_user.keys().copied().collect();
    users.sort();
    for u in users {
        prop_assert_eq!(
            bits(&fused.mobility.per_user[&u].daily_max_displacement_km),
            bits(&mobility.per_user[&u].daily_max_displacement_km)
        );
    }
    assert_derived_match_direct_counts(&ctx, &fused)
}

/// Checks the values the fold derives from its one activity record
/// against direct counts over the log: the hourly active-user shares
/// against distinct `(day, user)` pairs per slot, and each user's traffic
/// totals against direct sums.
fn assert_derived_match_direct_counts(
    ctx: &StudyContext<'_>,
    fused: &CoreAggregates,
) -> Result<(), TestCaseError> {
    let cal = ctx.window.calendar();
    let mut pairs: Vec<HashSet<(u64, UserId)>> = vec![HashSet::new(); 48];
    for r in ctx.wearable_proxy() {
        let day = r.timestamp.day_index();
        let weekend = usize::from(cal.day_is_weekend(day));
        let slot = usize::from(r.timestamp.hour_of_day()) + 24 * weekend;
        pairs[slot].insert((day, r.user));
    }
    // The profile's normalization: per-day averages per slot, as shares
    // of the average week (5 weekdays + 2 weekend days).
    let detailed = ctx.window.detailed();
    let n_we = detailed.days().filter(|&d| cal.day_is_weekend(d)).count();
    let n_wd = detailed.days().count() - n_we;
    let avg: Vec<f64> = (0..48)
        .map(|s| pairs[s].len() as f64 / (if s < 24 { n_wd } else { n_we }).max(1) as f64)
        .collect();
    let week =
        (5.0 * avg[..24].iter().sum::<f64>() + 2.0 * avg[24..].iter().sum::<f64>()).max(1e-12);
    for hour in 0..24 {
        prop_assert_eq!(
            fused.hourly.weekday[hour].active_users.to_bits(),
            (avg[hour] / week).to_bits()
        );
        prop_assert_eq!(
            fused.hourly.weekend[hour].active_users.to_bits(),
            (avg[hour + 24] / week).to_bits()
        );
    }

    // (bytes_total, tx_total, bytes_wearable, tx_wearable) per user.
    let mut sums: HashMap<UserId, [u64; 4]> = HashMap::new();
    for r in ctx.store.proxy() {
        let s = sums.entry(r.user).or_default();
        s[0] += r.bytes_total();
        s[1] += 1;
    }
    for r in ctx.wearable_proxy() {
        let s = sums
            .get_mut(&r.user)
            .expect("a wearable record is a proxy record");
        s[2] += r.bytes_total();
        s[3] += 1;
    }
    prop_assert_eq!(fused.traffic.len(), sums.len());
    for (user, s) in &sums {
        let t = &fused.traffic[user];
        prop_assert_eq!(
            (
                user,
                [t.bytes_total, t.tx_total, t.bytes_wearable, t.tx_wearable]
            ),
            (user, *s)
        );
    }
    Ok(())
}

proptest! {
    /// For any random trace, every aggregate and float series of the fused
    /// pass has the same bits as the analysis's own entry point.
    #[test]
    fn fused_fold_is_bit_identical(proxy_raw in arb_proxy(), mme_raw in arb_mme()) {
        let db = DeviceDb::standard();
        let (proxy, mme) = build_records(&db, proxy_raw, mme_raw);
        let store = TraceStore::from_records(proxy, mme);
        assert_fused_matches_entry_points(&db, &store)?;
    }
}

proptest! {
    /// For any random trace, any corruption seed, and any worker count, the
    /// resilient load of the corrupted world quarantines the *same* records
    /// (same survivors, same per-reason counts), and the fused pass over
    /// the survivors stays bit-identical to the per-analysis entry points.
    #[test]
    fn corrupted_world_ingest_is_bit_identical(
        proxy_raw in arb_proxy(),
        mme_raw in arb_mme(),
        fault_seed in 0u64..1000,
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CASE: AtomicU64 = AtomicU64::new(0);

        let db = DeviceDb::standard();
        let (proxy, mme) = build_records(&db, proxy_raw, mme_raw);
        let store = TraceStore::from_records(proxy, mme);
        let dir = std::env::temp_dir().join(format!(
            "wearscope-detprop-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        store.save(&dir).unwrap();
        let spec: FaultSpec = "all=0.02".parse().unwrap();
        corrupt_world(&dir, fault_seed, &spec).unwrap();

        // Budget off: this property is about determinism, not the budget,
        // and a tiny random store can lose most of its lines to `all=0.02`
        // (truncate alone always claims one line per file).
        let opts = IngestOptions {
            max_timestamp: Some(SimTime::from_days(16)),
            ..IngestOptions::default()
        }
        .with_max_error_rate(1.0);

        let mut baseline: Option<(TraceStore, Vec<u64>)> = None;
        for workers in [1usize, 2, 5, 8] {
            let (loaded, report) = load_store_resilient(&dir, workers, &opts).unwrap();
            let counts: Vec<u64> = QuarantineReason::ALL
                .iter()
                .map(|r| report.quality.quarantined.get(*r))
                .collect();
            match &baseline {
                None => baseline = Some((loaded, counts)),
                Some((first, first_counts)) => {
                    prop_assert_eq!(loaded.proxy(), first.proxy());
                    prop_assert_eq!(loaded.mme(), first.mme());
                    prop_assert_eq!(&counts, first_counts);
                }
            }
        }

        let (survivors, _) = baseline.unwrap();
        assert_fused_matches_entry_points(&db, &survivors)?;
        std::fs::remove_dir_all(&dir).ok();
    }
}
