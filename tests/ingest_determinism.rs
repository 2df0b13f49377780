//! Properties: the one fused pass ([`CoreAggregates::sequential`]) is
//! *bit-identical* to the per-analysis paths that still read the store on
//! their own (mobility, attribution) and to reference scans over the log
//! for every figure it folds, and the resilient loader keeps the same
//! records for every worker count.
//!
//! The reference scans in [`oracle`] are the store scans each figure ran
//! before it became part of the fold, kept verbatim as test-only oracles.
//!
//! `PartialEq` on the aggregates already catches most divergence, but the
//! contract in `wearscope_core::merge` is stronger — no float may differ in
//! a single bit — so the float-bearing series are additionally compared
//! through `f64::to_bits` (which also distinguishes `0.0` from `-0.0`).

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use proptest::TestCaseError;

use wearscope::core::activity::{daily_active_share, UserActivity};
use wearscope::core::apps::AppPopularity;
use wearscope::core::merge::CoreAggregates;
use wearscope::core::mobility::MobilityIndex;
use wearscope::core::sessions::attribute_transactions;
use wearscope::core::Ecdf;
use wearscope::devicedb::Tac;
use wearscope::faults::{corrupt_world, FaultSpec};
use wearscope::ingest::{load_store_resilient, IngestOptions};
use wearscope::prelude::*;
use wearscope::report::QuarantineReason;
use wearscope::simtime::Calendar;
use wearscope::trace::{MmeEvent, MmeRecord, ProxyRecord, Scheme};

const HOSTS: [&str; 9] = [
    "api.weather.com",
    "maps.googleapis.com",
    "ssl.google-analytics.com",
    "media.akamaized.net",
    "gateway.icloud.com",
    "cdn.jsdelivr.net",
    "android-api.fitbit.com",
    "wear.accuweather.com",
    "mystery.unsigned.example",
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
/// smartphone, so the wearable filter and owner/rest split both matter;
/// users 5, 11, 17 and 23 instead carry a valid IMEI the device DB does
/// not know.
fn imei_for(db: &DeviceDb, u: u64) -> u64 {
    if u % 6 == 5 {
        let unknown = Tac::new(99_999_991).expect("a TAC below 10^8");
        return db.example_imei(unknown, u as u32).as_u64();
    }
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
/// aggregate against the analyses that read the store on their own and
/// against the reference scans, floats bit for bit.
fn assert_fused_matches_entry_points(
    db: &DeviceDb,
    store: &TraceStore,
) -> Result<(), TestCaseError> {
    let sectors = sectors();
    let catalog = AppCatalog::standard();
    // The detailed window leaves out day 0 of the draws, so both logs
    // also hold records outside it.
    let ctx = StudyContext::new(
        store,
        db,
        &sectors,
        &catalog,
        ObservationWindow::new(14, 13, Calendar::PAPER),
    );
    let fused = CoreAggregates::sequential(&ctx);

    let mobility = MobilityIndex::build(&ctx);
    let attributed = attribute_transactions(&ctx);
    let popularity = AppPopularity::compute(&attributed);

    // Structural equality over everything first.
    prop_assert_eq!(&fused.activity, &oracle::user_activity(&ctx));
    prop_assert_eq!(&fused.mobility, &mobility);
    prop_assert_eq!(&fused.attributed, &attributed);
    prop_assert_eq!(&fused.popularity, &popularity);
    let weekly = oracle::weekly(&ctx);
    let domains = oracle::domains(&ctx);
    let through_device = oracle::through_device(&ctx, &mobility);
    prop_assert_eq!(&fused.weekly, &weekly);
    prop_assert_eq!(&fused.domains, &domains);
    prop_assert_eq!(&fused.devices, &oracle::devices(&ctx));
    prop_assert_eq!(&fused.through_device, &through_device);
    prop_assert_eq!(&fused.quality, &oracle::quality(&ctx));
    prop_assert_eq!(&fused.owners, &oracle::owners(&ctx));

    // Then bit-exactness of every float.
    let sizes: Vec<f64> = ctx
        .wearable_proxy()
        .map(|r| r.bytes_total() as f64)
        .collect();
    prop_assert_eq!(
        bits(fused.tx_stats.size.samples()),
        bits(Ecdf::from_samples(sizes).samples())
    );
    let mut users: Vec<_> = mobility.per_user.keys().copied().collect();
    users.sort();
    for u in users {
        prop_assert_eq!(
            bits(&fused.mobility.per_user[&u].daily_max_displacement_km),
            bits(&mobility.per_user[&u].daily_max_displacement_km)
        );
    }
    prop_assert_eq!(
        daily_active_share(&ctx).to_bits(),
        oracle::daily_active_share(&ctx).to_bits()
    );
    for (f, e) in [
        (
            &fused.weekly.wearable_tx_by_weekday,
            &weekly.wearable_tx_by_weekday,
        ),
        (
            &fused.weekly.total_tx_by_weekday,
            &weekly.total_tx_by_weekday,
        ),
        (&fused.weekly.daily_user_share, &weekly.daily_user_share),
    ] {
        prop_assert_eq!(bits(f), bits(e));
    }
    prop_assert_eq!(
        fused.weekly.weekend_relative_usage.to_bits(),
        weekly.weekend_relative_usage.to_bits()
    );
    prop_assert_eq!(
        fused.weekly.evening_relative_usage.to_bits(),
        weekly.evening_relative_usage.to_bits()
    );
    for (f, e) in [
        (&fused.domains.users, &domains.users),
        (&fused.domains.frequency, &domains.frequency),
        (&fused.domains.data, &domains.data),
    ] {
        prop_assert_eq!(bits(f), bits(e));
    }
    let t = &fused.through_device;
    prop_assert_eq!(
        bits(t.displacement.samples()),
        bits(through_device.displacement.samples())
    );
    prop_assert_eq!(
        [
            t.displacement_mean_km.to_bits(),
            t.sim_owner_displacement_mean_km.to_bits()
        ],
        [
            through_device.displacement_mean_km.to_bits(),
            through_device.sim_owner_displacement_mean_km.to_bits()
        ]
    );
    prop_assert_eq!(
        fused.quality.day_coverage.to_bits(),
        oracle::quality(&ctx).day_coverage.to_bits()
    );
    assert_derived_match_direct_counts(&ctx, &fused)
}

/// Checks the values the fold derives from its one activity record
/// against direct counts over the log: the hourly shares against distinct
/// `(day, user)` pairs and the transaction and byte counts per slot, each
/// user's traffic totals against direct sums, and each user's transaction
/// rates.
fn assert_derived_match_direct_counts(
    ctx: &StudyContext<'_>,
    fused: &CoreAggregates,
) -> Result<(), TestCaseError> {
    let cal = ctx.window.calendar();
    let mut pairs: Vec<HashSet<(u64, UserId)>> = vec![HashSet::new(); 48];
    let (mut tx, mut bytes) = ([0u64; 48], [0u64; 48]);
    for r in ctx.wearable_proxy() {
        let day = r.timestamp.day_index();
        let weekend = usize::from(cal.day_is_weekend(day));
        let slot = usize::from(r.timestamp.hour_of_day()) + 24 * weekend;
        pairs[slot].insert((day, r.user));
        tx[slot] += 1;
        bytes[slot] += r.bytes_total();
    }
    // The profile's normalization: per-day averages per slot, as shares
    // of the average week (5 weekdays + 2 weekend days).
    let detailed = ctx.window.detailed();
    let n_we = detailed.days().filter(|&d| cal.day_is_weekend(d)).count();
    let n_wd = detailed.days().count() - n_we;
    let shares = |counts: [f64; 48]| -> Vec<f64> {
        let avg: Vec<f64> = (0..48)
            .map(|s| counts[s] / (if s < 24 { n_wd } else { n_we }).max(1) as f64)
            .collect();
        let week =
            (5.0 * avg[..24].iter().sum::<f64>() + 2.0 * avg[24..].iter().sum::<f64>()).max(1e-12);
        avg.iter().map(|a| a / week).collect()
    };
    let users = shares(std::array::from_fn(|s| pairs[s].len() as f64));
    let tx = shares(tx.map(|n| n as f64));
    let bytes = shares(bytes.map(|n| n as f64));
    for hour in 0..24 {
        for (stats, slot) in [
            (&fused.hourly.weekday[hour], hour),
            (&fused.hourly.weekend[hour], hour + 24),
        ] {
            prop_assert_eq!(stats.active_users.to_bits(), users[slot].to_bits());
            prop_assert_eq!(stats.transactions.to_bits(), tx[slot].to_bits());
            prop_assert_eq!(stats.bytes.to_bits(), bytes[slot].to_bits());
        }
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

    // Per-user rates, in the fold's Ecdf (sorted) order.
    let activity = oracle::user_activity(ctx);
    let rates = |f: fn(&UserActivity) -> f64| -> Vec<u64> {
        bits(Ecdf::from_samples(activity.values().map(f).collect()).samples())
    };
    prop_assert_eq!(
        bits(fused.tx_stats.hourly_tx_per_user.samples()),
        rates(UserActivity::tx_per_active_hour)
    );
    prop_assert_eq!(
        bits(fused.tx_stats.hourly_bytes_per_user.samples()),
        rates(UserActivity::bytes_per_active_hour)
    );
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

/// The store scans each folded figure ran before it joined the fold, kept
/// verbatim as references (only `ctx.phone_proxy()` and `ctx.owners()`,
/// since deleted, are spelled out: the first as its filter, the second as
/// [`oracle::owners`]).
mod oracle {
    use wearscope::core::hash::{HashMap, HashSet};

    use wearscope::core::activity::UserActivity;
    use wearscope::core::devices::DeviceMix;
    use wearscope::core::mobility::MobilityIndex;
    use wearscope::core::quality::DataQualityReport;
    use wearscope::core::thirdparty::DomainBreakdown;
    use wearscope::core::through_device::ThroughDeviceReport;
    use wearscope::core::weekly::WeeklyPattern;
    use wearscope::core::Ecdf;
    use wearscope::prelude::*;

    /// The owner index `StudyContext::new` built before the owners joined
    /// the fold: every user seen in either log with a SIM-enabled wearable
    /// IMEI.
    pub fn owners(ctx: &StudyContext<'_>) -> HashSet<UserId> {
        let proxy = ctx.store.proxy().iter().map(|r| (r.user, r.imei));
        let mme = ctx.store.mme().iter().map(|r| (r.user, r.imei));
        proxy
            .chain(mme)
            .filter(|&(_, imei)| ctx.device_class(imei) == Some(DeviceClass::CellularWearable))
            .map(|(user, _)| user)
            .collect()
    }

    /// `activity::user_activity`.
    pub fn user_activity(ctx: &StudyContext<'_>) -> HashMap<UserId, UserActivity> {
        let mut per_user: HashMap<UserId, UserActivity> = HashMap::default();
        for r in ctx.wearable_proxy() {
            let agg = per_user.entry(r.user).or_default();
            agg.days.insert(r.timestamp.day_index());
            agg.hours.insert(r.timestamp.hour_index());
            agg.transactions += 1;
            agg.bytes += r.bytes_total();
        }
        per_user
    }

    /// `activity::daily_active_share`.
    pub fn daily_active_share(ctx: &StudyContext<'_>) -> f64 {
        let mut by_week: HashMap<u64, HashSet<UserId>> = HashMap::default();
        let mut by_day: HashMap<u64, HashSet<UserId>> = HashMap::default();
        for r in ctx.wearable_proxy() {
            by_week
                .entry(r.timestamp.week_index())
                .or_default()
                .insert(r.user);
            by_day
                .entry(r.timestamp.day_index())
                .or_default()
                .insert(r.user);
        }
        if by_week.is_empty() {
            return 0.0;
        }
        let mut weeks: Vec<(&u64, &HashSet<UserId>)> = by_week.iter().collect();
        weeks.sort_by_key(|(w, _)| **w);
        let mut shares = Vec::new();
        for (week, weekly_users) in weeks {
            if weekly_users.is_empty() {
                continue;
            }
            for day in (week * 7)..(week * 7 + 7) {
                if let Some(daily) = by_day.get(&day) {
                    shares.push(daily.len() as f64 / weekly_users.len() as f64);
                }
            }
        }
        if shares.is_empty() {
            0.0
        } else {
            shares.iter().sum::<f64>() / shares.len() as f64
        }
    }

    /// `WeeklyPattern::compute`.
    pub fn weekly(ctx: &StudyContext<'_>) -> WeeklyPattern {
        let cal = ctx.window.calendar();
        let mut wearable = [0.0_f64; 7];
        let mut total = [0.0_f64; 7];
        let mut wearable_evening = 0.0_f64;
        let mut total_evening = 0.0_f64;
        let mut wearable_all = 0.0_f64;
        let mut total_all = 0.0_f64;
        // Per (weekday, user): days seen, for the daily user share.
        let mut users_by_day: HashMap<u64, HashSet<UserId>> = HashMap::default();
        let mut weekly_users: HashMap<u64, HashSet<UserId>> = HashMap::default();

        for r in ctx.store.proxy() {
            let wd = cal.weekday(r.timestamp).index() as usize;
            let is_wearable = ctx.is_wearable_record(r);
            let evening = (16..22).contains(&r.timestamp.hour_of_day());
            total[wd] += 1.0;
            total_all += 1.0;
            if evening {
                total_evening += 1.0;
            }
            if is_wearable {
                wearable[wd] += 1.0;
                wearable_all += 1.0;
                if evening {
                    wearable_evening += 1.0;
                }
                users_by_day
                    .entry(r.timestamp.day_index())
                    .or_default()
                    .insert(r.user);
                weekly_users
                    .entry(r.timestamp.week_index())
                    .or_default()
                    .insert(r.user);
            }
        }

        let norm = |xs: [f64; 7]| -> [f64; 7] {
            let sum: f64 = xs.iter().sum::<f64>().max(1e-12);
            let mut out = [0.0; 7];
            for (o, x) in out.iter_mut().zip(xs) {
                *o = x / sum;
            }
            out
        };
        let wearable_share = norm(wearable);
        let total_share = norm(total);

        // Daily user share per weekday, averaged across the window's days.
        let mut day_share_acc = [0.0_f64; 7];
        let mut day_share_n = [0usize; 7];
        let mut days: Vec<u64> = ctx.window.detailed().days().collect();
        days.sort_unstable();
        for day in days {
            let wd = cal.weekday_of_day(day).index() as usize;
            let week = day / 7;
            let weekly = weekly_users.get(&week).map_or(0, HashSet::len);
            if weekly == 0 {
                continue;
            }
            let daily = users_by_day.get(&day).map_or(0, HashSet::len);
            day_share_acc[wd] += daily as f64 / weekly as f64;
            day_share_n[wd] += 1;
        }
        let mut daily_user_share = [0.0; 7];
        for i in 0..7 {
            if day_share_n[i] > 0 {
                daily_user_share[i] = day_share_acc[i] / day_share_n[i] as f64;
            }
        }

        // Relative weekend usage: wearable weekend share over total weekend
        // share (Sat=5, Sun=6 in Monday-first indexing).
        let weekend_w = wearable_share[5] + wearable_share[6];
        let weekend_t = (total_share[5] + total_share[6]).max(1e-12);
        let evening_w = if wearable_all > 0.0 {
            wearable_evening / wearable_all
        } else {
            0.0
        };
        let evening_t = if total_all > 0.0 {
            total_evening / total_all
        } else {
            1e-12
        };

        WeeklyPattern {
            wearable_tx_by_weekday: wearable_share,
            total_tx_by_weekday: total_share,
            daily_user_share,
            weekend_relative_usage: weekend_w / weekend_t,
            evening_relative_usage: evening_w / evening_t.max(1e-12),
        }
    }

    /// `DomainBreakdown::compute`.
    pub fn domains(ctx: &StudyContext<'_>) -> DomainBreakdown {
        let mut day_users: [HashSet<(u64, UserId)>; 4] = Default::default();
        let mut tx = [0u64; 4];
        let mut bytes = [0u64; 4];
        let mut unclassified = 0u64;
        for r in ctx.wearable_proxy() {
            match ctx.host_class(r.host).classification {
                Some(c) => {
                    let i = c.domain_class().index();
                    day_users[i].insert((r.timestamp.day_index(), r.user));
                    tx[i] += 1;
                    bytes[i] += r.bytes_total();
                }
                None => unclassified += 1,
            }
        }
        let share = |xs: [f64; 4]| -> [f64; 4] {
            let total: f64 = xs.iter().sum::<f64>().max(1e-12);
            [xs[0] / total, xs[1] / total, xs[2] / total, xs[3] / total]
        };
        DomainBreakdown {
            users: share([
                day_users[0].len() as f64,
                day_users[1].len() as f64,
                day_users[2].len() as f64,
                day_users[3].len() as f64,
            ]),
            frequency: share([tx[0] as f64, tx[1] as f64, tx[2] as f64, tx[3] as f64]),
            data: share([
                bytes[0] as f64,
                bytes[1] as f64,
                bytes[2] as f64,
                bytes[3] as f64,
            ]),
            unclassified_transactions: unclassified,
        }
    }

    /// `DeviceMix::compute`.
    pub fn devices(ctx: &StudyContext<'_>) -> DeviceMix {
        // (user, imei) pairs for wearable devices, deduplicated.
        let mut seen: HashSet<(UserId, u64)> = HashSet::default();
        let mut users_by_model: HashMap<&'static str, HashSet<UserId>> = HashMap::default();
        let mut users_by_manufacturer: HashMap<&'static str, HashSet<UserId>> = HashMap::default();
        let mut users_by_os: HashMap<&'static str, HashSet<UserId>> = HashMap::default();
        let mut all_users: HashSet<UserId> = HashSet::default();

        let mut note = |user: UserId, imei: u64| {
            if ctx.device_class(imei) != Some(DeviceClass::CellularWearable) {
                return;
            }
            if !seen.insert((user, imei)) {
                return;
            }
            let Some(rec) = Imei::from_u64(imei).ok().and_then(|i| ctx.db.lookup(i)) else {
                return;
            };
            users_by_model.entry(rec.model).or_default().insert(user);
            users_by_manufacturer
                .entry(rec.manufacturer)
                .or_default()
                .insert(user);
            // OS display name is 'static via a small match.
            let os: &'static str = match rec.os {
                wearscope::devicedb::DeviceOs::AndroidWear => "AndroidWear",
                wearscope::devicedb::DeviceOs::Tizen => "Tizen",
                wearscope::devicedb::DeviceOs::Android => "Android",
                wearscope::devicedb::DeviceOs::Ios => "iOS",
                wearscope::devicedb::DeviceOs::WatchOs => "watchOS",
                wearscope::devicedb::DeviceOs::Rtos => "RTOS",
            };
            users_by_os.entry(os).or_default().insert(user);
            all_users.insert(user);
        };

        for r in ctx.store.proxy() {
            note(r.user, r.imei);
        }
        for r in ctx.store.mme() {
            note(r.user, r.imei);
        }

        let collapse = |m: HashMap<&'static str, HashSet<UserId>>| {
            m.into_iter().map(|(k, v)| (k, v.len())).collect()
        };
        DeviceMix {
            users_by_model: collapse(users_by_model),
            users_by_manufacturer: collapse(users_by_manufacturer),
            users_by_os: collapse(users_by_os),
            total_users: all_users.len(),
        }
    }

    /// `ThroughDeviceReport::compute`.
    pub fn through_device(ctx: &StudyContext<'_>, mobility: &MobilityIndex) -> ThroughDeviceReport {
        let mut identified = HashMap::default();
        let mut users = HashSet::default();
        let phone_proxy = ctx
            .store
            .proxy()
            .iter()
            .filter(|r| ctx.device_class(r.imei) == Some(DeviceClass::Smartphone));
        for r in phone_proxy {
            if let Some(kind) = ctx.host_class(r.host).through_device {
                identified
                    .entry(kind)
                    .or_insert_with(HashSet::default)
                    .insert(r.user);
                users.insert(r.user);
            }
        }

        let displacement_samples: Vec<f64> = users
            .iter()
            .filter_map(|u| mobility.per_user.get(u))
            .map(|m| m.mean_daily_displacement())
            .collect();
        let displacement = Ecdf::from_samples(displacement_samples);

        let owner_set = owners(ctx);
        let owner_samples: Vec<f64> = mobility
            .per_user
            .iter()
            .filter(|(u, _)| owner_set.contains(*u))
            .map(|(_, m)| m.mean_daily_displacement())
            .collect();
        let owners = Ecdf::from_samples(owner_samples);

        ThroughDeviceReport {
            estimated_total: (users.len() as f64 / ThroughDeviceReport::MARKET_COVERAGE).round()
                as usize,
            assumed_coverage: ThroughDeviceReport::MARKET_COVERAGE,
            displacement_mean_km: displacement.mean(),
            sim_owner_displacement_mean_km: owners.mean(),
            displacement,
            identified,
            users,
        }
    }

    /// `DataQualityReport::compute`.
    pub fn quality(ctx: &StudyContext<'_>) -> DataQualityReport {
        let mut report = DataQualityReport {
            proxy_records: ctx.store.proxy().len() as u64,
            mme_records: ctx.store.mme().len() as u64,
            ..DataQualityReport::default()
        };

        let mut proxy_days: HashSet<u64> = HashSet::default();
        for r in ctx.store.proxy() {
            proxy_days.insert(r.timestamp.day_index());
            if ctx.device_class(r.imei).is_none() {
                report.unresolved_device_records += 1;
            } else if ctx.is_wearable_record(r) && ctx.host_class(r.host).classification.is_none() {
                report.unclassified_wearable_records += 1;
            }
            if !ctx.window.detailed().contains(r.timestamp) {
                report.out_of_window_records += 1;
            }
        }

        for r in ctx.store.mme() {
            if !ctx.window.detailed().contains(r.timestamp) {
                report.out_of_window_records += 1;
            }
        }

        let expected: Vec<u64> = ctx.window.detailed().days().collect();
        report.silent_days = expected
            .iter()
            .copied()
            .filter(|d| !proxy_days.contains(d))
            .collect();
        report.day_coverage = if expected.is_empty() {
            0.0
        } else {
            1.0 - report.silent_days.len() as f64 / expected.len() as f64
        };
        report
    }
}
