//! Property-based tests for the behaviour generators.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use wearscope_appdb::{AppCatalog, AppId, SniClassifier};
use wearscope_geo::GeoPoint;
use wearscope_simtime::SECS_PER_HOUR;
use wearscope_synthpop::config::Calibration;
use wearscope_synthpop::dist;
use wearscope_synthpop::mobility::day_plan;
use wearscope_synthpop::traffic::{phone_day_traffic, wearable_day_traffic};
use wearscope_synthpop::{Subscriber, SubscriberKind};
use wearscope_trace::UserId;

fn subscriber(
    seed: u64,
    stationary: f64,
    trip: f64,
    intensity: f64,
    home_user: bool,
    apps: Vec<AppId>,
) -> Subscriber {
    let mut rng = StdRng::seed_from_u64(seed);
    use rand::Rng;
    let home = GeoPoint::new(
        38.0 + rng.random::<f64>() * 5.0,
        -6.0 + rng.random::<f64>() * 8.0,
    );
    let theta = rng.random::<f64>() * std::f64::consts::TAU;
    let d = 2.0 + rng.random::<f64>() * 30.0;
    Subscriber {
        user: UserId(seed),
        kind: SubscriberKind::WearableOwner,
        phone_imei: 1,
        wearable_imei: Some(2),
        wearable_model: None,
        through_kind: None,
        fingerprintable: false,
        arrival_day: 0,
        churn_day: None,
        regular_registration: true,
        occasional_reg_prob: 0.07,
        data_active: true,
        inactivity: None,
        active_day_prob: 1.0,
        hours_median: 3.0,
        intensity,
        home_user,
        installed_apps: apps,
        home_city: 0,
        home,
        work: home.offset_km(d * theta.cos(), d * theta.sin()),
        stationary_prob: stationary,
        trip_prob: trip,
        phone_tx_per_day: 20.0,
        phone_bytes_median: 300_000.0,
    }
}

proptest! {
    /// Day plans are always well-formed: anchored at midnight, strictly
    /// increasing, inside the day, and starting from home.
    #[test]
    fn day_plans_well_formed(
        seed in 0u64..5_000,
        stationary in 0.0f64..=1.0,
        trip in 0.0f64..=1.0,
        weekend: bool,
    ) {
        let sub = subscriber(seed, stationary, trip, 1.0, false, vec![AppId(0)]);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let (_, plan) = day_plan(&mut rng, &sub, weekend);
        prop_assert!(!plan.anchors.is_empty());
        prop_assert_eq!(plan.anchors[0].0, 0);
        prop_assert_eq!(plan.anchors[0].1, sub.home);
        for w in plan.anchors.windows(2) {
            prop_assert!(w[1].0 > w[0].0);
            prop_assert!(w[1].0 < 24 * SECS_PER_HOUR);
        }
        prop_assert!(plan.at_home(0));
    }

    /// Wearable traffic drafts are in-range, time-sorted, non-empty on
    /// forced-active days, and classifiable hosts only.
    #[test]
    fn wearable_traffic_well_formed(
        seed in 0u64..2_000,
        intensity in 0.2f64..4.0,
        home_user: bool,
        weekend: bool,
        day in 0u64..49,
        n_apps in 1usize..12,
    ) {
        let catalog = AppCatalog::standard();
        let clf = SniClassifier::build(&catalog);
        let cal = Calibration::default();
        let apps: Vec<AppId> = (0..n_apps as u16).map(AppId).collect();
        let sub = subscriber(seed, 0.3, 0.02, intensity, home_user, apps);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5050);
        let txs = wearable_day_traffic(&mut rng, &sub, &cal, &catalog, day, weekend, |_| true);
        prop_assert!(!txs.is_empty());
        for w in txs.windows(2) {
            prop_assert!(w[0].sec_of_day <= w[1].sec_of_day);
        }
        for tx in &txs {
            prop_assert!(tx.sec_of_day < 24 * SECS_PER_HOUR);
            prop_assert!(tx.bytes_down >= 64);
            prop_assert!(tx.bytes_up < tx.bytes_down);
            prop_assert!(clf.classify(tx.host).is_some(), "host {}", tx.host);
        }
    }

    /// The daily primary app rotates: over `len` consecutive days a user
    /// touches every installed app at least once.
    #[test]
    fn app_rotation_covers_installed(seed in 0u64..500, n_apps in 2usize..9) {
        let catalog = AppCatalog::standard();
        let cal = Calibration::default();
        let apps: Vec<AppId> = (0..n_apps as u16).map(AppId).collect();
        let sub = subscriber(seed, 0.3, 0.0, 1.0, false, apps.clone());
        let clf = SniClassifier::build(&catalog);
        let mut seen = std::collections::HashSet::new();
        // Two full rotations: a single pass can miss an app whose primary
        // day happened to spend all its sessions on a same-day extra app.
        for day in 0..(2 * n_apps as u64) {
            let mut rng = StdRng::seed_from_u64(seed * 1000 + day);
            for tx in
                wearable_day_traffic(&mut rng, &sub, &cal, &catalog, day, false, |_| true)
            {
                if let Some(wearscope_appdb::Classification::FirstParty(app)) =
                    clf.classify(tx.host)
                {
                    seen.insert(app);
                }
            }
        }
        // All installed apps rotated through (allow one straggler: a day can
        // emit only third-party transactions with low probability).
        prop_assert!(seen.len() + 1 >= n_apps, "saw {} of {}", seen.len(), n_apps);
    }

    /// Phone traffic volume is Poisson-consistent with the configured rate.
    #[test]
    fn phone_traffic_rate(seed in 0u64..300, rate in 1.0f64..60.0) {
        let cal = Calibration::default();
        let mut sub = subscriber(seed, 0.3, 0.0, 1.0, false, vec![AppId(0)]);
        sub.phone_tx_per_day = rate;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9999);
        let mut total = 0usize;
        let reps = 30;
        for _ in 0..reps {
            total += phone_day_traffic(&mut rng, &sub, &cal, false).len();
        }
        let mean = total as f64 / reps as f64;
        // Within 5 sigma of the Poisson mean.
        let tol = 5.0 * (rate / reps as f64).sqrt() + 1.0;
        prop_assert!((mean - rate).abs() < tol, "rate {rate}, mean {mean}");
    }

    /// split_seed produces no collisions across a window of streams.
    #[test]
    fn split_seed_collision_free(parent in 0u64..1_000_000) {
        let mut seen = std::collections::HashSet::new();
        for stream in 0..512u64 {
            prop_assert!(seen.insert(dist::split_seed(parent, stream)));
        }
    }
}
