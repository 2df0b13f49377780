//! Property-based tests for the analysis pipeline's invariants.

use proptest::prelude::*;

use wearscope_appdb::{AppCatalog, AppId, Classification};
use wearscope_core::sessions::{
    attribute_records, sessionize, AttributedTx, Attributor, SESSION_GAP_SECS,
};
use wearscope_core::stats::{self, Ecdf};
use wearscope_core::StudyContext;
use wearscope_devicedb::DeviceDb;
use wearscope_geo::SectorDirectory;
use wearscope_simtime::{Calendar, ObservationWindow, SimDuration, SimTime};
use wearscope_trace::{HostId, ProxyRecord, Scheme, TraceStore, UserId};

fn arb_attributed() -> impl Strategy<Value = Vec<AttributedTx>> {
    prop::collection::vec(
        (
            0u64..5,                   // user
            0u64..200_000,             // time
            prop::option::of(0u16..6), // app
            any::<bool>(),
            1u64..100_000, // bytes
        ),
        0..120,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(u, t, app, fp, bytes)| AttributedTx {
                user: UserId(u),
                timestamp: SimTime::from_secs(t),
                app: app.map(AppId),
                class: app
                    .filter(|_| fp)
                    .map(|a| Classification::FirstParty(AppId(a))),
                bytes,
            })
            .collect()
    })
}

/// Two first-party apps, two third-party classes and an unmatched host.
const HOSTS: [&str; 5] = [
    "api.weather.com",
    "api.accuweather.com",
    "ssl.google-analytics.com",
    "media.akamaized.net",
    "unmatched.example",
];

proptest! {
    /// The attributor is exact for every arrival order a watermark admits.
    /// Each record arrives up to `lateness` after its own time, so it is
    /// never behind the watermark `max_seen - lateness`; the watermark
    /// advances after arbitrary arrivals. The released transactions,
    /// sorted, equal the batch rule over the stable time sort of the
    /// admitted records. Times sit on a 10 s grid and most delays are the
    /// whole lateness, so equal times, gaps of exactly 60 s and records
    /// exactly at the watermark are common.
    #[test]
    fn attributor_is_exact_under_within_lateness_shuffles(
        raw in prop::collection::vec(
            (1u64..4, 0u64..150, 0usize..5, 0u64..80, any::<bool>()),
            0..120,
        ),
        lateness in 0u64..40,
    ) {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let store = TraceStore::new();
        let window = ObservationWindow::new(14, 14, Calendar::PAPER);
        let ctx = StudyContext::new(&store, &db, &sectors, &catalog, window);
        let tac = db.wearable_tacs()[0];
        let mut arrivals: Vec<(u64, ProxyRecord, bool)> = raw
            .iter()
            .map(|&(user, t, host, delay, advance)| {
                let (t, delay) = (t * 10, delay.min(lateness) * 10);
                let r = ProxyRecord {
                    timestamp: SimTime::from_secs(t),
                    user: UserId(user),
                    imei: db.example_imei(tac, user as u32).as_u64(),
                    host: HostId::intern(HOSTS[host]),
                    scheme: Scheme::Https,
                    bytes_down: t % 97,
                    bytes_up: 1,
                };
                (t + delay, r, advance)
            })
            .collect();
        arrivals.sort_by_key(|a| a.0);

        let lateness = SimDuration::from_secs(lateness * 10);
        let mut attributor = Attributor::new();
        let mut streamed = Vec::new();
        let mut admitted = Vec::new();
        let mut max_seen: Option<SimTime> = None;
        for (_, r, advance) in arrivals {
            let watermark = max_seen.map_or(SimTime::EPOCH, |m| m.saturating_sub(lateness));
            if r.timestamp < watermark {
                continue;
            }
            admitted.push(r);
            let class = ctx.host_class(r.host).classification;
            attributor.observe(r.user, r.timestamp, class, r.bytes_total());
            let max = max_seen.map_or(r.timestamp, |m| m.max(r.timestamp));
            max_seen = Some(max);
            if advance {
                attributor.advance(max.saturating_sub(lateness), &mut streamed);
            }
        }
        attributor.flush(&mut streamed);
        prop_assert_eq!(attributor.pending(), 0);
        streamed.sort_by_key(|tx| (tx.user, tx.timestamp));
        admitted.sort_by_key(|r| r.timestamp);
        prop_assert_eq!(streamed, attribute_records(&ctx, &admitted));
    }

    /// Sessionization invariants: transactions and bytes are conserved for
    /// attributed traffic; intra-session gaps < 60 s; sessions of the same
    /// (user, app) are ≥ 60 s apart; start ≤ end.
    #[test]
    fn sessionize_invariants(txs in arb_attributed()) {
        let sessions = sessionize(&txs);
        let attributed_tx = txs.iter().filter(|t| t.app.is_some()).count() as u64;
        let attributed_bytes: u64 = txs.iter().filter(|t| t.app.is_some()).map(|t| t.bytes).sum();
        let session_tx: u64 = sessions.iter().map(|s| s.transactions).sum();
        let session_bytes: u64 = sessions.iter().map(|s| s.bytes).sum();
        prop_assert_eq!(session_tx, attributed_tx);
        prop_assert_eq!(session_bytes, attributed_bytes);
        for s in &sessions {
            prop_assert!(s.start <= s.end);
            prop_assert!(s.transactions >= 1);
        }
        // Per (user, app): consecutive sessions separated by ≥ gap.
        use std::collections::HashMap;
        let mut by_key: HashMap<(UserId, AppId), Vec<&wearscope_core::sessions::Session>> =
            HashMap::new();
        for s in &sessions {
            by_key.entry((s.user, s.app)).or_default().push(s);
        }
        for group in by_key.values_mut() {
            group.sort_by_key(|s| s.start);
            for w in group.windows(2) {
                let gap = (w[1].start - w[0].end).as_secs();
                prop_assert!(
                    gap >= SESSION_GAP_SECS,
                    "sessions only {gap}s apart"
                );
            }
        }
    }

    /// Ecdf laws: quantile is monotone in q, fraction_below monotone in x,
    /// mean within [min, max], and fractions consistent with quantiles.
    #[test]
    fn ecdf_laws(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let e = Ecdf::from_samples(samples.clone());
        prop_assert_eq!(e.len(), samples.len());
        prop_assert!(e.mean() >= e.min() - 1e-9);
        prop_assert!(e.mean() <= e.max() + 1e-9);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = e.quantile(i as f64 / 10.0);
            prop_assert!(q >= prev);
            prev = q;
        }
        prop_assert!(e.fraction_below(e.min()) == 0.0);
        prop_assert!((e.fraction_at_or_below(e.max()) - 1.0).abs() < 1e-12);
        // fraction_below is monotone.
        let xs = [e.quantile(0.25), e.quantile(0.5), e.quantile(0.75)];
        prop_assert!(e.fraction_below(xs[0]) <= e.fraction_below(xs[1]));
        prop_assert!(e.fraction_below(xs[1]) <= e.fraction_below(xs[2]));
    }

    /// Entropy: bounded by ln(n), scale-invariant, maximal for uniform.
    #[test]
    fn entropy_laws(weights in prop::collection::vec(0.0f64..1e6, 1..30), scale in 0.1f64..1000.0) {
        let h = stats::shannon_entropy(&weights);
        let positive = weights.iter().filter(|w| **w > 0.0).count();
        prop_assert!(h >= -1e-12);
        if positive > 0 {
            prop_assert!(h <= (positive as f64).ln() + 1e-9, "h {h} over ln({positive})");
        }
        let scaled: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let hs = stats::shannon_entropy(&scaled);
        prop_assert!((h - hs).abs() < 1e-9, "scale variance: {h} vs {hs}");
    }

    /// Correlations live in [-1, 1] and are symmetric.
    #[test]
    fn correlation_bounds(
        pairs in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..100),
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let r = stats::pearson(&xs, &ys);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r {r}");
        prop_assert!((r - stats::pearson(&ys, &xs)).abs() < 1e-12);
        let rho = stats::spearman(&xs, &ys);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&rho));
        // Perfect self-correlation.
        prop_assert!((stats::pearson(&xs, &xs) - 1.0).abs() < 1e-9 || xs.iter().all(|&x| x == xs[0]));
    }

    /// stable_sum equals the naive sum up to float tolerance and is exactly
    /// permutation-invariant.
    #[test]
    fn stable_sum_permutation_invariant(values in prop::collection::vec(-1e9f64..1e9, 0..60)) {
        let a = stats::stable_sum(values.clone());
        let mut rev = values.clone();
        rev.reverse();
        prop_assert_eq!(a, stats::stable_sum(rev));
        let naive: f64 = values.iter().sum();
        prop_assert!((a - naive).abs() <= 1e-6 * naive.abs().max(1.0));
    }
}
