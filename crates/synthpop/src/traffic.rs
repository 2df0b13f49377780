//! Per-day traffic generation.
//!
//! Wearable traffic is generated per *usage session* (the paper's unit:
//! consecutive transactions less than one minute apart), app by app, with
//! per-app first/third-party mixes. Smartphone traffic for the comparison
//! population is generated as bundled transaction records — the per-user
//! daily totals carry Fig. 4's signal; wearable records stay per-transaction.

use rand::Rng;

use wearscope_appdb::{domains, AppCatalog, AppId, DomainClass, ThroughDeviceKind};
use wearscope_simtime::{SECS_PER_HOUR, SECS_PER_MINUTE};
use wearscope_trace::Scheme;

use crate::config::Calibration;
use crate::dist;
use crate::diurnal;
use crate::subscriber::Subscriber;

/// One transaction before it is stamped with user/IMEI/absolute time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxDraft {
    /// Seconds since midnight.
    pub sec_of_day: u64,
    /// Destination host, a catalog entry.
    pub host: &'static str,
    /// Scheme.
    pub scheme: Scheme,
    /// Downlink bytes.
    pub bytes_down: u64,
    /// Uplink bytes.
    pub bytes_up: u64,
}

/// Share of wearable transactions carried over HTTPS.
const HTTPS_SHARE: f64 = 0.85;

/// Relative byte scale of third-party transactions versus the app's
/// first-party median (analytics beacons are small, CDN fetches are not).
fn class_byte_scale(class: DomainClass) -> f64 {
    match class {
        DomainClass::Application => 1.0,
        DomainClass::Utilities => 1.2,
        DomainClass::Advertising => 0.5,
        DomainClass::Analytics => 0.35,
    }
}

/// Generates one wearable user-day of cellular transactions for a day
/// already decided to be active (the caller draws the active-day coin so it
/// can also auto-register the device — a watch cannot transmit without
/// attaching first). `at_home(sec)` reports whether the day plan has the
/// user at home, letting home-only users transact only from home.
pub fn wearable_day_traffic<R: Rng + ?Sized>(
    rng: &mut R,
    sub: &Subscriber,
    cal: &Calibration,
    catalog: &AppCatalog,
    day: u64,
    weekend: bool,
    at_home: impl Fn(u64) -> bool,
) -> Vec<TxDraft> {
    if !sub.data_active || sub.installed_apps.is_empty() {
        return Vec::new();
    }

    // Active hours for the day.
    let k = dist::lognormal_median(rng, sub.hours_median, 0.45)
        .round()
        .clamp(1.0, 18.0) as usize;
    let weights = if sub.home_user {
        diurnal::home_hour_weights(weekend)
    } else {
        diurnal::hour_weights(weekend)
    };
    let mut hours = diurnal::sample_hours(rng, k, weights);
    if sub.home_user {
        // Keep only hours where the user is home for the whole hour plus a
        // 15-minute margin, so sessions starting late in the hour cannot
        // spill past a departure and leak a non-home sector.
        hours.retain(|&h| {
            let start = u64::from(h) * SECS_PER_HOUR;
            at_home(start) && at_home(start + SECS_PER_HOUR + 15 * SECS_PER_MINUTE)
        });
        if hours.is_empty() {
            hours.push(21); // late evenings are reliably at home
        }
    }

    // Apps used today: usually exactly one. The primary app *rotates*
    // through the installed set day by day — this is what reconciles the
    // paper's three observations (8 installed apps, 93 % single-app days,
    // ~1 active day/week): over seven weeks a user's handful of active days
    // still surfaces most of the installed set.
    let n_installed = sub.installed_apps.len();
    let n_apps = (1 + dist::poisson(rng, cal.extra_apps_per_day) as usize).min(n_installed);
    let primary = ((day.wrapping_add(sub.user.raw())) % n_installed as u64) as usize;
    let mut todays_apps: Vec<AppId> = vec![sub.installed_apps[primary]];
    if n_apps > 1 {
        let mut weights = vec![1.0; n_installed];
        weights[primary] = 0.0;
        todays_apps.extend(
            dist::weighted_sample_distinct(rng, &weights, n_apps - 1)
                .into_iter()
                .map(|i| sub.installed_apps[i]),
        );
    }
    if todays_apps.is_empty() {
        return Vec::new();
    }
    let todays_weights: Vec<f64> = todays_apps
        .iter()
        .map(|id| catalog.get(*id).unwrap().traffic.usages_per_active_day)
        .collect();

    // The on-the-go population transacts more per hour (Fig. 3(d)/4(d)).
    let rate = cal.sessions_per_active_hour
        * sub.intensity.powf(0.8)
        * if sub.home_user { 0.8 } else { 1.25 };

    let mut out = Vec::new();
    for hour in hours {
        let sessions = 1 + dist::poisson(rng, (rate - 1.0).max(0.05));
        for _ in 0..sessions {
            let app_id = todays_apps[dist::weighted_index(rng, &todays_weights)];
            let app = catalog.get(app_id).unwrap();
            let start =
                u64::from(hour) * SECS_PER_HOUR + rng.random_range(0..(55 * SECS_PER_MINUTE));
            let ntx = dist::geometric_mean(rng, app.traffic.tx_per_usage.max(1.0)).min(60);
            let mut t = start;
            for _ in 0..ntx {
                let mix = &app.traffic.mix;
                let class = match dist::weighted_index(
                    rng,
                    &[
                        mix.application().max(0.0),
                        mix.utilities,
                        mix.advertising,
                        mix.analytics,
                    ],
                ) {
                    0 => DomainClass::Application,
                    1 => DomainClass::Utilities,
                    2 => DomainClass::Advertising,
                    _ => DomainClass::Analytics,
                };
                let pool = match class {
                    DomainClass::Application => app.domains,
                    other => domains::domains_of_class(other),
                };
                let host = pool[rng.random_range(0..pool.len())];
                let median = app.traffic.median_tx_bytes * class_byte_scale(class);
                let down =
                    dist::lognormal_median(rng, median, app.traffic.sigma_tx_bytes).max(64.0);
                let up = down * rng.random_range(0.08..0.30);
                out.push(TxDraft {
                    sec_of_day: t.min(24 * SECS_PER_HOUR - 1),
                    host,
                    scheme: if dist::coin(rng, HTTPS_SHARE) {
                        Scheme::Https
                    } else {
                        Scheme::Http
                    },
                    bytes_down: down as u64,
                    bytes_up: up as u64,
                });
                // Intra-session gap < 1 minute keeps the paper's
                // sessionization (Fig. 7) intact.
                t += 1 + (dist::exponential(rng, 15.0) as u64).min(55);
            }
        }
    }
    out.sort_by_key(|d| d.sec_of_day);
    out
}

/// Generic (non-signature) hosts smartphone traffic is addressed to.
const PHONE_HOSTS: &[&str] = &[
    "m.popular-video.example",
    "www.search-engine.example",
    "cdn.social-feed.example",
    "mail.webmail.example",
    "api.mobile-game.example",
    "stream.music-phone.example",
    "img.news-portal.example",
    "sync.cloud-photos.example",
];

/// The sync endpoint a fingerprintable Through-Device tracker talks to.
fn tracker_host(kind: ThroughDeviceKind) -> &'static str {
    match kind {
        ThroughDeviceKind::Fitbit => "android-api.fitbit.com",
        ThroughDeviceKind::Xiaomi => "api.mi-fit.huami.com",
        ThroughDeviceKind::GenericAndroid => "wear.accuweather.com",
        ThroughDeviceKind::GenericApple => "watch-api.accuweather.com",
    }
}

/// Generates one smartphone user-day of (bundled) transactions, including
/// relayed Through-Device tracker sync traffic where applicable.
pub fn phone_day_traffic<R: Rng + ?Sized>(
    rng: &mut R,
    sub: &Subscriber,
    cal: &Calibration,
    weekend: bool,
) -> Vec<TxDraft> {
    let mut out = Vec::new();
    let weights = diurnal::hour_weights(weekend);
    let n = dist::poisson(rng, sub.phone_tx_per_day * if weekend { 0.95 } else { 1.0 });
    for _ in 0..n {
        let hour = dist::weighted_index(rng, weights) as u64;
        let sec = hour * SECS_PER_HOUR + rng.random_range(0..SECS_PER_HOUR);
        let down =
            dist::lognormal_median(rng, sub.phone_bytes_median, cal.phone_bytes_sigma).max(200.0);
        let up = down * rng.random_range(0.05..0.20);
        out.push(TxDraft {
            sec_of_day: sec,
            host: PHONE_HOSTS[rng.random_range(0..PHONE_HOSTS.len())],
            scheme: if dist::coin(rng, 0.8) {
                Scheme::Https
            } else {
                Scheme::Http
            },
            bytes_down: down as u64,
            bytes_up: up as u64,
        });
    }

    // Relayed wearable sync traffic for Through-Device owners. Behaviour is
    // identical whether or not the endpoints are fingerprintable; only the
    // *host* differs (that is exactly why the paper can only identify ~16 %).
    if let Some(kind) = sub.through_kind {
        if dist::coin(rng, sub.active_day_prob * 3.0) {
            let syncs = 1 + dist::poisson(rng, 2.0);
            for _ in 0..syncs {
                let hour = dist::weighted_index(rng, weights) as u64;
                let sec = hour * SECS_PER_HOUR + rng.random_range(0..SECS_PER_HOUR);
                let host = if sub.fingerprintable {
                    tracker_host(kind)
                } else {
                    "sync.generic-tracker.example"
                };
                let down = dist::lognormal_median(rng, 8_000.0, 1.0).max(200.0);
                out.push(TxDraft {
                    sec_of_day: sec,
                    host,
                    scheme: Scheme::Https,
                    bytes_down: down as u64,
                    bytes_up: (down * 0.4) as u64,
                });
            }
        }
    }
    out.sort_by_key(|d| d.sec_of_day);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscriber::SubscriberKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wearscope_geo::GeoPoint;
    use wearscope_trace::UserId;

    fn sub(data_active: bool, home_user: bool) -> Subscriber {
        Subscriber {
            user: UserId(1),
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
            data_active,
            inactivity: None,
            active_day_prob: 1.0,
            hours_median: 3.0,
            intensity: 1.0,
            home_user,
            installed_apps: vec![AppId(0), AppId(5), AppId(11)],
            home_city: 0,
            home: GeoPoint::new(40.0, -3.0),
            work: GeoPoint::new(40.1, -3.1),
            stationary_prob: 0.25,
            trip_prob: 0.0,
            phone_tx_per_day: 20.0,
            phone_bytes_median: 250_000.0,
        }
    }

    #[test]
    fn inactive_users_generate_nothing() {
        let mut rng = StdRng::seed_from_u64(1);
        let cal = Calibration::default();
        let catalog = AppCatalog::standard();
        let txs = wearable_day_traffic(
            &mut rng,
            &sub(false, false),
            &cal,
            &catalog,
            0,
            false,
            |_| true,
        );
        assert!(txs.is_empty());
    }

    #[test]
    fn active_day_produces_sessions_of_small_transactions() {
        let mut rng = StdRng::seed_from_u64(2);
        let cal = Calibration::default();
        let catalog = AppCatalog::standard();
        let mut all = Vec::new();
        for _ in 0..50 {
            all.extend(wearable_day_traffic(
                &mut rng,
                &sub(true, false),
                &cal,
                &catalog,
                0,
                false,
                |_| true,
            ));
        }
        assert!(all.len() > 100, "only {} txs", all.len());
        // Median size should be in the low-KB range (Fig. 3(c)).
        let mut sizes: Vec<u64> = all.iter().map(|t| t.bytes_down + t.bytes_up).collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2];
        assert!(
            (800..20_000).contains(&median),
            "median tx size {median} bytes"
        );
        // Times valid and sorted per call (checked globally via sec bounds).
        assert!(all.iter().all(|t| t.sec_of_day < 24 * SECS_PER_HOUR));
    }

    #[test]
    fn home_user_transactions_only_at_home() {
        let mut rng = StdRng::seed_from_u64(3);
        let cal = Calibration::default();
        let catalog = AppCatalog::standard();
        // "Home" is only before 8 am and after 6 pm.
        let at_home = |sec: u64| !(8 * SECS_PER_HOUR..18 * SECS_PER_HOUR).contains(&sec);
        for _ in 0..30 {
            for tx in wearable_day_traffic(
                &mut rng,
                &sub(true, true),
                &cal,
                &catalog,
                0,
                false,
                at_home,
            ) {
                let hour_mid = tx.sec_of_day / SECS_PER_HOUR * SECS_PER_HOUR + SECS_PER_HOUR / 2;
                assert!(
                    at_home(hour_mid),
                    "home-user tx at away hour {}",
                    tx.sec_of_day / SECS_PER_HOUR
                );
            }
        }
    }

    #[test]
    fn hosts_are_classifiable() {
        use wearscope_appdb::SniClassifier;
        let mut rng = StdRng::seed_from_u64(4);
        let cal = Calibration::default();
        let catalog = AppCatalog::standard();
        let clf = SniClassifier::build(&catalog);
        let mut n = 0;
        for _ in 0..20 {
            for tx in
                wearable_day_traffic(&mut rng, &sub(true, false), &cal, &catalog, 0, true, |_| {
                    true
                })
            {
                assert!(
                    clf.classify(tx.host).is_some(),
                    "unclassifiable host {}",
                    tx.host
                );
                n += 1;
            }
        }
        assert!(n > 50);
    }

    #[test]
    fn phone_traffic_volume_scales_with_rate() {
        let mut rng = StdRng::seed_from_u64(5);
        let cal = Calibration::default();
        let mut light = sub(true, false);
        light.phone_tx_per_day = 5.0;
        let mut heavy = sub(true, false);
        heavy.phone_tx_per_day = 50.0;
        let count = |s: &Subscriber, rng: &mut StdRng| -> usize {
            (0..40)
                .map(|_| phone_day_traffic(rng, s, &cal, false).len())
                .sum()
        };
        let l = count(&light, &mut rng);
        let h = count(&heavy, &mut rng);
        assert!(h > 5 * l, "heavy {h} vs light {l}");
    }

    #[test]
    fn fingerprintable_through_device_hits_signature_hosts() {
        use wearscope_appdb::fingerprint_host;
        let mut rng = StdRng::seed_from_u64(6);
        let cal = Calibration::default();
        let mut s = sub(true, false);
        s.kind = SubscriberKind::ThroughDeviceOwner;
        s.through_kind = Some(ThroughDeviceKind::Fitbit);
        s.fingerprintable = true;
        let mut hits = 0;
        for _ in 0..40 {
            for tx in phone_day_traffic(&mut rng, &s, &cal, false) {
                if fingerprint_host(tx.host) == Some(ThroughDeviceKind::Fitbit) {
                    hits += 1;
                }
            }
        }
        assert!(hits > 10, "only {hits} fingerprint hits");

        // Non-fingerprintable owners sync too, but to unsigned hosts.
        s.fingerprintable = false;
        for _ in 0..40 {
            for tx in phone_day_traffic(&mut rng, &s, &cal, false) {
                assert!(fingerprint_host(tx.host).is_none());
            }
        }
    }

    #[test]
    fn drafts_time_sorted() {
        let mut rng = StdRng::seed_from_u64(7);
        let cal = Calibration::default();
        let catalog = AppCatalog::standard();
        for _ in 0..20 {
            let txs = wearable_day_traffic(
                &mut rng,
                &sub(true, false),
                &cal,
                &catalog,
                0,
                false,
                |_| true,
            );
            for w in txs.windows(2) {
                assert!(w[0].sec_of_day <= w[1].sec_of_day);
            }
        }
    }
}
