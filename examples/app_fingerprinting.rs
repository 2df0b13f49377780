//! App fingerprinting walkthrough: how SNI/URL hosts become apps, domain
//! classes, and sessions (Sec. 3.3 + 5.2 of the paper).
//!
//! ```sh
//! cargo run --release --example app_fingerprinting
//! ```

use std::collections::HashMap;

use wearscope::appdb::{AppCatalog, Classification, DomainClass, SignatureLearner, SniClassifier};
use wearscope::core::sessions::{attribute_transactions, sessionize};
use wearscope::prelude::*;
use wearscope::report::Table;

fn main() {
    let catalog = AppCatalog::standard();
    let classifier = SniClassifier::build(&catalog);
    println!(
        "signature database: {} signatures over {} apps + third-party domains\n",
        classifier.num_signatures(),
        catalog.len()
    );

    // --- 1. Single-host classification --------------------------------------
    println!("== host classification (longest-suffix matching) ==");
    let mut t = Table::new(vec!["host", "classification"]);
    for host in [
        "api.weather.com",
        "edge7.mmg.whatsapp.net",
        "maps.gstatic.com", // utilities beat Google-Maps? No: longest suffix wins
        "maps.googleapis.com",
        "stats.g.doubleclick.net",
        "ssl.google-analytics.com",
        "HTTPS://SPCLIENT.WG.SPOTIFY.COM:443/v1/radio",
        "totally-unknown.example.org",
    ] {
        let label = match classifier.classify(host) {
            Some(Classification::FirstParty(id)) => {
                format!("app: {}", catalog.get(id).unwrap().name)
            }
            Some(Classification::ThirdParty(class)) => format!("third-party: {class}"),
            None => "unclassified".to_string(),
        };
        t.row(vec![host.to_string(), label]);
    }
    print!("{}", t.render());

    // --- 2. End-to-end on generated traffic ----------------------------------
    let mut config = ScenarioConfig::compact(11);
    config.wearable_users = 150;
    config.comparison_users = 100;
    config.through_device_users = 0;
    let world = generate(&config);
    let ctx = StudyContext::new(
        &world.store,
        &world.db,
        &world.sectors,
        &world.apps,
        world.config.window,
    );

    let attributed = attribute_transactions(&ctx);
    let total = attributed.len();
    let first_party = attributed.iter().filter(|t| t.first_party()).count();
    let attributed_third = attributed
        .iter()
        .filter(|t| !t.first_party() && t.app.is_some())
        .count();
    let orphans = attributed
        .iter()
        .filter(|t| !t.first_party() && t.app.is_none())
        .count();
    println!("\n== timeframe attribution over {total} wearable transactions ==");
    println!("first-party (SNI identifies the app directly): {first_party}");
    println!("third-party attributed via ±60s timeframe:      {attributed_third}");
    println!("third-party with no nearby first-party anchor:  {orphans}");

    let sessions = sessionize(&attributed);
    println!("\n== sessionization (1-minute gap) ==");
    println!(
        "{} sessions from {} attributed transactions",
        sessions.len(),
        total - orphans
    );
    let mean_tx =
        sessions.iter().map(|s| s.transactions).sum::<u64>() as f64 / sessions.len().max(1) as f64;
    println!("mean transactions per usage: {mean_tx:.1}");

    // --- 3. The Androlyzer step: learn signatures in a simulated lab ----------
    // Run each app alone on a lab device, record the hosts it contacts, and
    // generalize to suffix signatures (Sec. 3.3's methodology).
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wearscope::synthpop::traffic::wearable_day_traffic;
    use wearscope::synthpop::{Calibration, Subscriber, SubscriberKind};

    let cal = Calibration::default();
    let mut learner = SignatureLearner::new();
    let lab_home = wearscope::geo::GeoPoint::new(40.0, -3.0);
    for (id, _) in catalog.iter() {
        // A lab subscriber with exactly one app installed.
        let lab_sub = Subscriber {
            user: UserId(0),
            kind: SubscriberKind::WearableOwner,
            phone_imei: 1,
            wearable_imei: Some(2),
            wearable_model: None,
            through_kind: None,
            fingerprintable: false,
            arrival_day: 0,
            churn_day: None,
            regular_registration: true,
            occasional_reg_prob: 1.0,
            data_active: true,
            inactivity: None,
            active_day_prob: 1.0,
            hours_median: 6.0,
            intensity: 2.0,
            home_user: false,
            installed_apps: vec![id],
            home_city: 0,
            home: lab_home,
            work: lab_home,
            stationary_prob: 1.0,
            trip_prob: 0.0,
            phone_tx_per_day: 0.0,
            phone_bytes_median: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(0xAB + u64::from(id.raw()));
        for day in 0..3 {
            for tx in wearable_day_traffic(&mut rng, &lab_sub, &cal, &catalog, day, false, |_| true)
            {
                learner.observe(tx.host, id);
            }
        }
    }
    let learned = learner.learn();
    println!(
        "
== Androlyzer-style signature learning (simulated lab) =="
    );
    println!(
        "{} observations → {} learned suffix signatures",
        learner.len(),
        learned.len()
    );
    // Evaluate against the first-party hosts of the real trace, using the
    // built-in catalog classifier as ground truth.
    let test: Vec<(String, wearscope::appdb::AppId)> = world
        .store
        .proxy()
        .iter()
        .filter_map(|r| match ctx.host_class(r.host).classification {
            Some(Classification::FirstParty(app)) => Some((r.host.name().to_string(), app)),
            _ => None,
        })
        .take(5_000)
        .collect();
    let (correct, total) = learner.evaluate(&test);
    println!(
        "accuracy on {} first-party trace hosts: {:.1}% (shared ad/CDN hosts are          correctly dropped as ambiguous)",
        total,
        100.0 * correct as f64 / total.max(1) as f64
    );

    // --- 4. Who talks to advertisers? -----------------------------------------
    // Attribution keeps no host, so each attributed transaction's domain
    // class is looked up by (user, time, bytes) in the wearable log.
    let mut class_of: HashMap<(UserId, u64, u64), usize> = HashMap::new();
    for r in ctx.wearable_proxy() {
        if let Some(c) = ctx.host_class(r.host).classification {
            class_of
                .entry((r.user, r.timestamp.as_secs(), r.bytes_total()))
                .or_insert(c.domain_class().index());
        }
    }
    let mut by_app: HashMap<String, [u64; 4]> = HashMap::new();
    for tx in &attributed {
        let Some(app) = tx.app else { continue };
        let Some(&class) = class_of.get(&(tx.user, tx.timestamp.as_secs(), tx.bytes)) else {
            continue;
        };
        let name = ctx
            .catalog
            .get(app)
            .map_or_else(|| format!("app#{}", app.0), |a| a.name.to_string());
        by_app.entry(name).or_default()[class] += tx.bytes;
    }
    let mut rows: Vec<(String, f64, f64)> = by_app
        .iter()
        .map(|(name, bytes)| {
            let total: u64 = bytes.iter().sum();
            let third =
                bytes[DomainClass::Advertising.index()] + bytes[DomainClass::Analytics.index()];
            (
                name.clone(),
                total as f64 / 1024.0,
                100.0 * third as f64 / total.max(1) as f64,
            )
        })
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\n== ads+analytics share of each app's bytes (top 12 apps by volume) ==");
    let mut t = Table::new(vec!["app", "KB total", "ads+analytics %"]);
    for (name, kb, pct) in rows.into_iter().take(12) {
        t.row(vec![name, format!("{kb:.0}"), format!("{pct:.1}")]);
    }
    print!("{}", t.render());
}
