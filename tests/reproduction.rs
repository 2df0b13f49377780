//! End-to-end reproduction: generate a world, run the full pipeline, and
//! check every headline number lands inside its acceptance band.
//!
//! The world is generated once (it is the expensive step) and shared by all
//! tests in this binary.

use std::sync::OnceLock;

use wearscope::core::{CoreAggregates, StudyResults};
use wearscope::prelude::*;
use wearscope::report::{Band, ExperimentReport};

struct Shared {
    world: GeneratedWorld,
    takeaways: Takeaways,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| {
        let mut config = ScenarioConfig::paper(2026);
        // A reduced but still statistically meaningful scale so the debug
        // build stays fast: 14 summary weeks, 4 detailed weeks.
        config.window = ObservationWindow::new(98, 28, wearscope::simtime::Calendar::PAPER);
        config.wearable_users = 700;
        config.comparison_users = 1_100;
        config.through_device_users = 250;
        config.workers = 4;
        let world = wearscope::synthpop::generate(&config);
        let ctx = StudyContext::new(
            &world.store,
            &world.db,
            &world.sectors,
            &world.apps,
            world.config.window,
        );
        let aggs = CoreAggregates::sequential(&ctx);
        let takeaways = Takeaways::from_results(&StudyResults::new(&ctx, &world.summaries, &aggs));
        Shared { world, takeaways }
    })
}

#[test]
fn world_is_nontrivial() {
    let s = shared();
    assert!(
        s.world.store.proxy().len() > 100_000,
        "{} proxy records",
        s.world.store.proxy().len()
    );
    assert!(
        s.world.store.mme().len() > 50_000,
        "{} mme records",
        s.world.store.mme().len()
    );
    assert_eq!(s.world.stats.time_regressions, 0);
    assert_eq!(s.world.stats.mme_anomalies, 0);
}

#[test]
fn fig2a_adoption_growth() {
    let t = &shared().takeaways;
    // Growth per month within 50 % of 1.5 %; positive by a clear margin.
    assert!(
        (0.005..0.03).contains(&t.monthly_growth),
        "monthly growth {}",
        t.monthly_growth
    );
    assert!(t.total_growth > 0.0);
}

#[test]
fn s41_data_active_share() {
    let t = &shared().takeaways;
    assert!(
        (0.27..0.41).contains(&t.data_active_share),
        "data-active share {}",
        t.data_active_share
    );
}

#[test]
fn fig2b_cohort_retention() {
    let t = &shared().takeaways;
    assert!(
        (0.65..0.90).contains(&t.cohort_active),
        "cohort active {}",
        t.cohort_active
    );
    assert!(
        (0.01..0.13).contains(&t.cohort_gone),
        "cohort gone {}",
        t.cohort_gone
    );
}

#[test]
fn fig3b_activity_spans() {
    let t = &shared().takeaways;
    assert!(
        (0.5..1.8).contains(&t.mean_active_days_per_week),
        "days/week {}",
        t.mean_active_days_per_week
    );
    assert!(
        (1.8..4.5).contains(&t.mean_active_hours_per_day),
        "hours/day {}",
        t.mean_active_hours_per_day
    );
    assert!(t.frac_under_5h > 0.65, "under 5h {}", t.frac_under_5h);
    assert!(t.frac_over_10h < 0.15, "over 10h {}", t.frac_over_10h);
}

#[test]
fn fig3c_transaction_sizes() {
    let t = &shared().takeaways;
    assert!(
        (1_500.0..6_000.0).contains(&t.median_tx_bytes),
        "median tx bytes {}",
        t.median_tx_bytes
    );
    assert!(
        (0.65..0.95).contains(&t.frac_tx_under_10kb),
        "under 10KB {}",
        t.frac_tx_under_10kb
    );
}

#[test]
fn fig3d_activity_correlation_positive() {
    let t = &shared().takeaways;
    assert!(
        t.activity_correlation > 0.08,
        "activity correlation {}",
        t.activity_correlation
    );
}

#[test]
fn fig4a_owner_vs_rest() {
    let t = &shared().takeaways;
    // Through-Device owners sit (correctly) in the "rest" population with
    // owner-like phone usage, diluting the contrast below the configured
    // 1.26; the direction and rough magnitude are what the band checks.
    assert!(
        (1.05..1.5).contains(&t.owner_bytes_ratio),
        "bytes ratio {}",
        t.owner_bytes_ratio
    );
    assert!(
        (1.25..1.75).contains(&t.owner_tx_ratio),
        "tx ratio {}",
        t.owner_tx_ratio
    );
}

#[test]
fn fig4b_wearable_share() {
    let t = &shared().takeaways;
    // "Three orders of magnitude smaller": mean share in the 10⁻⁴..10⁻² regime.
    assert!(
        (1e-4..1e-2).contains(&t.wearable_traffic_share),
        "wearable share {}",
        t.wearable_traffic_share
    );
    assert!(
        t.frac_owners_over_3pct < 0.2,
        "owners over 3% {}",
        t.frac_owners_over_3pct
    );
}

#[test]
fn fig4c_displacement() {
    let t = &shared().takeaways;
    assert!(
        t.owner_displacement_km > 1.3 * t.rest_displacement_km,
        "owners {} km vs rest {} km",
        t.owner_displacement_km,
        t.rest_displacement_km
    );
    assert!(
        (10.0..32.0).contains(&t.owner_displacement_km),
        "owner displacement {}",
        t.owner_displacement_km
    );
    assert!(
        (0.75..0.99).contains(&t.owners_under_30km),
        "under 30km {}",
        t.owners_under_30km
    );
}

#[test]
fn s44_entropy_gap() {
    let t = &shared().takeaways;
    assert!(
        t.entropy_ratio > 1.2,
        "entropy ratio {} (paper: 1.7)",
        t.entropy_ratio
    );
}

#[test]
fn fig4d_mobility_correlation_and_single_location() {
    let t = &shared().takeaways;
    assert!(
        t.mobility_correlation > 0.05,
        "mobility correlation {}",
        t.mobility_correlation
    );
    assert!(
        (0.40..0.75).contains(&t.single_location_share),
        "single location {}",
        t.single_location_share
    );
}

#[test]
fn s43_app_installs() {
    let t = &shared().takeaways;
    // Observed distinct apps lower-bound installed apps: with ~1 active day
    // per week, 4 detailed weeks surface only ~3 of the ~8 installed apps
    // (the paper's 7-week window surfaces correspondingly more).
    assert!(
        (2.5..12.0).contains(&t.mean_apps_per_user),
        "apps/user {}",
        t.mean_apps_per_user
    );
    assert!(
        t.frac_under_20_apps > 0.80,
        "under 20 apps {}",
        t.frac_under_20_apps
    );
    assert!(
        t.single_app_day_share > 0.75,
        "single-app days {}",
        t.single_app_day_share
    );
}

#[test]
fn fig8_thirdparty_magnitude() {
    assert!(shared().takeaways.thirdparty_same_magnitude);
}

#[test]
fn s6_through_device() {
    let t = &shared().takeaways;
    assert!(
        t.through_device_identified > 10,
        "identified {}",
        t.through_device_identified
    );
    assert!(t.through_device_mobility_similar);
}

#[test]
fn experiment_report_mostly_green() {
    let report = ExperimentReport::from_takeaways_with_window(&shared().takeaways, 98);
    let rendered = report.render();
    // At most three rows may miss their band; print the table on failure.
    assert!(
        report.passed() >= report.total() - 3,
        "only {}/{} rows in band:\n{rendered}",
        report.passed(),
        report.total()
    );
    // And the bands themselves must be exercised: no degenerate all-True rows.
    assert!(report
        .rows
        .iter()
        .any(|r| matches!(r.band, Band::Relative(_))));
}
