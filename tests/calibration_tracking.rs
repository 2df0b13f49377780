//! The strongest validation of the pipeline: when a generator knob moves,
//! the corresponding *measured* observable must move with it, through the
//! full system (generator → network elements → logs → analysis).

use wearscope::core::{CoreAggregates, StudyResults};
use wearscope::prelude::*;

fn measure(config: &ScenarioConfig) -> Takeaways {
    let world = generate(config);
    let ctx = StudyContext::new(
        &world.store,
        &world.db,
        &world.sectors,
        &world.apps,
        world.config.window,
    );
    let aggs = CoreAggregates::sequential(&ctx);
    Takeaways::from_results(&StudyResults::new(&ctx, &world.summaries, &aggs))
}

fn base_config(seed: u64) -> ScenarioConfig {
    let mut c = ScenarioConfig::compact(seed);
    c.wearable_users = 350;
    c.comparison_users = 350;
    c.through_device_users = 60;
    c.workers = 4;
    c
}

#[test]
fn data_active_share_tracks_knob() {
    let mut measured = Vec::new();
    for target in [0.15, 0.34, 0.60] {
        let mut config = base_config(1101);
        config.calibration.data_active_fraction = target;
        measured.push(measure(&config).data_active_share);
    }
    assert!(
        measured[0] < measured[1] && measured[1] < measured[2],
        "not monotone: {measured:?}"
    );
    // And roughly proportional (within 35% of the knob).
    for (target, got) in [0.15, 0.34, 0.60].iter().zip(&measured) {
        assert!(
            (got - target).abs() < 0.35 * target,
            "target {target}, measured {got}"
        );
    }
}

#[test]
fn single_location_share_tracks_home_user_knob() {
    let mut measured = Vec::new();
    for target in [0.30, 0.90] {
        let mut config = base_config(2202);
        config.calibration.home_user_share = target;
        measured.push(measure(&config).single_location_share);
    }
    assert!(
        measured[1] > measured[0] + 0.15,
        "home-user knob had no effect: {measured:?}"
    );
}

#[test]
fn displacement_tracks_commute_knob() {
    let mut measured = Vec::new();
    for target in [6.0, 28.0] {
        let mut config = base_config(3303);
        config.calibration.wearable_commute_median_km = target;
        let t = measure(&config);
        measured.push((t.owner_displacement_km, t.rest_displacement_km));
    }
    // Owner displacement rises sharply with the wearable commute knob...
    assert!(
        measured[1].0 > 1.4 * measured[0].0,
        "commute knob had no effect: {measured:?}"
    );
    // ...while the comparison population (whose knob did not move) barely
    // changes — the measurement is properly attributed per class.
    let rest_change = (measured[1].1 - measured[0].1).abs() / measured[0].1.max(0.01);
    assert!(rest_change < 0.25, "rest displacement leaked: {measured:?}");
}

#[test]
fn growth_rate_tracks_adoption_knob() {
    let mut measured = Vec::new();
    for target in [0.005, 0.04] {
        let mut config = base_config(4404);
        // Longer window so the fit separates the two rates cleanly.
        config.window = ObservationWindow::new(98, 14, wearscope::simtime::Calendar::PAPER);
        config.calibration.monthly_growth = target;
        measured.push(measure(&config).monthly_growth);
    }
    assert!(
        measured[1] > measured[0] + 0.01,
        "growth knob had no effect: {measured:?}"
    );
}
