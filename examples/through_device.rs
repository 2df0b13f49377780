//! Through-Device wearable fingerprinting (the paper's Sec. 6 preliminary
//! analysis): identify relayed wearables from smartphone traffic and compare
//! their behaviour to SIM-enabled users.
//!
//! ```sh
//! cargo run --release --example through_device
//! ```

use wearscope::appdb::ThroughDeviceKind;
use wearscope::core::mobility::MobilityIndex;
use wearscope::core::through_device::ThroughDeviceReport;
use wearscope::prelude::*;
use wearscope::report::Table;
use wearscope::synthpop::SubscriberKind;

fn main() {
    let mut config = ScenarioConfig::compact(31);
    config.wearable_users = 300;
    config.comparison_users = 400;
    config.through_device_users = 400;
    let world = generate(&config);
    let ctx = StudyContext::new(
        &world.store,
        &world.db,
        &world.sectors,
        &world.apps,
        world.config.window,
    );

    let mobility = MobilityIndex::build(&ctx);
    let report = ThroughDeviceReport::compute(&ctx, &mobility);

    println!("== fingerprinting from smartphone proxy traffic ==");
    let mut t = Table::new(vec![
        "tracker kind",
        "identified users",
        "signature example",
    ]);
    for kind in ThroughDeviceKind::ALL {
        let example = wearscope::appdb::fingerprints::SIGNATURES
            .iter()
            .find(|(_, k)| *k == kind)
            .map(|(s, _)| *s)
            .unwrap_or("-");
        t.row(vec![
            kind.name().to_string(),
            report
                .identified
                .get(&kind)
                .map_or(0, |s| s.len())
                .to_string(),
            example.to_string(),
        ]);
    }
    print!("{}", t.render());

    println!(
        "\nidentified {} users → extrapolated Through-Device population ≈ {} \
         (assuming the paper's ~{:.0}% fingerprint coverage)",
        report.users.len(),
        report.estimated_total,
        100.0 * report.assumed_coverage
    );

    // Ground-truth check (available only in simulation): how good was the
    // identification? Precision should be 1.0 — the signatures are
    // wearable-specific by construction, exactly the paper's argument.
    let truth: wearscope::core::hash::HashSet<UserId> = world
        .population
        .of_kind(SubscriberKind::ThroughDeviceOwner)
        .filter(|s| s.fingerprintable)
        .map(|s| s.user)
        .collect();
    let hits = report.users.intersection(&truth).count();
    let precision = hits as f64 / report.users.len().max(1) as f64;
    let recall = hits as f64 / truth.len().max(1) as f64;
    let total_through = world
        .population
        .of_kind(SubscriberKind::ThroughDeviceOwner)
        .count();
    println!("\n== validation against simulator ground truth ==");
    println!(
        "fingerprintable owners (truth): {} of {total_through} Through-Device users",
        truth.len()
    );
    println!("precision {precision:.2}  recall {recall:.2}");
    println!(
        "coverage of all Through-Device users: {:.0}% (paper estimates ~16%)",
        100.0 * report.users.len() as f64 / total_through.max(1) as f64
    );

    println!("\n== mobility comparison (the paper's 'similar patterns' claim) ==");
    println!(
        "identified Through-Device users: mean daily max displacement {:.1} km",
        report.displacement_mean_km
    );
    println!(
        "SIM-enabled wearable users:      mean daily max displacement {:.1} km",
        report.sim_owner_displacement_mean_km
    );
    println!(
        "similar within 50%: {}",
        report.mobility_similar_to_sim_users(0.5)
    );
}
