//! Mobility deep-dive (Sec. 4.4): displacement, entropy, and the
//! single-location population, computed from MME logs alone.
//!
//! ```sh
//! cargo run --release --example mobility_study
//! ```

use wearscope::core::mobility::{Displacement, LocationEntropy, MobilityActivity};
use wearscope::core::CoreAggregates;
use wearscope::prelude::*;
use wearscope::report::{ecdf_plot, Table};

fn main() {
    let mut config = ScenarioConfig::compact(23);
    config.wearable_users = 400;
    config.comparison_users = 600;
    config.through_device_users = 100;
    println!(
        "generating {} subscribers over {} sectors ...",
        config.total_users(),
        config.sectors_in_largest_city
    );
    let world = generate(&config);
    println!(
        "deployed {} sectors across {} cities; {} MME records\n",
        world.sectors.len(),
        world.layout.cities().len(),
        world.store.mme().len()
    );

    let ctx = StudyContext::new(
        &world.store,
        &world.db,
        &world.sectors,
        &world.apps,
        world.config.window,
    );
    let aggs = CoreAggregates::sequential(&ctx);
    let index = &aggs.mobility;

    // --- Fig. 4(c): displacement --------------------------------------------
    let disp = Displacement::compute(&aggs.owners, index);
    println!("== daily max displacement: SIM-wearable users ==");
    print!("{}", ecdf_plot(&disp.owners, 40, " km"));
    println!("\n== daily max displacement: remaining customers ==");
    print!("{}", ecdf_plot(&disp.rest, 40, " km"));
    let mut t = Table::new(vec!["metric", "wearable users", "rest", "paper"]);
    t.row(vec![
        "mean daily max displacement (km)".into(),
        format!("{:.1}", disp.owner_mean_km),
        format!("{:.1}", disp.rest_mean_km),
        "31 vs 16".into(),
    ]);
    t.row(vec![
        "non-stationary mean (km)".into(),
        format!("{:.1}", disp.owner_nonstationary_mean_km),
        format!("{:.1}", disp.rest_nonstationary_mean_km),
        "owners still higher".into(),
    ]);
    t.row(vec![
        "share moving < 30 km".into(),
        format!("{:.0}%", 100.0 * disp.owners_under_30km),
        format!("{:.0}%", 100.0 * disp.rest.fraction_below(30.0)),
        "90% (owners)".into(),
    ]);
    print!("\n{}", t.render());

    // --- Entropy ---------------------------------------------------------------
    let entropy = LocationEntropy::compute(&aggs.owners, index);
    println!("\n== time-weighted location entropy (nats) ==");
    println!(
        "owners mean {:.3} vs rest {:.3} → ratio {:.2} (paper: +70% → 1.7)",
        entropy.owners.mean(),
        entropy.rest.mean(),
        entropy.ratio
    );

    // --- Fig. 4(d) + single location ----------------------------------------------
    let ma = MobilityActivity::compute(index, &aggs.activity, &aggs.transaction_sectors);
    println!("\n== mobility vs activity ==");
    println!(
        "pearson(displacement, tx/hour) = {:.2}; spearman = {:.2} (paper: clearly positive)",
        ma.pearson, ma.spearman
    );
    println!(
        "single-location data users: {:.0}% (paper: 60%)",
        100.0 * ma.single_location_share
    );

    // Binned view of the Fig. 4(d) scatter.
    println!("\n== mean tx/hour by displacement bin ==");
    let mut bins: Vec<(f64, Vec<f64>)> = vec![
        (0.0, vec![]),
        (5.0, vec![]),
        (15.0, vec![]),
        (30.0, vec![]),
        (f64::INFINITY, vec![]),
    ];
    for (d, rate) in &ma.points {
        for (limit, bucket) in bins.iter_mut() {
            if d <= limit {
                bucket.push(*rate);
                break;
            }
        }
    }
    let mut t = Table::new(vec!["max displacement", "users", "mean tx/hour"]);
    let labels = ["0 km (stationary)", "≤5 km", "≤15 km", "≤30 km", ">30 km"];
    for (label, (_, bucket)) in labels.iter().zip(&bins) {
        let mean = bucket.iter().sum::<f64>() / bucket.len().max(1) as f64;
        t.row(vec![
            label.to_string(),
            bucket.len().to_string(),
            format!("{mean:.1}"),
        ]);
    }
    print!("{}", t.render());
}
