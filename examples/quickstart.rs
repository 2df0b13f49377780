//! Quickstart: generate a small world, run the pipeline, print the headline
//! numbers next to the paper's.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use wearscope::core::{CoreAggregates, StudyResults};
use wearscope::prelude::*;
use wearscope::report::ExperimentReport;

fn main() {
    // A compact world: 6 summary weeks (2 detailed), a few hundred users.
    let config = ScenarioConfig::compact(42);
    println!(
        "generating {} subscribers over {} days (seed {}) ...",
        config.total_users(),
        config.window.summary().num_days(),
        config.seed
    );
    let world = generate(&config);
    println!(
        "  {} proxy records, {} MME records, {} events",
        world.store.proxy().len(),
        world.store.mme().len(),
        world.stats.events
    );

    // The analysis consumes only logs + lookup services, never ground truth.
    let ctx = StudyContext::new(
        &world.store,
        &world.db,
        &world.sectors,
        &world.apps,
        world.config.window,
    );
    let aggs = CoreAggregates::sequential(&ctx);
    let results = StudyResults::new(&ctx, &world.summaries, &aggs);

    println!(
        "\n== paper vs measured (window: {} days; bands scaled accordingly) ==\n",
        config.window.summary().num_days()
    );
    print!("{}", ExperimentReport::from_results(&results).render());

    println!("\nTip: `cargo run --release --example reproduce_paper` runs the full");
    println!("151-day, 5'100-subscriber reproduction and prints every figure.");
}
