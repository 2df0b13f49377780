//! Full reproduction: regenerates every figure and takeaway of the paper and
//! prints them as terminal tables/plots (the `analyze --full` report plus
//! the breakdowns it leaves out), ending with the paper-vs-measured
//! comparison table.
//!
//! ```sh
//! cargo run --release --example reproduce_paper            # full 151-day run
//! cargo run --release --example reproduce_paper -- quick   # reduced scale
//! ```

use wearscope::core::{CoreAggregates, StudyResults};
use wearscope::prelude::*;
use wearscope::report::{bar_chart_log, render_full, ExperimentReport, Table};

fn main() {
    let quick = std::env::args().any(|a| a == "quick" || a == "--quick");
    let config = if quick {
        let mut c = ScenarioConfig::paper(7);
        c.window = ObservationWindow::new(98, 28, wearscope::simtime::Calendar::PAPER);
        c.wearable_users = 600;
        c.comparison_users = 1_000;
        c.through_device_users = 200;
        c
    } else {
        ScenarioConfig::paper(7)
    };

    eprintln!(
        "generating world: {} subscribers, {} summary days ({} detailed) ...",
        config.total_users(),
        config.window.summary().num_days(),
        config.window.detailed().num_days()
    );
    let t0 = std::time::Instant::now();
    let world = generate(&config);
    eprintln!(
        "  done in {:.1?}: {} proxy records, {} MME records",
        t0.elapsed(),
        world.store.proxy().len(),
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
    let results = StudyResults::new(&ctx, &world.summaries, &aggs);

    // Every figure (QA, Figs. 2–8, Sec. 4.1/4.2 and Sec. 6), as `analyze --full`.
    print!("{}", render_full(&results, 0.0));

    println!("\n== Sec. 4.1: wearable device models ==");
    let mut t = Table::new(vec!["model", "users"]);
    for (model, n) in results.aggs.devices.ranked_models() {
        t.row(vec![model.to_string(), n.to_string()]);
    }
    print!("{}", t.render());

    println!("\n== Fig. 5(b): top 10 apps by data share ==");
    let mut by_data: Vec<(&wearscope::appdb::AppId, &f64)> =
        results.app_figures().usage.data.iter().collect();
    by_data.sort_by(|a, b| b.1.total_cmp(a.1).then(a.0.cmp(b.0)));
    let rows: Vec<(String, f64)> = by_data
        .iter()
        .take(10)
        .map(|(app, v)| (results.app_name(**app).to_string(), 100.0 * **v))
        .collect();
    print!("{}", bar_chart_log(&rows, 40, "%"));

    println!("\n== Fig. 7: transactions per single usage (top 10 apps by bytes/usage) ==");
    let mut t = Table::new(vec!["app", "tx/usage", "KB/usage", "usages"]);
    for row in results.app_figures().per_usage.iter().take(10) {
        t.row(vec![
            row.app.to_string(),
            format!("{:.1}", row.tx_per_usage),
            format!("{:.1}", row.bytes_per_usage / 1024.0),
            row.usages.to_string(),
        ]);
    }
    print!("{}", t.render());

    println!(
        "\n== Fig. 8: third-party data within one order of magnitude of first-party: {} (paper: yes) ==",
        results.aggs.domains.thirdparty_within_order_of_magnitude()
    );

    println!("\n== Sec. 6: Through-Device users by kind ==");
    let mut t = Table::new(vec!["kind", "identified users"]);
    for kind in wearscope::appdb::ThroughDeviceKind::ALL {
        let n = results
            .aggs
            .through_device
            .identified
            .get(&kind)
            .map_or(0, |s| s.len());
        t.row(vec![kind.name().to_string(), n.to_string()]);
    }
    print!("{}", t.render());

    println!("\n== EXPERIMENTS: paper vs measured ==\n");
    print!("{}", ExperimentReport::from_results(&results).render());
}
