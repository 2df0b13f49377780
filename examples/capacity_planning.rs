//! Capacity planning from the MME census: which sectors carry the load, and
//! where wearable traffic concentrates — the operator-facing use the paper's
//! introduction motivates ("such services would benefit from a better
//! understanding of wearable users behavior").
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use std::collections::HashMap;

use wearscope::core::quality::DataQualityReport;
use wearscope::geo::SectorId;
use wearscope::prelude::*;
use wearscope::report::Table;

fn main() {
    let mut config = ScenarioConfig::compact(77);
    config.wearable_users = 350;
    config.comparison_users = 500;
    config.through_device_users = 100;
    let world = generate(&config);
    let ctx = StudyContext::new(
        &world.store,
        &world.db,
        &world.sectors,
        &world.apps,
        world.config.window,
    );

    // --- 0. QA gate: is the trace fit for planning decisions? -----------------
    let quality = DataQualityReport::compute(&ctx);
    println!("== trace QA ==");
    println!(
        "{} proxy + {} MME records | day coverage {:.0}% | unresolved devices {} | unclassified wearable hosts {}",
        quality.proxy_records,
        quality.mme_records,
        100.0 * quality.day_coverage,
        quality.unresolved_device_records,
        quality.unclassified_wearable_records,
    );
    println!(
        "healthy at 1% tolerance: {}\n",
        quality.is_healthy(0.01, 0.0)
    );

    // --- 1. Busiest sectors by peak attachment --------------------------------
    println!("== busiest sectors (peak simultaneous attachments) ==");
    let mut t = Table::new(vec!["sector", "city", "peak attached", "arrivals"]);
    for (sector, peak) in world.summaries.census.busiest(10) {
        let city = world
            .sectors
            .get(SectorId(sector))
            .and_then(|s| s.city)
            .map(|c| format!("city {c}"))
            .unwrap_or_else(|| "rural".into());
        t.row(vec![
            sector.to_string(),
            city,
            peak.to_string(),
            world.summaries.census.arrivals(sector).to_string(),
        ]);
    }
    print!("{}", t.render());

    // --- 2. Where does wearable *traffic* concentrate? -------------------------
    // Join wearable transactions to sectors via the MME timeline (as in the
    // single-location analysis) and rank sectors by wearable bytes.
    let mut timeline: HashMap<(UserId, u64), Vec<(SimTime, u32)>> = HashMap::new();
    for r in world.store.mme() {
        if matches!(
            r.event,
            wearscope::trace::MmeEvent::Attach | wearscope::trace::MmeEvent::SectorUpdate
        ) {
            timeline
                .entry((r.user, r.imei))
                .or_default()
                .push((r.timestamp, r.sector));
        }
    }
    let mut bytes_by_sector: HashMap<u32, u64> = HashMap::new();
    for r in world.store.proxy() {
        if !ctx.is_wearable_record(r) {
            continue;
        }
        if let Some(tl) = timeline.get(&(r.user, r.imei)) {
            let idx = tl.partition_point(|&(t, _)| t <= r.timestamp);
            if idx > 0 {
                let (t, sector) = tl[idx - 1];
                if t.day_index() == r.timestamp.day_index() {
                    *bytes_by_sector.entry(sector).or_default() += r.bytes_total();
                }
            }
        }
    }
    let mut ranked: Vec<(u32, u64)> = bytes_by_sector.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let total: u64 = ranked.iter().map(|(_, b)| b).sum();
    println!("\n== wearable traffic concentration (top 10 sectors) ==");
    let mut t = Table::new(vec!["sector", "city", "wearable MB", "share"]);
    let mut cumulative = 0.0;
    for (sector, bytes) in ranked.iter().take(10) {
        let share = *bytes as f64 / total.max(1) as f64;
        cumulative += share;
        let city = world
            .sectors
            .get(SectorId(*sector))
            .and_then(|s| s.city)
            .map(|c| format!("city {c}"))
            .unwrap_or_else(|| "rural".into());
        t.row(vec![
            sector.to_string(),
            city,
            format!("{:.2}", *bytes as f64 / 1e6),
            format!("{:.1}%", 100.0 * share),
        ]);
    }
    print!("{}", t.render());
    println!(
        "top-10 sectors carry {:.0}% of wearable bytes across {} sectors with any — ",
        100.0 * cumulative,
        ranked.len()
    );
    println!("wearable load is city-concentrated, mirroring the home-user population.");
}
