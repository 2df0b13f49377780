//! The packaged full report: every figure's rendering in one call, so the
//! CLI (and any embedding application) can produce the complete study
//! output without re-assembling the analyses by hand.

use wearscope_core::{CoreAggregates, StudyContext, StudyResults};
use wearscope_mobilenet::NetworkSummaries;

use crate::plot::{bar_chart_log, ecdf_plot, sparkline};
use crate::table::Table;

/// Renders the complete study as one text document: QA, every figure, and
/// the headline comparisons. Folds the aggregates sequentially, then
/// renders them with [`render_full`] and no ingest loss (the store's
/// records are all there is).
pub fn render_full_report(ctx: &StudyContext<'_>, summaries: &NetworkSummaries) -> String {
    render_full(
        &StudyResults::new(ctx, summaries, &CoreAggregates::sequential(ctx)),
        0.0,
    )
}

/// Renders the complete study from already computed results (the
/// `analyze --full` report). Reads no store itself: the results' one
/// store reader, the Fig. 4(d) sector join, ran when they were built. The
/// figure-only app analyses come from [`StudyResults::app_figures`],
/// computed at most once per `StudyResults`. `ingest_loss` is the share
/// of log lines ingest quarantined
/// ([`DataQuality::quarantine_rate`](crate::DataQuality::quarantine_rate)),
/// which the trace-QA verdict judges with the figures' own misses.
pub fn render_full(r: &StudyResults<'_>, ingest_loss: f64) -> String {
    let aggs = r.aggs;
    let mut out = String::new();
    let mut section = |title: &str, body: String| {
        out.push_str("\n== ");
        out.push_str(title);
        out.push_str(" ==\n");
        out.push_str(&body);
    };

    // QA first: nothing below is trustworthy if this is red.
    let quality = &aggs.quality;
    section(
        "trace QA",
        format!(
            "{} proxy + {} MME records | day coverage {:.0}% | unresolved devices {} | unclassified wearable hosts {} | healthy: {}\n",
            quality.proxy_records,
            quality.mme_records,
            100.0 * quality.day_coverage,
            quality.unresolved_device_records,
            quality.unclassified_wearable_records,
            quality.is_healthy(0.01, ingest_loss),
        ),
    );

    // Fig 2.
    let trend = &r.trend;
    let series: Vec<f64> = trend.daily_normalized.iter().map(|(_, v)| *v).collect();
    section(
        "Fig 2(a): adoption",
        format!(
            "{}\ngrowth {:+.2}%/month (paper +1.5%); window total {:+.1}%\n",
            sparkline(&series),
            100.0 * trend.monthly_growth_rate,
            100.0 * trend.total_growth
        ),
    );
    let (retention, active) = (&r.retention, &r.data_active);
    section(
        "Fig 2(b): cohort & data-active",
        format!(
            "first-week cohort {}: active {:.0}% / gone {:.0}% / intermittent {:.0}% (paper 77/7/16)\ndata-active {}/{} = {:.0}% (paper 34%)\n",
            retention.first_week_users,
            100.0 * retention.active_fraction,
            100.0 * retention.gone_fraction,
            100.0 * retention.intermittent_fraction,
            active.data_active,
            active.registered,
            100.0 * active.share
        ),
    );

    // Fig 3.
    let profile = &aggs.hourly;
    let wd: Vec<f64> = profile.weekday.iter().map(|h| h.transactions).collect();
    let we: Vec<f64> = profile.weekend.iter().map(|h| h.transactions).collect();
    section(
        "Fig 3(a): hourly transactions",
        format!("weekday {}\nweekend {}\n", sparkline(&wd), sparkline(&we)),
    );
    let spans = &r.spans;
    section(
        "Fig 3(b): activity spans",
        format!(
            "days/week:\n{}hours/day:\n{}means {:.2} d/wk (paper ~1), {:.2} h/d (paper ~3); >10h {:.1}% (7%); <5h {:.0}% (80%)\n",
            ecdf_plot(&spans.days_per_week, 30, " d/wk"),
            ecdf_plot(&spans.hours_per_day, 30, " h/d"),
            spans.mean_days_per_week,
            spans.mean_hours_per_day,
            100.0 * spans.frac_over_10h,
            100.0 * spans.frac_under_5h
        ),
    );
    let tx_stats = &aggs.tx_stats;
    section(
        "Fig 3(c): transaction sizes",
        format!(
            "{}median {:.0} B (paper ~3 KB); <10 KB {:.0}% (80%)\n",
            ecdf_plot(&tx_stats.size, 30, " B"),
            tx_stats.median_bytes,
            100.0 * tx_stats.frac_under_10kb
        ),
    );
    section(
        "Fig 3(d): span↔rate correlation",
        format!(
            "pearson {:.2}, spearman {:.2} (paper: clear positive)\n",
            r.correlation.pearson, r.correlation.spearman
        ),
    );

    // Fig 4.
    section(
        "Fig 4(a,b): owners vs rest",
        format!(
            "bytes ratio {:.2} (paper 1.26) | tx ratio {:.2} (paper 1.48)\nwearable share mean {:.1e} (paper ~1e-3); ≥3%: {:.1}% (paper 10%)\n",
            r.owner_vs_rest.bytes_ratio,
            r.owner_vs_rest.tx_ratio,
            r.wearable_share.mean_ratio,
            100.0 * r.wearable_share.frac_over_3pct
        ),
    );
    let (disp, ma) = (&r.displacement, &r.mobility_activity);
    section(
        "Fig 4(c,d): mobility",
        format!(
            "{}owners {:.1} km vs rest {:.1} km (paper 31 vs 16); <30 km {:.0}% (90%)\nentropy ratio {:.2} (paper 1.7) | displacement↔rate r={:.2} | single-location {:.0}% (60%)\n",
            ecdf_plot(&disp.owners, 30, " km"),
            disp.owner_mean_km,
            disp.rest_mean_km,
            100.0 * disp.owners_under_30km,
            r.entropy.ratio,
            ma.pearson,
            100.0 * ma.single_location_share
        ),
    );

    // Fig 5/6/7.
    let pop = &aggs.popularity;
    let rows: Vec<(String, f64)> = pop
        .rank
        .iter()
        .take(15)
        .map(|app| {
            (
                r.app_name(*app).to_string(),
                100.0 * pop.daily_associated_users.get(app).copied().unwrap_or(0.0),
            )
        })
        .collect();
    section(
        "Fig 5(a): app popularity (top 15)",
        bar_chart_log(&rows, 30, "%"),
    );
    let figures = r.app_figures();
    let cats = &figures.categories;
    let mut t = Table::new(vec!["category", "users%", "freq%", "tx%", "data%"]);
    for (cat, users) in wearscope_core::apps::CategoryPopularity::ranked(&cats.users) {
        let g = |m: &wearscope_core::hash::HashMap<wearscope_appdb::AppCategory, f64>| {
            format!("{:.2}", 100.0 * m.get(&cat).copied().unwrap_or(0.0))
        };
        t.row(vec![
            cat.name().to_string(),
            format!("{:.2}", 100.0 * users),
            g(&cats.frequency),
            g(&cats.transactions),
            g(&cats.data),
        ]);
    }
    section("Fig 6: categories", t.render());
    let per_rows: Vec<(String, f64)> = figures
        .per_usage
        .iter()
        .take(10)
        .map(|row| (row.app.to_string(), row.bytes_per_usage / 1024.0))
        .collect();
    section(
        "Fig 7: KB per single usage (top 10)",
        bar_chart_log(&per_rows, 30, " KB"),
    );

    // Fig 8.
    let breakdown = &r.aggs.domains;
    let mut t = Table::new(vec!["class", "users%", "freq%", "data%"]);
    for class in wearscope_appdb::DomainClass::ALL {
        let i = class.index();
        t.row(vec![
            class.name().to_string(),
            format!("{:.2}", 100.0 * breakdown.users[i]),
            format!("{:.2}", 100.0 * breakdown.frequency[i]),
            format!("{:.2}", 100.0 * breakdown.data[i]),
        ]);
    }
    section("Fig 8: domain classes", t.render());

    // Sec 4.1/4.2 extensions.
    let (mix, weekly) = (&aggs.devices, &aggs.weekly);
    section(
        "Sec 4.1/4.2: devices & weekly pattern",
        format!(
            "wearable users {}; Samsung+LG {:.0}% (paper: 'most')\nweekday CV {:.2} (paper: flat); weekend relative usage {:.2}; evening {:.2} (paper: slightly >1)\n",
            mix.total_users,
            100.0 * mix.manufacturer_share(&["Samsung", "LG"]),
            weekly.weekday_cv(),
            weekly.weekend_relative_usage,
            weekly.evening_relative_usage
        ),
    );

    // Sec 6.
    let through = &aggs.through_device;
    section(
        "Sec 6: Through-Device",
        format!(
            "identified {} users; extrapolated ~{} at {:.0}% coverage; mobility similar to SIM users: {}\n",
            through.users.len(),
            through.estimated_total,
            100.0 * through.assumed_coverage,
            through.mobility_similar_to_sim_users(0.5)
        ),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::DeviceDb;
    use wearscope_geo::SectorDirectory;
    use wearscope_simtime::{ObservationWindow, SimTime};
    use wearscope_trace::{HostId, ProxyRecord, Scheme, TraceStore, UserId};

    #[test]
    fn full_report_renders_every_section() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let store = TraceStore::from_records(
            vec![ProxyRecord {
                timestamp: SimTime::from_hours(10),
                user: UserId(1),
                imei: db.example_imei(db.wearable_tacs()[0], 1).as_u64(),
                host: HostId::intern("api.weather.com"),
                scheme: Scheme::Https,
                bytes_down: 2500,
                bytes_up: 300,
            }],
            vec![],
        );
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::compact(),
        );
        let report = render_full_report(&ctx, &NetworkSummaries::default());
        for heading in [
            "trace QA",
            "Fig 2(a)",
            "Fig 2(b)",
            "Fig 3(a)",
            "Fig 3(b)",
            "Fig 3(c)",
            "Fig 3(d)",
            "Fig 4(a,b)",
            "Fig 4(c,d)",
            "Fig 5(a)",
            "Fig 6",
            "Fig 7",
            "Fig 8",
            "Sec 4.1/4.2",
            "Sec 6",
        ] {
            assert!(report.contains(heading), "missing section {heading}");
        }
        assert!(report.contains("Weather"));
    }

    #[test]
    fn fig7_ties_render_in_name_order() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let tx = |user: u64, host: &str| ProxyRecord {
            timestamp: SimTime::from_hours(10),
            user: UserId(user),
            imei: db.example_imei(db.wearable_tacs()[0], user as u32).as_u64(),
            host: HostId::intern(host),
            scheme: Scheme::Https,
            bytes_down: 4096,
            bytes_up: 0,
        };
        let store = TraceStore::from_records(
            vec![tx(1, "api.weather.com"), tx(2, "maps.googleapis.com")],
            vec![],
        );
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::compact(),
        );
        let report = render_full_report(&ctx, &NetworkSummaries::default());
        let fig7 = &report[report.find("== Fig 7").unwrap()..report.find("== Fig 8").unwrap()];
        let (maps, weather) = (fig7.find("Google-Maps"), fig7.find("Weather"));
        assert!(maps.is_some() && maps < weather, "{fig7}");
    }

    #[test]
    fn empty_world_report_does_not_panic() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let store = TraceStore::new();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::compact(),
        );
        let report = render_full_report(&ctx, &NetworkSummaries::default());
        assert!(report.contains("trace QA"));
    }
}
