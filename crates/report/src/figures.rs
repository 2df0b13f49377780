//! CSV export of every figure's data series — the machine-readable
//! counterpart of the terminal plots, so the figures can be re-plotted with
//! any external tool.

use std::io;
use std::path::Path;

use wearscope_core::apps::CategoryPopularity;
use wearscope_core::{CoreAggregates, Ecdf, StudyContext, StudyResults};
use wearscope_mobilenet::NetworkSummaries;

use crate::csv::CsvWriter;

/// Writes one CSV file per paper figure into a directory.
pub struct FigureCsvExporter<'a> {
    results: StudyResults<'a>,
}

impl<'a> FigureCsvExporter<'a> {
    /// Creates an exporter over a study context, vantage summaries and the
    /// hot aggregates ([`CoreAggregates::sequential`]).
    pub fn with_aggregates(
        ctx: &'a StudyContext<'a>,
        summaries: &'a NetworkSummaries,
        aggs: &'a CoreAggregates,
    ) -> Self {
        FigureCsvExporter {
            results: StudyResults::new(ctx, summaries, aggs),
        }
    }

    /// Writes all figure CSVs under `dir`; see [`export_figures`].
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn export_all(&self, dir: &Path) -> io::Result<usize> {
        export_figures(&self.results, dir)
    }
}

/// Writes all figure CSVs of `r` under `dir`; returns the number of files
/// written.
///
/// # Errors
/// Propagates filesystem errors.
pub fn export_figures(r: &StudyResults<'_>, dir: &Path) -> io::Result<usize> {
    let aggs = r.aggs;
    std::fs::create_dir_all(dir)?;
    let mut written = 0usize;
    let mut emit = |name: &str, content: String| -> io::Result<()> {
        std::fs::write(dir.join(name), content)?;
        written += 1;
        Ok(())
    };

    // Fig 2(a): adoption series.
    let mut w = CsvWriter::new(vec!["day", "normalized_users"]);
    for (day, v) in &r.trend.daily_normalized {
        w.row(vec![day.to_string(), format!("{v:.6}")]);
    }
    emit("fig2a_adoption.csv", w.finish())?;

    // Fig 2(b): cohort retention.
    let retention = &r.retention;
    let mut w = CsvWriter::new(vec!["category", "fraction"]);
    for (name, v) in [
        ("active", retention.active_fraction),
        ("gone", retention.gone_fraction),
        ("intermittent", retention.intermittent_fraction),
    ] {
        w.row(vec![name.into(), format!("{v:.6}")]);
    }
    emit("fig2b_retention.csv", w.finish())?;

    // Fig 3(a): hourly profile.
    let profile = &aggs.hourly;
    let mut w = CsvWriter::new(vec!["day_type", "hour", "users", "transactions", "bytes"]);
    for (label, slots) in [("weekday", &profile.weekday), ("weekend", &profile.weekend)] {
        for (h, s) in slots.iter().enumerate() {
            w.row(vec![
                label.into(),
                h.to_string(),
                format!("{:.8}", s.active_users),
                format!("{:.8}", s.transactions),
                format!("{:.8}", s.bytes),
            ]);
        }
    }
    emit("fig3a_hourly.csv", w.finish())?;

    // Fig 3(b): spans; Fig 3(c): sizes; Fig 3(d): correlation points.
    emit("fig3b_days_per_week.csv", ecdf_csv(&r.spans.days_per_week))?;
    emit("fig3b_hours_per_day.csv", ecdf_csv(&r.spans.hours_per_day))?;
    emit("fig3c_tx_sizes.csv", ecdf_csv(&aggs.tx_stats.size))?;
    let mut w = CsvWriter::new(vec!["active_hours_per_day", "tx_per_active_hour"]);
    for (x, y) in &r.correlation.points {
        w.row(vec![format!("{x:.4}"), format!("{y:.4}")]);
    }
    emit("fig3d_activity_scatter.csv", w.finish())?;

    // Fig 4(a,b).
    emit(
        "fig4a_owner_bytes.csv",
        ecdf_csv(&r.owner_vs_rest.owner_bytes),
    )?;
    emit(
        "fig4a_rest_bytes.csv",
        ecdf_csv(&r.owner_vs_rest.rest_bytes),
    )?;
    emit(
        "fig4b_wearable_share.csv",
        ecdf_csv(&r.wearable_share.ratio),
    )?;

    // Fig 4(c,d).
    emit(
        "fig4c_owner_displacement.csv",
        ecdf_csv(&r.displacement.owners),
    )?;
    emit(
        "fig4c_rest_displacement.csv",
        ecdf_csv(&r.displacement.rest),
    )?;
    emit("fig4c_owner_entropy.csv", ecdf_csv(&r.entropy.owners))?;
    emit("fig4c_rest_entropy.csv", ecdf_csv(&r.entropy.rest))?;
    let mut w = CsvWriter::new(vec!["mean_daily_displacement_km", "tx_per_active_hour"]);
    for (x, y) in &r.mobility_activity.points {
        w.row(vec![format!("{x:.4}"), format!("{y:.4}")]);
    }
    emit("fig4d_mobility_scatter.csv", w.finish())?;

    // Fig 5/6/7.
    let pop = &aggs.popularity;
    let mut w = CsvWriter::new(vec!["app", "daily_associated_users", "app_used_days"]);
    for app in &pop.rank {
        w.row(vec![
            r.app_name(*app).into(),
            format!(
                "{:.8}",
                pop.daily_associated_users.get(app).copied().unwrap_or(0.0)
            ),
            format!(
                "{:.8}",
                pop.app_used_days_per_user.get(app).copied().unwrap_or(0.0)
            ),
        ]);
    }
    emit("fig5a_app_popularity.csv", w.finish())?;

    let figures = r.app_figures();
    let usage = &figures.usage;
    let mut w = CsvWriter::new(vec!["app", "frequency", "transactions", "data"]);
    for app in &pop.rank {
        let g = |m: &wearscope_core::hash::HashMap<wearscope_appdb::AppId, f64>| {
            format!("{:.8}", m.get(app).copied().unwrap_or(0.0))
        };
        w.row(vec![
            r.app_name(*app).into(),
            g(&usage.frequency),
            g(&usage.transactions),
            g(&usage.data),
        ]);
    }
    emit("fig5b_app_usage.csv", w.finish())?;

    let cats = &figures.categories;
    let mut w = CsvWriter::new(vec![
        "category",
        "users",
        "frequency",
        "transactions",
        "data",
    ]);
    for (cat, users) in CategoryPopularity::ranked(&cats.users) {
        let g = |m: &wearscope_core::hash::HashMap<wearscope_appdb::AppCategory, f64>| {
            format!("{:.8}", m.get(&cat).copied().unwrap_or(0.0))
        };
        w.row(vec![
            cat.name().into(),
            format!("{users:.8}"),
            g(&cats.frequency),
            g(&cats.transactions),
            g(&cats.data),
        ]);
    }
    emit("fig6_categories.csv", w.finish())?;

    let mut w = CsvWriter::new(vec!["app", "tx_per_usage", "bytes_per_usage", "usages"]);
    for row in &figures.per_usage {
        w.row(vec![
            row.app.into(),
            format!("{:.4}", row.tx_per_usage),
            format!("{:.1}", row.bytes_per_usage),
            row.usages.to_string(),
        ]);
    }
    emit("fig7_per_usage.csv", w.finish())?;

    // Fig 8.
    let breakdown = &r.aggs.domains;
    let mut w = CsvWriter::new(vec!["class", "users", "frequency", "data"]);
    for class in wearscope_appdb::DomainClass::ALL {
        let i = class.index();
        w.row(vec![
            class.name().into(),
            format!("{:.8}", breakdown.users[i]),
            format!("{:.8}", breakdown.frequency[i]),
            format!("{:.8}", breakdown.data[i]),
        ]);
    }
    emit("fig8_domain_classes.csv", w.finish())?;

    Ok(written)
}

/// Serializes an ECDF as `value,cdf` rows.
fn ecdf_csv(ecdf: &Ecdf) -> String {
    let mut w = CsvWriter::new(vec!["value", "cdf"]);
    for (x, f) in ecdf.curve() {
        w.row(vec![format!("{x:.6}"), format!("{f:.8}")]);
    }
    w.finish()
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
    fn export_writes_all_figures() {
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
        let summaries = NetworkSummaries::default();
        let dir = std::env::temp_dir().join(format!("wearscope-figs-{}", std::process::id()));
        let aggs = CoreAggregates::sequential(&ctx);
        let n = FigureCsvExporter::with_aggregates(&ctx, &summaries, &aggs)
            .export_all(&dir)
            .unwrap();
        assert!(n >= 16, "{n} files");
        // Spot checks: headers and content.
        let fig5a = std::fs::read_to_string(dir.join("fig5a_app_popularity.csv")).unwrap();
        assert!(fig5a.starts_with("app,daily_associated_users"));
        assert!(fig5a.contains("Weather"));
        let fig3c = std::fs::read_to_string(dir.join("fig3c_tx_sizes.csv")).unwrap();
        assert!(fig3c.contains("2800"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
