//! The paper's headline numbers, gathered in one struct.
//!
//! [`Takeaways::from_results`] extracts every scalar the paper states in its
//! abstract, takeaway boxes, and conclusion from one [`StudyResults`]. The
//! EXPERIMENTS harness prints these side by side with the paper's values.

use wearscope_mobilenet::NetworkSummaries;

use crate::context::StudyContext;
use crate::merge::CoreAggregates;
use crate::results::StudyResults;

/// Every headline scalar in the paper, measured from the logs.
#[derive(Clone, Debug)]
pub struct Takeaways {
    /// Sec. 4.1: monthly adoption growth (paper 0.015).
    pub monthly_growth: f64,
    /// Sec. 4.1: total growth over the window (paper 0.09).
    pub total_growth: f64,
    /// Sec. 4.1: share of registered users ever transacting (paper 0.34).
    pub data_active_share: f64,
    /// Fig. 2(b): first-week cohort still active in the last week (paper 0.77).
    pub cohort_active: f64,
    /// Fig. 2(b): first-week cohort gone (paper 0.07).
    pub cohort_gone: f64,
    /// Sec. 4.2: daily active share of weekly actives (paper ≈ 0.35).
    pub daily_active_share: f64,
    /// Sec. 4.3: mean active days per week (paper ≈ 1).
    pub mean_active_days_per_week: f64,
    /// Sec. 4.3: mean active hours per day (paper ≈ 3).
    pub mean_active_hours_per_day: f64,
    /// Sec. 4.3: users active > 10 h/day (paper 0.07).
    pub frac_over_10h: f64,
    /// Sec. 4.3: users active < 5 h/day (paper 0.80).
    pub frac_under_5h: f64,
    /// Fig. 3(c): median transaction size in bytes (paper ≈ 3 KB).
    pub median_tx_bytes: f64,
    /// Fig. 3(c): transactions under 10 KB (paper 0.80).
    pub frac_tx_under_10kb: f64,
    /// Fig. 3(d): activity-span ↔ tx-rate correlation (paper: positive).
    pub activity_correlation: f64,
    /// Fig. 4(a): owners vs rest bytes ratio (paper 1.26).
    pub owner_bytes_ratio: f64,
    /// Fig. 4(a): owners vs rest transaction ratio (paper 1.48).
    pub owner_tx_ratio: f64,
    /// Fig. 4(b): mean wearable share of owner traffic (paper ~10⁻³).
    pub wearable_traffic_share: f64,
    /// Fig. 4(b): owners with ≥ 3 % wearable share (paper 0.10).
    pub frac_owners_over_3pct: f64,
    /// Sec. 4.4: owner mean daily max displacement, km (paper ≈ 20–31).
    pub owner_displacement_km: f64,
    /// Sec. 4.4: rest mean daily max displacement, km (paper ≈ 16).
    pub rest_displacement_km: f64,
    /// Sec. 4.4: owners under 30 km (paper 0.90).
    pub owners_under_30km: f64,
    /// Sec. 4.4: entropy ratio owners/rest (paper ≈ 1.7).
    pub entropy_ratio: f64,
    /// Sec. 4.4: displacement ↔ tx-rate correlation (paper: positive).
    pub mobility_correlation: f64,
    /// Sec. 4.4: data-active users transacting from one location (paper 0.60).
    pub single_location_share: f64,
    /// Sec. 4.3: mean apps per user (paper 8).
    pub mean_apps_per_user: f64,
    /// Sec. 4.3: users with < 20 apps (paper 0.90).
    pub frac_under_20_apps: f64,
    /// Sec. 4.3: single-app user-days (paper 0.93).
    pub single_app_day_share: f64,
    /// Sec. 5.2: third-party data within one order of magnitude of
    /// first-party (paper: yes).
    pub thirdparty_same_magnitude: bool,
    /// Sec. 6: identified Through-Device users.
    pub through_device_identified: usize,
    /// Sec. 6: identified users' mobility within 50 % of SIM users (paper:
    /// "similar macroscopic behaviour").
    pub through_device_mobility_similar: bool,
    /// Sec. 4.2: wearable weekend traffic share relative to the overall
    /// population's (paper: slightly above 1).
    pub weekend_relative_usage: f64,
    /// Sec. 4.1: share of wearable users on Samsung or LG watches (paper:
    /// "most users").
    pub samsung_lg_share: f64,
}

impl Takeaways {
    /// Extracts the takeaways from pre-computed hot aggregates
    /// ([`CoreAggregates::sequential`] or merged stream windows).
    pub fn compute_with(
        ctx: &StudyContext<'_>,
        summaries: &NetworkSummaries,
        aggs: &CoreAggregates,
    ) -> Takeaways {
        Takeaways::from_results(&StudyResults::new(ctx, summaries, aggs))
    }

    /// Reads every headline scalar off the study's results.
    pub fn from_results(r: &StudyResults<'_>) -> Takeaways {
        let tx_stats = &r.aggs.tx_stats;
        Takeaways {
            monthly_growth: r.trend.monthly_growth_rate,
            total_growth: r.trend.total_growth,
            data_active_share: r.data_active.share,
            cohort_active: r.retention.active_fraction,
            cohort_gone: r.retention.gone_fraction,
            daily_active_share: r.daily_active_share,
            mean_active_days_per_week: r.spans.mean_days_per_week,
            mean_active_hours_per_day: r.spans.mean_hours_per_day,
            frac_over_10h: r.spans.frac_over_10h,
            frac_under_5h: r.spans.frac_under_5h,
            median_tx_bytes: tx_stats.median_bytes,
            frac_tx_under_10kb: tx_stats.frac_under_10kb,
            activity_correlation: r.correlation.pearson,
            owner_bytes_ratio: r.owner_vs_rest.bytes_ratio,
            owner_tx_ratio: r.owner_vs_rest.tx_ratio,
            wearable_traffic_share: r.wearable_share.mean_ratio,
            frac_owners_over_3pct: r.wearable_share.frac_over_3pct,
            owner_displacement_km: r.displacement.owner_mean_km,
            rest_displacement_km: r.displacement.rest_mean_km,
            owners_under_30km: r.displacement.owners_under_30km,
            entropy_ratio: r.entropy.ratio,
            mobility_correlation: r.mobility_activity.pearson,
            single_location_share: r.mobility_activity.single_location_share,
            mean_apps_per_user: r.installs.mean_apps_per_user,
            frac_under_20_apps: r.installs.frac_under_20,
            single_app_day_share: r.installs.single_app_day_share,
            thirdparty_same_magnitude: r.aggs.domains.thirdparty_within_order_of_magnitude(),
            through_device_identified: r.aggs.through_device.users.len(),
            through_device_mobility_similar: r
                .aggs
                .through_device
                .mobility_similar_to_sim_users(0.5),
            weekend_relative_usage: r.aggs.weekly.weekend_relative_usage,
            samsung_lg_share: r.aggs.devices.manufacturer_share(&["Samsung", "LG"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::DeviceDb;
    use wearscope_geo::SectorDirectory;
    use wearscope_simtime::ObservationWindow;
    use wearscope_trace::TraceStore;

    #[test]
    fn empty_world_computes_without_panicking() {
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
        let summaries = NetworkSummaries::default();
        let aggs = CoreAggregates::sequential(&ctx);
        let t = Takeaways::from_results(&StudyResults::new(&ctx, &summaries, &aggs));
        assert_eq!(t.data_active_share, 0.0);
        assert_eq!(t.median_tx_bytes, 0.0);
        assert_eq!(t.through_device_identified, 0);
        assert!(!t.thirdparty_same_magnitude);
        assert_eq!(t.samsung_lg_share, 0.0);
    }
}
