//! Paper-vs-measured comparison (the machine-checked half of
//! `EXPERIMENTS.md`).
//!
//! Each row pairs a number the paper reports with the value the pipeline
//! measured from simulated logs, plus an acceptance band. Absolute agreement
//! is not the goal (the substrate is a scaled simulator, not the authors'
//! network); the bands encode *shape* fidelity: who is larger, by roughly
//! what factor, which fractions are in the right regime.

use wearscope_core::takeaways::Takeaways;
use wearscope_core::StudyResults;

use crate::table::Table;

/// Acceptance band for one experiment row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Band {
    /// |measured − paper| ≤ frac · |paper|.
    Relative(f64),
    /// |measured − paper| ≤ abs.
    Absolute(f64),
    /// measured ≥ threshold (e.g. correlations that must be clearly positive).
    AtLeast(f64),
    /// measured must be 1.0 (boolean facts encoded as 0/1).
    True,
}

/// One paper-vs-measured comparison.
#[derive(Clone, Debug)]
pub struct ExperimentRow {
    /// Identifier, e.g. "Fig2a-growth".
    pub id: &'static str,
    /// Human description.
    pub description: &'static str,
    /// The value the paper reports.
    pub paper: f64,
    /// The value measured from the logs.
    pub measured: f64,
    /// Acceptance band.
    pub band: Band,
}

impl ExperimentRow {
    /// `true` if the measured value is inside the band.
    pub fn passes(&self) -> bool {
        match self.band {
            Band::Relative(f) => (self.measured - self.paper).abs() <= f * self.paper.abs(),
            Band::Absolute(a) => (self.measured - self.paper).abs() <= a,
            Band::AtLeast(t) => self.measured >= t,
            Band::True => self.measured >= 1.0,
        }
    }
}

/// The full comparison report.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// All rows, paper order.
    pub rows: Vec<ExperimentRow>,
}

impl ExperimentReport {
    /// Builds the comparison from a study's results, over its own window.
    pub fn from_results(r: &StudyResults<'_>) -> ExperimentReport {
        let days = r.ctx.window.summary().num_days();
        Self::from_takeaways_with_window(&Takeaways::from_results(r), days)
    }

    /// Builds the comparison for an observation of `summary_days` days (the
    /// expected total growth scales with the window length).
    pub fn from_takeaways_with_window(t: &Takeaways, summary_days: u64) -> ExperimentReport {
        let months = summary_days as f64 / 30.0;
        let rows = vec![
            ExperimentRow {
                id: "Fig2a-growth",
                description: "monthly adoption growth",
                paper: 0.015,
                measured: t.monthly_growth,
                band: Band::Relative(0.5),
            },
            ExperimentRow {
                id: "Fig2a-total",
                description: "total growth over window",
                paper: 0.015 * months,
                measured: t.total_growth,
                band: Band::Relative(0.5),
            },
            ExperimentRow {
                id: "S4.1-active",
                description: "share of registered users ever transacting",
                paper: 0.34,
                measured: t.data_active_share,
                band: Band::Relative(0.2),
            },
            ExperimentRow {
                id: "Fig2b-active",
                description: "first-week cohort active in last week",
                paper: 0.77,
                measured: t.cohort_active,
                band: Band::Relative(0.15),
            },
            ExperimentRow {
                id: "Fig2b-gone",
                description: "first-week cohort abandoned",
                paper: 0.07,
                measured: t.cohort_gone,
                band: Band::Absolute(0.05),
            },
            ExperimentRow {
                id: "S4.2-daily",
                description: "daily active share of weekly actives",
                paper: 0.35,
                measured: t.daily_active_share,
                band: Band::Relative(0.4),
            },
            ExperimentRow {
                id: "Fig3b-days",
                description: "mean active days per week",
                paper: 1.0,
                measured: t.mean_active_days_per_week,
                band: Band::Relative(0.5),
            },
            ExperimentRow {
                id: "Fig3b-hours",
                description: "mean active hours per day",
                paper: 3.0,
                measured: t.mean_active_hours_per_day,
                band: Band::Relative(0.4),
            },
            ExperimentRow {
                id: "Fig3b-10h",
                description: "users active > 10 h/day",
                paper: 0.07,
                measured: t.frac_over_10h,
                band: Band::Absolute(0.05),
            },
            ExperimentRow {
                id: "Fig3b-5h",
                description: "users active < 5 h/day",
                paper: 0.80,
                measured: t.frac_under_5h,
                band: Band::Absolute(0.12),
            },
            ExperimentRow {
                id: "Fig3c-median",
                description: "median transaction size (bytes)",
                paper: 3_000.0,
                measured: t.median_tx_bytes,
                band: Band::Relative(0.5),
            },
            ExperimentRow {
                id: "Fig3c-10kb",
                description: "transactions under 10 KB",
                paper: 0.80,
                measured: t.frac_tx_under_10kb,
                band: Band::Absolute(0.12),
            },
            ExperimentRow {
                id: "Fig3d-corr",
                description: "activity span vs tx-rate correlation",
                paper: 0.5,
                measured: t.activity_correlation,
                band: Band::AtLeast(0.12),
            },
            ExperimentRow {
                id: "Fig4a-bytes",
                description: "owner/rest bytes ratio",
                paper: 1.26,
                measured: t.owner_bytes_ratio,
                band: Band::Relative(0.25),
            },
            ExperimentRow {
                id: "Fig4a-tx",
                description: "owner/rest transactions ratio",
                paper: 1.48,
                measured: t.owner_tx_ratio,
                band: Band::Relative(0.25),
            },
            ExperimentRow {
                id: "Fig4b-share",
                description: "mean wearable share of owner traffic",
                paper: 0.001,
                measured: t.wearable_traffic_share,
                band: Band::Relative(9.0), // order-of-magnitude check
            },
            ExperimentRow {
                id: "Fig4b-3pct",
                description: "owners with ≥3% wearable traffic",
                paper: 0.10,
                measured: t.frac_owners_over_3pct,
                band: Band::Absolute(0.08),
            },
            ExperimentRow {
                id: "Fig4c-owner",
                description: "owner mean daily max displacement (km)",
                paper: 20.0,
                measured: t.owner_displacement_km,
                band: Band::Relative(0.5),
            },
            ExperimentRow {
                id: "Fig4c-rest",
                description: "rest mean daily max displacement (km)",
                paper: 16.0,
                measured: t.rest_displacement_km,
                band: Band::Relative(0.5),
            },
            ExperimentRow {
                id: "Fig4c-30km",
                description: "owners moving < 30 km/day",
                paper: 0.90,
                measured: t.owners_under_30km,
                band: Band::Absolute(0.10),
            },
            ExperimentRow {
                id: "S4.4-entropy",
                description: "location-entropy ratio owners/rest",
                paper: 1.7,
                measured: t.entropy_ratio,
                band: Band::Relative(0.35),
            },
            ExperimentRow {
                id: "Fig4d-corr",
                description: "displacement vs tx-rate correlation",
                paper: 0.4,
                measured: t.mobility_correlation,
                band: Band::AtLeast(0.1),
            },
            ExperimentRow {
                id: "S4.4-single",
                description: "data-active users transacting from one location",
                paper: 0.60,
                measured: t.single_location_share,
                band: Band::Absolute(0.15),
            },
            ExperimentRow {
                id: "S4.3-apps",
                description: "mean apps per user (observed lower-bounds installed)",
                paper: 8.0,
                measured: t.mean_apps_per_user,
                band: Band::Relative(0.70),
            },
            ExperimentRow {
                id: "S4.3-20apps",
                description: "users with < 20 apps",
                paper: 0.90,
                measured: t.frac_under_20_apps,
                band: Band::Absolute(0.10),
            },
            ExperimentRow {
                id: "S4.3-1app",
                description: "user-days running a single app",
                paper: 0.93,
                measured: t.single_app_day_share,
                band: Band::Absolute(0.12),
            },
            ExperimentRow {
                id: "Fig8-magnitude",
                description: "3rd-party data within 1 OoM of 1st-party",
                paper: 1.0,
                measured: f64::from(u8::from(t.thirdparty_same_magnitude)),
                band: Band::True,
            },
            ExperimentRow {
                id: "S4.2-weekend",
                description: "wearable weekend usage relative to overall",
                paper: 1.05,
                measured: t.weekend_relative_usage,
                band: Band::AtLeast(1.0),
            },
            ExperimentRow {
                id: "S4.1-vendors",
                description: "wearable users on Samsung/LG watches",
                paper: 0.85,
                measured: t.samsung_lg_share,
                band: Band::AtLeast(0.70),
            },
            ExperimentRow {
                id: "S6-throughdev",
                description: "through-device mobility similar to SIM users",
                paper: 1.0,
                measured: f64::from(u8::from(t.through_device_mobility_similar)),
                band: Band::True,
            },
        ];
        ExperimentReport { rows }
    }

    /// Number of passing rows.
    pub fn passed(&self) -> usize {
        self.rows.iter().filter(|r| r.passes()).count()
    }

    /// Total rows.
    pub fn total(&self) -> usize {
        self.rows.len()
    }

    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["experiment", "description", "paper", "measured", "ok"]);
        for r in &self.rows {
            t.row(vec![
                r.id.to_string(),
                r.description.to_string(),
                format_value(r.paper),
                format_value(r.measured),
                if r.passes() {
                    "✓".into()
                } else {
                    "✗".into()
                },
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "\n{}/{} within band\n",
            self.passed(),
            self.total()
        ));
        s
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else if v.abs() >= 0.01 {
        format!("{v:.3}")
    } else {
        format!("{v:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands() {
        let row = |paper: f64, measured: f64, band: Band| ExperimentRow {
            id: "t",
            description: "t",
            paper,
            measured,
            band,
        };
        assert!(row(1.0, 1.05, Band::Relative(0.1)).passes());
        assert!(!row(1.0, 1.2, Band::Relative(0.1)).passes());
        assert!(row(0.07, 0.11, Band::Absolute(0.05)).passes());
        assert!(!row(0.07, 0.15, Band::Absolute(0.05)).passes());
        assert!(row(0.5, 0.2, Band::AtLeast(0.15)).passes());
        assert!(!row(0.5, 0.1, Band::AtLeast(0.15)).passes());
        assert!(row(1.0, 1.0, Band::True).passes());
        assert!(!row(1.0, 0.0, Band::True).passes());
    }

    #[test]
    fn report_renders_all_rows() {
        // A synthetic takeaways struct that passes everything exactly.
        let t = Takeaways {
            monthly_growth: 0.015,
            total_growth: 0.09,
            data_active_share: 0.34,
            cohort_active: 0.77,
            cohort_gone: 0.07,
            daily_active_share: 0.35,
            mean_active_days_per_week: 1.0,
            mean_active_hours_per_day: 3.0,
            frac_over_10h: 0.07,
            frac_under_5h: 0.80,
            median_tx_bytes: 3000.0,
            frac_tx_under_10kb: 0.80,
            activity_correlation: 0.5,
            owner_bytes_ratio: 1.26,
            owner_tx_ratio: 1.48,
            wearable_traffic_share: 0.001,
            frac_owners_over_3pct: 0.10,
            owner_displacement_km: 20.0,
            rest_displacement_km: 16.0,
            owners_under_30km: 0.90,
            entropy_ratio: 1.7,
            mobility_correlation: 0.4,
            single_location_share: 0.60,
            mean_apps_per_user: 8.0,
            frac_under_20_apps: 0.90,
            single_app_day_share: 0.93,
            thirdparty_same_magnitude: true,
            through_device_identified: 100,
            through_device_mobility_similar: true,
            weekend_relative_usage: 1.05,
            samsung_lg_share: 0.85,
        };
        let report = ExperimentReport::from_takeaways_with_window(&t, 151);
        assert_eq!(report.passed(), report.total());
        assert!(report.total() >= 28);
        let rendered = report.render();
        assert!(rendered.contains("Fig2a-growth"));
        assert!(rendered.contains("within band"));
    }

    #[test]
    fn value_formatting() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(1234.0), "1234");
        assert_eq!(format_value(1.26), "1.26");
        assert_eq!(format_value(0.34), "0.340");
        assert_eq!(format_value(0.001), "1.00e-3");
    }
}
