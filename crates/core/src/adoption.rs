//! User adoption trends (Sec. 4.1, Fig. 2).
//!
//! These analyses consume the long-horizon *summary statistics* of the two
//! vantage points — daily registered-user sets from the MME and daily
//! transacting-user sets from the proxy — exactly the data the paper kept
//! for the full five months while raw logs were only retained for seven
//! weeks.

use wearscope_mobilenet::{MmeSummary, WearableTrafficSummary};
use wearscope_simtime::ObservationWindow;

use crate::stats;

/// Fig. 2(a): the daily number of SIM-enabled wearable users registered with
/// the MME, normalized by the latest value (the paper's confidentiality
/// normalization), plus the fitted growth rate.
#[derive(Clone, Debug)]
pub struct AdoptionTrend {
    /// `(day index, normalized user count)` for every observed day.
    pub daily_normalized: Vec<(u64, f64)>,
    /// Fitted growth per 30 days, as a fraction of the mean level
    /// (the paper reports ≈ 0.015).
    pub monthly_growth_rate: f64,
    /// Relative growth from the first week's mean to the last week's mean
    /// (the paper reports ≈ 0.09 over five months).
    pub total_growth: f64,
}

impl AdoptionTrend {
    /// Computes the trend from the MME summary over `window.summary()`.
    pub fn compute(mme: &MmeSummary, window: &ObservationWindow) -> AdoptionTrend {
        let days: Vec<u64> = window.summary().days().collect();
        let counts: Vec<f64> = days.iter().map(|&d| mme.users_on_day(d) as f64).collect();
        let latest = counts.last().copied().unwrap_or(0.0).max(1.0);
        let daily_normalized = days
            .iter()
            .zip(&counts)
            .map(|(&d, &c)| (d, c / latest))
            .collect();

        let xs: Vec<f64> = days.iter().map(|&d| d as f64).collect();
        let slope = stats::linear_slope(&xs, &counts);
        let mean = counts.iter().sum::<f64>() / counts.len().max(1) as f64;
        let monthly_growth_rate = if mean > 0.0 { slope * 30.0 / mean } else { 0.0 };

        let week_mean = |range: std::ops::Range<usize>| -> f64 {
            let slice = &counts[range.start.min(counts.len())..range.end.min(counts.len())];
            if slice.is_empty() {
                0.0
            } else {
                slice.iter().sum::<f64>() / slice.len() as f64
            }
        };
        let n = counts.len();
        let first = week_mean(0..7.min(n));
        let last = week_mean(n.saturating_sub(7)..n);
        let total_growth = if first > 0.0 {
            (last - first) / first
        } else {
            0.0
        };

        AdoptionTrend {
            daily_normalized,
            monthly_growth_rate,
            total_growth,
        }
    }
}

/// Fig. 2(b): what became of the users seen in the first observation week.
#[derive(Clone, Copy, Debug)]
pub struct CohortRetention {
    /// Users registered at least once in the first week.
    pub first_week_users: usize,
    /// Fraction of those still registered during the *last* week
    /// (the paper reports 77 %).
    pub active_fraction: f64,
    /// Fraction not seen at all in the last four weeks — abandoned devices
    /// (the paper reports 7 %).
    pub gone_fraction: f64,
    /// The remainder: registered somewhere in the last month but not in the
    /// final week (intermittent users).
    pub intermittent_fraction: f64,
}

impl CohortRetention {
    /// Computes first-week cohort retention from the MME summary.
    pub fn compute(mme: &MmeSummary, window: &ObservationWindow) -> CohortRetention {
        let total_days = window.summary().num_days();
        let cohort = mme.users_in_days(0, 7.min(total_days));
        if cohort.is_empty() {
            return CohortRetention {
                first_week_users: 0,
                active_fraction: 0.0,
                gone_fraction: 0.0,
                intermittent_fraction: 0.0,
            };
        }
        let last_week = mme.users_in_days(total_days.saturating_sub(7), total_days);
        let last_month = mme.users_in_days(total_days.saturating_sub(28), total_days);
        let n = cohort.len() as f64;
        let active = cohort.iter().filter(|u| last_week.contains(u)).count() as f64 / n;
        let gone = cohort.iter().filter(|u| !last_month.contains(u)).count() as f64 / n;
        CohortRetention {
            first_week_users: cohort.len(),
            active_fraction: active,
            gone_fraction: gone,
            intermittent_fraction: (1.0 - active - gone).max(0.0),
        }
    }
}

/// Cohort survival curves: for users first registered in week `w`, the
/// fraction still registering `k` weeks later. An extension of Fig. 2(b)'s
/// two-point comparison to the full retention curve (the "detailed analysis
/// of adoption" the paper leaves open).
#[derive(Clone, Debug, Default)]
pub struct RetentionCurves {
    /// `curves[w][k]` = survival of week-`w` adopters after `k` weeks
    /// (element 0 is 1.0 by construction).
    pub curves: Vec<Vec<f64>>,
    /// Cohort sizes per adoption week.
    pub cohort_sizes: Vec<usize>,
    /// Pooled survival over all cohorts, by weeks-since-adoption.
    pub pooled: Vec<f64>,
}

impl RetentionCurves {
    /// Computes weekly survival from the MME summary.
    pub fn compute(mme: &MmeSummary, window: &ObservationWindow) -> RetentionCurves {
        let weeks = window.summary().num_days() / 7;
        if weeks == 0 {
            return RetentionCurves::default();
        }
        // Users registered in each week.
        let by_week: Vec<std::collections::HashSet<wearscope_trace::UserId>> = (0..weeks)
            .map(|w| mme.users_in_days(w * 7, (w + 1) * 7))
            .collect();
        // Adoption week = first week a user appears.
        let mut adopted_in: crate::hash::HashMap<wearscope_trace::UserId, u64> =
            crate::hash::HashMap::default();
        for (w, users) in by_week.iter().enumerate() {
            for u in users {
                adopted_in.entry(*u).or_insert(w as u64);
            }
        }
        let mut curves = Vec::new();
        let mut cohort_sizes = Vec::new();
        let mut pooled_num: Vec<f64> = Vec::new();
        let mut pooled_den: Vec<f64> = Vec::new();
        for w in 0..weeks {
            let cohort: Vec<wearscope_trace::UserId> = adopted_in
                .iter()
                .filter(|(_, aw)| **aw == w)
                .map(|(u, _)| *u)
                .collect();
            cohort_sizes.push(cohort.len());
            let mut curve = Vec::new();
            for k in 0..(weeks - w) {
                let alive = cohort
                    .iter()
                    .filter(|u| by_week[(w + k) as usize].contains(u))
                    .count();
                let frac = if cohort.is_empty() {
                    0.0
                } else {
                    alive as f64 / cohort.len() as f64
                };
                curve.push(frac);
                let idx = k as usize;
                if pooled_num.len() <= idx {
                    pooled_num.push(0.0);
                    pooled_den.push(0.0);
                }
                pooled_num[idx] += alive as f64;
                pooled_den[idx] += cohort.len() as f64;
            }
            curves.push(curve);
        }
        let pooled = pooled_num
            .iter()
            .zip(&pooled_den)
            .map(|(n, d)| if *d > 0.0 { n / d } else { 0.0 })
            .collect();
        RetentionCurves {
            curves,
            cohort_sizes,
            pooled,
        }
    }
}

/// Sec. 4.1's headline: the share of registered SIM-wearable users that ever
/// generate a network transaction (the paper reports 34 %).
#[derive(Clone, Copy, Debug)]
pub struct DataActiveShare {
    /// Distinct users ever registered.
    pub registered: usize,
    /// Distinct users ever transacting.
    pub data_active: usize,
    /// `data_active / registered`.
    pub share: f64,
}

impl DataActiveShare {
    /// Joins the MME and proxy summaries over the full summary window.
    pub fn compute(
        mme: &MmeSummary,
        traffic: &WearableTrafficSummary,
        window: &ObservationWindow,
    ) -> DataActiveShare {
        let days = window.summary().num_days();
        let registered = mme.users_in_days(0, days);
        let transacting = traffic.users_in_days(0, days);
        let active = registered.intersection(&transacting).count();
        DataActiveShare {
            registered: registered.len(),
            data_active: active,
            share: if registered.is_empty() {
                0.0
            } else {
                active as f64 / registered.len() as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_devicedb::DeviceDb;
    use wearscope_geo::SectorId;
    use wearscope_mobilenet::Mme;
    use wearscope_simtime::{Calendar, SimTime};
    use wearscope_trace::UserId;

    /// Builds an MME summary where user `u` is registered on the days
    /// listed.
    fn summary_from(registrations: &[(u64, &[u64])]) -> MmeSummary {
        let db = DeviceDb::standard();
        let imei = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
        let mut mme = Mme::new(&db);
        for (user, days) in registrations {
            for &d in *days {
                mme.attach(SimTime::from_days(d), UserId(*user), imei, SectorId(0));
            }
        }
        mme.summary().clone()
    }

    #[test]
    fn linear_growth_is_recovered() {
        // 60-day window where the daily count grows linearly ~1.5%/month.
        let window = ObservationWindow::new(60, 14, Calendar::PAPER);
        let mut regs: Vec<(u64, Vec<u64>)> = Vec::new();
        // 200 base users present every day.
        for u in 0..200u64 {
            regs.push((u, (0..60).collect()));
        }
        // 6 extra users arriving every 10 days (≈ +0.3%/day... small & steady).
        for k in 0..6u64 {
            let arrive = k * 10;
            regs.push((1000 + k, (arrive..60).collect()));
        }
        let reg_refs: Vec<(u64, &[u64])> = regs.iter().map(|(u, d)| (*u, d.as_slice())).collect();
        let trend = AdoptionTrend::compute(&summary_from(&reg_refs), &window);
        assert!(trend.monthly_growth_rate > 0.0);
        assert!(trend.total_growth > 0.0);
        // Normalized series ends at 1.0.
        let (_, last) = *trend.daily_normalized.last().unwrap();
        assert!((last - 1.0).abs() < 1e-9);
        assert_eq!(trend.daily_normalized.len(), 60);
    }

    #[test]
    fn flat_series_has_zero_growth() {
        let window = ObservationWindow::new(30, 7, Calendar::PAPER);
        let regs: Vec<(u64, Vec<u64>)> = (0..50u64).map(|u| (u, (0..30).collect())).collect();
        let reg_refs: Vec<(u64, &[u64])> = regs.iter().map(|(u, d)| (*u, d.as_slice())).collect();
        let trend = AdoptionTrend::compute(&summary_from(&reg_refs), &window);
        assert!(trend.monthly_growth_rate.abs() < 1e-9);
        assert!(trend.total_growth.abs() < 1e-9);
    }

    #[test]
    fn cohort_categories_sum_to_one() {
        let window = ObservationWindow::new(60, 14, Calendar::PAPER);
        // User 1: first week, still active at the end.
        // User 2: first week, churns on day 10 (gone).
        // User 3: first week, intermittent (registers day 40, not last week).
        // User 4: arrives late (not in cohort).
        let summary = summary_from(&[
            (1, &(0..60).collect::<Vec<_>>()),
            (2, &[0, 5, 9]),
            (3, &[2, 40]),
            (4, &[50, 59]),
        ]);
        let r = CohortRetention::compute(&summary, &window);
        assert_eq!(r.first_week_users, 3);
        assert!((r.active_fraction - 1.0 / 3.0).abs() < 1e-9);
        assert!((r.gone_fraction - 1.0 / 3.0).abs() < 1e-9);
        assert!((r.intermittent_fraction - 1.0 / 3.0).abs() < 1e-9);
        let sum = r.active_fraction + r.gone_fraction + r.intermittent_fraction;
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_cohort_is_zeroes() {
        let window = ObservationWindow::new(30, 7, Calendar::PAPER);
        let r = CohortRetention::compute(&MmeSummary::default(), &window);
        assert_eq!(r.first_week_users, 0);
        assert_eq!(r.active_fraction, 0.0);
    }

    #[test]
    fn retention_curves_survival() {
        let window = ObservationWindow::new(28, 7, Calendar::PAPER);
        // User 1: adopts week 0, present every week.
        // User 2: adopts week 0, gone from week 2 on.
        // User 3: adopts week 1, present through week 3.
        let summary = summary_from(&[(1, &[0, 7, 14, 21]), (2, &[1, 8]), (3, &[7, 14, 21])]);
        let r = RetentionCurves::compute(&summary, &window);
        assert_eq!(r.cohort_sizes, vec![2, 1, 0, 0]);
        // Week-0 cohort: k=0 → 1.0; k=1 → 1.0 (both present wk1);
        // k=2 → 0.5; k=3 → 0.5.
        assert_eq!(r.curves[0], vec![1.0, 1.0, 0.5, 0.5]);
        // Week-1 cohort survives fully for its 3 observable weeks.
        assert_eq!(r.curves[1], vec![1.0, 1.0, 1.0]);
        // Pooled at k=0 is 1.0 by construction; k=2 pools 0.5·2 and 1.0·1.
        assert!((r.pooled[0] - 1.0).abs() < 1e-9);
        assert!((r.pooled[2] - 2.0 / 3.0).abs() < 1e-9);
        // Survival curves never exceed 1.
        for c in &r.curves {
            assert!(c.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn retention_empty_summary() {
        let window = ObservationWindow::new(14, 7, Calendar::PAPER);
        let r = RetentionCurves::compute(&MmeSummary::default(), &window);
        assert_eq!(r.cohort_sizes, vec![0, 0]);
        assert!(r.pooled.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn data_active_share_intersects_vantage_points() {
        use wearscope_mobilenet::TransparentProxy;
        use wearscope_trace::Scheme;
        let window = ObservationWindow::new(30, 7, Calendar::PAPER);
        let summary = summary_from(&[(1, &[0, 1]), (2, &[0]), (3, &[5])]);
        let mut proxy = TransparentProxy::new();
        // User 1 transacts; user 9 transacts but was never registered
        // (unknown subscriber — excluded by the join).
        proxy.observe(
            SimTime::from_days(1),
            UserId(1),
            1,
            "h",
            Scheme::Https,
            10,
            1,
            true,
            true,
        );
        proxy.observe(
            SimTime::from_days(2),
            UserId(9),
            1,
            "h",
            Scheme::Https,
            10,
            1,
            true,
            true,
        );
        let share = DataActiveShare::compute(&summary, proxy.wearable_summary(), &window);
        assert_eq!(share.registered, 3);
        assert_eq!(share.data_active, 1);
        assert!((share.share - 1.0 / 3.0).abs() < 1e-9);
    }
}
