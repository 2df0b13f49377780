//! Weekly-pattern analysis (Sec. 4.2's second takeaway).
//!
//! The paper finds no strong day-of-week pattern in absolute wearable
//! activity, but observes that *relative to the overall ISP traffic*
//! wearable usage is slightly higher on weekends and evenings — attributed
//! to the demographics of early wearable adopters.

use wearscope_trace::UserId;

use crate::activity::{self, UserActivity};
use crate::context::StudyContext;
use crate::hash::HashMap;
use crate::merge::CoreAggregates;

/// Day-of-week activity profile plus the wearable-vs-overall relative usage.
#[derive(Clone, Debug, PartialEq)]
pub struct WeeklyPattern {
    /// Share of wearable transactions per weekday (Mon..Sun), sums to 1.
    pub wearable_tx_by_weekday: [f64; 7],
    /// Share of *all* (phone + wearable) transactions per weekday.
    pub total_tx_by_weekday: [f64; 7],
    /// Average share of week-active wearable users active per day
    /// (paper: ≈ 35 %, flat across days).
    pub daily_user_share: [f64; 7],
    /// `wearable weekend tx share / total weekend tx share` — above 1 means
    /// wearables are relatively more used on weekends (paper: slightly > 1).
    pub weekend_relative_usage: f64,
    /// Same ratio for evening hours (16:00–22:00).
    pub evening_relative_usage: f64,
}

impl WeeklyPattern {
    /// Computes the pattern over the detailed window.
    pub fn compute(ctx: &StudyContext<'_>) -> WeeklyPattern {
        CoreAggregates::sequential(ctx).weekly
    }

    /// The finish step: the pattern from the wearable and all-device
    /// transaction counts per (weekday, hour) slot (168 slots, Monday 0 h
    /// first) and the per-user activity.
    pub(crate) fn from_slots(
        ctx: &StudyContext<'_>,
        wearable_tx: &[u64; 168],
        all_tx: &[u64; 168],
        activity: &HashMap<UserId, UserActivity>,
    ) -> WeeklyPattern {
        let cal = ctx.window.calendar();
        let by_weekday = |slots: &[u64; 168]| -> [f64; 7] {
            std::array::from_fn(|wd| slots[wd * 24..wd * 24 + 24].iter().sum::<u64>() as f64)
        };
        let evening = |slots: &[u64; 168]| -> f64 {
            (0..7)
                .map(|wd| slots[wd * 24 + 16..wd * 24 + 22].iter().sum::<u64>())
                .sum::<u64>() as f64
        };
        let wearable_all = wearable_tx.iter().sum::<u64>() as f64;
        let total_all = all_tx.iter().sum::<u64>() as f64;

        let norm = |xs: [f64; 7]| -> [f64; 7] {
            let sum: f64 = xs.iter().sum::<f64>().max(1e-12);
            let mut out = [0.0; 7];
            for (o, x) in out.iter_mut().zip(xs) {
                *o = x / sum;
            }
            out
        };
        let wearable_share = norm(by_weekday(wearable_tx));
        let total_share = norm(by_weekday(all_tx));

        // Daily user share per weekday, averaged across the window's days.
        let (users_by_day, weekly_users) = activity::active_users_by_day_and_week(activity);
        let mut day_share_acc = [0.0_f64; 7];
        let mut day_share_n = [0usize; 7];
        let mut days: Vec<u64> = ctx.window.detailed().days().collect();
        days.sort_unstable();
        for day in days {
            let wd = cal.weekday_of_day(day).index() as usize;
            let week = day / 7;
            let weekly = weekly_users.get(&week).copied().unwrap_or(0);
            if weekly == 0 {
                continue;
            }
            let daily = users_by_day.get(&day).copied().unwrap_or(0);
            day_share_acc[wd] += daily as f64 / weekly as f64;
            day_share_n[wd] += 1;
        }
        let mut daily_user_share = [0.0; 7];
        for i in 0..7 {
            if day_share_n[i] > 0 {
                daily_user_share[i] = day_share_acc[i] / day_share_n[i] as f64;
            }
        }

        // Relative weekend usage: wearable weekend share over total weekend
        // share (Sat=5, Sun=6 in Monday-first indexing).
        let weekend_w = wearable_share[5] + wearable_share[6];
        let weekend_t = (total_share[5] + total_share[6]).max(1e-12);
        let evening_w = if wearable_all > 0.0 {
            evening(wearable_tx) / wearable_all
        } else {
            0.0
        };
        let evening_t = if total_all > 0.0 {
            evening(all_tx) / total_all
        } else {
            1e-12
        };

        WeeklyPattern {
            wearable_tx_by_weekday: wearable_share,
            total_tx_by_weekday: total_share,
            daily_user_share,
            weekend_relative_usage: weekend_w / weekend_t,
            evening_relative_usage: evening_w / evening_t.max(1e-12),
        }
    }

    /// Coefficient of variation of the wearable weekday shares — the paper
    /// reports activity "almost constant across days" (low CV).
    pub fn weekday_cv(&self) -> f64 {
        let mean = self.wearable_tx_by_weekday.iter().sum::<f64>() / 7.0;
        if mean <= 0.0 {
            return 0.0;
        }
        let var = self
            .wearable_tx_by_weekday
            .iter()
            .map(|x| (x - mean).powi(2))
            .sum::<f64>()
            / 7.0;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::{DeviceClass, DeviceDb};
    use wearscope_geo::SectorDirectory;
    use wearscope_simtime::{Calendar, ObservationWindow, SimTime};
    use wearscope_trace::{HostId, ProxyRecord, Scheme, TraceStore};

    fn rec(user: u64, imei: u64, day: u64, hour: u64) -> ProxyRecord {
        ProxyRecord {
            timestamp: SimTime::from_hours(day * 24 + hour),
            user: UserId(user),
            imei,
            host: HostId::intern("h"),
            scheme: Scheme::Https,
            bytes_down: 100,
            bytes_up: 0,
        }
    }

    #[test]
    fn weekend_relative_usage_detects_shift() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let w = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
        let p = db
            .example_imei(db.tacs_of_class(DeviceClass::Smartphone)[0], 2)
            .as_u64();
        // Window day0 = Friday; day1/day2 are the weekend.
        // Wearable: 2 weekday tx, 4 weekend tx. Phone: 8 weekday, 2 weekend.
        let mut records = Vec::new();
        records.push(rec(1, w, 0, 10));
        records.push(rec(1, w, 3, 10));
        for k in 0..4 {
            records.push(rec(1, w, 1 + (k % 2), 10 + k));
        }
        for k in 0..8 {
            records.push(rec(2, p, 3 + (k % 3), 9 + k % 5));
        }
        records.push(rec(2, p, 1, 12));
        records.push(rec(2, p, 2, 12));
        let store = TraceStore::from_records(records, vec![]);
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(7, 7, Calendar::PAPER),
        );
        let p = WeeklyPattern::compute(&ctx);
        // Wearable weekend share: 4/6; total weekend share: 6/16.
        assert!(
            p.weekend_relative_usage > 1.0,
            "{}",
            p.weekend_relative_usage
        );
        let sum: f64 = p.wearable_tx_by_weekday.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let sum: f64 = p.total_tx_by_weekday.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flat_activity_has_low_cv() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let w = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
        let mut records = Vec::new();
        for day in 0..7 {
            for k in 0..10 {
                records.push(rec(1, w, day, 8 + k % 12));
            }
        }
        let store = TraceStore::from_records(records, vec![]);
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(7, 7, Calendar::PAPER),
        );
        let p = WeeklyPattern::compute(&ctx);
        assert!(p.weekday_cv() < 0.01, "cv {}", p.weekday_cv());
        // Single user active every day → daily share 1.0 on all days.
        assert!(p.daily_user_share.iter().all(|&s| (s - 1.0).abs() < 1e-9));
    }

    #[test]
    fn empty_logs() {
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
        let p = WeeklyPattern::compute(&ctx);
        assert_eq!(p.weekday_cv(), 0.0);
        assert!(p.daily_user_share.iter().all(|&s| s == 0.0));
    }
}
