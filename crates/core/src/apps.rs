//! Application popularity and category analysis (Sec. 5.1, Figs. 5 and 6).

use wearscope_appdb::{AppCategory, AppId};
use wearscope_trace::UserId;

use crate::context::StudyContext;
use crate::hash::{HashMap, HashSet};
use crate::sessions::{AttributedTx, Session};
use crate::stats::{self, Ecdf};

/// Fig. 5(a): per-app popularity.
#[derive(Clone, Debug, PartialEq)]
pub struct AppPopularity {
    /// Per app: average share of the day's distinct app-users associated
    /// with this app ("Average Daily-Associated-Users among All-Daily-Users",
    /// as a fraction of the daily total over all apps).
    pub daily_associated_users: HashMap<AppId, f64>,
    /// Per app: average app-used days per associated user, as a fraction of
    /// the daily total over all apps.
    pub app_used_days_per_user: HashMap<AppId, f64>,
    /// Apps ranked by `daily_associated_users`, most popular first.
    pub rank: Vec<AppId>,
}

impl AppPopularity {
    /// Computes Fig. 5(a) from attributed transactions.
    pub fn compute(attributed: &[AttributedTx]) -> AppPopularity {
        // (app, day) → users; (app, user) → days used.
        let mut day_users: HashMap<(AppId, u64), HashSet<UserId>> = HashMap::default();
        let mut user_days: HashMap<(AppId, UserId), HashSet<u64>> = HashMap::default();
        let mut apps: HashSet<AppId> = HashSet::default();
        for tx in attributed {
            let Some(app) = tx.app else { continue };
            apps.insert(app);
            let day = tx.timestamp.day_index();
            day_users.entry((app, day)).or_default().insert(tx.user);
            user_days.entry((app, tx.user)).or_default().insert(day);
        }
        // Every float reduction below goes through [`stats::stable_sum`] or
        // an exact integer-valued sum, so the map iteration order cannot
        // leak into the results. Average daily associated users per app:
        let mut assoc: HashMap<AppId, f64> = HashMap::default();
        for ((app, _day), users) in &day_users {
            *assoc.entry(*app).or_default() += users.len() as f64;
        }
        // Normalize: each app's average daily users over the sum across apps.
        let total_days = day_users
            .keys()
            .map(|(_, d)| *d)
            .collect::<HashSet<_>>()
            .len()
            .max(1) as f64;
        for v in assoc.values_mut() {
            *v /= total_days;
        }
        let total_assoc: f64 = stats::stable_sum(assoc.values().copied()).max(1e-12);
        for v in assoc.values_mut() {
            *v /= total_assoc;
        }

        // Average used-days per associated user, normalized across apps.
        let mut used_days: HashMap<AppId, f64> = HashMap::default();
        let mut users_per_app: HashMap<AppId, usize> = HashMap::default();
        for ((app, _user), days) in &user_days {
            *used_days.entry(*app).or_default() += days.len() as f64;
            *users_per_app.entry(*app).or_default() += 1;
        }
        for (app, v) in used_days.iter_mut() {
            *v /= users_per_app[app].max(1) as f64;
        }
        let total_used: f64 = stats::stable_sum(used_days.values().copied()).max(1e-12);
        for v in used_days.values_mut() {
            *v /= total_used;
        }

        let mut rank: Vec<AppId> = apps.into_iter().collect();
        rank.sort_by(|a, b| {
            assoc
                .get(b)
                .unwrap_or(&0.0)
                .partial_cmp(assoc.get(a).unwrap_or(&0.0))
                .unwrap()
                .then(a.0.cmp(&b.0))
        });
        AppPopularity {
            daily_associated_users: assoc,
            app_used_days_per_user: used_days,
            rank,
        }
    }
}

/// Fig. 5(b): per-app usage frequency, transactions, and data, each as a
/// share of the daily total over all apps.
#[derive(Clone, Debug)]
pub struct AppUsage {
    /// Per app: share of daily usage sessions.
    pub frequency: HashMap<AppId, f64>,
    /// Per app: share of daily transactions.
    pub transactions: HashMap<AppId, f64>,
    /// Per app: share of daily bytes.
    pub data: HashMap<AppId, f64>,
}

impl AppUsage {
    /// Computes Fig. 5(b) from sessions.
    pub fn compute(sessions: &[Session]) -> AppUsage {
        let mut freq: HashMap<AppId, f64> = HashMap::default();
        let mut tx: HashMap<AppId, f64> = HashMap::default();
        let mut data: HashMap<AppId, f64> = HashMap::default();
        for s in sessions {
            *freq.entry(s.app).or_default() += 1.0;
            *tx.entry(s.app).or_default() += s.transactions as f64;
            *data.entry(s.app).or_default() += s.bytes as f64;
        }
        for m in [&mut freq, &mut tx, &mut data] {
            let total: f64 = stats::stable_sum(m.values().copied()).max(1e-12);
            for v in m.values_mut() {
                *v /= total;
            }
        }
        AppUsage {
            frequency: freq,
            transactions: tx,
            data,
        }
    }
}

/// Fig. 6(a–d): category-level shares of users, usage frequency,
/// transactions, and data.
#[derive(Clone, Debug)]
pub struct CategoryPopularity {
    /// Per category: share of daily associated users.
    pub users: HashMap<AppCategory, f64>,
    /// Per category: share of usage sessions.
    pub frequency: HashMap<AppCategory, f64>,
    /// Per category: share of transactions.
    pub transactions: HashMap<AppCategory, f64>,
    /// Per category: share of bytes.
    pub data: HashMap<AppCategory, f64>,
}

impl CategoryPopularity {
    /// Rolls app-level metrics up to Google Play categories.
    pub fn compute(
        ctx: &StudyContext<'_>,
        popularity: &AppPopularity,
        usage: &AppUsage,
    ) -> CategoryPopularity {
        let rollup = |per_app: &HashMap<AppId, f64>| -> HashMap<AppCategory, f64> {
            // Summed in app-id order so the float totals are run-to-run stable.
            let mut entries: Vec<(&AppId, &f64)> = per_app.iter().collect();
            entries.sort_by_key(|(app, _)| **app);
            let mut out: HashMap<AppCategory, f64> = HashMap::default();
            for (app, v) in entries {
                if let Some(profile) = ctx.catalog.get(*app) {
                    *out.entry(profile.category).or_default() += v;
                }
            }
            out
        };
        CategoryPopularity {
            users: rollup(&popularity.daily_associated_users),
            frequency: rollup(&usage.frequency),
            transactions: rollup(&usage.transactions),
            data: rollup(&usage.data),
        }
    }

    /// Categories ranked by one metric, descending.
    pub fn ranked(metric: &HashMap<AppCategory, f64>) -> Vec<(AppCategory, f64)> {
        let mut v: Vec<(AppCategory, f64)> = metric.iter().map(|(c, x)| (*c, *x)).collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        v
    }
}

/// Sec. 4.3's app-install statistics, derived from the logs: the distinct
/// cellular-active apps observed per user stand in for "apps requiring
/// Internet access" (paper: mean 8, 90 % < 20, and 93 % of user-days run a
/// single app).
#[derive(Clone, Debug)]
pub struct InstallStats {
    /// Distinct apps observed per user.
    pub apps_per_user: Ecdf,
    /// Mean apps per user (paper: 8).
    pub mean_apps_per_user: f64,
    /// Fraction of users with fewer than 20 apps (paper: 90 %).
    pub frac_under_20: f64,
    /// Fraction of user-days using exactly one app (paper: 93 %).
    pub single_app_day_share: f64,
}

impl InstallStats {
    /// Computes install statistics from attributed transactions.
    pub fn compute(attributed: &[AttributedTx]) -> InstallStats {
        let mut per_user: HashMap<UserId, HashSet<AppId>> = HashMap::default();
        let mut per_user_day: HashMap<(UserId, u64), HashSet<AppId>> = HashMap::default();
        for tx in attributed {
            let Some(app) = tx.app else { continue };
            per_user.entry(tx.user).or_default().insert(app);
            per_user_day
                .entry((tx.user, tx.timestamp.day_index()))
                .or_default()
                .insert(app);
        }
        let apps_per_user = Ecdf::from_samples(per_user.values().map(|s| s.len() as f64).collect());
        let single_days = per_user_day.values().filter(|s| s.len() == 1).count();
        InstallStats {
            mean_apps_per_user: apps_per_user.mean(),
            frac_under_20: apps_per_user.fraction_below(20.0),
            single_app_day_share: if per_user_day.is_empty() {
                0.0
            } else {
                single_days as f64 / per_user_day.len() as f64
            },
            apps_per_user,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_simtime::SimTime;

    fn tx(user: u64, app: Option<u16>, day: u64, sec: u64, bytes: u64) -> AttributedTx {
        AttributedTx {
            user: UserId(user),
            timestamp: SimTime::from_days(day) + wearscope_simtime::SimDuration::from_secs(sec),
            app: app.map(AppId),
            class: app.map(|a| wearscope_appdb::Classification::FirstParty(AppId(a))),
            bytes,
        }
    }

    #[test]
    fn popularity_shares_sum_to_one() {
        let txs = vec![
            tx(1, Some(0), 0, 10, 100),
            tx(2, Some(0), 0, 20, 100),
            tx(1, Some(1), 0, 30, 100),
            tx(1, Some(0), 1, 10, 100),
            tx(3, None, 0, 40, 100), // unattributed — ignored
        ];
        let pop = AppPopularity::compute(&txs);
        let sum: f64 = pop.daily_associated_users.values().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let sum: f64 = pop.app_used_days_per_user.values().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // App 0 (3 user-days) outranks app 1 (1 user-day).
        assert_eq!(pop.rank[0], AppId(0));
        assert!(pop.daily_associated_users[&AppId(0)] > pop.daily_associated_users[&AppId(1)]);
    }

    #[test]
    fn usage_shares_from_sessions() {
        let sessions = vec![
            Session {
                user: UserId(1),
                app: AppId(0),
                start: SimTime::from_secs(0),
                end: SimTime::from_secs(10),
                transactions: 4,
                bytes: 4000,
            },
            Session {
                user: UserId(1),
                app: AppId(1),
                start: SimTime::from_secs(100),
                end: SimTime::from_secs(100),
                transactions: 1,
                bytes: 6000,
            },
        ];
        let usage = AppUsage::compute(&sessions);
        assert!((usage.frequency[&AppId(0)] - 0.5).abs() < 1e-9);
        assert!((usage.transactions[&AppId(0)] - 0.8).abs() < 1e-9);
        assert!((usage.data[&AppId(1)] - 0.6).abs() < 1e-9);
    }

    #[test]
    fn install_stats_counts() {
        let txs = vec![
            // User 1: 2 apps, day 0 uses both (multi-app day), day 1 one app.
            tx(1, Some(0), 0, 10, 100),
            tx(1, Some(1), 0, 20, 100),
            tx(1, Some(0), 1, 10, 100),
            // User 2: 1 app, 1 day.
            tx(2, Some(3), 0, 10, 100),
        ];
        let stats = InstallStats::compute(&txs);
        assert_eq!(stats.mean_apps_per_user, 1.5);
        assert_eq!(stats.frac_under_20, 1.0);
        // 3 user-days, 2 single-app.
        assert!((stats.single_app_day_share - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        let pop = AppPopularity::compute(&[]);
        assert!(pop.rank.is_empty());
        let usage = AppUsage::compute(&[]);
        assert!(usage.frequency.is_empty());
        let stats = InstallStats::compute(&[]);
        assert_eq!(stats.mean_apps_per_user, 0.0);
        assert_eq!(stats.single_app_day_share, 0.0);
    }
}
