//! User activity analysis (Sec. 4.2–4.3, Fig. 3).

use wearscope_trace::UserId;

use crate::context::StudyContext;
use crate::hash::{HashMap, HashSet};
use crate::merge::CoreAggregates;
use crate::stats::{self, Ecdf};

/// Per-user activity aggregate over the detailed window, the shared
/// substrate of all Fig. 3 metrics. Built in one pass over the wearable
/// proxy log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UserActivity {
    /// Distinct active days.
    pub days: HashSet<u64>,
    /// Distinct active absolute hours.
    pub hours: HashSet<u64>,
    /// Total transactions.
    pub transactions: u64,
    /// Total bytes (up + down).
    pub bytes: u64,
}

impl UserActivity {
    /// Active hours per active day.
    pub fn hours_per_active_day(&self) -> f64 {
        if self.days.is_empty() {
            0.0
        } else {
            self.hours.len() as f64 / self.days.len() as f64
        }
    }

    /// Transactions per active hour.
    pub fn tx_per_active_hour(&self) -> f64 {
        if self.hours.is_empty() {
            0.0
        } else {
            self.transactions as f64 / self.hours.len() as f64
        }
    }

    /// Bytes per active hour.
    pub fn bytes_per_active_hour(&self) -> f64 {
        if self.hours.is_empty() {
            0.0
        } else {
            self.bytes as f64 / self.hours.len() as f64
        }
    }
}

/// Folds the wearable proxy log into per-user activity aggregates.
pub fn user_activity(ctx: &StudyContext<'_>) -> HashMap<UserId, UserActivity> {
    CoreAggregates::sequential(ctx).activity
}

/// One hour-of-day slot of the Fig. 3(a) profile.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HourStats {
    /// Share of the average week's distinct active users seen this hour.
    pub active_users: f64,
    /// Share of the average week's transactions in this hour.
    pub transactions: f64,
    /// Share of the average week's bytes in this hour.
    pub bytes: f64,
}

/// Fig. 3(a): hourly usage profiles, split weekday vs weekend. Each metric
/// is normalized so that `5·Σweekday + 2·Σweekend = 1` — i.e. shares of the
/// average week's total, matching the paper's normalization.
#[derive(Clone, Debug, PartialEq)]
pub struct HourlyProfile {
    /// Average weekday profile.
    pub weekday: [HourStats; 24],
    /// Average weekend profile.
    pub weekend: [HourStats; 24],
}

impl HourlyProfile {
    /// The finish step: turns raw slot accumulators (distinct active
    /// user-days plus exact counters per (day type, hour) slot) into the
    /// normalized weekly profile.
    pub(crate) fn from_slots(
        ctx: &StudyContext<'_>,
        users: &[u64; 48],
        tx: &[u64; 48],
        bytes: &[u64; 48],
    ) -> HourlyProfile {
        let mut weekday_days: HashSet<u64> = HashSet::default();
        let mut weekend_days: HashSet<u64> = HashSet::default();
        let cal = ctx.window.calendar();
        for d in ctx.window.detailed().days() {
            if cal.day_is_weekend(d) {
                weekend_days.insert(d);
            } else {
                weekday_days.insert(d);
            }
        }

        let n_wd = weekday_days.len().max(1) as f64;
        let n_we = weekend_days.len().max(1) as f64;
        // Per-day averages for each slot.
        let avg = |raw: f64, weekend: bool| raw / if weekend { n_we } else { n_wd };
        let mut u_avg = [0.0; 48];
        let mut t_avg = [0.0; 48];
        let mut b_avg = [0.0; 48];
        for s in 0..48 {
            let weekend = s >= 24;
            u_avg[s] = avg(users[s] as f64, weekend);
            t_avg[s] = avg(tx[s] as f64, weekend);
            b_avg[s] = avg(bytes[s] as f64, weekend);
        }
        // Weekly totals: 5 weekdays + 2 weekend days.
        let weekly = |xs: &[f64; 48]| -> f64 {
            5.0 * xs[..24].iter().sum::<f64>() + 2.0 * xs[24..].iter().sum::<f64>()
        };
        let (uw, tw, bw) = (
            weekly(&u_avg).max(1e-12),
            weekly(&t_avg).max(1e-12),
            weekly(&b_avg).max(1e-12),
        );

        let mut weekday = [HourStats::default(); 24];
        let mut weekend = [HourStats::default(); 24];
        for h in 0..24 {
            weekday[h] = HourStats {
                active_users: u_avg[h] / uw,
                transactions: t_avg[h] / tw,
                bytes: b_avg[h] / bw,
            };
            weekend[h] = HourStats {
                active_users: u_avg[h + 24] / uw,
                transactions: t_avg[h + 24] / tw,
                bytes: b_avg[h + 24] / bw,
            };
        }
        HourlyProfile { weekday, weekend }
    }
}

/// Fig. 3(b): distributions of active days per week and active hours per day.
#[derive(Clone, Debug)]
pub struct ActivitySpans {
    /// Per-user active days per week.
    pub days_per_week: Ecdf,
    /// Per-user active hours per active day.
    pub hours_per_day: Ecdf,
    /// Mean of `days_per_week` (paper: ≈ 1).
    pub mean_days_per_week: f64,
    /// Mean of `hours_per_day` (paper: ≈ 3).
    pub mean_hours_per_day: f64,
    /// Fraction of users active more than 10 h per day (paper: 7 %).
    pub frac_over_10h: f64,
    /// Fraction of users active less than 5 h per day (paper: 80 %).
    pub frac_under_5h: f64,
}

impl ActivitySpans {
    /// Computes the spans from per-user aggregates.
    pub fn compute(
        ctx: &StudyContext<'_>,
        activity: &HashMap<UserId, UserActivity>,
    ) -> ActivitySpans {
        let weeks = ctx.detail_weeks();
        let days_per_week = Ecdf::from_samples(
            activity
                .values()
                .map(|a| a.days.len() as f64 / weeks)
                .collect(),
        );
        let hours_per_day = Ecdf::from_samples(
            activity
                .values()
                .map(UserActivity::hours_per_active_day)
                .collect(),
        );
        ActivitySpans {
            mean_days_per_week: days_per_week.mean(),
            mean_hours_per_day: hours_per_day.mean(),
            frac_over_10h: 1.0 - hours_per_day.fraction_at_or_below(10.0),
            frac_under_5h: hours_per_day.fraction_below(5.0),
            days_per_week,
            hours_per_day,
        }
    }
}

/// Fig. 3(c): transaction sizes and hourly per-user volume.
#[derive(Clone, Debug, PartialEq)]
pub struct TransactionStats {
    /// Bytes per transaction.
    pub size: Ecdf,
    /// Median transaction size in bytes (paper: ≈ 3 KB).
    pub median_bytes: f64,
    /// Fraction of transactions under 10 KB (paper: 80 %).
    pub frac_under_10kb: f64,
    /// Per-user transactions per active hour.
    pub hourly_tx_per_user: Ecdf,
    /// Per-user bytes per active hour.
    pub hourly_bytes_per_user: Ecdf,
}

impl TransactionStats {
    /// The finish step: builds the distributions from raw transaction sizes
    /// (any order — [`Ecdf`] sorts) and per-user aggregates. Shared with the
    /// merged partial.
    pub(crate) fn from_parts(
        sizes: Vec<f64>,
        activity: &HashMap<UserId, UserActivity>,
    ) -> TransactionStats {
        let size = Ecdf::from_samples(sizes);
        TransactionStats {
            median_bytes: size.median(),
            frac_under_10kb: size.fraction_below(10_240.0),
            hourly_tx_per_user: Ecdf::from_samples(
                activity
                    .values()
                    .map(UserActivity::tx_per_active_hour)
                    .collect(),
            ),
            hourly_bytes_per_user: Ecdf::from_samples(
                activity
                    .values()
                    .map(UserActivity::bytes_per_active_hour)
                    .collect(),
            ),
            size,
        }
    }
}

/// Fig. 3(d): correlation between daily activity span and hourly
/// transaction rate.
#[derive(Clone, Debug)]
pub struct ActivityCorrelation {
    /// `(active hours per day, transactions per active hour)` per user.
    pub points: Vec<(f64, f64)>,
    /// Pearson correlation (the paper reports a clear positive correlation).
    pub pearson: f64,
    /// Spearman rank correlation.
    pub spearman: f64,
}

impl ActivityCorrelation {
    /// Computes the correlation from per-user aggregates.
    pub fn compute(activity: &HashMap<UserId, UserActivity>) -> ActivityCorrelation {
        // Sorted by user id so the float reductions are run-to-run stable.
        let mut entries: Vec<(&UserId, &UserActivity)> = activity.iter().collect();
        entries.sort_by_key(|(u, _)| **u);
        let points: Vec<(f64, f64)> = entries
            .iter()
            .filter(|(_, a)| !a.hours.is_empty())
            .map(|(_, a)| (a.hours_per_active_day(), a.tx_per_active_hour()))
            .collect();
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        ActivityCorrelation {
            pearson: stats::pearson(&xs, &ys),
            spearman: stats::spearman(&xs, &ys),
            points,
        }
    }
}

/// Sec. 4.2: the share of weekly-active users active on an average day
/// (paper: ≈ 35 %).
pub fn daily_active_share(ctx: &StudyContext<'_>) -> f64 {
    daily_active_share_of(&user_activity(ctx))
}

/// [`daily_active_share`] from per-user aggregates.
pub(crate) fn daily_active_share_of(activity: &HashMap<UserId, UserActivity>) -> f64 {
    let (by_day, by_week) = active_users_by_day_and_week(activity);
    let mut weeks: Vec<(u64, usize)> = by_week.into_iter().collect();
    weeks.sort_unstable();
    let mut shares = Vec::new();
    for (week, weekly_users) in weeks {
        for day in (week * 7)..(week * 7 + 7) {
            if let Some(&daily) = by_day.get(&day) {
                shares.push(daily as f64 / weekly_users as f64);
            }
        }
    }
    if shares.is_empty() {
        0.0
    } else {
        shares.iter().sum::<f64>() / shares.len() as f64
    }
}

/// Distinct active users per day and per week (`day / 7`), counted from
/// each user's active days.
pub(crate) fn active_users_by_day_and_week(
    activity: &HashMap<UserId, UserActivity>,
) -> (HashMap<u64, usize>, HashMap<u64, usize>) {
    let mut by_day: HashMap<u64, usize> = HashMap::default();
    let mut by_week: HashMap<u64, usize> = HashMap::default();
    let mut weeks: Vec<u64> = Vec::new();
    for a in activity.values() {
        weeks.clear();
        for &day in &a.days {
            *by_day.entry(day).or_default() += 1;
            weeks.push(day / 7);
        }
        weeks.sort_unstable();
        weeks.dedup();
        for &week in &weeks {
            *by_week.entry(week).or_default() += 1;
        }
    }
    (by_day, by_week)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::DeviceDb;
    use wearscope_geo::SectorDirectory;
    use wearscope_simtime::{ObservationWindow, SimDuration, SimTime};
    use wearscope_trace::{HostId, ProxyRecord, Scheme, TraceStore};

    struct Fixture {
        store: TraceStore,
        db: DeviceDb,
        sectors: SectorDirectory,
        catalog: AppCatalog,
        window: ObservationWindow,
    }

    /// Detailed window = the full 14 days of a compact-ish setup.
    fn fixture(records: Vec<ProxyRecord>) -> Fixture {
        Fixture {
            store: TraceStore::from_records(records, vec![]),
            db: DeviceDb::standard(),
            sectors: SectorDirectory::new(),
            catalog: AppCatalog::standard(),
            window: ObservationWindow::new(14, 14, wearscope_simtime::Calendar::PAPER),
        }
    }

    fn wtx(db: &DeviceDb, user: u64, t: SimTime, bytes: u64) -> ProxyRecord {
        ProxyRecord {
            timestamp: t,
            user: UserId(user),
            imei: db.example_imei(db.wearable_tacs()[0], user as u32).as_u64(),
            host: HostId::intern("api.weather.com"),
            scheme: Scheme::Https,
            bytes_down: bytes,
            bytes_up: 0,
        }
    }

    #[test]
    fn user_activity_aggregates() {
        let db = DeviceDb::standard();
        let recs = vec![
            wtx(&db, 1, SimTime::from_hours(10), 1000),
            wtx(
                &db,
                1,
                SimTime::from_hours(10) + SimDuration::from_minutes(5),
                2000,
            ),
            wtx(&db, 1, SimTime::from_hours(30), 3000), // day 1
        ];
        let f = fixture(recs);
        let ctx = StudyContext::new(&f.store, &f.db, &f.sectors, &f.catalog, f.window);
        let act = user_activity(&ctx);
        let a = &act[&UserId(1)];
        assert_eq!(a.days.len(), 2);
        assert_eq!(a.hours.len(), 2);
        assert_eq!(a.transactions, 3);
        assert_eq!(a.bytes, 6000);
        assert_eq!(a.hours_per_active_day(), 1.0);
        assert_eq!(a.tx_per_active_hour(), 1.5);
    }

    #[test]
    fn hourly_profile_normalizes_to_one_week() {
        let db = DeviceDb::standard();
        // Day 0 is a Friday (weekday), day 1 Saturday (weekend).
        let recs = vec![
            wtx(&db, 1, SimTime::from_hours(9), 1000),       // Fri 09
            wtx(&db, 2, SimTime::from_hours(18), 1000),      // Fri 18
            wtx(&db, 1, SimTime::from_hours(24 + 12), 1000), // Sat 12
        ];
        let f = fixture(recs);
        let ctx = StudyContext::new(&f.store, &f.db, &f.sectors, &f.catalog, f.window);
        let p = CoreAggregates::sequential(&ctx).hourly;
        let weekday: f64 = p.weekday.iter().map(|h| h.active_users).sum();
        let weekend: f64 = p.weekend.iter().map(|h| h.active_users).sum();
        assert!((5.0 * weekday + 2.0 * weekend - 1.0).abs() < 1e-9);
        // Weekday 9h saw one user on one of the 10 weekdays.
        assert!(p.weekday[9].active_users > 0.0);
        assert_eq!(p.weekday[10].active_users, 0.0);
        assert!(p.weekend[12].transactions > 0.0);
    }

    #[test]
    fn spans_means_and_fractions() {
        let db = DeviceDb::standard();
        let mut recs = Vec::new();
        // User 1: active 2 days (2 weeks window → 1 day/week), 2 h/day.
        for day in [0u64, 7] {
            for h in [9u64, 15] {
                recs.push(wtx(&db, 1, SimTime::from_hours(day * 24 + h), 1000));
            }
        }
        // User 2: one marathon 12-hour day.
        for h in 6..18 {
            recs.push(wtx(&db, 2, SimTime::from_hours(h), 500));
        }
        let f = fixture(recs);
        let ctx = StudyContext::new(&f.store, &f.db, &f.sectors, &f.catalog, f.window);
        let act = user_activity(&ctx);
        let spans = ActivitySpans::compute(&ctx, &act);
        assert!((spans.mean_days_per_week - (1.0 + 0.5) / 2.0).abs() < 1e-9);
        assert!((spans.mean_hours_per_day - (2.0 + 12.0) / 2.0).abs() < 1e-9);
        assert!((spans.frac_over_10h - 0.5).abs() < 1e-9);
        assert!((spans.frac_under_5h - 0.5).abs() < 1e-9);
    }

    #[test]
    fn transaction_stats_median_and_small_sizes() {
        let db = DeviceDb::standard();
        let sizes = [1000u64, 2000, 3000, 4000, 50_000];
        let recs: Vec<ProxyRecord> = sizes
            .iter()
            .enumerate()
            .map(|(i, &b)| wtx(&db, 1, SimTime::from_hours(i as u64), b))
            .collect();
        let f = fixture(recs);
        let ctx = StudyContext::new(&f.store, &f.db, &f.sectors, &f.catalog, f.window);
        let stats = CoreAggregates::sequential(&ctx).tx_stats;
        assert_eq!(stats.median_bytes, 3000.0);
        assert!((stats.frac_under_10kb - 0.8).abs() < 1e-9);
        assert_eq!(stats.hourly_tx_per_user.mean(), 1.0);
    }

    #[test]
    fn correlation_positive_when_constructed() {
        let db = DeviceDb::standard();
        let mut recs = Vec::new();
        // Users 1..5: user k is active k hours on day 0 with k tx each hour.
        for k in 1..=5u64 {
            for h in 0..k {
                for i in 0..k {
                    recs.push(wtx(
                        &db,
                        k,
                        SimTime::from_hours(h) + SimDuration::from_minutes(i),
                        1000,
                    ));
                }
            }
        }
        let f = fixture(recs);
        let ctx = StudyContext::new(&f.store, &f.db, &f.sectors, &f.catalog, f.window);
        let act = user_activity(&ctx);
        let corr = ActivityCorrelation::compute(&act);
        assert!(corr.pearson > 0.95, "pearson {}", corr.pearson);
        assert!(corr.spearman > 0.95);
        assert_eq!(corr.points.len(), 5);
    }

    #[test]
    fn daily_share_counts_within_weeks() {
        let db = DeviceDb::standard();
        // Two users active in week 0; user 1 active 7 days, user 2 one day.
        let mut recs = Vec::new();
        for d in 0..7u64 {
            recs.push(wtx(&db, 1, SimTime::from_hours(d * 24 + 10), 100));
        }
        recs.push(wtx(&db, 2, SimTime::from_hours(3 * 24 + 11), 100));
        let f = fixture(recs);
        let ctx = StudyContext::new(&f.store, &f.db, &f.sectors, &f.catalog, f.window);
        let share = daily_active_share(&ctx);
        // 6 days with 1/2 users active, 1 day with 2/2.
        let want = (6.0 * 0.5 + 1.0) / 7.0;
        assert!((share - want).abs() < 1e-9, "share {share}");
    }

    #[test]
    fn empty_logs_are_all_zero() {
        let f = fixture(vec![]);
        let ctx = StudyContext::new(&f.store, &f.db, &f.sectors, &f.catalog, f.window);
        let act = user_activity(&ctx);
        assert!(act.is_empty());
        let spans = ActivitySpans::compute(&ctx, &act);
        assert_eq!(spans.mean_days_per_week, 0.0);
        assert_eq!(daily_active_share(&ctx), 0.0);
        let corr = ActivityCorrelation::compute(&act);
        assert_eq!(corr.pearson, 0.0);
    }
}
