//! Sessionization (Sec. 5, Fig. 7).
//!
//! The paper's unit of app engagement is the *single usage*: a maximal run
//! of transactions where consecutive transactions are less than one minute
//! apart. Third-party transactions (CDN, ads, analytics) carry no app in
//! their SNI; following Sec. 3.3 they are attributed to the app with the
//! nearest first-party transaction of the same user within a ±60 s
//! timeframe.

use std::collections::HashMap;

use wearscope_appdb::{AppId, Classification};
use wearscope_simtime::SimTime;
use wearscope_trace::UserId;

use crate::context::StudyContext;
use crate::stats::Ecdf;

/// The sessionization gap: two consecutive transactions belong to the same
/// usage iff they are less than this many seconds apart.
pub const SESSION_GAP_SECS: u64 = 60;

/// One attributed wearable transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttributedTx {
    /// Subscriber.
    pub user: UserId,
    /// Transaction time.
    pub timestamp: SimTime,
    /// The app this transaction belongs to (`None` if unattributable).
    pub app: Option<AppId>,
    /// What the signatures say about the destination host (`None` when no
    /// signature matches).
    pub class: Option<Classification>,
    /// Total bytes.
    pub bytes: u64,
}

const _: () = assert!(std::mem::size_of::<AttributedTx>() == 32);

impl AttributedTx {
    /// `true` if the destination was the app's own (first-party) domain.
    pub fn first_party(&self) -> bool {
        matches!(self.class, Some(Classification::FirstParty(_)))
    }
}

/// One usage session of one app by one user.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Session {
    /// Subscriber.
    pub user: UserId,
    /// App used.
    pub app: AppId,
    /// First transaction time.
    pub start: SimTime,
    /// Last transaction time.
    pub end: SimTime,
    /// Transactions in the session (first- and third-party).
    pub transactions: u64,
    /// Bytes in the session.
    pub bytes: u64,
}

/// Classifies and attributes every wearable transaction.
///
/// Third-party transactions inherit the app of the *temporally nearest*
/// first-party transaction of the same user within ±[`SESSION_GAP_SECS`].
pub fn attribute_transactions(ctx: &StudyContext<'_>) -> Vec<AttributedTx> {
    attribute_records(ctx, ctx.store.proxy())
}

/// [`attribute_transactions`] over an explicit sequence of proxy records,
/// for records that live outside a store. Non-wearable records are
/// skipped, so passing the whole log is equivalent to
/// [`attribute_transactions`].
///
/// Attribution is user-local (anchors never cross users), so any sharding
/// that keeps each user's records together and in log order yields shard
/// outputs whose concatenation, re-sorted by `(user, timestamp)`, is
/// identical to the sequential result.
pub fn attribute_records<'r>(
    ctx: &StudyContext<'_>,
    records: impl IntoIterator<Item = &'r wearscope_trace::ProxyRecord>,
) -> Vec<AttributedTx> {
    // Group wearable records per user, keeping log order (time-sorted):
    // (timestamp, host classification, bytes).
    type RawTx = (SimTime, Option<Classification>, u64);
    let mut per_user: HashMap<UserId, Vec<RawTx>> = HashMap::new();
    for r in records {
        if !ctx.is_wearable_record(r) {
            continue;
        }
        let class = ctx.host_class(r.host).classification;
        per_user
            .entry(r.user)
            .or_default()
            .push((r.timestamp, class, r.bytes_total()));
    }

    let mut out = Vec::new();
    for (user, txs) in per_user {
        // First-party anchor times for nearest-neighbour attribution.
        let anchors: Vec<(SimTime, AppId)> = txs
            .iter()
            .filter_map(|&(t, class, _)| match class {
                Some(Classification::FirstParty(a)) => Some((t, a)),
                _ => None,
            })
            .collect();
        for (t, class, bytes) in txs {
            let app = match class {
                Some(Classification::FirstParty(a)) => Some(a),
                _ => nearest_anchor(&anchors, t),
            };
            out.push(AttributedTx {
                user,
                timestamp: t,
                app,
                class,
                bytes,
            });
        }
    }
    out.sort_by_key(|t| (t.user, t.timestamp));
    out
}

/// The app of the nearest anchor within ±`SESSION_GAP_SECS`, or `None`.
fn nearest_anchor(anchors: &[(SimTime, AppId)], t: SimTime) -> Option<AppId> {
    if anchors.is_empty() {
        return None;
    }
    let idx = anchors.partition_point(|&(a, _)| a <= t);
    let mut best: Option<(u64, AppId)> = None;
    for cand in [idx.checked_sub(1), Some(idx)].into_iter().flatten() {
        if let Some(&(at, app)) = anchors.get(cand) {
            let gap = if at <= t {
                (t - at).as_secs()
            } else {
                (at - t).as_secs()
            };
            if gap <= SESSION_GAP_SECS && best.is_none_or(|(bg, _)| gap < bg) {
                best = Some((gap, app));
            }
        }
    }
    best.map(|(_, a)| a)
}

/// Groups attributed transactions into usage sessions (per user & app, gap
/// threshold [`SESSION_GAP_SECS`]). Unattributed transactions are dropped.
pub fn sessionize(attributed: &[AttributedTx]) -> Vec<Session> {
    sessionize_with_gap(attributed, SESSION_GAP_SECS)
}

/// [`sessionize`] with an explicit gap threshold in seconds — used by the
/// gap-sensitivity ablation (the paper fixes 60 s; this quantifies how much
/// that choice matters).
pub fn sessionize_with_gap(attributed: &[AttributedTx], gap_secs: u64) -> Vec<Session> {
    // (user, app) → ordered transactions.
    let mut groups: HashMap<(UserId, AppId), Vec<(SimTime, u64)>> = HashMap::new();
    for tx in attributed {
        if let Some(app) = tx.app {
            groups
                .entry((tx.user, app))
                .or_default()
                .push((tx.timestamp, tx.bytes));
        }
    }
    let mut out = Vec::new();
    for ((user, app), mut txs) in groups {
        txs.sort_by_key(|&(t, _)| t);
        let mut current: Option<Session> = None;
        for (t, bytes) in txs {
            match current.as_mut() {
                Some(s) if (t - s.end).as_secs() < gap_secs => {
                    s.end = t;
                    s.transactions += 1;
                    s.bytes += bytes;
                }
                _ => {
                    if let Some(done) = current.take() {
                        out.push(done);
                    }
                    current = Some(Session {
                        user,
                        app,
                        start: t,
                        end: t,
                        transactions: 1,
                        bytes,
                    });
                }
            }
        }
        if let Some(done) = current {
            out.push(done);
        }
    }
    // The app in the key breaks (user, start) ties: two apps starting a
    // session at the same instant would otherwise land in hash order.
    out.sort_by_key(|s| (s.user, s.start, s.app));
    out
}

/// Fig. 7: per-app transactions and data moved during a single usage.
#[derive(Clone, Debug)]
pub struct PerUsage {
    /// Per app: (mean transactions per usage, mean bytes per usage,
    /// number of usages observed).
    pub by_app: HashMap<AppId, (f64, f64, usize)>,
}

impl PerUsage {
    /// Aggregates sessions per app.
    pub fn compute(sessions: &[Session]) -> PerUsage {
        let mut acc: HashMap<AppId, (u64, u64, usize)> = HashMap::new();
        for s in sessions {
            let e = acc.entry(s.app).or_default();
            e.0 += s.transactions;
            e.1 += s.bytes;
            e.2 += 1;
        }
        PerUsage {
            by_app: acc
                .into_iter()
                .map(|(app, (tx, bytes, n))| {
                    (app, (tx as f64 / n as f64, bytes as f64 / n as f64, n))
                })
                .collect(),
        }
    }

    /// ECDF of per-usage bytes across all apps (supporting the Fig. 7 span).
    pub fn usage_bytes_ecdf(sessions: &[Session]) -> Ecdf {
        Ecdf::from_samples(sessions.iter().map(|s| s.bytes as f64).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::DeviceDb;
    use wearscope_geo::SectorDirectory;
    use wearscope_simtime::{Calendar, ObservationWindow};
    use wearscope_trace::{HostId, ProxyRecord, Scheme, TraceStore};

    fn rec(db: &DeviceDb, user: u64, t: u64, host: &str, bytes: u64) -> ProxyRecord {
        ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei: db.example_imei(db.wearable_tacs()[0], user as u32).as_u64(),
            host: HostId::intern(host),
            scheme: Scheme::Https,
            bytes_down: bytes,
            bytes_up: 0,
        }
    }

    fn ctx_with<'a>(
        store: &'a TraceStore,
        db: &'a DeviceDb,
        sectors: &'a SectorDirectory,
        catalog: &'a AppCatalog,
    ) -> StudyContext<'a> {
        StudyContext::new(
            store,
            db,
            sectors,
            catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        )
    }

    #[test]
    fn first_party_attribution_direct() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let weather = catalog.by_name("Weather").unwrap().0;
        let store =
            TraceStore::from_records(vec![rec(&db, 1, 100, "api.weather.com", 1000)], vec![]);
        let sectors = SectorDirectory::new();
        let ctx = ctx_with(&store, &db, &sectors, &catalog);
        let attributed = attribute_transactions(&ctx);
        assert_eq!(attributed.len(), 1);
        assert_eq!(attributed[0].app, Some(weather));
        assert!(attributed[0].first_party());
    }

    #[test]
    fn third_party_inherits_nearest_anchor() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let weather = catalog.by_name("Weather").unwrap().0;
        let maps = catalog.by_name("Google-Maps").unwrap().0;
        let store = TraceStore::from_records(
            vec![
                rec(&db, 1, 100, "api.weather.com", 1000),
                rec(&db, 1, 110, "ssl.google-analytics.com", 200), // → Weather (gap 10)
                rec(&db, 1, 500, "maps.googleapis.com", 3000),
                rec(&db, 1, 540, "media.akamaized.net", 400), // → Google-Maps (gap 40)
                rec(&db, 1, 9000, "ads.doubleclick.net", 100), // no anchor within 60 s
            ],
            vec![],
        );
        let sectors = SectorDirectory::new();
        let ctx = ctx_with(&store, &db, &sectors, &catalog);
        let attributed = attribute_transactions(&ctx);
        let by_time: HashMap<u64, Option<AppId>> = attributed
            .iter()
            .map(|t| (t.timestamp.as_secs(), t.app))
            .collect();
        assert_eq!(by_time[&110], Some(weather));
        assert_eq!(by_time[&540], Some(maps));
        assert_eq!(by_time[&9000], None);
    }

    #[test]
    fn sessions_split_on_one_minute_gap() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let store = TraceStore::from_records(
            vec![
                rec(&db, 1, 0, "api.weather.com", 1000),
                rec(&db, 1, 30, "api.weather.com", 1000),
                rec(&db, 1, 89, "api.weather.com", 1000), // gap 59 → same session
                rec(&db, 1, 150, "api.weather.com", 1000), // gap 61 → new session
            ],
            vec![],
        );
        let sectors = SectorDirectory::new();
        let ctx = ctx_with(&store, &db, &sectors, &catalog);
        let sessions = sessionize(&attribute_transactions(&ctx));
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].transactions, 3);
        assert_eq!(sessions[0].bytes, 3000);
        assert_eq!(sessions[1].transactions, 1);
    }

    #[test]
    fn sessions_are_per_user_and_app() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let store = TraceStore::from_records(
            vec![
                rec(&db, 1, 0, "api.weather.com", 1000),
                rec(&db, 2, 10, "api.weather.com", 1000), // other user
                rec(&db, 1, 20, "maps.googleapis.com", 1000), // other app
            ],
            vec![],
        );
        let sectors = SectorDirectory::new();
        let ctx = ctx_with(&store, &db, &sectors, &catalog);
        let sessions = sessionize(&attribute_transactions(&ctx));
        assert_eq!(sessions.len(), 3);
    }

    #[test]
    fn per_usage_means() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let weather = catalog.by_name("Weather").unwrap().0;
        let store = TraceStore::from_records(
            vec![
                // Session 1: 2 tx, 3000 B. Session 2: 1 tx, 5000 B.
                rec(&db, 1, 0, "api.weather.com", 1000),
                rec(&db, 1, 30, "api.weather.com", 2000),
                rec(&db, 1, 1000, "api.weather.com", 5000),
            ],
            vec![],
        );
        let sectors = SectorDirectory::new();
        let ctx = ctx_with(&store, &db, &sectors, &catalog);
        let sessions = sessionize(&attribute_transactions(&ctx));
        let per = PerUsage::compute(&sessions);
        let (tx, bytes, n) = per.by_app[&weather];
        assert_eq!(n, 2);
        assert!((tx - 1.5).abs() < 1e-9);
        assert!((bytes - 4000.0).abs() < 1e-9);
        let ecdf = PerUsage::usage_bytes_ecdf(&sessions);
        assert_eq!(ecdf.len(), 2);
    }

    #[test]
    fn empty_input() {
        assert!(sessionize(&[]).is_empty());
        let per = PerUsage::compute(&[]);
        assert!(per.by_app.is_empty());
    }

    #[test]
    fn gap_parameter_is_monotone() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let store = TraceStore::from_records(
            (0..20)
                .map(|i| rec(&db, 1, i * 45, "api.weather.com", 100))
                .collect(),
            vec![],
        );
        let sectors = SectorDirectory::new();
        let ctx = ctx_with(&store, &db, &sectors, &catalog);
        let attributed = attribute_transactions(&ctx);
        // 45-second spacing: one session at 60s gap, twenty at 30s gap.
        let wide = sessionize_with_gap(&attributed, 60);
        let narrow = sessionize_with_gap(&attributed, 30);
        let wider = sessionize_with_gap(&attributed, 3600);
        assert_eq!(wide.len(), 1);
        assert_eq!(narrow.len(), 20);
        assert_eq!(wider.len(), 1);
        assert!(narrow.len() >= wide.len() && wide.len() >= wider.len());
    }
}
