//! Sessionization (Sec. 5, Fig. 7).
//!
//! The paper's unit of app engagement is the *single usage*: a maximal run
//! of transactions where consecutive transactions are less than one minute
//! apart. Third-party transactions (CDN, ads, analytics) carry no app in
//! their SNI; following Sec. 3.3 they are attributed to the app with the
//! nearest first-party transaction of the same user within a ±60 s
//! timeframe.
//!
//! One [`Attributor`] implements that rule for both pipelines. The batch
//! fold advances it on the proxy log's high-water mark as the records
//! arrive in time order, and flushes the rest at the end; the streaming
//! runtime feeds it records as they arrive and advances it with the low
//! watermark. Either releases a transaction once no anchor that could
//! claim it can still be admitted, so both see the same answer for any
//! arrival order the watermark admits.

use std::collections::VecDeque;

use wearscope_appdb::{AppId, Classification};
use wearscope_simtime::{SimDuration, SimTime};
use wearscope_trace::UserId;

use crate::context::StudyContext;
use crate::hash::HashMap;

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
/// [`attribute_transactions`]. The result is sorted by `(user, timestamp)`;
/// equal keys keep record order.
pub fn attribute_records<'r>(
    ctx: &StudyContext<'_>,
    records: impl IntoIterator<Item = &'r wearscope_trace::ProxyRecord>,
) -> Vec<AttributedTx> {
    let mut attributor = Attributor::new();
    for r in records {
        if ctx.is_wearable_record(r) {
            let class = ctx.host_class(r.host).classification;
            attributor.observe(r.user, r.timestamp, class, r.bytes_total());
        }
    }
    let mut out = Vec::with_capacity(attributor.pending());
    attributor.flush(&mut out);
    out.sort_by_key(|t| (t.user, t.timestamp));
    out
}

/// The ± attribution gap as a duration.
fn gap() -> SimDuration {
    SimDuration::from_secs(SESSION_GAP_SECS)
}

/// One user's unreleased attribution state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct UserTxs {
    /// First-party anchors, time-sorted; equal times keep arrival order.
    pub(crate) anchors: VecDeque<(SimTime, AppId)>,
    /// Transactions not yet released, in arrival order:
    /// (time, bytes, host classification).
    pub(crate) pending: VecDeque<(SimTime, u64, Option<Classification>)>,
}

/// The nearest-anchor attribution rule, fed one transaction at a time.
///
/// A transaction at `t` is released by [`advance`](Attributor::advance)
/// once the watermark `W` passes `t + 60 s`: every record behind `W` is
/// rejected before it gets here, so every anchor that could claim the
/// transaction has arrived by then. The answer is therefore the one the
/// whole timeline gives, for any arrival order the watermark admits.
/// [`flush`](Attributor::flush) releases everything. The batch fold's
/// records arrive in time order, so its watermark is the proxy log's
/// high-water mark: it advances on it as it goes and flushes at the end.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Attributor {
    pub(crate) users: HashMap<UserId, UserTxs>,
}

impl Attributor {
    /// An attributor with no state.
    pub fn new() -> Attributor {
        Attributor::default()
    }

    /// Transactions observed and not yet released, across all users.
    pub fn pending(&self) -> usize {
        self.users.values().map(|u| u.pending.len()).sum()
    }

    /// Takes one wearable transaction with its host's classification.
    pub fn observe(&mut self, user: UserId, t: SimTime, class: Option<Classification>, bytes: u64) {
        let state = self.users.entry(user).or_default();
        if let Some(Classification::FirstParty(app)) = class {
            let at = state.anchors.partition_point(|a| a.0 <= t);
            state.anchors.insert(at, (t, app));
        }
        state.pending.push_back((t, bytes, class));
    }

    /// Releases into `out` every transaction with `t + 60 s < watermark`,
    /// users in id order and each user's in arrival order, then forgets
    /// what no admissible transaction can use. Returns the earliest time
    /// still pending, so a caller can tell when the next call has work.
    pub fn advance(&mut self, watermark: SimTime, out: &mut Vec<AttributedTx>) -> Option<SimTime> {
        self.release(Some(watermark), out)
    }

    /// End of input: releases every transaction and forgets every user.
    pub fn flush(&mut self, out: &mut Vec<AttributedTx>) {
        self.release(None, out);
    }

    /// [`advance`](Attributor::advance) to `watermark`, or past everything
    /// when it is `None`.
    fn release(
        &mut self,
        watermark: Option<SimTime>,
        out: &mut Vec<AttributedTx>,
    ) -> Option<SimTime> {
        let before =
            |t: SimTime, slack: SimDuration| watermark.is_none_or(|w| t.saturating_add(slack) < w);
        let mut users: Vec<UserId> = self.users.keys().copied().collect();
        users.sort_unstable();
        let mut earliest: Option<SimTime> = None;
        for user in users {
            let state = self.users.get_mut(&user).expect("user state present");
            let anchors = &*state.anchors.make_contiguous();
            state.pending.retain(|&(t, bytes, class)| {
                if !before(t, gap()) {
                    earliest = Some(earliest.map_or(t, |e| e.min(t)));
                    return true;
                }
                let app = match class {
                    Some(Classification::FirstParty(app)) => Some(app),
                    _ => nearest_anchor(anchors, t),
                };
                out.push(AttributedTx {
                    user,
                    timestamp: t,
                    app,
                    class,
                    bytes,
                });
                false
            });
            // Still-pending transactions have `t >= W - 60 s` and
            // admissible ones `t >= W`, so an anchor with `at + 120 s < W`
            // is more than 60 s from every transaction that can still ask.
            while state
                .anchors
                .front()
                .is_some_and(|&(at, _)| before(at, gap() * 2))
            {
                state.anchors.pop_front();
            }
            if state.anchors.is_empty() && state.pending.is_empty() {
                self.users.remove(&user);
            }
        }
        earliest
    }
}

/// The app of the nearest anchor within ±`SESSION_GAP_SECS` (the past one
/// on a tie), or `None`.
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
    let mut groups: HashMap<(UserId, AppId), Vec<(SimTime, u64)>> = HashMap::default();
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
        let mut acc: HashMap<AppId, (u64, u64, usize)> = HashMap::default();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Snapshot, SnapshotReader};
    use wearscope_appdb::{AppCatalog, DomainClass};
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

    /// Feeds `(t, class)` arrivals for user 1 as the streaming runtime
    /// does, advancing to `max_seen - lateness` after each, then flushes.
    /// Returns the released transactions sorted by time.
    fn stream(arrivals: &[(u64, Option<Classification>)], lateness: u64) -> Vec<AttributedTx> {
        let mut attributor = Attributor::new();
        let mut out = Vec::new();
        let mut max_seen = 0;
        for &(t, class) in arrivals {
            attributor.observe(UserId(1), SimTime::from_secs(t), class, 1);
            max_seen = max_seen.max(t);
            let w = SimTime::from_secs(max_seen.saturating_sub(lateness));
            attributor.advance(w, &mut out);
        }
        attributor.flush(&mut out);
        out.sort_by_key(|tx| tx.timestamp);
        out
    }

    fn fp(app: u16) -> Option<Classification> {
        Some(Classification::FirstParty(AppId(app)))
    }

    /// A transaction arriving late behind an anchor that is as close as
    /// the anchor before it: the past anchor wins the tie, as in batch.
    #[test]
    fn late_transaction_behind_an_anchor_takes_the_past_anchor_on_a_tie() {
        let (weather, accuweather) = (1, 2);
        let out = stream(
            &[(900, fp(weather)), (1000, fp(accuweather)), (950, None)],
            600,
        );
        assert_eq!(out[1].timestamp, SimTime::from_secs(950));
        assert_eq!(out[1].app, Some(AppId(weather)));
    }

    /// An anchor arriving late, after a farther one already arrived on the
    /// other side, still claims the transaction it is nearest to.
    #[test]
    fn late_anchor_claims_the_transaction_it_is_nearest_to() {
        let (weather, accuweather) = (1, 2);
        let out = stream(
            &[(1000, None), (1050, fp(accuweather)), (990, fp(weather))],
            600,
        );
        assert_eq!(out[1].timestamp, SimTime::from_secs(1000));
        assert_eq!(out[1].app, Some(AppId(weather)));
    }

    #[test]
    fn past_anchor_wins_ties_and_future_wins_strictly_closer() {
        let (a, b) = (1, 2);
        // Tie: past at t-30, future at t+30 → past.
        let out = stream(&[(70, fp(a)), (100, None), (130, fp(b))], 0);
        assert_eq!(out[1].app, Some(AppId(a)));
        // Future strictly closer → future.
        let out = stream(&[(30, fp(a)), (100, None), (120, fp(b))], 0);
        assert_eq!(out[1].app, Some(AppId(b)));
        // Both out of range → unattributed.
        let out = stream(&[(0, fp(a)), (100, None), (200, fp(b))], 0);
        assert_eq!(out[1].app, None);
    }

    /// Transactions at one timestamp are released in arrival order, and an
    /// anchor at the same instant claims the third-party one (gap 0).
    #[test]
    fn release_preserves_arrival_order_within_one_timestamp() {
        let mut attributor = Attributor::new();
        let mut out = Vec::new();
        let t = SimTime::from_secs(100);
        attributor.observe(UserId(9), t, None, 5);
        attributor.observe(UserId(9), t, fp(3), 7);
        attributor.flush(&mut out);
        assert_eq!(out.len(), 2);
        assert!(!out[0].first_party());
        assert_eq!(out[0].app, Some(AppId(3)));
        assert!(out[1].first_party());
    }

    /// `t + 60 < W` closes the future window: an anchor at exactly
    /// `t + 60` could still claim the transaction.
    #[test]
    fn advance_releases_only_past_the_gap() {
        let mut attributor = Attributor::new();
        let mut out = Vec::new();
        attributor.observe(UserId(1), SimTime::from_secs(100), None, 1);
        attributor.advance(SimTime::from_secs(160), &mut out);
        assert_eq!(attributor.pending(), 1);
        attributor.advance(SimTime::from_secs(161), &mut out);
        assert_eq!(attributor.pending(), 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].app, None);
    }

    /// State is bounded by the watermark: a flush leaves nothing, and
    /// `advance` forgets a user once nothing is pending and no anchor is
    /// within 120 s of the watermark.
    #[test]
    fn attributor_state_is_bounded() {
        let mut attributor = Attributor::new();
        let mut out = Vec::new();
        attributor.observe(UserId(1), SimTime::from_secs(100), fp(1), 1);
        attributor.observe(UserId(2), SimTime::from_secs(150), None, 1);
        // W = 211: both released; user 1's anchor (100 + 120 >= 211) stays.
        attributor.advance(SimTime::from_secs(211), &mut out);
        assert_eq!((attributor.pending(), out.len()), (0, 2));
        assert_eq!(attributor.users.len(), 1);
        assert_eq!(attributor.users[&UserId(1)].anchors.len(), 1);
        attributor.advance(SimTime::from_secs(221), &mut out);
        assert!(attributor.users.is_empty());

        attributor.observe(UserId(3), SimTime::from_secs(500), fp(2), 1);
        attributor.observe(UserId(3), SimTime::from_secs(510), None, 1);
        attributor.flush(&mut out);
        assert_eq!(attributor.pending(), 0);
        let mut text = String::new();
        attributor.snapshot(&mut text);
        assert_eq!(text, "attributor\t0\n");
    }

    proptest::proptest! {
        /// The batch fold's release: wearable transactions of interleaved
        /// users in time order, many sharing a timestamp, with anchors
        /// from 0 to 121 s after a transaction, the attributor advanced to
        /// the newest time after every `k` of them and flushed at the end,
        /// sorted stably by `(user, timestamp)`, equal one flush. Each
        /// advance returns the earliest time it leaves pending.
        #[test]
        fn advancing_on_the_proxy_clock_attributes_like_one_flush(
            draws in proptest::prop::collection::vec(
                (0u64..4, 0usize..10, 0u8..5, 1u64..1000),
                0..150,
            ),
            k in 1usize..20,
        ) {
            const STEPS: [u64; 10] = [0, 0, 0, 1, 5, 30, 59, 60, 61, 121];
            let mut t = 1_000;
            let txs: Vec<_> = draws
                .iter()
                .map(|&(user, step, class, bytes)| {
                    t += STEPS[step];
                    let class = match class {
                        0 => None,
                        1 => Some(Classification::ThirdParty(DomainClass::Advertising)),
                        app => fp(u16::from(app)),
                    };
                    (UserId(user), SimTime::from_secs(t), class, bytes)
                })
                .collect();

            let mut once = Attributor::new();
            for &(user, t, class, bytes) in &txs {
                once.observe(user, t, class, bytes);
            }
            let mut want = Vec::new();
            once.flush(&mut want);

            let mut stepped = Attributor::new();
            let mut got = Vec::new();
            for (i, &(user, t, class, bytes)) in txs.iter().enumerate() {
                stepped.observe(user, t, class, bytes);
                if (i + 1) % k == 0 {
                    let earliest = stepped.advance(t, &mut got);
                    let pending = stepped.users.values().flat_map(|u| u.pending.iter());
                    proptest::prop_assert_eq!(earliest, pending.map(|p| p.0).min());
                }
            }
            stepped.flush(&mut got);
            want.sort_by_key(|tx| (tx.user, tx.timestamp));
            got.sort_by_key(|tx| (tx.user, tx.timestamp));
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn attributor_snapshot_roundtrips_mid_flight_state() {
        let mut attributor = Attributor::new();
        attributor.observe(UserId(2), SimTime::from_secs(50), fp(4), 9);
        attributor.observe(UserId(1), SimTime::from_secs(90), None, 4);
        attributor.observe(UserId(1), SimTime::from_secs(80), fp(4), 3);
        attributor.observe(UserId(1), SimTime::from_secs(80), fp(5), 3);
        let mut text = String::new();
        attributor.snapshot(&mut text);
        assert_eq!(
            text,
            [
                "attributor\t2\n",
                "u\t1\t2\t3\n",
                "a\t80\t4\n",
                "a\t80\t5\n",
                "q\t90\t4\t-\n",
                "q\t80\t3\t4\n",
                "q\t80\t3\t5\n",
                "u\t2\t1\t1\n",
                "a\t50\t4\n",
                "q\t50\t9\t4\n",
            ]
            .concat()
        );
        let mut restored = Attributor::restore(&mut SnapshotReader::new(&text)).unwrap();
        assert_eq!(restored, attributor);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        attributor.flush(&mut a);
        restored.flush(&mut b);
        assert_eq!(a, b);
        // The later anchor at a tied time wins the past side.
        assert_eq!(a[0].app, Some(AppId(5)));

        let unsorted = text.replacen("a\t80\t5", "a\t70\t5", 1);
        let err = Attributor::restore(&mut SnapshotReader::new(&unsorted)).unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (4, "anchors are not in time order")
        );
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
