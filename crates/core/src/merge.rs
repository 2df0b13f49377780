//! Mergeable partial aggregates: the substrate of the batch fold
//! ([`CoreAggregates::sequential`]) and of the streaming engine's
//! event-time windows, both of which absorb into one [`CorePartials`].
//!
//! Every hot analysis in this crate is a fold over one log stream followed
//! by a pure finish step. This module factors that shape into a trait:
//!
//! * [`Mergeable::identity`] — the empty partial;
//! * [`Mergeable::absorb`] — fold one record into a partial;
//! * [`Mergeable::merge`] — combine two partials (shards);
//! * [`Mergeable::finish`] — turn the merged partial into the public result.
//!
//! **Determinism contract.** A sharded fold (partition records, absorb per
//! shard, merge partials in shard-index order, finish once) must be
//! *bit-identical* to the sequential fold, for any partition that keeps each
//! user's records together and in log order. The partials uphold this by
//! keeping only exact state — integer counters, day/hour/user sets, dwell
//! seconds — during absorb/merge, and deferring every float reduction to the
//! single-threaded `finish` step, where iteration order is fixed by sorting
//! (or by [`crate::stats::Ecdf`], which sorts its samples on construction).
//! Float summation is not associative, so *when* a sum happens matters more
//! than how threads are scheduled: no partial ever carries a partially
//! reduced float.
//!
//! The per-analysis entry points (`activity::user_activity`,
//! `HourlyProfile::compute`, `MobilityIndex::build`, …) delegate to these
//! same partials with a single implicit shard, so they and the fused pass
//! of [`CoreAggregates::sequential`] run literally the same code.

use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;

use wearscope_simtime::SimTime;
use wearscope_trace::{MmeEvent, MmeRecord, ProxyRecord, UserId};

use crate::activity::{HourlyProfile, TransactionStats, UserActivity};
use crate::apps::AppPopularity;
use crate::compare::{OwnerVsRest, UserTraffic};
use crate::context::StudyContext;
use crate::mobility::{Displacement, LocationEntropy, MobilityIndex, UserMobility};
use crate::sessions::{self, AttributedTx};

use wearscope_appdb::AppId;

/// A partial aggregate that can be folded per shard and merged.
///
/// See the [module docs](self) for the determinism contract.
pub trait Mergeable: Sized {
    /// The record type this aggregate folds over.
    type Record;
    /// The public analysis result produced by [`Mergeable::finish`].
    type Output;

    /// The empty partial (the fold's neutral element).
    fn identity() -> Self;

    /// Folds one record into the partial.
    fn absorb(&mut self, ctx: &StudyContext<'_>, record: &Self::Record);

    /// Merges another shard's partial into this one.
    ///
    /// Callers merge in ascending shard index so the operation is
    /// deterministic even for aggregates where order could matter; the
    /// partials in this module are additionally order-insensitive because
    /// they merge only exact state.
    fn merge(&mut self, other: Self);

    /// Produces the public result. Runs single-threaded, after all merges.
    fn finish(self, ctx: &StudyContext<'_>) -> Self::Output;
}

/// Folds an iterator of records into a fresh partial (the body of every
/// per-analysis entry point).
pub fn fold<'r, M>(ctx: &StudyContext<'_>, records: impl IntoIterator<Item = &'r M::Record>) -> M
where
    M: Mergeable,
    M::Record: 'r,
{
    let mut partial = M::identity();
    for r in records {
        partial.absorb(ctx, r);
    }
    partial
}

/// Merges partials in iteration order (callers supply ascending shard index).
pub fn merge_all<M: Mergeable>(parts: impl IntoIterator<Item = M>) -> M {
    let mut acc = M::identity();
    for p in parts {
        acc.merge(p);
    }
    acc
}

// ---------------------------------------------------------------------------
// Activity
// ---------------------------------------------------------------------------

/// Partial for [`activity::user_activity`](crate::activity::user_activity):
/// per-user day/hour sets and exact counters over wearable proxy records.
#[derive(Clone, Debug, Default)]
pub struct ActivityPartial {
    /// Per-user aggregates so far.
    pub per_user: HashMap<UserId, UserActivity>,
}

impl Mergeable for ActivityPartial {
    type Record = ProxyRecord;
    type Output = HashMap<UserId, UserActivity>;

    fn identity() -> Self {
        ActivityPartial::default()
    }

    fn absorb(&mut self, ctx: &StudyContext<'_>, r: &ProxyRecord) {
        if !ctx.is_wearable_record(r) {
            return;
        }
        let agg = self.per_user.entry(r.user).or_default();
        agg.days.insert(r.timestamp.day_index());
        agg.hours.insert(r.timestamp.hour_index());
        agg.transactions += 1;
        agg.bytes += r.bytes_total();
    }

    fn merge(&mut self, other: Self) {
        for (user, a) in other.per_user {
            let agg = self.per_user.entry(user).or_default();
            agg.days.extend(a.days);
            agg.hours.extend(a.hours);
            agg.transactions += a.transactions;
            agg.bytes += a.bytes;
        }
    }

    fn finish(self, _ctx: &StudyContext<'_>) -> Self::Output {
        self.per_user
    }
}

/// Partial for [`HourlyProfile`]: per-slot `(day, user)` sets and exact
/// transaction/byte counters (48 slots: 24 weekday + 24 weekend hours).
#[derive(Clone, Debug)]
pub struct HourlyProfilePartial {
    pub(crate) users: Vec<HashSet<(u64, UserId)>>,
    pub(crate) tx: [u64; 48],
    pub(crate) bytes: [u64; 48],
}

impl Mergeable for HourlyProfilePartial {
    type Record = ProxyRecord;
    type Output = HourlyProfile;

    fn identity() -> Self {
        HourlyProfilePartial {
            users: vec![HashSet::new(); 48],
            tx: [0; 48],
            bytes: [0; 48],
        }
    }

    fn absorb(&mut self, ctx: &StudyContext<'_>, r: &ProxyRecord) {
        if !ctx.is_wearable_record(r) {
            return;
        }
        let day = r.timestamp.day_index();
        let weekend = ctx.window.calendar().day_is_weekend(day);
        let slot = usize::from(r.timestamp.hour_of_day()) + if weekend { 24 } else { 0 };
        self.users[slot].insert((day, r.user));
        self.tx[slot] += 1;
        self.bytes[slot] += r.bytes_total();
    }

    fn merge(&mut self, other: Self) {
        for (mine, theirs) in self.users.iter_mut().zip(other.users) {
            mine.extend(theirs);
        }
        for s in 0..48 {
            self.tx[s] += other.tx[s];
            self.bytes[s] += other.bytes[s];
        }
    }

    fn finish(self, ctx: &StudyContext<'_>) -> HourlyProfile {
        HourlyProfile::from_slots(ctx, &self.users, &self.tx, &self.bytes)
    }
}

/// Partial for [`TransactionStats`]: wearable transaction sizes plus an
/// embedded [`ActivityPartial`] for the per-user hourly rates.
///
/// Sizes are concatenated in merge order; `finish` hands them to
/// [`crate::stats::Ecdf`], which sorts, so the order never reaches a float
/// reduction.
#[derive(Clone, Debug, Default)]
pub struct TransactionStatsPartial {
    pub(crate) sizes: Vec<f64>,
    pub(crate) activity: ActivityPartial,
}

impl Mergeable for TransactionStatsPartial {
    type Record = ProxyRecord;
    type Output = TransactionStats;

    fn identity() -> Self {
        TransactionStatsPartial::default()
    }

    fn absorb(&mut self, ctx: &StudyContext<'_>, r: &ProxyRecord) {
        if !ctx.is_wearable_record(r) {
            return;
        }
        self.sizes.push(r.bytes_total() as f64);
        self.activity.absorb(ctx, r);
    }

    fn merge(&mut self, other: Self) {
        self.sizes.extend(other.sizes);
        self.activity.merge(other.activity);
    }

    fn finish(self, _ctx: &StudyContext<'_>) -> TransactionStats {
        TransactionStats::from_parts(self.sizes, &self.activity.per_user)
    }
}

// ---------------------------------------------------------------------------
// Traffic (owner vs rest)
// ---------------------------------------------------------------------------

/// Partial for [`compare::user_traffic`](crate::compare::user_traffic):
/// per-user byte/transaction totals over *all* proxy records.
#[derive(Clone, Debug, Default)]
pub struct TrafficPartial {
    /// Per-user totals so far.
    pub per_user: HashMap<UserId, UserTraffic>,
}

impl Mergeable for TrafficPartial {
    type Record = ProxyRecord;
    type Output = HashMap<UserId, UserTraffic>;

    fn identity() -> Self {
        TrafficPartial::default()
    }

    fn absorb(&mut self, ctx: &StudyContext<'_>, r: &ProxyRecord) {
        let t = self.per_user.entry(r.user).or_default();
        t.bytes_total += r.bytes_total();
        t.tx_total += 1;
        if ctx.is_wearable_record(r) {
            t.bytes_wearable += r.bytes_total();
            t.tx_wearable += 1;
        }
    }

    fn merge(&mut self, other: Self) {
        for (user, o) in other.per_user {
            let t = self.per_user.entry(user).or_default();
            t.bytes_total += o.bytes_total;
            t.tx_total += o.tx_total;
            t.bytes_wearable += o.bytes_wearable;
            t.tx_wearable += o.tx_wearable;
        }
    }

    fn finish(self, _ctx: &StudyContext<'_>) -> Self::Output {
        self.per_user
    }
}

// ---------------------------------------------------------------------------
// Mobility
// ---------------------------------------------------------------------------

/// Partial for [`MobilityIndex`]: in-flight attachments, per-day sector
/// sets, and exact dwell counters.
///
/// Two partials of the same stream can be merged in either of two shapes:
///
/// * **user-disjoint shards** — no `(user, imei)`
///   stream appears in both partials, and merge is a plain union;
/// * **time-split segments** (the streaming engine's event-time windows) —
///   `other` holds the *later* segment of any stream both partials saw.
///   An attachment left open in `self` is closed at the first event the
///   later segment recorded for that stream ([`MobilityPartial`] tracks
///   that timestamp in `first_event`), which is exactly where the
///   sequential fold would have closed it.
///
/// Within each partial, each `(user, imei)` stream must be absorbed in log
/// (time) order — dwell tracking is stateful.
#[derive(Clone, Debug, Default)]
pub struct MobilityPartial {
    pub(crate) current: HashMap<(UserId, u64), (u32, SimTime)>,
    pub(crate) day_sectors: HashMap<(UserId, u64), HashSet<u32>>,
    pub(crate) per_user: HashMap<UserId, UserMobility>,
    /// Per `(user, imei)`: timestamp of the first MME event this partial
    /// absorbed for that stream — the boundary a later time-split segment
    /// supplies so an earlier segment's open dwell can be closed in merge.
    pub(crate) first_event: HashMap<(UserId, u64), SimTime>,
}

fn close_dwell(
    per_user: &mut HashMap<UserId, UserMobility>,
    user: UserId,
    sector: u32,
    since: SimTime,
    until: SimTime,
) {
    let dwell = until.saturating_since(since).as_secs();
    if dwell > 0 {
        *per_user
            .entry(user)
            .or_default()
            .dwell_by_sector
            .entry(sector)
            .or_default() += dwell;
    }
}

impl Mergeable for MobilityPartial {
    type Record = MmeRecord;
    type Output = MobilityIndex;

    fn identity() -> Self {
        MobilityPartial::default()
    }

    fn absorb(&mut self, _ctx: &StudyContext<'_>, r: &MmeRecord) {
        let key = (r.user, r.imei);
        self.first_event.entry(key).or_insert(r.timestamp);
        match r.event {
            MmeEvent::Attach | MmeEvent::SectorUpdate => {
                if let Some((sector, since)) = self.current.insert(key, (r.sector, r.timestamp)) {
                    close_dwell(&mut self.per_user, r.user, sector, since, r.timestamp);
                }
                self.day_sectors
                    .entry((r.user, r.timestamp.day_index()))
                    .or_default()
                    .insert(r.sector);
            }
            MmeEvent::Detach => {
                if let Some((sector, since)) = self.current.remove(&key) {
                    close_dwell(&mut self.per_user, r.user, sector, since, r.timestamp);
                }
            }
        }
    }

    fn merge(&mut self, other: Self) {
        // Time-split closure: an attachment still open in this (earlier)
        // partial ends where the later segment's stream begins — the
        // sequential fold would have closed it at that same event
        // (Attach/SectorUpdate close the previous sector; a leading Detach
        // closes at detach time). For user-disjoint shards no key overlaps
        // and this loop is a no-op.
        for (key, first) in &other.first_event {
            if let Some((sector, since)) = self.current.remove(key) {
                close_dwell(&mut self.per_user, key.0, sector, since, *first);
            }
        }
        self.current.extend(other.current);
        for (key, first) in other.first_event {
            self.first_event.entry(key).or_insert(first);
        }
        for (key, sectors) in other.day_sectors {
            self.day_sectors.entry(key).or_default().extend(sectors);
        }
        for (user, m) in other.per_user {
            let mine = self.per_user.entry(user).or_default();
            debug_assert!(
                m.daily_max_displacement_km.is_empty() && mine.daily_max_displacement_km.is_empty(),
                "displacement is a finish-stage product, not partial state"
            );
            for (sector, dwell) in m.dwell_by_sector {
                *mine.dwell_by_sector.entry(sector).or_default() += dwell;
            }
        }
    }

    fn finish(self, ctx: &StudyContext<'_>) -> MobilityIndex {
        let MobilityPartial {
            current,
            day_sectors,
            mut per_user,
            first_event: _,
        } = self;
        // Close devices still attached at the end of the window.
        let end = ctx.window.detailed().end();
        for ((user, _), (sector, since)) in current {
            close_dwell(&mut per_user, user, sector, since, end);
        }
        MobilityIndex::from_dwell_and_days(ctx, per_user, day_sectors)
    }
}

// ---------------------------------------------------------------------------
// App popularity
// ---------------------------------------------------------------------------

/// Partial for [`AppPopularity`]: `(app, day) → users` and
/// `(app, user) → days` sets over attributed wearable transactions.
#[derive(Clone, Debug, Default)]
pub struct AppPopularityPartial {
    pub(crate) day_users: HashMap<(AppId, u64), HashSet<UserId>>,
    pub(crate) user_days: HashMap<(AppId, UserId), HashSet<u64>>,
    pub(crate) apps: HashSet<AppId>,
}

impl Mergeable for AppPopularityPartial {
    type Record = AttributedTx;
    type Output = AppPopularity;

    fn identity() -> Self {
        AppPopularityPartial::default()
    }

    fn absorb(&mut self, _ctx: &StudyContext<'_>, tx: &AttributedTx) {
        let Some(app) = tx.app else { return };
        self.apps.insert(app);
        let day = tx.timestamp.day_index();
        self.day_users
            .entry((app, day))
            .or_default()
            .insert(tx.user);
        self.user_days
            .entry((app, tx.user))
            .or_default()
            .insert(day);
    }

    fn merge(&mut self, other: Self) {
        for (key, users) in other.day_users {
            self.day_users.entry(key).or_default().extend(users);
        }
        for (key, days) in other.user_days {
            self.user_days.entry(key).or_default().extend(days);
        }
        self.apps.extend(other.apps);
    }

    fn finish(self, _ctx: &StudyContext<'_>) -> AppPopularity {
        AppPopularity::from_index(self.day_users, self.user_days, self.apps)
    }
}

// ---------------------------------------------------------------------------
// Blanket finish adapter
// ---------------------------------------------------------------------------

/// Builds a metric from another aggregate's output at finish time — the hook
/// behind [`MapFinish`], letting downstream metrics keep their existing
/// `compute(ctx, &aggregate)` API while still folding as a partial.
pub trait FromAggregate<I>: Sized {
    /// Derives the metric from the finished aggregate.
    fn from_aggregate(ctx: &StudyContext<'_>, aggregate: &I) -> Self;
}

/// Blanket adapter: folds exactly like `M`, then derives `O` from `M`'s
/// output in the finish step. All the fold/merge determinism is inherited;
/// the extra step is single-threaded by construction.
#[derive(Clone, Debug)]
pub struct MapFinish<M, O> {
    inner: M,
    _marker: PhantomData<fn() -> O>,
}

impl<M: Mergeable, O: FromAggregate<M::Output>> Mergeable for MapFinish<M, O> {
    type Record = M::Record;
    type Output = O;

    fn identity() -> Self {
        MapFinish {
            inner: M::identity(),
            _marker: PhantomData,
        }
    }

    fn absorb(&mut self, ctx: &StudyContext<'_>, record: &Self::Record) {
        self.inner.absorb(ctx, record);
    }

    fn merge(&mut self, other: Self) {
        self.inner.merge(other.inner);
    }

    fn finish(self, ctx: &StudyContext<'_>) -> O {
        let aggregate = self.inner.finish(ctx);
        O::from_aggregate(ctx, &aggregate)
    }
}

impl FromAggregate<HashMap<UserId, UserTraffic>> for OwnerVsRest {
    fn from_aggregate(ctx: &StudyContext<'_>, traffic: &HashMap<UserId, UserTraffic>) -> Self {
        OwnerVsRest::compute(ctx, traffic)
    }
}

impl FromAggregate<MobilityIndex> for Displacement {
    fn from_aggregate(ctx: &StudyContext<'_>, index: &MobilityIndex) -> Self {
        Displacement::compute(ctx, index)
    }
}

impl FromAggregate<MobilityIndex> for LocationEntropy {
    fn from_aggregate(ctx: &StudyContext<'_>, index: &MobilityIndex) -> Self {
        LocationEntropy::compute(ctx, index)
    }
}

/// [`OwnerVsRest`] as a mergeable fold over all proxy records.
pub type OwnerVsRestPartial = MapFinish<TrafficPartial, OwnerVsRest>;
/// [`Displacement`] as a mergeable fold over the MME log.
pub type DisplacementPartial = MapFinish<MobilityPartial, Displacement>;
/// [`LocationEntropy`] as a mergeable fold over the MME log.
pub type LocationEntropyPartial = MapFinish<MobilityPartial, LocationEntropy>;

// ---------------------------------------------------------------------------
// The aggregate bundle consumed by reports
// ---------------------------------------------------------------------------

/// The hot aggregates every report consumes: the finished form of
/// [`CorePartials`].
#[derive(Clone, Debug)]
pub struct CoreAggregates {
    /// Per-user wearable activity ([`crate::activity::user_activity`]).
    pub activity: HashMap<UserId, UserActivity>,
    /// Fig. 3(a) hourly profile.
    pub hourly: HourlyProfile,
    /// Fig. 3(c) transaction statistics.
    pub tx_stats: TransactionStats,
    /// Per-user traffic totals ([`crate::compare::user_traffic`]).
    pub traffic: HashMap<UserId, UserTraffic>,
    /// The mobility index (Fig. 4(c,d) substrate).
    pub mobility: MobilityIndex,
    /// Attributed wearable transactions, sorted by `(user, timestamp)`.
    pub attributed: Vec<AttributedTx>,
    /// Fig. 5(a) app popularity.
    pub popularity: AppPopularity,
}

impl CoreAggregates {
    /// Computes every aggregate in one pass on the calling thread: each
    /// proxy record, then each MME record, is absorbed into every partial
    /// of a [`CorePartials`]; attribution, which needs each user's whole
    /// proxy stream, runs after the record pass.
    pub fn sequential(ctx: &StudyContext<'_>) -> CoreAggregates {
        let mut partials = CorePartials::identity();
        for r in ctx.store.proxy() {
            partials.absorb_proxy(ctx, r);
        }
        for r in ctx.store.mme() {
            partials.absorb_mme(ctx, r);
        }
        for tx in &sessions::attribute_transactions(ctx) {
            partials.absorb_attributed(ctx, tx);
        }
        partials.finish(ctx)
    }
}

/// The partials behind [`CoreAggregates`]: the one bundle that both the
/// batch fold ([`CoreAggregates::sequential`]) and the streaming engine's
/// windows absorb into, merge, snapshot and finish.
#[derive(Clone, Debug)]
pub struct CorePartials {
    /// Per-user wearable activity partial.
    pub activity: ActivityPartial,
    /// Hourly profile partial.
    pub hourly: HourlyProfilePartial,
    /// Transaction statistics partial.
    pub tx_stats: TransactionStatsPartial,
    /// All-device traffic partial.
    pub traffic: TrafficPartial,
    /// Mobility partial (MME side).
    pub mobility: MobilityPartial,
    /// App popularity partial, fed from attributed transactions.
    pub popularity: AppPopularityPartial,
    /// Attributed transactions, in absorption order.
    pub attributed: Vec<AttributedTx>,
}

impl CorePartials {
    /// The empty bundle.
    pub fn identity() -> CorePartials {
        CorePartials {
            activity: ActivityPartial::identity(),
            hourly: HourlyProfilePartial::identity(),
            tx_stats: TransactionStatsPartial::identity(),
            traffic: TrafficPartial::identity(),
            mobility: MobilityPartial::identity(),
            popularity: AppPopularityPartial::identity(),
            attributed: Vec::new(),
        }
    }

    /// Folds one proxy record into every proxy-side partial.
    pub fn absorb_proxy(&mut self, ctx: &StudyContext<'_>, r: &ProxyRecord) {
        self.activity.absorb(ctx, r);
        self.hourly.absorb(ctx, r);
        self.tx_stats.absorb(ctx, r);
        self.traffic.absorb(ctx, r);
    }

    /// Folds one MME record into the mobility partial.
    pub fn absorb_mme(&mut self, ctx: &StudyContext<'_>, r: &MmeRecord) {
        self.mobility.absorb(ctx, r);
    }

    /// Folds one attributed transaction into the popularity partial and
    /// keeps it for the session analyses.
    pub fn absorb_attributed(&mut self, ctx: &StudyContext<'_>, tx: &AttributedTx) {
        self.popularity.absorb(ctx, tx);
        self.attributed.push(*tx);
    }

    /// Merges a later bundle into this one (see [`Mergeable::merge`]).
    pub fn merge(&mut self, other: CorePartials) {
        self.activity.merge(other.activity);
        self.hourly.merge(other.hourly);
        self.tx_stats.merge(other.tx_stats);
        self.traffic.merge(other.traffic);
        self.mobility.merge(other.mobility);
        self.popularity.merge(other.popularity);
        self.attributed.extend(other.attributed);
    }

    /// Finishes every partial. Attributed transactions end sorted by
    /// `(user, timestamp)`; the sort is stable, so transactions sharing a
    /// key keep their absorption order.
    pub fn finish(self, ctx: &StudyContext<'_>) -> CoreAggregates {
        let mut attributed = self.attributed;
        attributed.sort_by_key(|t| (t.user, t.timestamp));
        CoreAggregates {
            activity: self.activity.finish(ctx),
            hourly: self.hourly.finish(ctx),
            tx_stats: self.tx_stats.finish(ctx),
            traffic: self.traffic.finish(ctx),
            mobility: self.mobility.finish(ctx),
            popularity: self.popularity.finish(ctx),
            attributed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::DeviceDb;
    use wearscope_geo::SectorDirectory;
    use wearscope_simtime::{Calendar, ObservationWindow};
    use wearscope_trace::{Scheme, TraceStore};

    fn wtx(db: &DeviceDb, user: u64, t: u64, bytes: u64) -> ProxyRecord {
        ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei: db.example_imei(db.wearable_tacs()[0], user as u32).as_u64(),
            host: "api.weather.com".into(),
            scheme: Scheme::Https,
            bytes_down: bytes,
            bytes_up: 0,
        }
    }

    /// Sharded fold (odd/even users) matches the sequential fold exactly.
    #[test]
    fn sharded_fold_matches_sequential() {
        let db = DeviceDb::standard();
        let records: Vec<ProxyRecord> = (0..200)
            .map(|i| wtx(&db, i % 7, i * 311, 100 + i * 13))
            .collect();
        let store = TraceStore::from_records(records, vec![]);
        let sectors = SectorDirectory::new();
        let catalog = AppCatalog::standard();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );

        let sequential: ActivityPartial = fold(&ctx, store.proxy());
        let shard_a: ActivityPartial =
            fold(&ctx, store.proxy().iter().filter(|r| r.user.0 % 2 == 0));
        let shard_b: ActivityPartial =
            fold(&ctx, store.proxy().iter().filter(|r| r.user.0 % 2 == 1));
        let merged = merge_all([shard_a, shard_b]);
        assert_eq!(merged.finish(&ctx), sequential.finish(&ctx));
    }

    /// The blanket adapter derives the downstream metric from the same fold.
    #[test]
    fn map_finish_adapter_matches_direct_compute() {
        let db = DeviceDb::standard();
        let records: Vec<ProxyRecord> = (0..60)
            .map(|i| wtx(&db, 1 + i % 3, i * 997, 1000))
            .collect();
        let store = TraceStore::from_records(records, vec![]);
        let sectors = SectorDirectory::new();
        let catalog = AppCatalog::standard();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let via_adapter: OwnerVsRest = fold::<OwnerVsRestPartial>(&ctx, store.proxy()).finish(&ctx);
        let direct = OwnerVsRest::compute(&ctx, &crate::compare::user_traffic(&ctx));
        assert_eq!(
            via_adapter.bytes_ratio.to_bits(),
            direct.bytes_ratio.to_bits()
        );
        assert_eq!(via_adapter.tx_ratio.to_bits(), direct.tx_ratio.to_bits());
    }

    /// Time-split merge (the streaming engine's shape): splitting one
    /// user's MME stream at an arbitrary time boundary and merging the two
    /// segments matches the sequential fold exactly — including an open
    /// dwell crossing the boundary and a leading Detach in the later half.
    #[test]
    fn time_split_merge_matches_sequential() {
        let db = DeviceDb::standard();
        let imei = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
        let mme = |t: u64, event: MmeEvent, sector: u32| MmeRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(1),
            imei,
            event,
            sector,
        };
        let records = vec![
            mme(100, MmeEvent::Attach, 5),
            mme(400, MmeEvent::SectorUpdate, 6),
            // -- split point A (open dwell in sector 6 crosses it) --
            mme(900, MmeEvent::SectorUpdate, 7),
            mme(1500, MmeEvent::Detach, 7),
            mme(2000, MmeEvent::Attach, 8),
            // -- split point B (later half starts with a Detach) --
            mme(2600, MmeEvent::Detach, 8),
            mme(3000, MmeEvent::Attach, 9),
        ];
        let store = TraceStore::new();
        let sectors = SectorDirectory::new();
        let catalog = AppCatalog::standard();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let sequential: MobilityPartial = fold(&ctx, &records);
        for split in [2, 5] {
            let first: MobilityPartial = fold(&ctx, &records[..split]);
            let second: MobilityPartial = fold(&ctx, &records[split..]);
            let merged = merge_all([first, second]);
            assert_eq!(
                merged.finish(&ctx).per_user,
                sequential.clone().finish(&ctx).per_user,
                "split at {split}"
            );
        }
    }

    /// Identity partials finish into empty results.
    #[test]
    fn identity_is_empty() {
        let db = DeviceDb::standard();
        let store = TraceStore::new();
        let sectors = SectorDirectory::new();
        let catalog = AppCatalog::standard();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::compact(),
        );
        assert!(ActivityPartial::identity().finish(&ctx).is_empty());
        assert!(TrafficPartial::identity().finish(&ctx).is_empty());
        assert!(MobilityPartial::identity().finish(&ctx).per_user.is_empty());
        assert!(AppPopularityPartial::identity()
            .finish(&ctx)
            .rank
            .is_empty());
        let hourly = HourlyProfilePartial::identity().finish(&ctx);
        assert_eq!(hourly.weekday[0].transactions, 0.0);
    }
}
