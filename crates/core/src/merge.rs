//! Partial aggregates: the substrate of the batch fold
//! ([`CoreAggregates::sequential`]) and of the streaming engine's
//! event-time windows, both of which absorb into one [`CorePartials`].
//!
//! Each partial holds one kind of per-record fact, once, and
//! [`CorePartials::finish`] derives everything that is a function of
//! those facts. Each wearable proxy transaction is one `(time, bytes)`
//! entry of its device in [`WearablePartial`], beside the device's sector
//! sightings; the per-user activity (and from it the hourly active users,
//! the per-user rates, the wearable fields of [`UserTraffic`] and the
//! daily user shares), the wearable per-slot counters, the transaction
//! sizes, the wearable device set and the Fig. 4(d) sector join come from
//! those lists. Each attributed transaction is kept once, in
//! [`CorePartials::attributed`]; app popularity, the domain classes and
//! the unclassified-host count come from it. The other partials keep what
//! neither gives: all-device per-slot counts ([`HourlyProfilePartial`]),
//! all-device totals ([`TrafficPartial`]), one dwell state per MME stream
//! ([`MobilityPartial`]), the fingerprinted Through-Device users and the
//! trace QA counters ([`QualityPartial`]).
//!
//! The per-analysis entry points (`activity::user_activity`,
//! `WeeklyPattern::compute`, `DataQualityReport::compute`, …) delegate to
//! [`CoreAggregates::sequential`], so each figure has one implementation.
//! Batch folds run through one [`Fold`], whether over a store
//! ([`CorePartials::fold`]) or over records as the loader parses them.

use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::ops::Range;

use wearscope_appdb::ThroughDeviceKind;
use wearscope_devicedb::{DeviceClass, Imei};
use wearscope_geo::{SectorDirectory, SectorId};
use wearscope_simtime::{SimDuration, SimTime};
use wearscope_trace::{MmeEvent, MmeRecord, ProxyRecord, UserId};

use crate::activity::{HourlyProfile, TransactionStats, UserActivity};
use crate::apps::AppPopularity;
use crate::compare::UserTraffic;
use crate::context::StudyContext;
use crate::devices::DeviceMix;
use crate::hash::{HashMap, HashSet};
use crate::mobility::{MobilityIndex, UserMobility};
use crate::quality::DataQualityReport;
use crate::sessions::{AttributedTx, Attributor, SESSION_GAP_SECS};
use crate::thirdparty::DomainBreakdown;
use crate::through_device::ThroughDeviceReport;
use crate::weekly::WeeklyPattern;

// ---------------------------------------------------------------------------
// Hourly profile
// ---------------------------------------------------------------------------

/// All-device transactions per weekly slot for [`WeeklyPattern`]: 168
/// slots, one per (weekday, hour of day), Monday 0 h first. The wearable
/// slots, and Fig. 3(a)'s 48 (hour, weekend) slots, come from the wearable
/// transactions at finish.
#[derive(Clone, Debug)]
pub struct HourlyProfilePartial {
    pub(crate) all_tx: [u64; 168],
}

impl Default for HourlyProfilePartial {
    fn default() -> Self {
        HourlyProfilePartial { all_tx: [0; 168] }
    }
}

impl HourlyProfilePartial {
    /// Merges another partial into this one.
    pub fn merge(&mut self, other: HourlyProfilePartial) {
        for s in 0..168 {
            self.all_tx[s] += other.all_tx[s];
        }
    }
}

/// The weekly slot of an instant: its weekday (Monday 0) times 24 plus its
/// hour of day.
fn week_slot(ctx: &StudyContext<'_>, t: SimTime) -> usize {
    let weekday = ctx.window.calendar().weekday(t).index() as usize;
    weekday * 24 + usize::from(t.hour_of_day())
}

/// The Fig. 3(a) slot of an absolute hour: its hour of day, plus 24 when
/// its day is a weekend day.
fn hour_slot(ctx: &StudyContext<'_>, hour_index: u64) -> usize {
    let weekend = ctx.window.calendar().day_is_weekend(hour_index / 24);
    (hour_index % 24) as usize + if weekend { 24 } else { 0 }
}

/// Fig. 3(a) from the wearable per-slot counters. Each distinct absolute
/// hour `h` of a user is exactly one distinct `(day h/24, user)` pair, in
/// slot `h % 24` (plus 24 when day `h/24` is a weekend day), so counting
/// activity hours per slot counts the slot's distinct active user-days.
fn hourly_profile(
    ctx: &StudyContext<'_>,
    activity: &HashMap<UserId, UserActivity>,
    week_tx: &[u64; 168],
    week_bytes: &[u64; 168],
) -> HourlyProfile {
    let mut users = [0u64; 48];
    for a in activity.values() {
        for &h in &a.hours {
            users[hour_slot(ctx, h)] += 1;
        }
    }
    let (mut tx, mut bytes) = ([0u64; 48], [0u64; 48]);
    for s in 0..168 {
        let weekend = usize::from(s / 24 >= 5);
        tx[s % 24 + 24 * weekend] += week_tx[s];
        bytes[s % 24 + 24 * weekend] += week_bytes[s];
    }
    HourlyProfile::from_slots(ctx, &users, &tx, &bytes)
}

// ---------------------------------------------------------------------------
// Traffic (owner vs rest)
// ---------------------------------------------------------------------------

/// Per-user `(bytes, transactions)` totals over *all* proxy records; the
/// wearable fields of [`UserTraffic`] come from activity at finish.
#[derive(Clone, Debug, Default)]
pub struct TrafficPartial {
    /// Per-user `(bytes_total, tx_total)` so far.
    pub per_user: HashMap<UserId, (u64, u64)>,
}

impl TrafficPartial {
    /// Folds one proxy record of any device.
    pub fn absorb(&mut self, r: &ProxyRecord) {
        let (bytes, tx) = self.per_user.entry(r.user).or_default();
        *bytes += r.bytes_total();
        *tx += 1;
    }

    /// Merges another partial into this one.
    pub fn merge(&mut self, other: TrafficPartial) {
        for (user, (b, t)) in other.per_user {
            let (bytes, tx) = self.per_user.entry(user).or_default();
            *bytes += b;
            *tx += t;
        }
    }

    /// Joins the all-device totals with each user's wearable activity.
    pub fn finish(self, activity: &HashMap<UserId, UserActivity>) -> HashMap<UserId, UserTraffic> {
        self.per_user
            .into_iter()
            .map(|(user, (bytes_total, tx_total))| {
                let wearable = activity.get(&user);
                let traffic = UserTraffic {
                    bytes_total,
                    tx_total,
                    bytes_wearable: wearable.map_or(0, |a| a.bytes),
                    tx_wearable: wearable.map_or(0, |a| a.transactions),
                };
                (user, traffic)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Mobility
// ---------------------------------------------------------------------------

/// One `(user, imei)` MME stream's state within a partial.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MmeStream {
    /// The first MME event this partial absorbed for the stream: where a
    /// merge closes an earlier segment's open attachment.
    pub(crate) first: SimTime,
    /// The attachment still open: its sector and since when.
    pub(crate) open: Option<(u32, SimTime)>,
}

/// What Fig. 4(c) keeps of a final user-day: the two sectors, `a < b`,
/// whose distance [`SectorDirectory::max_displacement_km`] returns for the
/// day's sector set, or one sector as both ends (`a == b`) when no two of
/// the day's sectors are apart: the day's displacement is then 0 km.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FarthestPair(pub(crate) u32, pub(crate) u32);

impl FarthestPair {
    /// The pair of an ascending, distinct, non-empty sector set: the
    /// first pair, in `max_displacement_km`'s loop order, at the largest
    /// distance. Sectors outside the plan are skipped, as it skips them.
    fn of(sectors: &SectorDirectory, set: &[u32]) -> FarthestPair {
        let (mut best, mut pair) = (0.0, FarthestPair(set[0], set[0]));
        for (i, &a) in set.iter().enumerate() {
            let Some(at) = sectors.location(SectorId(a)) else {
                continue;
            };
            for &b in &set[i + 1..] {
                let Some(bt) = sectors.location(SectorId(b)) else {
                    continue;
                };
                let km = at.distance_km(bt);
                if km > best {
                    (best, pair) = (km, FarthestPair(a, b));
                }
            }
        }
        pair
    }

    /// The day's max displacement: the distance of the pair, measured as
    /// `max_displacement_km` measured it over the whole set.
    fn km(self, sectors: &SectorDirectory) -> f64 {
        let FarthestPair(a, b) = self;
        let ends = [SectorId(a), SectorId(b)];
        sectors.max_displacement_km(if a == b { &ends[..1] } else { &ends })
    }
}

/// A user's final days, ascending, each as its [`FarthestPair`]. A day is
/// kept as a `u32`, so a closed day takes 12 bytes, not 16: a day past
/// `u32::MAX` (eleven million years on) is never closed.
pub(crate) type ClosedDays = Vec<(u32, FarthestPair)>;

/// Adds `sector` to an ascending, distinct sector list.
fn insert_sector(sectors: &mut Vec<u32>, sector: u32) {
    if let Err(at) = sectors.binary_search(&sector) {
        sectors.insert(at, sector);
    }
}

/// Partial for [`MobilityIndex`]: one state per MME stream, the user-days,
/// and exact dwell counters.
///
/// A user-day is kept as its sector set while a record can still join it,
/// and as its farthest sector pair once [`close_days`] says it is final:
/// no record of it can still be absorbed, here or in any partial merged
/// with this one. So the days held as sets follow the days still open,
/// not the whole window. Every float is still derived in [`finish`]: the
/// pair is two sector ids.
///
/// [`merge`](MobilityPartial::merge) takes the *later* time-split segment
/// of any stream both partials saw (the streaming engine's event-time
/// windows). An attachment left open in the earlier partial is closed at
/// the later segment's first event for that stream, which is exactly where
/// the sequential fold would have closed it. A user-day both partials hold
/// is open in both, and merges as the union of its sets.
///
/// Within each partial, each `(user, imei)` stream must be absorbed in log
/// (time) order — dwell tracking is stateful.
///
/// [`close_days`]: MobilityPartial::close_days
/// [`finish`]: MobilityPartial::finish
#[derive(Clone, Debug, Default)]
pub struct MobilityPartial {
    pub(crate) streams: HashMap<(UserId, u64), MmeStream>,
    /// Per open `(user, day)`: the sectors seen, ascending and distinct.
    /// A user-day sees a few sectors, so a sorted `Vec` holds them in a
    /// fraction of a `HashSet`'s memory.
    pub(crate) open_days: HashMap<(UserId, u64), Vec<u32>>,
    pub(crate) closed_days: HashMap<UserId, ClosedDays>,
    pub(crate) per_user: HashMap<UserId, UserMobility>,
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

impl MobilityPartial {
    /// Folds one MME record.
    pub fn absorb(&mut self, r: &MmeRecord) {
        let stream = self.streams.entry((r.user, r.imei)).or_insert(MmeStream {
            first: r.timestamp,
            open: None,
        });
        let closed = match r.event {
            MmeEvent::Attach | MmeEvent::SectorUpdate => {
                let day = r.timestamp.day_index();
                debug_assert!(
                    self.closed_days
                        .get(&r.user)
                        .is_none_or(|c| c.iter().all(|&(d, _)| u64::from(d) != day)),
                    "a record joined a closed day"
                );
                insert_sector(self.open_days.entry((r.user, day)).or_default(), r.sector);
                stream.open.replace((r.sector, r.timestamp))
            }
            MmeEvent::Detach => stream.open.take(),
        };
        if let Some((sector, since)) = closed {
            close_dwell(&mut self.per_user, r.user, sector, since, r.timestamp);
        }
    }

    /// Reduces every open user-day in `days` to its farthest sector pair.
    /// The caller vouches that each is final: no record of it can still
    /// reach this partial or a partial it will be merged with. The batch
    /// fold closes each day the MME log's high-water mark has passed; a
    /// stream window closes the days the watermark has passed that lie
    /// wholly inside it.
    pub fn close_days(&mut self, sectors: &SectorDirectory, days: Range<u64>) {
        if days.is_empty() {
            return;
        }
        let (closed_days, open) = (&mut self.closed_days, self.open_days.len());
        self.open_days.retain(|&(user, day), set| {
            let Some(day) = u32::try_from(day).ok().filter(|_| days.contains(&day)) else {
                return true;
            };
            let closed = closed_days.entry(user).or_default();
            closed.push((day, FarthestPair::of(sectors, set)));
            // The map is walked in hash order, and a merge may have
            // brought in later days: keep the list ascending.
            if closed.len() > 1 && closed[closed.len() - 2].0 > day {
                closed.sort_unstable_by_key(|&(d, _)| d);
            }
            false
        });
        // The slots `retain` erased still count against the table's
        // growth budget, so a map refilled day after day would double
        // past its live size: once most entries are gone, rebuild it.
        if self.open_days.len() < open / 2 {
            self.open_days.shrink_to_fit();
        }
    }

    /// Frees the room the days grew into: a batch fold's partial is
    /// finished, not grown, once the fold ends.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.open_days.shrink_to_fit();
        for closed in self.closed_days.values_mut() {
            closed.shrink_to_fit();
        }
    }

    /// The number of open days of each user with one.
    pub fn open_days_per_user(&self) -> impl Iterator<Item = usize> {
        let mut open: HashMap<UserId, usize> = HashMap::default();
        for &(user, _) in self.open_days.keys() {
            *open.entry(user).or_default() += 1;
        }
        open.into_values()
    }

    /// Merges a later time-split partial into this one.
    pub fn merge(&mut self, other: MobilityPartial) {
        for (key, later) in other.streams {
            match self.streams.entry(key) {
                // The sequential fold would have closed this stream's open
                // attachment at the later segment's first event
                // (Attach/SectorUpdate close the previous sector; a
                // leading Detach closes at detach time).
                Entry::Occupied(mut e) => {
                    let mine = e.get_mut();
                    if let Some((sector, since)) = mine.open.take() {
                        close_dwell(&mut self.per_user, key.0, sector, since, later.first);
                    }
                    mine.open = later.open;
                }
                Entry::Vacant(e) => {
                    e.insert(later);
                }
            }
        }
        for (key, sectors) in other.open_days {
            let mine = self.open_days.entry(key).or_default();
            for sector in sectors {
                insert_sector(mine, sector);
            }
        }
        for (user, later) in other.closed_days {
            let mine = self.closed_days.entry(user).or_default();
            mine.extend(later);
            mine.sort_unstable_by_key(|&(d, _)| d);
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

    /// Closes devices still attached at the end of the detailed window and
    /// builds the index: each user's daily max displacements in day order,
    /// filled in user order so per-user float reductions downstream are
    /// run-to-run stable.
    pub fn finish(self, ctx: &StudyContext<'_>) -> MobilityIndex {
        let MobilityPartial {
            streams,
            open_days,
            closed_days,
            mut per_user,
        } = self;
        let end = ctx.window.detailed().end();
        for ((user, _), stream) in streams {
            if let Some((sector, since)) = stream.open {
                close_dwell(&mut per_user, user, sector, since, end);
            }
        }
        let mut days: HashMap<UserId, Vec<(u64, f64)>> = HashMap::default();
        for ((user, day), sectors) in open_days {
            let ids: Vec<SectorId> = sectors.into_iter().map(SectorId).collect();
            let km = ctx.sectors.max_displacement_km(&ids);
            days.entry(user).or_default().push((day, km));
        }
        for (user, closed) in closed_days {
            let km = closed
                .into_iter()
                .map(|(day, pair)| (u64::from(day), pair.km(ctx.sectors)));
            days.entry(user).or_default().extend(km);
        }
        let mut days: Vec<(UserId, Vec<(u64, f64)>)> = days.into_iter().collect();
        days.sort_unstable_by_key(|&(user, _)| user);
        for (user, mut km) in days {
            km.sort_unstable_by_key(|&(day, _)| day);
            per_user.entry(user).or_default().daily_max_displacement_km =
                km.into_iter().map(|(_, km)| km).collect();
        }
        MobilityIndex { per_user }
    }
}

// ---------------------------------------------------------------------------
// Wearable devices (Figs. 3 and 4(d))
// ---------------------------------------------------------------------------

/// The wearable facts of both logs, kept once per `(user, imei)`: each
/// proxy transaction as `(time, bytes)`, and the sector timeline of its
/// Attach and SectorUpdate records. [`CorePartials::finish`] derives the
/// activity, the wearable slot counters, the sizes and the device set from
/// the transactions; [`finish`] joins them with the timelines for
/// Fig. 4(d), attributing each transaction to the sector the device was
/// last seen in that same day.
///
/// Merge concatenates, so merged time-split segments hold each list in
/// segment order; [`finish`] stably sorts each timeline by time, which is
/// a no-op for a fold in log order.
///
/// [`finish`]: WearablePartial::finish
#[derive(Clone, Debug, Default)]
pub struct WearablePartial {
    pub(crate) timelines: HashMap<(UserId, u64), Vec<(SimTime, u32)>>,
    /// Per wearable `(user, imei)`: its proxy transactions' `(time,
    /// bytes)`, in absorption order.
    pub transactions: HashMap<(UserId, u64), Vec<(SimTime, u64)>>,
}

impl WearablePartial {
    /// Folds one wearable proxy transaction.
    pub fn absorb_transaction(&mut self, r: &ProxyRecord) {
        self.transactions
            .entry((r.user, r.imei))
            .or_default()
            .push((r.timestamp, r.bytes_total()));
    }

    /// Folds one wearable MME record: Attach and SectorUpdate place the
    /// device in a sector.
    pub fn absorb_sighting(&mut self, r: &MmeRecord) {
        if matches!(r.event, MmeEvent::Attach | MmeEvent::SectorUpdate) {
            self.timelines
                .entry((r.user, r.imei))
                .or_default()
                .push((r.timestamp, r.sector));
        }
    }

    /// Merges a later segment into this one.
    pub fn merge(&mut self, other: WearablePartial) {
        for (key, sightings) in other.timelines {
            self.timelines.entry(key).or_default().extend(sightings);
        }
        for (key, txs) in other.transactions {
            self.transactions.entry(key).or_default().extend(txs);
        }
    }

    /// The sectors each user's wearable transactions came from: a
    /// transaction is in the sector of the device's last sighting at or
    /// before it, if that sighting was on the same day (wearables detach
    /// nightly, so a cross-day carry-over would be stale).
    pub fn finish(self) -> HashMap<UserId, HashSet<u32>> {
        let mut timelines = self.timelines;
        let mut out: HashMap<UserId, HashSet<u32>> = HashMap::default();
        for (key, txs) in self.transactions {
            let Some(tl) = timelines.get_mut(&key) else {
                continue;
            };
            tl.sort_by_key(|&(t, _)| t);
            for (t, _) in txs {
                let idx = tl.partition_point(|&(at, _)| at <= t);
                if idx > 0 {
                    let (at, sector) = tl[idx - 1];
                    if at.day_index() == t.day_index() {
                        out.entry(key.0).or_default().insert(sector);
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Trace QA
// ---------------------------------------------------------------------------

/// The [`DataQualityReport`] counters the other partials cannot give.
/// Record counts, users and unclassified hosts come from traffic,
/// mobility and attribution at finish.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QualityPartial {
    /// MME records absorbed.
    pub mme_records: u64,
    /// Proxy records whose IMEI the device DB cannot resolve.
    pub unresolved_device_records: u64,
    /// Records of either log outside the detailed window.
    pub out_of_window_records: u64,
    /// Days with at least one proxy record.
    pub proxy_days: BTreeSet<u64>,
}

impl QualityPartial {
    /// Merges another partial into this one.
    pub fn merge(&mut self, other: QualityPartial) {
        self.mme_records += other.mme_records;
        self.unresolved_device_records += other.unresolved_device_records;
        self.out_of_window_records += other.out_of_window_records;
        self.proxy_days.extend(other.proxy_days);
    }
}

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
    /// Per-user traffic totals ([`UserTraffic`]).
    pub traffic: HashMap<UserId, UserTraffic>,
    /// The mobility index (Fig. 4(c,d) substrate).
    pub mobility: MobilityIndex,
    /// Attributed wearable transactions, sorted by `(user, timestamp)`.
    pub attributed: Vec<AttributedTx>,
    /// Fig. 5(a) app popularity.
    pub popularity: AppPopularity,
    /// Sec. 4.2 weekly pattern.
    pub weekly: WeeklyPattern,
    /// Fig. 8 domain classes.
    pub domains: DomainBreakdown,
    /// Sec. 4.1 wearable device mix.
    pub devices: DeviceMix,
    /// Sec. 6 Through-Device fingerprinting.
    pub through_device: ThroughDeviceReport,
    /// The trace QA report.
    pub quality: DataQualityReport,
    /// Users seen with a SIM-enabled wearable IMEI in either log: the
    /// paper's "users that have wearable devices" (Sec. 3.2).
    pub owners: HashSet<UserId>,
    /// The sectors each user's wearable transactions came from (the
    /// Fig. 4(d) sector join).
    pub transaction_sectors: HashMap<UserId, HashSet<u32>>,
}

impl CoreAggregates {
    /// Computes every aggregate in one pass on the calling thread:
    /// [`CorePartials::fold`], then [`CorePartials::finish`].
    pub fn sequential(ctx: &StudyContext<'_>) -> CoreAggregates {
        CorePartials::fold(ctx).finish(ctx)
    }
}

/// The partials behind [`CoreAggregates`]: the one unit that both the
/// batch fold ([`CoreAggregates::sequential`]) and the streaming engine's
/// windows absorb into, merge, snapshot and finish.
///
/// **Determinism contract.** Merging bundles in ascending order (window
/// index for time-split segments) and finishing once must be
/// *bit-identical* to one sequential fold, for any partition that keeps
/// each `(user, imei)` MME stream in log order and closes no user-day a
/// record of another part can still join. The bundle upholds this by
/// keeping only exact state — integer counters, open day sets, the
/// farthest sector pair of each final day, dwell seconds, raw
/// transactions — during absorb and merge, and deferring every
/// derivation and float reduction to the single-threaded
/// [`CorePartials::finish`], where iteration order is fixed by sorting (or
/// by [`crate::stats::Ecdf`], which sorts its samples on construction).
/// Float summation is not associative, so *when* a sum happens matters
/// more than how threads are scheduled: no partial ever carries a
/// partially reduced float.
#[derive(Clone, Debug, Default)]
pub struct CorePartials {
    /// All-device per-slot counters of the weekly pattern.
    pub hourly: HourlyProfilePartial,
    /// All-device traffic totals.
    pub traffic: TrafficPartial,
    /// Mobility partial (MME side).
    pub mobility: MobilityPartial,
    /// Each wearable device's transactions and sector timeline.
    pub wearable: WearablePartial,
    /// Attributed transactions, in absorption order.
    pub attributed: Vec<AttributedTx>,
    /// `(kind, user)` pairs the Through-Device fingerprints identify in
    /// smartphone traffic.
    pub through_device: HashSet<(ThroughDeviceKind, UserId)>,
    /// Trace QA counters.
    pub quality: QualityPartial,
}

impl CorePartials {
    /// Folds the context's store through one [`Fold`]: each proxy
    /// record, then each MME record, releasing attribution after every
    /// `RELEASE_EVERY` proxy records as the loader does after each chunk.
    pub fn fold(ctx: &StudyContext<'_>) -> CorePartials {
        let mut fold = Fold::new(ctx);
        for chunk in ctx.store.proxy().chunks(RELEASE_EVERY) {
            for r in chunk {
                fold.proxy(r);
            }
            fold.release_attributed();
        }
        for r in ctx.store.mme() {
            fold.mme(r);
        }
        fold.into_partials()
    }

    /// Folds one proxy record issued by a device of class `device` (from
    /// [`StudyContext::device_class`], or [`StudyContext::device_class_of`]
    /// for a validated record): its all-device facts always, then its
    /// wearable, smartphone or unresolved-device facts. Returns whether a
    /// SIM-enabled wearable issued the record, which is what attribution
    /// needs to know.
    pub fn absorb_proxy(
        &mut self,
        ctx: &StudyContext<'_>,
        r: &ProxyRecord,
        device: Option<DeviceClass>,
    ) -> bool {
        self.traffic.absorb(r);
        self.hourly.all_tx[week_slot(ctx, r.timestamp)] += 1;
        // Records come in time order, so most share the newest day.
        let day = r.timestamp.day_index();
        if self.quality.proxy_days.last() != Some(&day) {
            self.quality.proxy_days.insert(day);
        }
        self.quality.out_of_window_records += u64::from(!ctx.window.in_detail(r.timestamp));
        match device {
            Some(DeviceClass::CellularWearable) => {
                self.wearable.absorb_transaction(r);
                return true;
            }
            Some(DeviceClass::Smartphone) => {
                if let Some(kind) = ctx.host_class(r.host).through_device {
                    self.through_device.insert((kind, r.user));
                }
            }
            Some(_) => {}
            None => self.quality.unresolved_device_records += 1,
        }
        false
    }

    /// Folds one MME record from a device of class `device` into the
    /// mobility partial, the QA counters and, for a wearable, its sector
    /// timeline.
    pub fn absorb_mme(
        &mut self,
        ctx: &StudyContext<'_>,
        r: &MmeRecord,
        device: Option<DeviceClass>,
    ) {
        self.mobility.absorb(r);
        if device == Some(DeviceClass::CellularWearable) {
            self.wearable.absorb_sighting(r);
        }
        self.quality.mme_records += 1;
        self.quality.out_of_window_records += u64::from(!ctx.window.in_detail(r.timestamp));
    }

    /// Keeps one attributed transaction for the popularity, session and
    /// domain analyses.
    pub fn absorb_attributed(&mut self, tx: &AttributedTx) {
        self.attributed.push(*tx);
    }

    /// Merges a later bundle into this one (see the determinism contract).
    pub fn merge(&mut self, other: CorePartials) {
        self.hourly.merge(other.hourly);
        self.traffic.merge(other.traffic);
        self.mobility.merge(other.mobility);
        self.wearable.merge(other.wearable);
        self.attributed.extend(other.attributed);
        self.through_device.extend(other.through_device);
        self.quality.merge(other.quality);
    }

    /// Empties the bundle, keeping what its maps and vectors have
    /// allocated, so a stream window can be reused for the next one. It
    /// then snapshots as [`CorePartials::default`] does. Every field is
    /// named, so a field added later cannot be missed.
    pub fn clear(&mut self) {
        let CorePartials {
            hourly,
            traffic: TrafficPartial { per_user: traffic },
            mobility:
                MobilityPartial {
                    streams,
                    open_days,
                    closed_days,
                    per_user: mobility,
                },
            wearable:
                WearablePartial {
                    timelines,
                    transactions,
                },
            attributed,
            through_device,
            quality,
        } = self;
        *hourly = HourlyProfilePartial::default();
        traffic.clear();
        streams.clear();
        open_days.clear();
        closed_days.clear();
        mobility.clear();
        timelines.clear();
        transactions.clear();
        attributed.clear();
        through_device.clear();
        *quality = QualityPartial::default();
    }

    /// Finishes every partial. One pass over the wearable transactions
    /// gives the per-user activity, the wearable slot counters and the
    /// transaction sizes; the hourly active users, the per-user rates, the
    /// wearable traffic fields and the daily user shares derive from that
    /// activity. App popularity, the domain classes and the unclassified
    /// count come from the attributed transactions; the MME side of the
    /// device mix from the mobility stream keys;
    /// the owners from the wearable devices of both logs. Attributed
    /// transactions end sorted by `(user, timestamp)`; the sort is stable,
    /// so transactions sharing a key keep their absorption order.
    pub fn finish(self, ctx: &StudyContext<'_>) -> CoreAggregates {
        let CorePartials {
            hourly,
            traffic,
            mobility,
            wearable,
            mut attributed,
            through_device,
            quality,
        } = self;
        let mut activity: HashMap<UserId, UserActivity> = HashMap::default();
        let (mut week_tx, mut week_bytes) = ([0u64; 168], [0u64; 168]);
        let mut sizes = Vec::new();
        for (&(user, _), txs) in &wearable.transactions {
            let a = activity.entry(user).or_default();
            for &(t, bytes) in txs {
                a.days.insert(t.day_index());
                a.hours.insert(t.hour_index());
                a.transactions += 1;
                a.bytes += bytes;
                let slot = week_slot(ctx, t);
                week_tx[slot] += 1;
                week_bytes[slot] += bytes;
                sizes.push(bytes as f64);
            }
        }
        attributed.sort_by_key(|t| (t.user, t.timestamp));
        let mut devices: HashSet<(UserId, u64)> = wearable.transactions.keys().copied().collect();
        devices.extend(
            mobility.streams.keys().filter(|&&(_, imei)| {
                ctx.device_class(imei) == Some(DeviceClass::CellularWearable)
            }),
        );
        let owners: HashSet<UserId> = devices.iter().map(|&(user, _)| user).collect();
        let traffic = traffic.finish(&activity);
        let mobility = mobility.finish(ctx);
        let domains = DomainBreakdown::from_attributed(&attributed);
        let quality = DataQualityReport::from_parts(ctx, quality, &traffic, &domains);
        CoreAggregates {
            hourly: hourly_profile(ctx, &activity, &week_tx, &week_bytes),
            weekly: WeeklyPattern::from_slots(ctx, &week_tx, &hourly.all_tx, &activity),
            tx_stats: TransactionStats::from_parts(sizes, &activity),
            through_device: ThroughDeviceReport::join(through_device, &mobility, &owners),
            devices: DeviceMix::from_devices(ctx, &devices),
            popularity: AppPopularity::compute(&attributed),
            traffic,
            mobility,
            domains,
            quality,
            attributed,
            activity,
            owners,
            transaction_sectors: wearable.finish(),
        }
    }
}

/// Proxy records [`CorePartials::fold`] folds between two
/// [`Fold::release_attributed`] calls: about what the loader's 64 KiB
/// chunk holds.
const RELEASE_EVERY: usize = 1024;

/// The one batch fold: a [`CorePartials`] and the one [`Attributor`], fed
/// every proxy record and then every MME record, each log in time order.
/// [`CorePartials::fold`] drives it over a store; the loader drives it
/// over records as its shard workers parse them.
///
/// The MME records come in time order, so once one is stamped on a later
/// day than the last, every earlier day is final: the fold closes them
/// ([`MobilityPartial::close_days`]), and its mobility state follows the
/// day in hand rather than the window. The proxy records come in time
/// order too, so the newest one's time is a watermark no later record
/// falls behind: [`Fold::release_attributed`] advances the attributor on
/// it, and the attributor holds the transactions of the last minute or
/// so rather than every one.
pub struct Fold<'c> {
    ctx: &'c StudyContext<'c>,
    partials: CorePartials,
    attributor: Attributor,
    /// The day of the newest MME record folded.
    mme_day: u64,
    /// The time of the newest proxy record folded: the proxy log's
    /// high-water mark.
    proxy_time: SimTime,
    /// The earliest transaction time the attributor holds, if any.
    earliest_pending: Option<SimTime>,
}

impl<'c> Fold<'c> {
    /// An empty fold over `ctx`.
    pub fn new(ctx: &'c StudyContext<'c>) -> Fold<'c> {
        Fold {
            ctx,
            partials: CorePartials::default(),
            attributor: Attributor::new(),
            mme_day: 0,
            proxy_time: SimTime::EPOCH,
            earliest_pending: None,
        }
    }

    /// Folds one proxy record, feeding a wearable one to the attributor.
    pub fn proxy(&mut self, r: &ProxyRecord) {
        self.proxy_from(r, self.ctx.device_class(r.imei));
    }

    /// [`Fold::proxy`] for a record the validator kept, with the IMEI it
    /// checked: the device class is looked up without a second check.
    pub fn kept_proxy(&mut self, r: &ProxyRecord, imei: Imei) {
        self.proxy_from(r, self.ctx.device_class_of(imei));
    }

    fn proxy_from(&mut self, r: &ProxyRecord, device: Option<DeviceClass>) {
        self.proxy_time = self.proxy_time.max(r.timestamp);
        if self.partials.absorb_proxy(self.ctx, r, device) {
            let class = self.ctx.host_class(r.host).classification;
            self.attributor
                .observe(r.user, r.timestamp, class, r.bytes_total());
            let t = self
                .earliest_pending
                .map_or(r.timestamp, |e| e.min(r.timestamp));
            self.earliest_pending = Some(t);
        }
    }

    /// Releases into the attributed transactions every one whose
    /// `t + 60 s` the proxy log's high-water mark has passed: no later
    /// record can be an anchor within 60 s of it, and every record at its
    /// `(user, timestamp)` has been folded. A release sweeps every user the
    /// attributor holds, so it runs only when the earliest pending
    /// transaction is due; callers call this once per batch of records.
    /// Attribution is the same as one flush at the end, and so is the
    /// `(user, timestamp)`-sorted result.
    pub fn release_attributed(&mut self) {
        let gap = SimDuration::from_secs(SESSION_GAP_SECS);
        match self.earliest_pending {
            Some(t) if t.saturating_add(gap) < self.proxy_time => {}
            _ => return,
        }
        // Grown by a quarter at a time, so its spare room stays small next
        // to what the attributor no longer holds.
        let attributed = &mut self.partials.attributed;
        let pending = self.attributor.pending();
        if attributed.capacity() - attributed.len() < pending {
            attributed.reserve_exact(pending.max(attributed.len() / 4));
        }
        self.earliest_pending = self.attributor.advance(self.proxy_time, attributed);
    }

    /// Folds one MME record.
    pub fn mme(&mut self, r: &MmeRecord) {
        self.mme_from(r, self.ctx.device_class(r.imei));
    }

    /// [`Fold::mme`] for a record the validator kept, with the IMEI it
    /// checked.
    pub fn kept_mme(&mut self, r: &MmeRecord, imei: Imei) {
        self.mme_from(r, self.ctx.device_class_of(imei));
    }

    fn mme_from(&mut self, r: &MmeRecord, device: Option<DeviceClass>) {
        let day = r.timestamp.day_index();
        if day > self.mme_day {
            self.mme_day = day;
            self.partials.mobility.close_days(self.ctx.sectors, 0..day);
        }
        self.partials.absorb_mme(self.ctx, r, device);
    }

    /// Flushes what the attributor still holds and returns the partials,
    /// their user-days shrunk to fit.
    pub fn into_partials(self) -> CorePartials {
        let Fold {
            mut partials,
            mut attributor,
            ..
        } = self;
        partials.attributed.reserve_exact(attributor.pending());
        attributor.flush(&mut partials.attributed);
        partials.mobility.shrink_to_fit();
        partials
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::{DeviceClass, DeviceDb};
    use wearscope_geo::SectorDirectory;
    use wearscope_simtime::{Calendar, ObservationWindow, SimDuration};
    use wearscope_trace::{HostId, Scheme, TraceStore};

    fn proxy(imei: u64, user: u64, t: u64, bytes: u64) -> ProxyRecord {
        ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei,
            host: HostId::intern("api.weather.com"),
            scheme: Scheme::Https,
            bytes_down: bytes,
            bytes_up: 0,
        }
    }

    /// Sharded fold (odd/even users) matches the sequential fold exactly,
    /// derived fields included.
    #[test]
    fn sharded_fold_matches_sequential() {
        let db = DeviceDb::standard();
        let phone = db.tacs_of_class(DeviceClass::Smartphone)[0];
        let records: Vec<ProxyRecord> = (0..200)
            .map(|i| {
                let tac = if i % 3 == 0 {
                    phone
                } else {
                    db.wearable_tacs()[0]
                };
                let imei = db.example_imei(tac, (i % 7) as u32).as_u64();
                proxy(imei, i % 7, i * 311, 100 + i * 13)
            })
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
        let fold = |keep: &dyn Fn(&ProxyRecord) -> bool| {
            let mut p = CorePartials::default();
            for r in store.proxy().iter().filter(|r| keep(r)) {
                p.absorb_proxy(&ctx, r, ctx.device_class(r.imei));
            }
            p
        };
        let sequential = fold(&|_| true).finish(&ctx);
        let mut merged = fold(&|r| r.user.0 % 2 == 0);
        merged.merge(fold(&|r| r.user.0 % 2 == 1));
        let merged = merged.finish(&ctx);
        assert_eq!(merged.activity, sequential.activity);
        assert_eq!(merged.hourly, sequential.hourly);
        assert_eq!(merged.tx_stats, sequential.tx_stats);
        assert_eq!(merged.traffic, sequential.traffic);
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
        let fold = |records: &[MmeRecord]| {
            let mut p = MobilityPartial::default();
            for r in records {
                p.absorb(r);
            }
            p
        };
        let sequential = fold(&records).finish(&ctx);
        for split in [2, 5] {
            let mut merged = fold(&records[..split]);
            merged.merge(fold(&records[split..]));
            assert_eq!(
                merged.finish(&ctx).per_user,
                sequential.per_user,
                "split at {split}"
            );
        }
    }

    /// Owners are the users seen with a SIM-enabled wearable IMEI in
    /// either log: a user seen only through the MME counts, a
    /// smartphone-only user does not.
    #[test]
    fn owners_come_from_both_logs() {
        let db = DeviceDb::standard();
        let w_imei = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
        let p_tac = db.tacs_of_class(DeviceClass::Smartphone)[0];
        let p_imei = db.example_imei(p_tac, 2).as_u64();
        let store = TraceStore::from_records(
            vec![
                proxy(w_imei, 1, 10, 100),
                proxy(p_imei, 1, 20, 100),
                proxy(p_imei, 2, 30, 100),
            ],
            vec![MmeRecord {
                timestamp: SimTime::from_secs(5),
                user: UserId(3),
                imei: w_imei,
                event: MmeEvent::Attach,
                sector: 0,
            }],
        );
        let sectors = SectorDirectory::new();
        let catalog = AppCatalog::standard();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::compact(),
        );
        let owners = CoreAggregates::sequential(&ctx).owners;
        assert_eq!(owners, HashSet::from_iter([UserId(1), UserId(3)]));
    }

    /// A sighting that arrives late (a stream window absorbs in arrival
    /// order) still places the transactions after it: the join sorts each
    /// timeline by time before it looks anything up.
    #[test]
    fn sector_join_places_transactions_after_late_sightings() {
        let sighting = |t: u64, sector: u32| MmeRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(1),
            imei: 7,
            event: MmeEvent::SectorUpdate,
            sector,
        };
        let mut join = WearablePartial::default();
        for (t, sector) in [(100, 1), (300, 3), (200, 2)] {
            join.absorb_sighting(&sighting(t, sector));
        }
        join.absorb_transaction(&proxy(7, 1, 250, 10));
        let sectors = join.finish();
        assert_eq!(sectors[&UserId(1)], HashSet::from_iter([2]));
    }

    /// Seven sectors 0–6, two of them (0 and 3) at one place; sector 7
    /// is outside the plan.
    fn day_sectors() -> SectorDirectory {
        let mut d = SectorDirectory::new();
        for (lat, lon) in [
            (40.0, -3.0),
            (40.1, -3.0),
            (40.9, -3.0),
            (40.0, -3.0),
            (41.5, -2.0),
            (40.2, -3.3),
            (39.9, -2.9),
        ] {
            d.push(wearscope_geo::GeoPoint::new(lat, lon), None);
        }
        d
    }

    proptest::proptest! {
        /// Folding MME records as the stream admits them (each arrives at
        /// most `lateness` after its time), split into parts at arbitrary
        /// record indices, each part closing the days the watermark has
        /// passed that no earlier part can hold, then merging the parts in
        /// order, gives the index a set-based oracle gives, bit for bit.
        #[test]
        fn closed_days_merge_like_sets(
            draws in proptest::prop::collection::vec(
                (0u64..4, 0u64..3, 0u64..4 * 86_400, 0u8..3, 0u32..8, 0u64..=10_800),
                0..120,
            ),
            lateness_pick in 0usize..3,
            cuts in proptest::prop::collection::vec(0usize..120, 0..4),
        ) {
            let lateness = [0, 600, 10_800][lateness_pick];
            let mut arrivals: Vec<(u64, MmeRecord)> = draws
                .iter()
                .map(|&(user, imei, t, event, sector, delay)| {
                    let events = [MmeEvent::Attach, MmeEvent::SectorUpdate, MmeEvent::Detach];
                    let r = MmeRecord {
                        timestamp: SimTime::from_secs(t),
                        user: UserId(user),
                        imei: user * 10 + imei,
                        event: events[usize::from(event)],
                        sector,
                    };
                    (t + delay.min(lateness), r)
                })
                .collect();
            arrivals.sort_by_key(|&(at, r)| (at, r.timestamp));
            let records: Vec<MmeRecord> = arrivals.into_iter().map(|(_, r)| r).collect();

            let store = TraceStore::new();
            let db = DeviceDb::standard();
            let sectors = day_sectors();
            let catalog = AppCatalog::standard();
            let ctx = StudyContext::new(
                &store,
                &db,
                &sectors,
                &catalog,
                ObservationWindow::new(14, 14, Calendar::PAPER),
            );

            // The oracle: each user-day's whole set, reduced at the end
            // in (user, day) order; dwell from one unsplit fold.
            let mut unsplit = MobilityPartial::default();
            let mut sets: std::collections::BTreeMap<(UserId, u64), BTreeSet<u32>> =
                std::collections::BTreeMap::new();
            for r in &records {
                unsplit.absorb(r);
                if r.event != MmeEvent::Detach {
                    sets.entry((r.user, r.timestamp.day_index())).or_default().insert(r.sector);
                }
            }
            let mut oracle = unsplit.finish(&ctx).per_user;
            for m in oracle.values_mut() {
                m.daily_max_displacement_km.clear();
            }
            for ((user, _), set) in sets {
                let ids: Vec<SectorId> = set.into_iter().map(SectorId).collect();
                let km = sectors.max_displacement_km(&ids);
                oracle.entry(user).or_default().daily_max_displacement_km.push(km);
            }

            // The parts, closed as the stream's watermark passes each day.
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(records.len())).collect();
            bounds.extend([0, records.len()]);
            bounds.sort_unstable();
            let mut max_event: Option<SimTime> = None;
            let mut merged = MobilityPartial::default();
            for part in bounds.windows(2) {
                // An earlier part holds no record past the max event so far.
                let first_own_day = max_event.map_or(0, |m| m.day_index() + 1);
                let mut partial = MobilityPartial::default();
                for r in &records[part[0]..part[1]] {
                    partial.absorb(r);
                    let m = max_event.map_or(r.timestamp, |m| m.max(r.timestamp));
                    max_event = Some(m);
                    let watermark = m.saturating_sub(SimDuration::from_secs(lateness));
                    partial.close_days(&sectors, first_own_day..watermark.day_index());
                }
                proptest::prop_assert!(partial.open_days_per_user().all(|n| n <= 3));
                merged.merge(partial);
            }
            let got = merged.finish(&ctx).per_user;
            proptest::prop_assert_eq!(got.len(), oracle.len());
            for (user, want) in &oracle {
                let have = &got[user];
                let bits = |m: &UserMobility| -> Vec<u64> {
                    m.daily_max_displacement_km.iter().map(|k| k.to_bits()).collect()
                };
                proptest::prop_assert_eq!(bits(have), bits(want));
                proptest::prop_assert_eq!(&have.dwell_by_sector, &want.dwell_by_sector);
            }
        }
    }

    /// The empty bundle finishes into empty results.
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
        let empty = CorePartials::default().finish(&ctx);
        assert!(empty.activity.is_empty());
        assert!(empty.traffic.is_empty());
        assert!(empty.mobility.per_user.is_empty());
        assert!(empty.popularity.rank.is_empty());
        assert!(empty.owners.is_empty());
        assert_eq!(empty.hourly.weekday[0].transactions, 0.0);
    }
}
