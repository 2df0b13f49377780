//! Incremental third-party attribution.
//!
//! The batch pipeline attributes a third-party wearable transaction to the
//! app of the *temporally nearest* first-party transaction of the same
//! user within ±60 s ([`wearscope_core::sessions`]), with two lookahead
//! properties a streaming engine has to reproduce without seeing the
//! future: the nearest anchor may lie *after* the transaction, and ties
//! (equal gap both ways) go to the past anchor.
//!
//! The attributor keeps a per-user FIFO queue of pending transactions:
//!
//! * a **first-party** arrival resolves every queued transaction it is a
//!   future anchor for (its time exceeds theirs), becomes the past-anchor
//!   candidate for the rest, and enqueues itself already resolved;
//! * a **third-party** arrival enqueues carrying the best past anchor seen
//!   so far, and waits;
//! * when the low watermark `W` passes `t + 60 s`, a transaction at `t`
//!   can no longer gain a future anchor (every kept arrival has timestamp
//!   `>= W`) and is resolved from its past candidate alone.
//!
//! Emission drains each queue **front-in-order**: a resolved transaction
//! behind a still-waiting one stays queued, so per-user emission order
//! equals arrival order — which is what makes the merged streaming output,
//! after the final stable sort by `(user, timestamp)`, bit-identical to
//! the batch attribution on an in-order stream.
//!
//! **Late-record caveat.** On a stream with records later than an already
//! seen anchor (possible within the allowed lateness), attribution is a
//! best-effort approximation of the batch result: the late transaction
//! resolves against the current anchor state rather than the full
//! timeline. On an in-order stream — every persisted world — the two are
//! identical; the golden equivalence test pins that down. The runtime
//! counts each such resolution in the `stream.attrib.approximate` metric,
//! so a divergence from batch is never silent.

use std::collections::{HashMap, VecDeque};

use wearscope_appdb::{AppId, Classification};
use wearscope_core::sessions::{AttributedTx, SESSION_GAP_SECS};
use wearscope_core::snapshot::{
    sorted_entries, Row, RowWriter, Snapshot, SnapshotError, SnapshotReader,
};
use wearscope_simtime::{SimDuration, SimTime};
use wearscope_trace::UserId;

/// The ± attribution gap as a duration.
fn gap() -> SimDuration {
    SimDuration::from_secs(SESSION_GAP_SECS)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TxState {
    /// Attribution decided; waiting only for queue order.
    Ready { app: Option<AppId> },
    /// Waiting for a possible future anchor, carrying the best past one.
    Waiting { past: Option<(SimTime, AppId)> },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct QueuedTx {
    t: SimTime,
    bytes: u64,
    class: Option<Classification>,
    state: TxState,
}

#[derive(Clone, Debug, Default)]
struct UserState {
    queue: VecDeque<QueuedTx>,
    /// The most recent first-party anchor (later log order wins ties).
    last_anchor: Option<(SimTime, AppId)>,
}

/// Nearest-anchor resolution: past wins ties, both sides capped at ±60 s.
fn resolve(
    past: Option<(SimTime, AppId)>,
    future: Option<(SimTime, AppId)>,
    t: SimTime,
) -> Option<AppId> {
    let mut best: Option<(u64, AppId)> = None;
    if let Some((at, app)) = past {
        let g = t.saturating_since(at).as_secs();
        if g <= SESSION_GAP_SECS {
            best = Some((g, app));
        }
    }
    if let Some((at, app)) = future {
        let g = at.saturating_since(t).as_secs();
        if g <= SESSION_GAP_SECS && best.is_none_or(|(bg, _)| g < bg) {
            best = Some((g, app));
        }
    }
    best.map(|(_, a)| a)
}

/// Streaming replacement for batch nearest-anchor attribution.
#[derive(Clone, Debug, Default)]
pub struct StreamingAttributor {
    users: HashMap<UserId, UserState>,
}

impl StreamingAttributor {
    /// An attributor with no pending state.
    pub fn new() -> StreamingAttributor {
        StreamingAttributor::default()
    }

    /// Transactions queued (resolved or waiting) across all users.
    pub fn pending(&self) -> usize {
        self.users.values().map(|u| u.queue.len()).sum()
    }

    /// Feeds one wearable transaction with its host's classification.
    /// Resolved transactions that reach the queue front are appended to
    /// `out` in arrival order. Returns `true` when the transaction is late
    /// behind an anchor already seen and was resolved by the late-record
    /// approximation.
    pub fn observe(
        &mut self,
        user: UserId,
        t: SimTime,
        class: Option<Classification>,
        bytes: u64,
        out: &mut Vec<AttributedTx>,
    ) -> bool {
        let state = self.users.entry(user).or_default();
        let mut approximate = false;
        match class {
            Some(Classification::FirstParty(a)) => {
                let anchor = (t, a);
                for entry in state.queue.iter_mut() {
                    if let TxState::Waiting { past } = entry.state {
                        if t > entry.t {
                            // This arrival is the first future anchor the
                            // queued tx will ever see (arrivals are
                            // time-ordered on in-order streams).
                            entry.state = TxState::Ready {
                                app: resolve(past, Some(anchor), entry.t),
                            };
                        } else {
                            // A (newer) past candidate: later log order
                            // wins among anchors at or before the tx.
                            let replace = past.is_none_or(|(at, _)| at <= t);
                            if replace {
                                entry.state = TxState::Waiting { past: Some(anchor) };
                            }
                        }
                    }
                }
                state.queue.push_back(QueuedTx {
                    t,
                    bytes,
                    class,
                    state: TxState::Ready { app: Some(a) },
                });
                let replace = state.last_anchor.is_none_or(|(at, _)| at <= t);
                if replace {
                    state.last_anchor = Some(anchor);
                }
            }
            _ => {
                let entry = match state.last_anchor {
                    // Late transaction behind the current anchor: resolve
                    // against it as an already-seen future anchor (the
                    // documented late-record approximation).
                    Some((at, a)) if at > t => {
                        approximate = true;
                        QueuedTx {
                            t,
                            bytes,
                            class,
                            state: TxState::Ready {
                                app: resolve(None, Some((at, a)), t),
                            },
                        }
                    }
                    past => QueuedTx {
                        t,
                        bytes,
                        class,
                        state: TxState::Waiting { past },
                    },
                };
                state.queue.push_back(entry);
            }
        }
        Self::drain(user, state, out);
        approximate
    }

    /// Advances the low watermark: transactions whose future-anchor window
    /// is closed (`t + 60 s < watermark`) resolve from their past
    /// candidate. Users are visited in sorted order for determinism.
    pub fn advance(&mut self, watermark: SimTime, out: &mut Vec<AttributedTx>) {
        let mut users: Vec<UserId> = self.users.keys().copied().collect();
        users.sort_unstable();
        for user in users {
            let state = self.users.get_mut(&user).expect("user state present");
            for entry in state.queue.iter_mut() {
                if let TxState::Waiting { past } = entry.state {
                    if entry.t.saturating_add(gap()) < watermark {
                        entry.state = TxState::Ready {
                            app: resolve(past, None, entry.t),
                        };
                    }
                }
            }
            Self::drain(user, state, out);
        }
    }

    /// End of stream: resolves everything still waiting and drains all
    /// queues (no future anchor can arrive anymore).
    pub fn flush(&mut self, out: &mut Vec<AttributedTx>) {
        self.advance(SimTime::MAX, out);
    }

    fn drain(user: UserId, state: &mut UserState, out: &mut Vec<AttributedTx>) {
        while let Some(front) = state.queue.front() {
            match front.state {
                TxState::Ready { app } => {
                    out.push(AttributedTx {
                        user,
                        timestamp: front.t,
                        app,
                        class: front.class,
                        bytes: front.bytes,
                    });
                    state.queue.pop_front();
                }
                TxState::Waiting { .. } => break,
            }
        }
    }
}

/// An anchor as two fields, time then app (`-\t-` for none).
fn split_anchor(anchor: Option<(SimTime, AppId)>) -> (Option<SimTime>, Option<AppId>) {
    (anchor.map(|(at, _)| at), anchor.map(|(_, app)| app))
}

/// Reads the two fields [`split_anchor`] writes.
fn read_anchor(row: &mut Row<'_>) -> Result<Option<(SimTime, AppId)>, SnapshotError> {
    match (row.field()?, row.field()?) {
        (Some(at), Some(app)) => Ok(Some((at, app))),
        (None, None) => Ok(None),
        _ => Err(row.err("an anchor needs both its time and its app, or neither")),
    }
}

impl Snapshot for StreamingAttributor {
    fn snapshot(&self, out: &mut String) {
        RowWriter::tagged(out, "attributor")
            .put(self.users.len())
            .end();
        for (user, state) in sorted_entries(&self.users) {
            let (at, app) = split_anchor(state.last_anchor);
            RowWriter::tagged(out, "u")
                .put(*user)
                .put(at)
                .put(app)
                .put(state.queue.len())
                .end();
            for entry in &state.queue {
                let row = RowWriter::tagged(out, "q")
                    .put(entry.t)
                    .put(entry.bytes)
                    .put(entry.class);
                match entry.state {
                    TxState::Ready { app } => {
                        row.raw("R").put(app).end();
                    }
                    TxState::Waiting { past } => {
                        let (at, app) = split_anchor(past);
                        row.raw("W").put(at).put(app).end();
                    }
                }
            }
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut users = HashMap::new();
        for _ in 0..r.count("attributor")? {
            let mut row = r.tagged("u")?;
            let user = row.field()?;
            let last_anchor = read_anchor(&mut row)?;
            let n_queue: u64 = row.field()?;
            row.end()?;
            let mut queue = VecDeque::new();
            for _ in 0..n_queue {
                let mut row = r.tagged("q")?;
                let (t, bytes, class) = (row.field()?, row.field()?, row.field()?);
                let state = match row.raw()? {
                    "R" => TxState::Ready { app: row.field()? },
                    "W" => TxState::Waiting {
                        past: read_anchor(&mut row)?,
                    },
                    other => return Err(row.err(format!("bad queue state `{other}`"))),
                };
                row.end()?;
                queue.push_back(QueuedTx {
                    t,
                    bytes,
                    class,
                    state,
                });
            }
            users.insert(user, UserState { queue, last_anchor });
        }
        Ok(StreamingAttributor { users })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_appdb::AppCatalog;
    use wearscope_core::sessions::attribute_records;
    use wearscope_core::StudyContext;
    use wearscope_devicedb::DeviceDb;
    use wearscope_geo::SectorDirectory;
    use wearscope_simtime::{Calendar, ObservationWindow};
    use wearscope_trace::{HostId, ProxyRecord, Scheme, TraceStore};

    fn observe_record(
        ctx: &StudyContext<'_>,
        attrib: &mut StreamingAttributor,
        r: &ProxyRecord,
        out: &mut Vec<AttributedTx>,
    ) -> bool {
        if !ctx.is_wearable_record(r) {
            return false;
        }
        let class = ctx.host_class(r.host).classification;
        attrib.observe(r.user, r.timestamp, class, r.bytes_total(), out)
    }

    fn wtx(db: &DeviceDb, user: u64, t: u64, host: &str) -> ProxyRecord {
        ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei: db.example_imei(db.wearable_tacs()[0], user as u32).as_u64(),
            host: HostId::intern(host),
            scheme: Scheme::Https,
            bytes_down: 100,
            bytes_up: 10,
        }
    }

    /// Streaming attribution over an in-order stream reproduces the batch
    /// result exactly, including emission usable for the final stable
    /// sort: same multiset AND same within-(user,timestamp) order.
    #[test]
    fn matches_batch_attribution_on_in_order_stream() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        // A host mix with first-party anchors, third-party CDN hits, and
        // unattributable noise, interleaved across 3 users.
        let fp_host = "api.weather.com";
        let tp_host = "cdn.telemetry.example";
        let mut records = Vec::new();
        for i in 0..240u64 {
            let user = 1 + i % 3;
            let host = match i % 5 {
                0 | 3 => fp_host,
                1 | 2 => tp_host,
                _ => "unmatched.example",
            };
            records.push(wtx(&db, user, i * 37, host));
        }
        records.sort_by_key(|r| r.timestamp);
        let store = TraceStore::from_records(records.clone(), vec![]);
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let batch = attribute_records(&ctx, &records);

        let mut attrib = StreamingAttributor::new();
        let mut streamed = Vec::new();
        for r in &records {
            let approximate = observe_record(&ctx, &mut attrib, r, &mut streamed);
            assert!(!approximate, "an in-order stream needs no approximation");
            // Exercise watermark-driven resolution along the way.
            attrib.advance(
                r.timestamp.saturating_sub(SimDuration::from_secs(300)),
                &mut streamed,
            );
        }
        attrib.flush(&mut streamed);
        assert_eq!(attrib.pending(), 0);
        streamed.sort_by_key(|t| (t.user, t.timestamp));
        assert_eq!(streamed, batch);
    }

    #[test]
    fn past_anchor_wins_ties_and_future_wins_strictly_closer() {
        let app_a = AppId(1);
        let app_b = AppId(2);
        // Tie: past at t-30, future at t+30 → past.
        assert_eq!(
            resolve(
                Some((SimTime::from_secs(70), app_a)),
                Some((SimTime::from_secs(130), app_b)),
                SimTime::from_secs(100)
            ),
            Some(app_a)
        );
        // Future strictly closer → future.
        assert_eq!(
            resolve(
                Some((SimTime::from_secs(30), app_a)),
                Some((SimTime::from_secs(120), app_b)),
                SimTime::from_secs(100)
            ),
            Some(app_b)
        );
        // Both out of range → unattributed.
        assert_eq!(
            resolve(
                Some((SimTime::from_secs(0), app_a)),
                Some((SimTime::from_secs(200), app_b)),
                SimTime::from_secs(100)
            ),
            None
        );
    }

    /// A first-party transaction behind a waiting third-party one must not
    /// overtake it in the emission order.
    #[test]
    fn emission_preserves_arrival_order_per_user() {
        let mut attrib = StreamingAttributor::new();
        let mut out = Vec::new();
        let user = UserId(9);
        // Third-party at t=100 (waits), first-party at t=100 (tie time):
        // the anchor is not strictly later, so the third-party tx keeps
        // waiting — and the first-party tx must queue behind it.
        attrib.observe(user, SimTime::from_secs(100), None, 5, &mut out);
        attrib.observe(
            user,
            SimTime::from_secs(100),
            Some(Classification::FirstParty(AppId(3))),
            7,
            &mut out,
        );
        assert!(out.is_empty(), "nothing may emit past a waiting tx");
        assert_eq!(attrib.pending(), 2);
        attrib.flush(&mut out);
        assert_eq!(out.len(), 2);
        // Arrival order preserved; the waiting tx resolved to the tie-time
        // anchor (gap 0, past side).
        assert_eq!(out[0].timestamp, SimTime::from_secs(100));
        assert!(!out[0].first_party());
        assert_eq!(out[0].app, Some(AppId(3)));
        assert!(out[1].first_party());
    }

    /// A third-party transaction behind the latest anchor resolves at once
    /// against it as a future anchor, and says so.
    #[test]
    fn late_transaction_behind_an_anchor_is_an_approximation() {
        let mut attrib = StreamingAttributor::new();
        let mut out = Vec::new();
        let user = UserId(4);
        let app = Some(AppId(2));
        let class = Some(Classification::FirstParty(AppId(2)));
        assert!(!attrib.observe(user, SimTime::from_secs(500), class, 9, &mut out));
        assert!(attrib.observe(user, SimTime::from_secs(470), None, 3, &mut out));
        // In order behind the anchor: waits for a future one instead.
        assert!(!attrib.observe(user, SimTime::from_secs(520), None, 3, &mut out));
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].app, app);
    }

    /// Watermark resolution: `t + 60 < W` closes the future window.
    #[test]
    fn advance_resolves_only_past_the_gap() {
        let mut attrib = StreamingAttributor::new();
        let mut out = Vec::new();
        let user = UserId(1);
        attrib.observe(user, SimTime::from_secs(100), None, 1, &mut out);
        // W = 160: 100 + 60 is not < 160 → still waiting (an anchor at
        // exactly t=160 could still claim it with gap 60).
        attrib.advance(SimTime::from_secs(160), &mut out);
        assert_eq!(attrib.pending(), 1);
        // W = 161: closed, resolves unattributed (no past anchor).
        attrib.advance(SimTime::from_secs(161), &mut out);
        assert_eq!(attrib.pending(), 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].app, None);
    }

    #[test]
    fn snapshot_roundtrips_mid_flight_state() {
        let mut attrib = StreamingAttributor::new();
        let mut out = Vec::new();
        attrib.observe(
            UserId(2),
            SimTime::from_secs(50),
            Some(Classification::FirstParty(AppId(4))),
            9,
            &mut out,
        );
        attrib.observe(UserId(1), SimTime::from_secs(80), None, 3, &mut out);
        attrib.observe(UserId(1), SimTime::from_secs(90), None, 4, &mut out);
        let mut text = String::new();
        attrib.snapshot(&mut text);
        let mut reader = SnapshotReader::new(&text);
        let restored = StreamingAttributor::restore(&mut reader).unwrap();
        let mut text2 = String::new();
        restored.snapshot(&mut text2);
        assert_eq!(text, text2);
        // Restored state must flush to the same emissions.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        attrib.flush(&mut a);
        let mut restored = restored;
        restored.flush(&mut b);
        assert_eq!(a, b);
    }
}
