//! Deterministic text snapshots of the partial aggregates — the
//! substrate of the streaming engine's checkpoint files.
//!
//! No serialization framework is vendored, so the format is hand-rolled:
//! line-oriented, tab-separated fields, a tag + element counts first, then
//! one line per element. Three rules make snapshots exact and stable:
//!
//! * map/set contents are written in **sorted key order**, so two partials
//!   with equal state produce byte-identical snapshots regardless of hash
//!   iteration order;
//! * `f64` values are written as the **hex of their IEEE-754 bit pattern**
//!   (`{:016x}` of [`f64::to_bits`]), so restore is bit-exact — the
//!   determinism contract of [`CorePartials`] survives a round-trip;
//! * empty collections and absent options are written as a literal `-`,
//!   never as an empty field (TSV cannot distinguish those).
//!
//! Sequence-valued state whose *order* is semantic (e.g. attributed
//! transactions, whose within-key order feeds a stable sort downstream) is
//! written in sequence order, not sorted.

use std::collections::{HashMap, HashSet};
use std::fmt;

use wearscope_appdb::AppId;
use wearscope_simtime::SimTime;
use wearscope_trace::UserId;

use crate::activity::UserActivity;
use crate::merge::{
    ActivityPartial, AppPopularityPartial, CorePartials, HourlyProfilePartial, MobilityPartial,
    TrafficPartial, TransactionStatsPartial,
};
use crate::mobility::UserMobility;
use crate::sessions::AttributedTx;

/// Error from [`Snapshot::restore`]: the snapshot text did not parse.
#[derive(Debug)]
pub struct SnapshotError {
    /// 1-based line number within the snapshot text.
    pub line: u64,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SnapshotError {}

/// Line cursor over snapshot text, shared by every [`Snapshot::restore`].
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    lines: std::str::Lines<'a>,
    line_no: u64,
}

impl<'a> SnapshotReader<'a> {
    /// Wraps a snapshot text.
    pub fn new(text: &'a str) -> SnapshotReader<'a> {
        SnapshotReader {
            lines: text.lines(),
            line_no: 0,
        }
    }

    /// 1-based number of the last line returned.
    pub fn line_no(&self) -> u64 {
        self.line_no
    }

    /// An error anchored at the current line.
    pub fn err(&self, message: impl Into<String>) -> SnapshotError {
        SnapshotError {
            line: self.line_no,
            message: message.into(),
        }
    }

    /// The next line, or an error at end of input.
    pub fn line(&mut self) -> Result<&'a str, SnapshotError> {
        self.line_no += 1;
        self.lines.next().ok_or(SnapshotError {
            line: self.line_no,
            message: "unexpected end of snapshot".into(),
        })
    }

    /// Reads a line whose first field must equal `tag`; returns the
    /// remaining tab-separated fields.
    pub fn tagged(&mut self, tag: &str) -> Result<Vec<&'a str>, SnapshotError> {
        let line = self.line()?;
        let mut fields = line.split('\t');
        let got = fields.next().unwrap_or("");
        if got != tag {
            return Err(self.err(format!("expected `{tag}` block, found `{got}`")));
        }
        Ok(fields.collect())
    }
}

/// State that serializes to deterministic text and restores bit-identically.
pub trait Snapshot: Sized {
    /// Appends this value's snapshot (one or more `\n`-terminated lines).
    fn snapshot(&self, out: &mut String);

    /// Restores a value previously written by [`Snapshot::snapshot`].
    ///
    /// # Errors
    /// Fails if the text at the cursor is not a snapshot of this type.
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

// ---------------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------------

fn push_u64_list(out: &mut String, items: impl Iterator<Item = u64>) {
    let mut any = false;
    for (i, v) in items.enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&v.to_string());
        any = true;
    }
    if !any {
        out.push('-');
    }
}

fn sorted<T: Ord + Copy>(set: &HashSet<T>) -> Vec<T> {
    let mut v: Vec<T> = set.iter().copied().collect();
    v.sort_unstable();
    v
}

fn parse_u64(r: &SnapshotReader<'_>, s: &str) -> Result<u64, SnapshotError> {
    s.parse::<u64>()
        .map_err(|_| r.err(format!("bad integer `{s}`")))
}

fn parse_usize(r: &SnapshotReader<'_>, s: &str) -> Result<usize, SnapshotError> {
    s.parse::<usize>()
        .map_err(|_| r.err(format!("bad count `{s}`")))
}

fn parse_u64_list(r: &SnapshotReader<'_>, s: &str) -> Result<Vec<u64>, SnapshotError> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(' ').map(|f| parse_u64(r, f)).collect()
}

fn f64_bits_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64_bits(r: &SnapshotReader<'_>, s: &str) -> Result<f64, SnapshotError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| r.err(format!("bad f64 bit pattern `{s}`")))
}

fn field<'a>(
    r: &SnapshotReader<'_>,
    fields: &[&'a str],
    idx: usize,
) -> Result<&'a str, SnapshotError> {
    fields
        .get(idx)
        .copied()
        .ok_or_else(|| r.err(format!("missing field {idx}")))
}

fn split_fields(line: &str) -> Vec<&str> {
    line.split('\t').collect()
}

// ---------------------------------------------------------------------------
// Partial impls
// ---------------------------------------------------------------------------

impl Snapshot for ActivityPartial {
    fn snapshot(&self, out: &mut String) {
        let mut users: Vec<&UserId> = self.per_user.keys().collect();
        users.sort_unstable();
        out.push_str(&format!("activity\t{}\n", users.len()));
        for user in users {
            let a = &self.per_user[user];
            out.push_str(&format!("{}\t{}\t{}\t", user.0, a.transactions, a.bytes));
            push_u64_list(out, sorted(&a.days).into_iter());
            out.push('\t');
            push_u64_list(out, sorted(&a.hours).into_iter());
            out.push('\n');
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let head = r.tagged("activity")?;
        let n = parse_usize(r, field(r, &head, 0)?)?;
        let mut per_user = HashMap::with_capacity(n);
        for _ in 0..n {
            let fields = split_fields(r.line()?);
            let user = UserId(parse_u64(r, field(r, &fields, 0)?)?);
            let a = UserActivity {
                transactions: parse_u64(r, field(r, &fields, 1)?)?,
                bytes: parse_u64(r, field(r, &fields, 2)?)?,
                days: parse_u64_list(r, field(r, &fields, 3)?)?
                    .into_iter()
                    .collect(),
                hours: parse_u64_list(r, field(r, &fields, 4)?)?
                    .into_iter()
                    .collect(),
            };
            per_user.insert(user, a);
        }
        Ok(ActivityPartial { per_user })
    }
}

impl Snapshot for HourlyProfilePartial {
    fn snapshot(&self, out: &mut String) {
        out.push_str("hourly\n");
        for slot in 0..48 {
            out.push_str(&format!("{}\t{}\n", self.tx[slot], self.bytes[slot]));
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.tagged("hourly")?;
        let mut partial = HourlyProfilePartial::default();
        for slot in 0..48 {
            let fields = split_fields(r.line()?);
            partial.tx[slot] = parse_u64(r, field(r, &fields, 0)?)?;
            partial.bytes[slot] = parse_u64(r, field(r, &fields, 1)?)?;
        }
        Ok(partial)
    }
}

impl Snapshot for TransactionStatsPartial {
    fn snapshot(&self, out: &mut String) {
        out.push_str(&format!("tx-stats\t{}\n", self.sizes.len()));
        if self.sizes.is_empty() {
            out.push('-');
        } else {
            for (i, v) in self.sizes.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&f64_bits_hex(*v));
            }
        }
        out.push('\n');
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let head = r.tagged("tx-stats")?;
        let n = parse_usize(r, field(r, &head, 0)?)?;
        let line = r.line()?;
        let mut sizes = Vec::with_capacity(n);
        if line != "-" {
            for f in line.split(' ') {
                sizes.push(parse_f64_bits(r, f)?);
            }
        }
        if sizes.len() != n {
            return Err(r.err(format!("expected {n} sizes, found {}", sizes.len())));
        }
        Ok(TransactionStatsPartial { sizes })
    }
}

impl Snapshot for TrafficPartial {
    fn snapshot(&self, out: &mut String) {
        let mut users: Vec<&UserId> = self.per_user.keys().collect();
        users.sort_unstable();
        out.push_str(&format!("traffic\t{}\n", users.len()));
        for user in users {
            let (bytes, tx) = self.per_user[user];
            out.push_str(&format!("{}\t{bytes}\t{tx}\n", user.0));
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let head = r.tagged("traffic")?;
        let n = parse_usize(r, field(r, &head, 0)?)?;
        let mut per_user = HashMap::with_capacity(n);
        for _ in 0..n {
            let fields = split_fields(r.line()?);
            per_user.insert(
                UserId(parse_u64(r, field(r, &fields, 0)?)?),
                (
                    parse_u64(r, field(r, &fields, 1)?)?,
                    parse_u64(r, field(r, &fields, 2)?)?,
                ),
            );
        }
        Ok(TrafficPartial { per_user })
    }
}

impl Snapshot for MobilityPartial {
    fn snapshot(&self, out: &mut String) {
        out.push_str(&format!(
            "mobility\t{}\t{}\t{}\t{}\n",
            self.current.len(),
            self.day_sectors.len(),
            self.per_user.len(),
            self.first_event.len()
        ));
        #[allow(clippy::type_complexity)]
        let mut cur: Vec<(&(UserId, u64), &(u32, SimTime))> = self.current.iter().collect();
        cur.sort_unstable_by_key(|(k, _)| **k);
        for ((user, imei), (sector, since)) in cur {
            out.push_str(&format!(
                "{}\t{imei}\t{sector}\t{}\n",
                user.0,
                since.as_secs()
            ));
        }
        let mut days: Vec<(&(UserId, u64), &HashSet<u32>)> = self.day_sectors.iter().collect();
        days.sort_unstable_by_key(|(k, _)| **k);
        for ((user, day), set) in days {
            out.push_str(&format!("{}\t{day}\t", user.0));
            push_u64_list(out, sorted(set).into_iter().map(u64::from));
            out.push('\n');
        }
        let mut users: Vec<&UserId> = self.per_user.keys().collect();
        users.sort_unstable();
        for user in users {
            let m = &self.per_user[user];
            debug_assert!(
                m.daily_max_displacement_km.is_empty(),
                "displacement is a finish-stage product, not partial state"
            );
            out.push_str(&format!("{}\t", user.0));
            let mut dwell: Vec<(u32, u64)> =
                m.dwell_by_sector.iter().map(|(s, d)| (*s, *d)).collect();
            dwell.sort_unstable();
            if dwell.is_empty() {
                out.push('-');
            } else {
                for (i, (sector, secs)) in dwell.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    out.push_str(&format!("{sector}:{secs}"));
                }
            }
            out.push('\n');
        }
        let mut firsts: Vec<(&(UserId, u64), &SimTime)> = self.first_event.iter().collect();
        firsts.sort_unstable_by_key(|(k, _)| **k);
        for ((user, imei), t) in firsts {
            out.push_str(&format!("{}\t{imei}\t{}\n", user.0, t.as_secs()));
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let head = r.tagged("mobility")?;
        let n_cur = parse_usize(r, field(r, &head, 0)?)?;
        let n_days = parse_usize(r, field(r, &head, 1)?)?;
        let n_users = parse_usize(r, field(r, &head, 2)?)?;
        let n_first = parse_usize(r, field(r, &head, 3)?)?;
        let mut partial = MobilityPartial::default();
        for _ in 0..n_cur {
            let fields = split_fields(r.line()?);
            let user = UserId(parse_u64(r, field(r, &fields, 0)?)?);
            let imei = parse_u64(r, field(r, &fields, 1)?)?;
            let sector = parse_u64(r, field(r, &fields, 2)?)? as u32;
            let since = SimTime::from_secs(parse_u64(r, field(r, &fields, 3)?)?);
            partial.current.insert((user, imei), (sector, since));
        }
        for _ in 0..n_days {
            let fields = split_fields(r.line()?);
            let user = UserId(parse_u64(r, field(r, &fields, 0)?)?);
            let day = parse_u64(r, field(r, &fields, 1)?)?;
            let sectors: HashSet<u32> = parse_u64_list(r, field(r, &fields, 2)?)?
                .into_iter()
                .map(|v| v as u32)
                .collect();
            partial.day_sectors.insert((user, day), sectors);
        }
        for _ in 0..n_users {
            let fields = split_fields(r.line()?);
            let user = UserId(parse_u64(r, field(r, &fields, 0)?)?);
            let mut m = UserMobility::default();
            let dwell = field(r, &fields, 1)?;
            if dwell != "-" {
                for pair in dwell.split(' ') {
                    let (sector, secs) = pair
                        .split_once(':')
                        .ok_or_else(|| r.err(format!("bad sector:dwell pair `{pair}`")))?;
                    m.dwell_by_sector
                        .insert(parse_u64(r, sector)? as u32, parse_u64(r, secs)?);
                }
            }
            partial.per_user.insert(user, m);
        }
        for _ in 0..n_first {
            let fields = split_fields(r.line()?);
            let user = UserId(parse_u64(r, field(r, &fields, 0)?)?);
            let imei = parse_u64(r, field(r, &fields, 1)?)?;
            let t = SimTime::from_secs(parse_u64(r, field(r, &fields, 2)?)?);
            partial.first_event.insert((user, imei), t);
        }
        Ok(partial)
    }
}

impl Snapshot for AppPopularityPartial {
    fn snapshot(&self, out: &mut String) {
        out.push_str(&format!(
            "popularity\t{}\t{}\n",
            self.day_users.len(),
            self.user_days.len()
        ));
        let mut day_users: Vec<(&(AppId, u64), &HashSet<UserId>)> = self.day_users.iter().collect();
        day_users.sort_unstable_by_key(|(k, _)| **k);
        for ((app, day), users) in day_users {
            out.push_str(&format!("{}\t{day}\t", app.0));
            push_u64_list(out, sorted(users).into_iter().map(|u| u.0));
            out.push('\n');
        }
        let mut user_days: Vec<(&(AppId, UserId), &HashSet<u64>)> = self.user_days.iter().collect();
        user_days.sort_unstable_by_key(|(k, _)| **k);
        for ((app, user), days) in user_days {
            out.push_str(&format!("{}\t{}\t", app.0, user.0));
            push_u64_list(out, sorted(days).into_iter());
            out.push('\n');
        }
        let mut apps: Vec<u16> = self.apps.iter().map(|a| a.0).collect();
        apps.sort_unstable();
        push_u64_list(out, apps.into_iter().map(u64::from));
        out.push('\n');
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let head = r.tagged("popularity")?;
        let n_day_users = parse_usize(r, field(r, &head, 0)?)?;
        let n_user_days = parse_usize(r, field(r, &head, 1)?)?;
        let mut partial = AppPopularityPartial::default();
        for _ in 0..n_day_users {
            let fields = split_fields(r.line()?);
            let app = AppId(parse_u64(r, field(r, &fields, 0)?)? as u16);
            let day = parse_u64(r, field(r, &fields, 1)?)?;
            let users: HashSet<UserId> = parse_u64_list(r, field(r, &fields, 2)?)?
                .into_iter()
                .map(UserId)
                .collect();
            partial.day_users.insert((app, day), users);
        }
        for _ in 0..n_user_days {
            let fields = split_fields(r.line()?);
            let app = AppId(parse_u64(r, field(r, &fields, 0)?)? as u16);
            let user = UserId(parse_u64(r, field(r, &fields, 1)?)?);
            let days: HashSet<u64> = parse_u64_list(r, field(r, &fields, 2)?)?
                .into_iter()
                .collect();
            partial.user_days.insert((app, user), days);
        }
        let apps_line = r.line()?;
        partial.apps = parse_u64_list(r, apps_line)?
            .into_iter()
            .map(|v| AppId(v as u16))
            .collect();
        Ok(partial)
    }
}

impl Snapshot for Vec<AttributedTx> {
    fn snapshot(&self, out: &mut String) {
        // Sequence order is semantic (it feeds a stable sort downstream):
        // written and restored in order, never sorted here.
        out.push_str(&format!("attributed\t{}\n", self.len()));
        for tx in self {
            let app = match tx.app {
                Some(a) => a.0.to_string(),
                None => "-".into(),
            };
            out.push_str(&format!(
                "{}\t{}\t{app}\t{}\t{}\n",
                tx.user.0,
                tx.timestamp.as_secs(),
                u8::from(tx.first_party),
                tx.bytes
            ));
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let head = r.tagged("attributed")?;
        let n = parse_usize(r, field(r, &head, 0)?)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let fields = split_fields(r.line()?);
            let app_field = field(r, &fields, 2)?;
            let app = if app_field == "-" {
                None
            } else {
                Some(AppId(parse_u64(r, app_field)? as u16))
            };
            let first_party = match field(r, &fields, 3)? {
                "0" => false,
                "1" => true,
                other => return Err(r.err(format!("bad first-party flag `{other}`"))),
            };
            out.push(AttributedTx {
                user: UserId(parse_u64(r, field(r, &fields, 0)?)?),
                timestamp: SimTime::from_secs(parse_u64(r, field(r, &fields, 1)?)?),
                app,
                first_party,
                bytes: parse_u64(r, field(r, &fields, 4)?)?,
            });
        }
        Ok(out)
    }
}

impl Snapshot for CorePartials {
    fn snapshot(&self, out: &mut String) {
        self.attributed.snapshot(out);
        self.activity.snapshot(out);
        self.hourly.snapshot(out);
        self.tx_stats.snapshot(out);
        self.traffic.snapshot(out);
        self.mobility.snapshot(out);
        self.popularity.snapshot(out);
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(CorePartials {
            attributed: Vec::<AttributedTx>::restore(r)?,
            activity: ActivityPartial::restore(r)?,
            hourly: HourlyProfilePartial::restore(r)?,
            tx_stats: TransactionStatsPartial::restore(r)?,
            traffic: TrafficPartial::restore(r)?,
            mobility: MobilityPartial::restore(r)?,
            popularity: AppPopularityPartial::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::StudyContext;
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::DeviceDb;
    use wearscope_geo::SectorDirectory;
    use wearscope_simtime::{Calendar, ObservationWindow};
    use wearscope_trace::{MmeEvent, MmeRecord, ProxyRecord, Scheme, TraceStore};

    fn roundtrip<T: Snapshot>(value: &T) -> T {
        let mut text = String::new();
        value.snapshot(&mut text);
        let mut reader = SnapshotReader::new(&text);
        let restored = T::restore(&mut reader).expect("snapshot should restore");
        let mut text2 = String::new();
        restored.snapshot(&mut text2);
        assert_eq!(text, text2, "snapshot must be a fixed point");
        restored
    }

    fn sample_ctx(store: &TraceStore) -> (DeviceDb, AppCatalog, SectorDirectory) {
        let _ = store;
        (
            DeviceDb::standard(),
            AppCatalog::standard(),
            SectorDirectory::new(),
        )
    }

    fn proxy(db: &DeviceDb, user: u64, t: u64, bytes: u64) -> ProxyRecord {
        ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei: db.example_imei(db.wearable_tacs()[0], user as u32).as_u64(),
            host: "api.weather.com".into(),
            scheme: Scheme::Https,
            bytes_down: bytes,
            bytes_up: 7,
        }
    }

    #[test]
    fn proxy_partials_roundtrip() {
        let db = DeviceDb::standard();
        let records: Vec<ProxyRecord> = (0..120)
            .map(|i| proxy(&db, i % 5, i * 733, 50 + i * 11))
            .collect();
        let store = TraceStore::from_records(records, vec![]);
        let (db, catalog, sectors) = sample_ctx(&store);
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let mut partials = CorePartials::default();
        for r in store.proxy() {
            partials.absorb_proxy(&ctx, r);
        }
        // Restored partials must also *finish* identically.
        let restored = roundtrip(&partials);
        let a = partials.finish(&ctx);
        let b = restored.finish(&ctx);
        assert_eq!(a.activity, b.activity);
        assert_eq!(a.hourly, b.hourly);
        assert_eq!(a.tx_stats, b.tx_stats);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn mobility_partial_roundtrips_with_open_dwell() {
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
            mme(700, MmeEvent::SectorUpdate, 6), // dwell closed, one open
        ];
        let store = TraceStore::new();
        let (db, catalog, sectors) = sample_ctx(&store);
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let mut partial = MobilityPartial::default();
        for r in &records {
            partial.absorb(r);
        }
        let restored = roundtrip(&partial);
        assert_eq!(restored.finish(&ctx), partial.finish(&ctx));
    }

    #[test]
    fn popularity_and_attributed_roundtrip() {
        let txs = vec![
            AttributedTx {
                user: UserId(3),
                timestamp: SimTime::from_secs(900),
                app: Some(AppId(2)),
                first_party: true,
                bytes: 512,
            },
            AttributedTx {
                user: UserId(1),
                timestamp: SimTime::from_secs(900),
                app: None,
                first_party: false,
                bytes: 64,
            },
        ];
        let restored = roundtrip(&txs);
        assert_eq!(restored, txs); // order preserved, not sorted
        let mut pop = AppPopularityPartial::default();
        for tx in &txs {
            pop.absorb(tx);
        }
        roundtrip(&pop);
    }

    #[test]
    fn restore_rejects_wrong_tag() {
        let mut text = String::new();
        ActivityPartial::default().snapshot(&mut text);
        let mut reader = SnapshotReader::new(&text);
        let err = TrafficPartial::restore(&mut reader).unwrap_err();
        assert!(err.to_string().contains("traffic"), "{err}");
    }

    #[test]
    fn empty_partials_roundtrip() {
        roundtrip(&ActivityPartial::default());
        roundtrip(&TrafficPartial::default());
        roundtrip(&MobilityPartial::default());
        roundtrip(&AppPopularityPartial::default());
        roundtrip(&TransactionStatsPartial::default());
        roundtrip(&HourlyProfilePartial::default());
        roundtrip(&Vec::<AttributedTx>::new());
    }
}
