//! The checkpoint codec: deterministic text snapshots of the partial
//! aggregates, and the one row/field layer through which every block of a
//! stream checkpoint is written and read.
//!
//! No serialization framework is vendored, so the format is hand-rolled
//! and line-oriented. Its rules live here and nowhere else:
//!
//! * a block opens with a **tagged header line** — the tag, then the
//!   block's element counts — followed by one line per element;
//! * fields are **tab-separated**; a list field is **space-separated**,
//!   and an empty list is a literal `-`, never an empty field (TSV cannot
//!   tell those apart); an absent option is a literal `-` too;
//! * there is **no float**: [`CorePartials`] holds only exact state and
//!   derives every float in `finish`, so its determinism contract
//!   survives a round-trip;
//! * map and set contents are written in **sorted key order**, so two
//!   partials with equal state produce byte-identical snapshots regardless
//!   of hash iteration order. Sequence-valued state whose *order* is
//!   semantic (attributed transactions, whose within-key order feeds a
//!   stable sort downstream, and each wearable device's sightings and
//!   transactions) is written in sequence order instead.
//!
//! A checkpoint is a file a user can hand us, so reading follows two more
//! rules and a damaged one gives a [`SnapshotError`] naming its line, never
//! a panic:
//!
//! * a **count only bounds a loop** that reads one line per element, so a
//!   count larger than the text ends at the last line; no count sizes an
//!   allocation;
//! * every value is parsed into its **typed range** by its [`Field`] impl:
//!   an app id above `u16::MAX` or a flag other than `0`/`1` is an error,
//!   never a truncating cast.
//!
//! [`RowWriter`] writes a line and [`Row`] reads one back, field by field.

use std::collections::BTreeSet;
use std::fmt::{self, Write as _};
use std::ops::Range;

use wearscope_appdb::{AppId, Classification, DomainClass, ThroughDeviceKind};
use wearscope_simtime::SimTime;
use wearscope_trace::UserId;

use crate::hash::{HashMap, HashSet};
use crate::merge::{
    CorePartials, FarthestPair, HourlyProfilePartial, MmeStream, MobilityPartial, QualityPartial,
    TrafficPartial, WearablePartial,
};
use crate::mobility::UserMobility;
use crate::sessions::{AttributedTx, Attributor, UserTxs};

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

// ---------------------------------------------------------------------------
// Fields
// ---------------------------------------------------------------------------

/// A value that is one field (or one list element) of a snapshot line.
pub trait Field: Sized {
    /// Appends the value's text.
    fn write(&self, out: &mut String);

    /// Parses text written by [`Field::write`].
    ///
    /// # Errors
    /// A description of the text when it is not a value of this type.
    fn parse(s: &str) -> Result<Self, String>;
}

macro_rules! integer_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn parse(s: &str) -> Result<Self, String> {
                s.parse()
                    .map_err(|_| format!("`{s}` is not a {}", stringify!($t)))
            }
        }
    )*};
}

integer_field!(u64, u32, u16, usize);

impl Field for bool {
    fn write(&self, out: &mut String) {
        out.push(if *self { '1' } else { '0' });
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("`{s}` is not a 0/1 flag")),
        }
    }
}

impl Field for SimTime {
    fn write(&self, out: &mut String) {
        self.as_secs().write(out);
    }

    fn parse(s: &str) -> Result<Self, String> {
        u64::parse(s).map(SimTime::from_secs)
    }
}

impl Field for UserId {
    fn write(&self, out: &mut String) {
        self.0.write(out);
    }

    fn parse(s: &str) -> Result<Self, String> {
        u64::parse(s).map(UserId)
    }
}

impl Field for AppId {
    fn write(&self, out: &mut String) {
        self.0.write(out);
    }

    fn parse(s: &str) -> Result<Self, String> {
        u16::parse(s).map(AppId)
    }
}

/// A first-party app as its id, a third-party class by its name.
impl Field for Classification {
    fn write(&self, out: &mut String) {
        match self {
            Classification::FirstParty(app) => app.write(out),
            Classification::ThirdParty(class) => out.push_str(class.name()),
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match DomainClass::ALL.into_iter().find(|c| c.name() == s) {
            Some(class) => Ok(Classification::ThirdParty(class)),
            None => AppId::parse(s)
                .map(Classification::FirstParty)
                .map_err(|_| format!("`{s}` is not an app id or a domain class")),
        }
    }
}

impl Field for ThroughDeviceKind {
    fn write(&self, out: &mut String) {
        out.push_str(self.name());
    }

    fn parse(s: &str) -> Result<Self, String> {
        ThroughDeviceKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("`{s}` is not a Through-Device kind"))
    }
}

/// `-` for `None`.
impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push('-'),
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        if s == "-" {
            Ok(None)
        } else {
            T::parse(s).map(Some)
        }
    }
}

/// `a-b` for a pair of sectors `a < b`, `a` for one sector.
impl Field for FarthestPair {
    fn write(&self, out: &mut String) {
        self.0.write(out);
        if self.1 != self.0 {
            out.push('-');
            self.1.write(out);
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        let not_a_pair = || format!("`{s}` is not a sector pair a-b with a < b, or one sector");
        match s.split_once('-') {
            None => u32::parse(s).map(|a| FarthestPair(a, a)),
            Some((a, b)) => match (u32::parse(a), u32::parse(b)) {
                (Ok(a), Ok(b)) if a < b => Ok(FarthestPair(a, b)),
                _ => Err(not_a_pair()),
            },
        }
    }
}

/// A `key:value` pair, for list elements.
impl<A: Field, B: Field> Field for (A, B) {
    fn write(&self, out: &mut String) {
        self.0.write(out);
        out.push(':');
        self.1.write(out);
    }

    fn parse(s: &str) -> Result<Self, String> {
        let (a, b) = s
            .split_once(':')
            .ok_or_else(|| format!("`{s}` is not a key:value pair"))?;
        Ok((A::parse(a)?, B::parse(b)?))
    }
}

// ---------------------------------------------------------------------------
// Rows
// ---------------------------------------------------------------------------

/// Writes one snapshot line, field by field; [`RowWriter::end`] closes it.
#[must_use = "a line is complete only after `end`"]
#[derive(Debug)]
pub struct RowWriter<'o> {
    out: &'o mut String,
    empty: bool,
}

impl<'o> RowWriter<'o> {
    /// Starts an element line.
    pub fn new(out: &'o mut String) -> RowWriter<'o> {
        RowWriter { out, empty: true }
    }

    /// Starts a block's header line with its tag.
    pub fn tagged(out: &'o mut String, tag: &str) -> RowWriter<'o> {
        out.push_str(tag);
        RowWriter { out, empty: false }
    }

    fn separate(&mut self) {
        if !self.empty {
            self.out.push('\t');
        }
        self.empty = false;
    }

    /// Appends one field.
    pub fn put<T: Field>(mut self, value: T) -> RowWriter<'o> {
        self.separate();
        value.write(self.out);
        self
    }

    /// Appends one field of literal text (a tag-like marker).
    pub fn raw(mut self, text: &str) -> RowWriter<'o> {
        self.separate();
        self.out.push_str(text);
        self
    }

    /// Appends one list field: the items space-separated, `-` if none.
    pub fn list<T: Field>(mut self, items: impl IntoIterator<Item = T>) -> RowWriter<'o> {
        self.separate();
        let mut items = items.into_iter();
        match items.next() {
            None => self.out.push('-'),
            Some(first) => {
                first.write(self.out);
                for item in items {
                    self.out.push(' ');
                    item.write(self.out);
                }
            }
        }
        self
    }

    /// Ends the line.
    pub fn end(self) {
        self.out.push('\n');
    }
}

/// The fields of one snapshot line, read left to right.
#[derive(Debug)]
pub struct Row<'a> {
    fields: std::str::Split<'a, char>,
    line: u64,
    read: usize,
}

impl<'a> Row<'a> {
    /// The fields of `text`, which is line `line` (1-based) of a snapshot.
    pub fn new(text: &'a str, line: u64) -> Row<'a> {
        Row {
            fields: text.split('\t'),
            line,
            read: 0,
        }
    }

    /// An error anchored at this row's line.
    pub fn err(&self, message: impl Into<String>) -> SnapshotError {
        SnapshotError {
            line: self.line,
            message: message.into(),
        }
    }

    /// The next field's text.
    ///
    /// # Errors
    /// Fails when the line has no field left.
    pub fn raw(&mut self) -> Result<&'a str, SnapshotError> {
        self.read += 1;
        match self.fields.next() {
            Some(field) => Ok(field),
            None => Err(self.err(format!("missing field {}", self.read))),
        }
    }

    /// The next field as a `T`.
    ///
    /// # Errors
    /// Fails when the field is missing or not a `T`.
    pub fn field<T: Field>(&mut self) -> Result<T, SnapshotError> {
        let text = self.raw()?;
        T::parse(text).map_err(|m| self.err(format!("field {}: {m}", self.read)))
    }

    /// The next field as a list of `T` (`-` for an empty one), collected.
    ///
    /// # Errors
    /// Fails when the field is missing or an item is not a `T`.
    pub fn list<T: Field, C: FromIterator<T>>(&mut self) -> Result<C, SnapshotError> {
        let text = self.raw()?;
        if text == "-" {
            return Ok(std::iter::empty().collect());
        }
        text.split(' ')
            .map(T::parse)
            .collect::<Result<C, String>>()
            .map_err(|m| self.err(format!("field {}: {m}", self.read)))
    }

    /// Checks that every field was read.
    ///
    /// # Errors
    /// Fails on a field left over.
    pub fn end(mut self) -> Result<(), SnapshotError> {
        match self.fields.next() {
            None => Ok(()),
            Some(extra) => Err(self.err(format!("unexpected field {} `{extra}`", self.read + 1))),
        }
    }
}

/// What a closed user-day read back must be: a day its partial could
/// have closed, whose farthest pair names sectors of the cell plan.
#[derive(Clone, Debug)]
pub struct ClosedDayBounds {
    /// Sectors in the cell plan.
    pub sectors: usize,
    /// The days the partial could have closed.
    pub days: Range<u64>,
}

/// Line cursor over snapshot text, shared by every [`Snapshot::restore`].
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    lines: std::str::Lines<'a>,
    line_no: u64,
    closed_days: Option<ClosedDayBounds>,
}

impl<'a> SnapshotReader<'a> {
    /// Wraps a snapshot text.
    pub fn new(text: &'a str) -> SnapshotReader<'a> {
        SnapshotReader {
            lines: text.lines(),
            line_no: 0,
            closed_days: None,
        }
    }

    /// Checks each closed user-day read from here on against `bounds`
    /// (by default, none is checked).
    pub fn bound_closed_days(&mut self, bounds: ClosedDayBounds) {
        self.closed_days = Some(bounds);
    }

    /// An error anchored at the last line read.
    pub fn err(&self, message: impl Into<String>) -> SnapshotError {
        SnapshotError {
            line: self.line_no,
            message: message.into(),
        }
    }

    /// The next line's text, for lines held in another format (the
    /// header, log records).
    ///
    /// # Errors
    /// Fails at the end of the text.
    pub fn line(&mut self) -> Result<&'a str, SnapshotError> {
        self.line_no += 1;
        self.lines.next().ok_or(SnapshotError {
            line: self.line_no,
            message: "unexpected end of snapshot".into(),
        })
    }

    /// The next line's fields.
    ///
    /// # Errors
    /// Fails at the end of the text.
    pub fn row(&mut self) -> Result<Row<'a>, SnapshotError> {
        let text = self.line()?;
        Ok(Row::new(text, self.line_no))
    }

    /// The next line's fields after its first, which must be `tag`.
    ///
    /// # Errors
    /// Fails at the end of the text or on another tag.
    pub fn tagged(&mut self, tag: &str) -> Result<Row<'a>, SnapshotError> {
        let mut row = self.row()?;
        let found = row.raw()?;
        if found != tag {
            return Err(row.err(format!("expected `{tag}` block, found `{found}`")));
        }
        Ok(row)
    }

    /// Reads a line `tag<TAB>n` and returns `n` (a block's count, or an
    /// id).
    ///
    /// # Errors
    /// Fails like [`tagged`](Self::tagged), or on a bad or extra field.
    pub fn count(&mut self, tag: &str) -> Result<u64, SnapshotError> {
        let mut row = self.tagged(tag)?;
        let n = row.field()?;
        row.end()?;
        Ok(n)
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

/// A set's elements in ascending order.
fn sorted<T: Ord + Copy>(set: &HashSet<T>) -> Vec<T> {
    let mut v: Vec<T> = set.iter().copied().collect();
    v.sort_unstable();
    v
}

/// Reads a one-line block: `tag`, then one list field.
fn list_block<T: Field, C: FromIterator<T>>(
    r: &mut SnapshotReader<'_>,
    tag: &str,
) -> Result<C, SnapshotError> {
    let mut row = r.tagged(tag)?;
    let items = row.list()?;
    row.end()?;
    Ok(items)
}

/// A map's entries in ascending key order.
pub fn sorted_entries<K: Ord, V>(map: &HashMap<K, V>) -> Vec<(&K, &V)> {
    let mut v: Vec<(&K, &V)> = map.iter().collect();
    v.sort_unstable_by(|a, b| a.0.cmp(b.0));
    v
}

// ---------------------------------------------------------------------------
// Partial impls
// ---------------------------------------------------------------------------

/// Only the slots some record reached, as `slot all-tx`.
impl Snapshot for HourlyProfilePartial {
    fn snapshot(&self, out: &mut String) {
        let slots: Vec<usize> = (0..168).filter(|&s| self.all_tx[s] != 0).collect();
        RowWriter::tagged(out, "hourly").put(slots.len()).end();
        for s in slots {
            RowWriter::new(out).put(s).put(self.all_tx[s]).end();
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut partial = HourlyProfilePartial::default();
        for _ in 0..r.count("hourly")? {
            let mut row = r.row()?;
            let s: usize = row.field()?;
            if s >= 168 {
                return Err(row.err(format!("slot {s} is not below 168")));
            }
            partial.all_tx[s] = row.field()?;
            row.end()?;
        }
        Ok(partial)
    }
}

impl Snapshot for TrafficPartial {
    fn snapshot(&self, out: &mut String) {
        RowWriter::tagged(out, "traffic")
            .put(self.per_user.len())
            .end();
        for (user, &(bytes, tx)) in sorted_entries(&self.per_user) {
            RowWriter::new(out).put(*user).put(bytes).put(tx).end();
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut per_user = HashMap::default();
        for _ in 0..r.count("traffic")? {
            let mut row = r.row()?;
            per_user.insert(row.field()?, (row.field()?, row.field()?));
            row.end()?;
        }
        Ok(TrafficPartial { per_user })
    }
}

/// One row per MME stream, `user imei first sector since`, with `-` and
/// `-` for a stream that is not attached; then one `user day sectors` row
/// per open user-day, one `user day:pair …` row per user with closed
/// days (ascending), and the dwell counters.
impl Snapshot for MobilityPartial {
    fn snapshot(&self, out: &mut String) {
        RowWriter::tagged(out, "mobility")
            .put(self.streams.len())
            .put(self.open_days.len())
            .put(self.closed_days.len())
            .put(self.per_user.len())
            .end();
        for (&(user, imei), stream) in sorted_entries(&self.streams) {
            RowWriter::new(out)
                .put(user)
                .put(imei)
                .put(stream.first)
                .put(stream.open.map(|(sector, _)| sector))
                .put(stream.open.map(|(_, since)| since))
                .end();
        }
        for (&(user, day), sectors) in sorted_entries(&self.open_days) {
            RowWriter::new(out)
                .put(user)
                .put(day)
                .list(sectors.iter().copied())
                .end();
        }
        for (&user, closed) in sorted_entries(&self.closed_days) {
            RowWriter::new(out)
                .put(user)
                .list(closed.iter().copied())
                .end();
        }
        for (user, m) in sorted_entries(&self.per_user) {
            debug_assert!(
                m.daily_max_displacement_km.is_empty(),
                "displacement is a finish-stage product, not partial state"
            );
            let dwell = sorted_entries(&m.dwell_by_sector);
            RowWriter::new(out)
                .put(*user)
                .list(dwell.into_iter().map(|(&sector, &secs)| (sector, secs)))
                .end();
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut head = r.tagged("mobility")?;
        let counts: [u64; 4] = [head.field()?, head.field()?, head.field()?, head.field()?];
        head.end()?;
        let mut partial = MobilityPartial::default();
        for _ in 0..counts[0] {
            let mut row = r.row()?;
            let key = (row.field()?, row.field()?);
            let first = row.field()?;
            let open = match (row.field()?, row.field()?) {
                (Some(sector), Some(since)) => Some((sector, since)),
                (None, None) => None,
                _ => return Err(row.err("sector and since must both be present or both `-`")),
            };
            row.end()?;
            partial.streams.insert(key, MmeStream { first, open });
        }
        for _ in 0..counts[1] {
            let mut row = r.row()?;
            let (user, day): (UserId, u64) = (row.field()?, row.field()?);
            // Ascending and distinct, whatever order the text has.
            let sectors: BTreeSet<u32> = row.list()?;
            row.end()?;
            let sectors = sectors.into_iter().collect::<Vec<u32>>();
            if sectors.is_empty() || partial.open_days.insert((user, day), sectors).is_some() {
                return Err(r.err(format!("open day {day} is empty or listed twice")));
            }
        }
        for _ in 0..counts[2] {
            let mut row = r.row()?;
            let user: UserId = row.field()?;
            let closed: Vec<(u32, FarthestPair)> = row.list()?;
            row.end()?;
            if closed.is_empty()
                || partial.closed_days.contains_key(&user)
                || !closed.windows(2).all(|w| w[0].0 < w[1].0)
            {
                return Err(r.err("a user's closed days must be one row of ascending days"));
            }
            for &(day, FarthestPair(a, b)) in &closed {
                let day = u64::from(day);
                if partial.open_days.contains_key(&(user, day)) {
                    return Err(r.err(format!("day {day} is both open and closed")));
                }
                if let Some(bounds) = &r.closed_days {
                    if !bounds.days.contains(&day) {
                        return Err(r.err(format!(
                            "closed day {day} is not final in this window (final days {}..{})",
                            bounds.days.start, bounds.days.end
                        )));
                    }
                    // One sector is 0 km whatever it names: only a pair is
                    // measured.
                    let outside = |s: u32| a != b && s as usize >= bounds.sectors;
                    if let Some(s) = [a, b].into_iter().find(|&s| outside(s)) {
                        return Err(r.err(format!(
                            "closed day {day} names sector {s}, outside the {}-sector cell plan",
                            bounds.sectors
                        )));
                    }
                }
            }
            partial.closed_days.insert(user, closed);
        }
        for _ in 0..counts[3] {
            let mut row = r.row()?;
            let user = row.field()?;
            let m = UserMobility {
                dwell_by_sector: row.list()?,
                ..UserMobility::default()
            };
            row.end()?;
            partial.per_user.insert(user, m);
        }
        Ok(partial)
    }
}

/// The timelines as `t:sector` lists, then the transactions as `t:bytes`
/// lists.
impl Snapshot for WearablePartial {
    fn snapshot(&self, out: &mut String) {
        // Timeline and transaction order is semantic: written and restored
        // in order, never sorted here.
        RowWriter::tagged(out, "wearable")
            .put(self.timelines.len())
            .put(self.transactions.len())
            .end();
        for (&(user, imei), sightings) in sorted_entries(&self.timelines) {
            RowWriter::new(out)
                .put(user)
                .put(imei)
                .list(sightings.iter().copied())
                .end();
        }
        for (&(user, imei), txs) in sorted_entries(&self.transactions) {
            RowWriter::new(out)
                .put(user)
                .put(imei)
                .list(txs.iter().copied())
                .end();
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut head = r.tagged("wearable")?;
        let (n_timelines, n_transactions): (u64, u64) = (head.field()?, head.field()?);
        head.end()?;
        let mut partial = WearablePartial::default();
        for _ in 0..n_timelines {
            let mut row = r.row()?;
            let key = (row.field()?, row.field()?);
            partial.timelines.insert(key, row.list()?);
            row.end()?;
        }
        for _ in 0..n_transactions {
            let mut row = r.row()?;
            let key = (row.field()?, row.field()?);
            partial.transactions.insert(key, row.list()?);
            row.end()?;
        }
        Ok(partial)
    }
}

impl Snapshot for Vec<AttributedTx> {
    fn snapshot(&self, out: &mut String) {
        // Sequence order is semantic (it feeds a stable sort downstream):
        // written and restored in order, never sorted here.
        RowWriter::tagged(out, "attributed").put(self.len()).end();
        for tx in self {
            RowWriter::new(out)
                .put(tx.user)
                .put(tx.timestamp)
                .put(tx.app)
                .put(tx.class)
                .put(tx.bytes)
                .end();
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut out = Vec::new();
        for _ in 0..r.count("attributed")? {
            let mut row = r.row()?;
            out.push(AttributedTx {
                user: row.field()?,
                timestamp: row.field()?,
                app: row.field()?,
                class: row.field()?,
                bytes: row.field()?,
            });
            row.end()?;
        }
        Ok(out)
    }
}

impl Snapshot for Attributor {
    fn snapshot(&self, out: &mut String) {
        RowWriter::tagged(out, "attributor")
            .put(self.users.len())
            .end();
        for (user, state) in sorted_entries(&self.users) {
            RowWriter::tagged(out, "u")
                .put(*user)
                .put(state.anchors.len())
                .put(state.pending.len())
                .end();
            for &(at, app) in &state.anchors {
                RowWriter::tagged(out, "a").put(at).put(app).end();
            }
            for &(t, bytes, class) in &state.pending {
                RowWriter::tagged(out, "q")
                    .put(t)
                    .put(bytes)
                    .put(class)
                    .end();
            }
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut users = HashMap::default();
        for _ in 0..r.count("attributor")? {
            let mut row = r.tagged("u")?;
            let user = row.field()?;
            let (n_anchors, n_pending): (u64, u64) = (row.field()?, row.field()?);
            row.end()?;
            let mut state = UserTxs::default();
            for _ in 0..n_anchors {
                let mut row = r.tagged("a")?;
                let anchor: (SimTime, AppId) = (row.field()?, row.field()?);
                if state.anchors.back().is_some_and(|a| a.0 > anchor.0) {
                    return Err(row.err("anchors are not in time order"));
                }
                row.end()?;
                state.anchors.push_back(anchor);
            }
            for _ in 0..n_pending {
                let mut row = r.tagged("q")?;
                state
                    .pending
                    .push_back((row.field()?, row.field()?, row.field()?));
                row.end()?;
            }
            users.insert(user, state);
        }
        Ok(Attributor { users })
    }
}

impl Snapshot for QualityPartial {
    fn snapshot(&self, out: &mut String) {
        RowWriter::tagged(out, "trace-qa")
            .put(self.mme_records)
            .put(self.unresolved_device_records)
            .put(self.out_of_window_records)
            .list(self.proxy_days.iter().copied())
            .end();
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut row = r.tagged("trace-qa")?;
        let partial = QualityPartial {
            mme_records: row.field()?,
            unresolved_device_records: row.field()?,
            out_of_window_records: row.field()?,
            proxy_days: row.list()?,
        };
        row.end()?;
        Ok(partial)
    }
}

impl Snapshot for CorePartials {
    fn snapshot(&self, out: &mut String) {
        self.attributed.snapshot(out);
        self.hourly.snapshot(out);
        self.traffic.snapshot(out);
        self.mobility.snapshot(out);
        self.wearable.snapshot(out);
        RowWriter::tagged(out, "through-device")
            .list(sorted(&self.through_device))
            .end();
        self.quality.snapshot(out);
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(CorePartials {
            attributed: Vec::<AttributedTx>::restore(r)?,
            hourly: HourlyProfilePartial::restore(r)?,
            traffic: TrafficPartial::restore(r)?,
            mobility: MobilityPartial::restore(r)?,
            wearable: WearablePartial::restore(r)?,
            through_device: list_block(r, "through-device")?,
            quality: QualityPartial::restore(r)?,
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
    use wearscope_trace::{HostId, MmeEvent, MmeRecord, ProxyRecord, Scheme, TraceStore};

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
            host: HostId::intern("api.weather.com"),
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
            partials.absorb_proxy(&ctx, r, ctx.device_class(r.imei));
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

    /// A store with every kind of record the bundle keeps: a watch, a
    /// phone syncing a tracker, an unknown device, an out-of-window
    /// record, MME records and, once folded, attribution.
    fn whole_store(db: &DeviceDb) -> TraceStore {
        let phone = db
            .example_imei(
                db.tacs_of_class(wearscope_devicedb::DeviceClass::Smartphone)[0],
                2,
            )
            .as_u64();
        let mut records: Vec<ProxyRecord> = (0..60)
            .map(|i| proxy(db, i % 3, i * 7_333, 50 + i * 11))
            .collect();
        records.push(ProxyRecord {
            imei: phone,
            host: HostId::intern("android-api.fitbit.com"),
            ..proxy(db, 7, 500, 10)
        });
        records.push(ProxyRecord {
            imei: 42,
            ..proxy(db, 8, 600, 10)
        });
        records.push(proxy(db, 1, 20 * 86_400, 10));
        let mme = (0..6)
            .map(|i| MmeRecord {
                timestamp: SimTime::from_secs(i * 4_000),
                user: UserId(i % 2),
                imei: db
                    .example_imei(db.wearable_tacs()[0], (i % 2) as u32)
                    .as_u64(),
                event: MmeEvent::Attach,
                sector: i as u32,
            })
            .collect();
        TraceStore::from_records(records, mme)
    }

    /// Every member of the bundle survives a round-trip.
    #[test]
    fn whole_fold_roundtrips_and_finishes_identically() {
        let store = whole_store(&DeviceDb::standard());
        let (db, catalog, sectors) = sample_ctx(&store);
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let partials = CorePartials::fold(&ctx);
        assert_eq!(partials.through_device.len(), 1);
        assert_eq!(partials.quality.unresolved_device_records, 1);
        assert_eq!(partials.quality.out_of_window_records, 1);
        let restored = roundtrip(&partials);
        let (a, b) = (partials.finish(&ctx), restored.finish(&ctx));
        assert_eq!(a.weekly, b.weekly);
        assert_eq!(a.domains, b.domains);
        assert_eq!(a.devices, b.devices);
        assert_eq!(a.through_device, b.through_device);
        assert_eq!(a.quality, b.quality);
    }

    /// A cleared bundle snapshots as a fresh one does, and absorbs the
    /// same records into the same snapshot as a fresh one.
    #[test]
    fn cleared_partials_snapshot_as_default() {
        let store = whole_store(&DeviceDb::standard());
        let (db, catalog, sectors) = sample_ctx(&store);
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let text = |p: &CorePartials| {
            let mut out = String::new();
            p.snapshot(&mut out);
            out
        };
        let mut partials = CorePartials::fold(&ctx);
        assert!(partials.attributed.iter().any(|t| t.app.is_some()));
        assert_ne!(text(&partials), text(&CorePartials::default()));
        partials.clear();
        assert_eq!(text(&partials), text(&CorePartials::default()));
        let mut fresh = CorePartials::default();
        for p in [&mut partials, &mut fresh] {
            for r in store.proxy() {
                p.absorb_proxy(&ctx, r, ctx.device_class(r.imei));
            }
            for r in store.mme() {
                p.absorb_mme(&ctx, r, ctx.device_class(r.imei));
            }
        }
        assert_eq!(text(&partials), text(&fresh));
    }

    /// The snapshot of one small bundle, byte for byte: attributed,
    /// hourly, traffic, mobility, wearable, through-device and trace-qa. A
    /// stream checkpoint holds one per window, so a change to this text
    /// breaks `--resume` from every checkpoint already on disk.
    #[test]
    fn snapshot_text_is_pinned() {
        use crate::sessions::attribute_records;
        use wearscope_devicedb::DeviceClass;

        let store = TraceStore::new();
        let (db, catalog, mut sectors) = sample_ctx(&store);
        for i in 0..4 {
            sectors.push(
                wearscope_geo::GeoPoint::new(40.0 + 0.1 * f64::from(i), -3.0),
                None,
            );
        }
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let watch = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
        let phone = db
            .example_imei(db.tacs_of_class(DeviceClass::Smartphone)[0], 2)
            .as_u64();
        let proxy = |t: u64, user: u64, imei: u64, host: &str, down: u64| ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei,
            host: HostId::intern(host),
            scheme: Scheme::Https,
            bytes_down: down,
            bytes_up: 11,
        };
        let records = [
            proxy(9 * 3600 + 5, 1, watch, "api.weather.com", 100),
            proxy(9 * 3600 + 30, 1, watch, "ssl.google-analytics.com", 2000),
            proxy(86_400 + 10 * 3600, 2, phone, "maps.googleapis.com", 500),
        ];
        let mme = |t: u64, event: MmeEvent, sector: u32| MmeRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(1),
            imei: watch,
            event,
            sector,
        };

        let mut partials = CorePartials::default();
        for r in &records {
            partials.absorb_proxy(&ctx, r, ctx.device_class(r.imei));
        }
        for r in [
            mme(9 * 3600, MmeEvent::Attach, 2),
            mme(9 * 3600 + 600, MmeEvent::SectorUpdate, 3),
            mme(86_400 + 9 * 3600, MmeEvent::SectorUpdate, 1),
        ] {
            partials.absorb_mme(&ctx, &r, ctx.device_class(watch));
        }
        partials.mobility.close_days(&sectors, 0..1);
        for tx in &attribute_records(&ctx, &records) {
            partials.absorb_attributed(tx);
        }
        let mut text = String::new();
        partials.snapshot(&mut text);

        // Day 0 is a Friday: the watch's hour 9 is weekly slot 105, the
        // phone's Saturday hour 10 slot 130. Day 0 is closed, to the pair
        // of its two sectors; day 1 is open.
        let expected = [
            "attributed\t2\n",
            "1\t32405\t0\t0\t111\n",
            "1\t32430\t0\tAnalytics\t2011\n",
            "hourly\t2\n",
            "105\t2\n",
            "130\t1\n",
            "traffic\t2\n",
            "1\t2122\t2\n",
            "2\t511\t1\n",
            "mobility\t1\t1\t1\t1\n",
            "1\t352000000000012\t32400\t1\t118800\n",
            "1\t1\t1\n",
            "1\t0:2-3\n",
            "1\t2:600 3:85800\n",
            "wearable\t1\t1\n",
            "1\t352000000000012\t32400:2 33000:3 118800:1\n",
            "1\t352000000000012\t32405:111 32430:2011\n",
            "through-device\t-\n",
            "trace-qa\t3\t0\t0\t0 1\n",
        ]
        .concat();
        assert_eq!(text, expected);
        roundtrip(&partials);
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
    fn attributed_roundtrips_in_order() {
        let txs = vec![
            AttributedTx {
                user: UserId(3),
                timestamp: SimTime::from_secs(900),
                app: Some(AppId(2)),
                class: Some(Classification::FirstParty(AppId(2))),
                bytes: 512,
            },
            AttributedTx {
                user: UserId(1),
                timestamp: SimTime::from_secs(900),
                app: None,
                class: Some(Classification::ThirdParty(DomainClass::Analytics)),
                bytes: 64,
            },
        ];
        let restored = roundtrip(&txs);
        assert_eq!(restored, txs); // order preserved, not sorted
    }

    /// A detached stream is one row with `-` for its sector and its
    /// since; it keeps its first event for a later segment's merge.
    #[test]
    fn detached_stream_is_one_row() {
        let mme = |t: u64, event: MmeEvent| MmeRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(1),
            imei: 7,
            event,
            sector: 5,
        };
        let mut partial = MobilityPartial::default();
        partial.absorb(&mme(100, MmeEvent::Attach));
        partial.absorb(&mme(400, MmeEvent::Detach));
        let mut text = String::new();
        partial.snapshot(&mut text);
        assert_eq!(
            text,
            "mobility\t1\t1\t0\t1\n1\t7\t100\t-\t-\n1\t0\t5\n1\t5:300\n"
        );
        roundtrip(&partial);
    }

    /// Every field type reads back the text it writes.
    #[test]
    fn fields_roundtrip_through_a_row() {
        let mut text = String::new();
        RowWriter::tagged(&mut text, "t")
            .put(7u64)
            .put(u16::MAX)
            .put(true)
            .put(SimTime::from_secs(9))
            .put(UserId(3))
            .put(Some(AppId(2)))
            .put(None::<u32>)
            .list(Vec::<u64>::new())
            .list([(2u32, 600u64), (3, 1)])
            .list([(0u32, FarthestPair(2, 5)), (1, FarthestPair(3, 3))])
            .end();
        assert_eq!(
            text,
            "t\t7\t65535\t1\t9\t3\t2\t-\t-\t2:600 3:1\t0:2-5 1:3\n"
        );
        let mut row = SnapshotReader::new(&text).tagged("t").unwrap();
        assert_eq!(row.field::<u64>().unwrap(), 7);
        assert_eq!(row.field::<u16>().unwrap(), u16::MAX);
        assert!(row.field::<bool>().unwrap());
        assert_eq!(row.field::<SimTime>().unwrap(), SimTime::from_secs(9));
        assert_eq!(row.field::<UserId>().unwrap(), UserId(3));
        assert_eq!(row.field::<Option<AppId>>().unwrap(), Some(AppId(2)));
        assert_eq!(row.field::<Option<u32>>().unwrap(), None);
        assert!(row.list::<u64, Vec<u64>>().unwrap().is_empty());
        let pairs: Vec<(u32, u64)> = row.list().unwrap();
        assert_eq!(pairs, [(2, 600), (3, 1)]);
        let closed: Vec<(u32, FarthestPair)> = row.list().unwrap();
        assert_eq!(closed, [(0, FarthestPair(2, 5)), (1, FarthestPair(3, 3))]);
        row.end().unwrap();
    }

    /// A value outside its type's range, a bad flag, a missing or a stray
    /// field is an error naming the line and the field, never a cast.
    #[test]
    fn bad_fields_are_errors_naming_line_and_field() {
        fn err<T: fmt::Debug>(r: Result<T, SnapshotError>) -> String {
            r.unwrap_err().to_string()
        }
        let at = |text| Row::new(text, 4);
        let cases = [
            (
                err(at("65536").field::<u16>()),
                "field 1: `65536` is not a u16",
            ),
            (
                err(at("65537").field::<AppId>()),
                "field 1: `65537` is not a u16",
            ),
            (
                err(at("4294967296").field::<u32>()),
                "field 1: `4294967296` is not a u32",
            ),
            (
                err(at("18446744073709551616").field::<u64>()),
                "field 1: `18446744073709551616` is not a u64",
            ),
            (
                err(at("2").field::<bool>()),
                "field 1: `2` is not a 0/1 flag",
            ),
            (err(at("").field::<UserId>()), "field 1: `` is not a u64"),
            (
                err(at("1 x").list::<u64, Vec<_>>()),
                "field 1: `x` is not a u64",
            ),
            (
                err(at("5").list::<(u32, u64), Vec<_>>()),
                "field 1: `5` is not a key:value pair",
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, format!("snapshot line 4: {want}"));
        }
        let mut row = at("1\t2");
        row.field::<u64>().unwrap();
        row.field::<u64>().unwrap();
        assert_eq!(err(row.field::<u64>()), "snapshot line 4: missing field 3");
        let mut row = at("1\t2");
        row.field::<u64>().unwrap();
        assert_eq!(err(row.end()), "snapshot line 4: unexpected field 2 `2`");
    }

    /// A count only bounds the loop over its block: an inflated one ends
    /// at the next block's tag instead of sizing an allocation.
    #[test]
    fn inflated_count_ends_at_the_next_block() {
        let mut text = String::new();
        TrafficPartial::default().snapshot(&mut text);
        MobilityPartial::default().snapshot(&mut text);
        let inflated = text.replace("traffic\t0", "traffic\t18446744073709551615");
        let err = TrafficPartial::restore(&mut SnapshotReader::new(&inflated)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "snapshot line 2: field 1: `mobility` is not a u64"
        );
    }

    #[test]
    fn restore_rejects_wrong_tag() {
        let mut text = String::new();
        HourlyProfilePartial::default().snapshot(&mut text);
        let mut reader = SnapshotReader::new(&text);
        let err = TrafficPartial::restore(&mut reader).unwrap_err();
        assert!(err.to_string().contains("traffic"), "{err}");
    }

    #[test]
    fn empty_partials_roundtrip() {
        roundtrip(&TrafficPartial::default());
        roundtrip(&MobilityPartial::default());
        roundtrip(&WearablePartial::default());
        roundtrip(&HourlyProfilePartial::default());
        roundtrip(&Vec::<AttributedTx>::new());
    }
}
