//! Checkpoint files: serialize an in-flight [`StreamRuntime`] so a killed
//! run can resume and produce byte-identical final reports.
//!
//! Every block is written and read through the one row/field layer of
//! [`wearscope_core::snapshot`] (no serialization framework is vendored),
//! so the whole file follows its rules: tagged header lines with counts,
//! tab-separated fields, `-` for an absent value or an empty list, sorted
//! map entries. The blocks, in order: a version header, the configuration
//! (verified on resume), the stream clock, each log's ledger (its counts
//! and first quarantined entries), the late merges, the next window index
//! to emit, the source position, emitted reports, collected windows (each
//! a `collected-window id` row and its partials), each log validator's
//! duplicate memory (as raw record lines), the attributor's anchors and
//! pending transactions, and the open windows (each an `open-window id
//! late` row and its partials). The forced emissions and the timeline's
//! start are not written: the reports hold them. A window's mobility
//! block holds its open user-days as sector sets and its closed ones as
//! farthest pairs; a closed day must be one the window could have closed
//! under the checkpoint's watermark, naming sectors of the cell plan.
//!
//! A checkpoint is a file a user can hand to `--resume`, so reading one
//! never panics: a count only bounds the loop over its block's lines and
//! never sizes an allocation, and every value is parsed into its type's
//! range. A damaged file is a [`StreamError::Checkpoint`] naming its line.
//!
//! Writes are atomic and durable — temp file in the same directory,
//! fsync, rename, then fsync the parent directory — so a crash mid-write
//! leaves the previous checkpoint intact and a crash right after the
//! rename cannot resurrect it.
//!
//! Checkpoint bytes are deterministic for a given runtime state, but two
//! runs killed at different points produce different checkpoints; the
//! resume guarantee is about the **final reports**, not the intermediate
//! files.

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

use wearscope_core::sessions::Attributor;
use wearscope_core::snapshot::{
    ClosedDayBounds, Row, RowWriter, Snapshot, SnapshotError, SnapshotReader,
};
use wearscope_core::{CorePartials, StudyContext};
use wearscope_ingest::{LogRecord, RecordValidator};
use wearscope_report::WindowReport;
use wearscope_trace::{decode_log_line, TsvRecord};

use crate::runtime::{final_window_days, StreamConfig, StreamError, StreamRuntime};
use crate::source::SourcePosition;

/// The first field of every checkpoint's header line.
const MAGIC: &str = "wearscope-stream-checkpoint";
/// The checkpoint format this build writes and reads: the header's second
/// field is `v` followed by it.
const VERSION: u32 = 9;

/// The `config` line's fields, named for the mismatch message.
const CONFIG_FIELDS: [&str; 8] = [
    "window width",
    "window slide",
    "lateness",
    "max open windows",
    "backpressure",
    "skew horizon",
    "cell plan sectors",
    "collect-aggregates",
];

/// Serializes the runtime (and the source's committed position) to
/// checkpoint text.
pub fn to_text(rt: &StreamRuntime<'_>, position: Option<SourcePosition>) -> String {
    let mut out = format!("{MAGIC}\tv{VERSION}\n");
    push_config(&mut out, &rt.config);
    RowWriter::tagged(&mut out, "clock").put(rt.max_event).end();
    rt.proxy.snapshot_row(&mut out, "ledger-proxy");
    rt.mme.snapshot_row(&mut out, "ledger-mme");
    RowWriter::tagged(&mut out, "counters")
        .put(rt.late_merged)
        .end();
    RowWriter::tagged(&mut out, "progress")
        .put(rt.progress)
        .end();
    let row = RowWriter::tagged(&mut out, "position");
    match position {
        Some(p) => row
            .put(p.proxy_offset)
            .put(p.proxy_line)
            .put(p.mme_offset)
            .put(p.mme_line),
        None => row.put(None::<u64>),
    }
    .end();
    RowWriter::tagged(&mut out, "reports")
        .put(rt.reports.len())
        .end();
    out.push_str(&rt.reports_tsv);
    RowWriter::tagged(&mut out, "collected")
        .put(rt.collected.len())
        .end();
    for (id, partials) in &rt.collected {
        RowWriter::tagged(&mut out, "collected-window")
            .put(*id)
            .end();
        partials.snapshot(&mut out);
    }
    let watermark = rt.watermark();
    push_remembered(
        &mut out,
        "dedup-proxy",
        rt.proxy.validator.remembered(watermark),
    );
    push_remembered(
        &mut out,
        "dedup-mme",
        rt.mme.validator.remembered(watermark),
    );
    rt.attributor.snapshot(&mut out);
    RowWriter::tagged(&mut out, "open").put(rt.open.len()).end();
    for (id, (partials, late_merged)) in &rt.open {
        RowWriter::tagged(&mut out, "open-window")
            .put(*id)
            .put(*late_merged)
            .end();
        partials.snapshot(&mut out);
    }
    RowWriter::tagged(&mut out, "end").end();
    out
}

/// Writes the `config` line: the settings a resume must share.
fn push_config(out: &mut String, c: &StreamConfig) {
    RowWriter::tagged(out, "config")
        .put(c.spec.width().as_secs())
        .put(c.spec.slide().as_secs())
        .put(c.lateness.as_secs())
        .put(c.max_open_windows)
        .raw(c.backpressure.name())
        .put(c.max_timestamp)
        .put(c.sector_count)
        .put(c.collect_aggregates)
        .end();
}

/// Writes a `tag<TAB>n` block of `n` log record lines.
fn push_remembered<'r, R: TsvRecord + 'r>(
    out: &mut String,
    tag: &str,
    records: impl ExactSizeIterator<Item = &'r R>,
) {
    RowWriter::tagged(out, tag).put(records.len()).end();
    for r in records {
        out.push_str(&r.to_line());
        out.push('\n');
    }
}

/// Atomically writes checkpoint text: temp file beside the target,
/// rename over it, then fsync the parent directory.
///
/// Syncing the temp file makes the *bytes* durable; only syncing the
/// directory after the rename makes the *name* durable. Without it a
/// power cut after the rename can roll the directory entry back to the
/// previous checkpoint — or to nothing — even though the new bytes were
/// on disk.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write(path: &Path, text: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        fs::File::open(parent)?.sync_all()?;
    }
    Ok(())
}

/// Restores a runtime from checkpoint text, verifying the configuration
/// matches the one the checkpoint was written under.
///
/// # Errors
/// [`StreamError::CheckpointVersion`] when the checkpoint was written in
/// another format version, [`StreamError::Checkpoint`] on malformed text,
/// [`StreamError::ConfigMismatch`] when `config` disagrees with the
/// checkpointed one.
pub fn from_text<'s>(
    ctx: &'s StudyContext<'s>,
    config: StreamConfig,
    text: &str,
) -> Result<(StreamRuntime<'s>, Option<SourcePosition>), StreamError> {
    let mut r = SnapshotReader::new(text);
    let header = r.line()?;
    let version = header
        .strip_prefix(MAGIC)
        .and_then(|rest| rest.strip_prefix("\tv"))
        .and_then(|v| v.parse::<u32>().ok());
    match version {
        Some(VERSION) => {}
        Some(found) => {
            return Err(StreamError::CheckpointVersion {
                found,
                expected: VERSION,
            })
        }
        None => {
            return Err(r
                .err(format!("not a stream checkpoint (header `{header}`)"))
                .into())
        }
    }
    check_config(&config, r.tagged("config")?)?;
    let mut rt = StreamRuntime::new(ctx, config);

    let mut row = r.tagged("clock")?;
    rt.max_event = row.field()?;
    row.end()?;
    rt.proxy.restore_row(&mut r, "ledger-proxy")?;
    rt.mme.restore_row(&mut r, "ledger-mme")?;

    let mut row = r.tagged("counters")?;
    rt.late_merged = row.field()?;
    row.end()?;

    let mut row = r.tagged("progress")?;
    rt.progress = row.field()?;
    row.end()?;

    let mut row = r.tagged("position")?;
    let position = match row.field()? {
        Some(proxy_offset) => Some(SourcePosition {
            proxy_offset,
            proxy_line: row.field()?,
            mme_offset: row.field()?,
            mme_line: row.field()?,
        }),
        None => None,
    };
    row.end()?;

    for _ in 0..r.count("reports")? {
        rt.push_report(WindowReport::from_tsv(r.row()?)?);
    }
    let final_days = rt.watermark().day_index();
    let bounds = |id| ClosedDayBounds {
        sectors: ctx.sectors.len(),
        days: final_window_days(config.spec, id, final_days),
    };
    for _ in 0..r.count("collected")? {
        let id = r.count("collected-window")?;
        r.bound_closed_days(bounds(id));
        rt.collected.push((id, CorePartials::restore(&mut r)?));
    }
    read_remembered(&mut r, "dedup-proxy", &mut rt.proxy.validator)?;
    read_remembered(&mut r, "dedup-mme", &mut rt.mme.validator)?;
    rt.attributor = Attributor::restore(&mut r)?;
    for _ in 0..r.count("open")? {
        let mut row = r.tagged("open-window")?;
        let (id, late_merged) = (row.field()?, row.field()?);
        // Emission removes a window and moves the next index past it, so
        // an open window is never behind the next index to emit.
        if rt.progress.is_none_or(|next| id < next) {
            return Err(row
                .err("open window is behind the next index to emit")
                .into());
        }
        row.end()?;
        r.bound_closed_days(bounds(id));
        rt.open
            .insert(id, (CorePartials::restore(&mut r)?, late_merged));
    }
    r.tagged("end")?.end()?;
    Ok((rt, position))
}

/// Compares the checkpoint's `config` fields with the ones `config` writes.
fn check_config(config: &StreamConfig, mut ckpt: Row<'_>) -> Result<(), StreamError> {
    let mut text = String::new();
    push_config(&mut text, config);
    let mut now = SnapshotReader::new(&text).tagged("config")?;
    for what in CONFIG_FIELDS {
        let (was, is) = (ckpt.raw()?, now.raw()?);
        if was != is {
            return Err(StreamError::ConfigMismatch(format!(
                "{what} was {was} at checkpoint time, {is} now — rerun with the original flags or drop --resume"
            )));
        }
    }
    Ok(ckpt.end()?)
}

/// Restores one log validator's duplicate memory from its checkpoint
/// block.
fn read_remembered<R: LogRecord + TsvRecord>(
    r: &mut SnapshotReader<'_>,
    tag: &str,
    validator: &mut RecordValidator<R>,
) -> Result<(), SnapshotError> {
    for _ in 0..r.count(tag)? {
        match decode_log_line::<R>(r.line()?.as_bytes()) {
            Some(Ok(rec)) => {
                validator.remember(rec);
            }
            Some(Err(e)) => return Err(r.err(format!("bad dedup record: {e}"))),
            None => return Err(r.err("blank dedup record line")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{EventSource, Polled, StreamEvent};
    use crate::window::WindowSpec;
    use crate::{PumpOptions, PumpOutcome};
    use proptest::prelude::*;
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::DeviceDb;
    use wearscope_geo::{GeoPoint, SectorDirectory};
    use wearscope_simtime::{Calendar, ObservationWindow, SimDuration, SimTime};
    use wearscope_trace::{HostId, MmeEvent, MmeRecord, ProxyRecord, Scheme, TraceStore, UserId};

    fn proxy(db: &DeviceDb, user: u64, t: u64, host: &str) -> StreamEvent {
        StreamEvent::Proxy(ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei: db.example_imei(db.wearable_tacs()[0], user as u32).as_u64(),
            host: HostId::intern(host),
            scheme: Scheme::Https,
            bytes_down: 64,
            bytes_up: 8,
        })
    }

    /// Records handed out in order, then the end.
    struct Events(std::vec::IntoIter<StreamEvent>);

    impl EventSource for Events {
        fn poll(&mut self) -> io::Result<Polled> {
            Ok(self.0.next().map_or(Polled::End, Polled::Event))
        }

        fn position(&self) -> Option<SourcePosition> {
            None
        }
    }

    /// Pumps `events` through `rt`, in order, as one source.
    fn feed<const N: usize>(
        rt: &mut StreamRuntime<'_>,
        events: [StreamEvent; N],
    ) -> Result<PumpOutcome, StreamError> {
        let mut source = Events(Vec::from(events).into_iter());
        rt.pump(&mut source, &PumpOptions::default())
    }

    /// Owns everything a [`StudyContext`] borrows.
    struct Fixture {
        store: TraceStore,
        db: DeviceDb,
        sectors: SectorDirectory,
        catalog: AppCatalog,
    }

    impl Fixture {
        /// Eight sectors, 0.1° of latitude apart.
        fn new() -> Fixture {
            let mut sectors = SectorDirectory::new();
            for i in 0..8 {
                sectors.push(GeoPoint::new(40.0 + 0.1 * f64::from(i), -3.0), None);
            }
            Fixture {
                store: TraceStore::new(),
                db: DeviceDb::standard(),
                sectors,
                catalog: AppCatalog::standard(),
            }
        }

        fn ctx(&self) -> StudyContext<'_> {
            StudyContext::new(
                &self.store,
                &self.db,
                &self.sectors,
                &self.catalog,
                ObservationWindow::new(14, 14, Calendar::PAPER),
            )
        }
    }

    /// 1 h tumbling windows, 5 min lateness.
    fn hour_config() -> StreamConfig {
        StreamConfig::new(
            WindowSpec::tumbling(SimDuration::from_hours(1)).unwrap(),
            SimDuration::from_secs(300),
        )
    }

    /// A runtime in the middle of a run over 1 h tumbling windows: window 0
    /// emitted (and collected), window 1 open, one duplicate quarantined,
    /// one record in each log's duplicate memory, and in the attributor an
    /// anchor within 120 s of the watermark and a pending third-party
    /// transaction.
    fn mid_flight<'s>(ctx: &'s StudyContext<'s>) -> StreamRuntime<'s> {
        let mut config = hour_config();
        config.collect_aggregates = true;
        let watch = ctx.db.example_imei(ctx.db.wearable_tacs()[0], 1).as_u64();
        let mme = |t: u64, event: MmeEvent, sector: u32| {
            StreamEvent::Mme(MmeRecord {
                timestamp: SimTime::from_secs(t),
                user: UserId(1),
                imei: watch,
                event,
                sector,
            })
        };
        let third_party = proxy(ctx.db, 1, 4000, "cdn.telemetry.example");
        let events = [
            mme(200, MmeEvent::Attach, 5),
            proxy(ctx.db, 1, 3590, "api.weather.com"),
            mme(3900, MmeEvent::SectorUpdate, 6),
            third_party.clone(),
            third_party,
        ];
        let mut rt = StreamRuntime::new(ctx, config);
        for ev in events {
            feed(&mut rt, [ev]).unwrap();
        }
        rt
    }

    /// A runtime over 2-day tumbling windows with the watermark past day
    /// 0: window 0 holds day 0 closed, to the pair of its sectors 2 and 5,
    /// and day 1 open.
    fn two_days<'s>(ctx: &'s StudyContext<'s>) -> StreamRuntime<'s> {
        let spec = WindowSpec::tumbling(SimDuration::from_secs(2 * 86_400)).unwrap();
        let mut rt = StreamRuntime::new(ctx, StreamConfig::new(spec, SimDuration::from_secs(300)));
        let watch = ctx.db.example_imei(ctx.db.wearable_tacs()[0], 1).as_u64();
        for (t, event, sector) in [
            (3_600, MmeEvent::Attach, 2),
            (7_200, MmeEvent::SectorUpdate, 5),
            (90_000, MmeEvent::SectorUpdate, 3),
        ] {
            let r = MmeRecord {
                timestamp: SimTime::from_secs(t),
                user: UserId(1),
                imei: watch,
                event,
                sector,
            };
            feed(&mut rt, [StreamEvent::Mme(r)]).unwrap();
        }
        rt
    }

    /// The whole checkpoint of [`mid_flight`], header to `end`, byte for
    /// byte. A change to this text breaks `--resume` from every checkpoint
    /// already on disk.
    #[test]
    fn checkpoint_text_is_pinned() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let rt = mid_flight(&ctx);
        let position = SourcePosition {
            proxy_offset: 321,
            proxy_line: 3,
            mme_offset: 123,
            mme_line: 2,
        };
        let text = to_text(&rt, Some(position));

        // Day 0 is a Friday: hours 0 and 1 are weekly slots 96 and 97.
        let expected = [
            "wearscope-stream-checkpoint\tv9\n",
            "config\t3600\t3600\t300\t4096\tblock\t-\t-\t1\n",
            "clock\t4000\n",
            "ledger-proxy\t3\t2\t3\t0\t0\t1\t0\t0\t0\t0\t-\t2:duplicate\t4000\n",
            "ledger-mme\t2\t2\t2\t0\t0\t0\t0\t0\t0\t0\t-\t-\t3900\n",
            "counters\t0\n",
            "progress\t1\n",
            "position\t321\t3\t123\t2\n",
            "reports\t1\n",
            "0\t0\t3600\t1\t1\t1\t72\t1\t1\t0\t0\n",
            "collected\t1\n",
            "collected-window\t0\n",
            "attributed\t1\n",
            "1\t3590\t0\t0\t72\n",
            "hourly\t1\n",
            "96\t1\n",
            "traffic\t1\n",
            "1\t72\t1\n",
            "mobility\t1\t1\t0\t0\n",
            "1\t352000000000012\t200\t5\t200\n",
            "1\t0\t5\n",
            "wearable\t1\t1\n",
            "1\t352000000000012\t200:5\n",
            "1\t352000000000012\t3590:72\n",
            "through-device\t-\n",
            "trace-qa\t1\t0\t0\t0\n",
            "dedup-proxy\t1\n",
            "4000\t1\t352000000000012\tcdn.telemetry.example\t1\t64\t8\n",
            "dedup-mme\t1\n",
            "3900\t1\t352000000000012\t2\t6\n",
            "attributor\t1\n",
            "u\t1\t1\t1\n",
            "a\t3590\t0\n",
            "q\t4000\t72\t-\n",
            "open\t1\n",
            "open-window\t1\t0\n",
            "attributed\t0\n",
            "hourly\t1\n",
            "97\t1\n",
            "traffic\t1\n",
            "1\t72\t1\n",
            "mobility\t1\t1\t0\t0\n",
            "1\t352000000000012\t3900\t6\t3900\n",
            "1\t0\t6\n",
            "wearable\t1\t1\n",
            "1\t352000000000012\t3900:6\n",
            "1\t352000000000012\t4000:72\n",
            "through-device\t-\n",
            "trace-qa\t1\t0\t0\t0\n",
            "end\n",
        ]
        .concat();
        assert_eq!(text, expected);
        // The pinned text restores to a runtime that writes it again.
        let (resumed, restored) = from_text(&ctx, rt.config, &text).unwrap();
        assert_eq!(restored, Some(position));
        assert_eq!(to_text(&resumed, Some(position)), text);
    }

    /// Checkpoint text a user crafted: each case replaces the first match
    /// of a pattern in the [`mid_flight`] checkpoint, or in the
    /// [`two_days`] one for closed user-days. Counts far beyond
    /// the text and values outside their type's range are typed errors
    /// naming the line, never a panic or an abort.
    #[test]
    fn crafted_checkpoints_are_typed_errors() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let rt = mid_flight(&ctx);
        let text = to_text(&rt, None);
        let cases = [
            (
                "reports\t1\n",
                "reports\t1000000000000000000\n",
                11,
                "field 1: `collected` is not a u64",
            ),
            (
                "reports\t1\n",
                "reports\t100000000000000\n",
                11,
                "field 1: `collected` is not a u64",
            ),
            (
                "attributor\t1\n",
                "attributor\t1000000000000000000\n",
                35,
                "expected `u` block, found `open`",
            ),
            (
                "wearable\t1\t1\n",
                "wearable\t1\t1000000000000000000\n",
                25,
                "field 1: `through-device` is not a u64",
            ),
            (
                "hourly\t1\n",
                "hourly\t1000000000000000000\n",
                17,
                "field 1: `traffic` is not a usize",
            ),
            (
                "1\t3590\t0\t0\t72\n",
                "1\t3590\t65537\t0\t72\n",
                14,
                "field 3: `65537` is not a u16",
            ),
            (
                "1\t3590\t0\t0\t72\n",
                "1\t3590\t0\tBogus\t72\n",
                14,
                "field 4: `Bogus` is not an app id or a domain class",
            ),
            ("96\t1\n", "168\t1\n", 16, "slot 168 is not below 168"),
            ("\t200:5\n", "\t200:x\n", 23, "field 3: `x` is not a u32"),
            ("\t3590:72\n", "\t3590:x\n", 24, "field 3: `x` is not a u64"),
            (
                "\t200\t5\t200\n",
                "\t200\t5\t-\n",
                20,
                "sector and since must both be present or both `-`",
            ),
            (
                "\t200\t5\t200\n",
                "\t200\t-\t200\n",
                20,
                "sector and since must both be present or both `-`",
            ),
            (
                "through-device\t-\n",
                "through-device\tBogus:1\n",
                25,
                "field 2: `Bogus` is not a Through-Device kind",
            ),
            (
                "u\t1\t1\t1\n",
                "u\t1\t1000000000000000000\t1\n",
                34,
                "expected `a` block, found `q`",
            ),
            (
                "a\t3590\t0\n",
                "a\t3590\t65537\n",
                33,
                "field 3: `65537` is not a u16",
            ),
            (
                "q\t4000\t72\t-\n",
                "q\t4000\t72\tX\n",
                34,
                "field 4: `X` is not an app id or a domain class",
            ),
            (
                "q\t4000\t72\t-\n",
                "q\t4000\t72\t-\tW\t3590\t0\n",
                34,
                "unexpected field 5 `W`",
            ),
            (
                "1\t0\t5\n",
                "1\t0\t4294967296\n",
                21,
                "field 3: `4294967296` is not a u32",
            ),
            (
                "clock\t4000\n",
                "clock\t18446744073709551616\n",
                3,
                "field 2: `18446744073709551616` is not a u64",
            ),
            (
                "ledger-proxy\t3\t2\t",
                "ledger-proxy\t3\t1000000000000000000\t",
                4,
                "records kept and quarantined do not add up to records seen",
            ),
            (
                "ledger-mme\t2\t",
                "ledger-mme\t3\t",
                5,
                "records kept and quarantined do not add up to records seen",
            ),
            (
                "\t2:duplicate\t",
                "\t2:bogus\t",
                4,
                "field 13: `bogus` is not a quarantine reason",
            ),
            (
                "\t2:duplicate\t",
                "\t2\t",
                4,
                "field 13: `2` is not a key:value pair",
            ),
            (
                "\t2:duplicate\t4000\n",
                "\t2:duplicate\t-\n",
                4,
                "field 14: `-` is not a u64",
            ),
            (
                "progress\t1\n",
                "progress\t0\t1\n",
                7,
                "unexpected field 3 `1`",
            ),
            (
                "open-window\t1\t0\n",
                "open-window\t1\n",
                36,
                "missing field 3",
            ),
            (
                "open-window\t1\t0\n",
                "open-window\t0\t0\n",
                36,
                "open window is behind the next index to emit",
            ),
            (
                "progress\t1\n",
                "progress\t-\n",
                36,
                "open window is behind the next index to emit",
            ),
            ("end\n", "", 50, "unexpected end of snapshot"),
        ];
        for (from, to, line, message) in cases {
            assert!(text.contains(from), "{from:?}");
            let crafted = text.replacen(from, to, 1);
            match from_text(&ctx, rt.config, &crafted).map(|_| ()) {
                Err(StreamError::Checkpoint {
                    line: l,
                    message: m,
                }) => {
                    assert_eq!((l, m.as_str()), (line, message), "{to:?}");
                }
                other => panic!("{to:?}: expected a checkpoint error, got {other:?}"),
            }
        }

        // A window's closed user-days read back only as days it could have
        // closed, with a well-formed pair of sectors of the cell plan.
        let rt = two_days(&ctx);
        let text = to_text(&rt, None);
        let block = "mobility\t1\t1\t1\t1\n1\t352000000000012\t3600\t3\t90000\n1\t1\t3\n1\t0:2-5\n";
        assert!(text.contains(block), "{text}");
        let (resumed, _) = from_text(&ctx, rt.config, &text).unwrap();
        assert_eq!(to_text(&resumed, None), text);
        let cases = [
            (
                "\t0:2-9\n",
                "closed day 0 names sector 9, outside the 8-sector cell plan",
            ),
            (
                "\t0:2-5 2:4\n",
                "closed day 2 is not final in this window (final days 0..1)",
            ),
            (
                "\t0:5-2\n",
                "field 2: `5-2` is not a sector pair a-b with a < b, or one sector",
            ),
            ("\t0:2-5 1:3\n", "day 1 is both open and closed"),
        ];
        let line = 1 + text[..text.find("\t0:2-5\n").unwrap()]
            .matches('\n')
            .count() as u64;
        for (to, message) in cases {
            let crafted = text.replacen("\t0:2-5\n", to, 1);
            match from_text(&ctx, rt.config, &crafted).map(|_| ()) {
                Err(StreamError::Checkpoint {
                    line: l,
                    message: m,
                }) => assert_eq!((l, m.as_str()), (line, message), "{to:?}"),
                other => panic!("{to:?}: expected a checkpoint error, got {other:?}"),
            }
        }
    }

    proptest! {
        /// Seeded damage to a real mid-flight checkpoint — a truncation at
        /// a line, one field replaced by a bad or out-of-range value, a
        /// line dropped or duplicated — gives `Ok` or a typed error.
        #[test]
        fn damaged_checkpoints_never_panic(
            kind in 0u8..4,
            line_pick in 0usize..1000,
            field_pick in 0usize..100,
            value in 0usize..4,
        ) {
            const VALUES: [&str; 4] = ["x", "-", "18446744073709551616", "1000000000000000000"];
            let fx = Fixture::new();
            let ctx = fx.ctx();
            let rt = mid_flight(&ctx);
            let text = to_text(&rt, Some(SourcePosition {
                proxy_offset: 321,
                proxy_line: 3,
                mme_offset: 123,
                mme_line: 2,
            }));
            let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
            let at = line_pick % lines.len();
            match kind {
                0 => lines.truncate(at),
                1 => {
                    let mut fields: Vec<&str> = lines[at].split('\t').collect();
                    let pick = field_pick % fields.len();
                    fields[pick] = VALUES[value];
                    lines[at] = fields.join("\t");
                }
                2 => {
                    lines.remove(at);
                }
                _ => lines.insert(at, lines[at].clone()),
            }
            let damaged: String = lines.iter().map(|l| format!("{l}\n")).collect();
            let result = from_text(&ctx, rt.config, &damaged).map(|_| ());
            prop_assert!(
                matches!(
                    result,
                    Ok(())
                        | Err(StreamError::Checkpoint { .. }
                            | StreamError::ConfigMismatch(_)
                            | StreamError::CheckpointVersion { .. })
                ),
                "{result:?}"
            );
        }
    }

    proptest! {
        /// Seeded damage to a ledger row of a real mid-flight checkpoint —
        /// a count changed so kept plus quarantined is not seen, a first
        /// entry with an unknown reason, or one with no reason — is a
        /// checkpoint error naming that row's line.
        #[test]
        fn damaged_ledger_rows_name_their_line(
            mme in prop::bool::ANY,
            kind in 0u8..3,
            field_pick in 0usize..9,
            delta in 1u64..1000,
            index in 0u64..100_000,
            reason_pick in 0usize..5,
        ) {
            const NOT_REASONS: [&str; 5] = ["bogus", "", "Duplicate", "bad_field", "-"];
            let fx = Fixture::new();
            let ctx = fx.ctx();
            let rt = mid_flight(&ctx);
            let text = to_text(&rt, None);
            let tag = if mme { "ledger-mme\t" } else { "ledger-proxy\t" };
            let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
            let at = lines.iter().position(|l| l.starts_with(tag)).unwrap();
            // tag, seen, kept, next record, 7 reason counts, two firsts,
            // the high-water mark.
            let mut fields: Vec<String> = lines[at].split('\t').map(str::to_owned).collect();
            prop_assert_eq!(fields.len(), 14);
            let first = 11 + field_pick % 2;
            match kind {
                0 => {
                    let pick = [1, 2, 4, 5, 6, 7, 8, 9, 10][field_pick];
                    let n: u64 = fields[pick].parse().unwrap();
                    fields[pick] = (n + delta).to_string();
                }
                1 => fields[first] = format!("{index}:{}", NOT_REASONS[reason_pick]),
                _ => fields[first] = index.to_string(),
            }
            lines[at] = fields.join("\t");
            let damaged: String = lines.iter().map(|l| format!("{l}\n")).collect();
            match from_text(&ctx, rt.config, &damaged).map(|_| ()) {
                Err(StreamError::Checkpoint { line, .. }) => {
                    prop_assert_eq!(line, at as u64 + 1);
                }
                other => prop_assert!(false, "{:?}", other),
            }
        }
    }

    #[test]
    fn roundtrip_resumes_to_identical_final_reports() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let mut config = hour_config();
        config.collect_aggregates = true;
        let events: Vec<StreamEvent> = (0..200)
            .map(|i| {
                let host = if i % 3 == 0 {
                    "api.weather.com"
                } else {
                    "cdn.telemetry.example"
                };
                proxy(ctx.db, 1 + i % 4, i * 97, host)
            })
            .collect();

        // Uninterrupted run.
        let mut whole = StreamRuntime::new(&ctx, config);
        for ev in &events {
            feed(&mut whole, [ev.clone()]).unwrap();
        }
        whole.finish();
        let (want, _) = whole.into_results();

        // Kill after 77 events, checkpoint, resume via text.
        let mut first = StreamRuntime::new(&ctx, config);
        for ev in &events[..77] {
            feed(&mut first, [ev.clone()]).unwrap();
        }
        let text = to_text(&first, None);
        let (mut resumed, position) = from_text(&ctx, config, &text).unwrap();
        assert!(position.is_none());
        // Restored state re-serializes byte-identically.
        assert_eq!(to_text(&resumed, None), text);
        for ev in &events[77..] {
            feed(&mut resumed, [ev.clone()]).unwrap();
        }
        resumed.finish();
        let (got, _) = resumed.into_results();
        assert_eq!(got.windows, want.windows);
        assert_eq!(got.late_merged, want.late_merged);
        assert_eq!(got.quality.records_kept, want.quality.records_kept);
        assert_eq!(got.render(), want.render());
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let config = hour_config();
        let rt = StreamRuntime::new(&ctx, config);
        let text = to_text(&rt, None);
        let mut other = config;
        other.lateness = SimDuration::from_secs(600);
        let err = from_text(&ctx, other, &text)
            .map(|_| ())
            .expect_err("config mismatch must be rejected");
        match err {
            StreamError::ConfigMismatch(m) => assert!(m.contains("lateness"), "{m}"),
            other => panic!("expected ConfigMismatch, got {other}"),
        }
    }

    /// The validator quarantines by the cell plan, so a resume under
    /// another plan would go on under other rules.
    #[test]
    fn resume_under_another_cell_plan_is_rejected() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let mut config = hour_config();
        config.sector_count = Some(64);
        let text = to_text(&StreamRuntime::new(&ctx, config), None);
        for other in [Some(65), None] {
            let err = from_text(
                &ctx,
                StreamConfig {
                    sector_count: other,
                    ..config
                },
                &text,
            )
            .map(|_| ())
            .expect_err("another cell plan must be rejected");
            match err {
                StreamError::ConfigMismatch(m) => {
                    assert!(
                        m.starts_with("cell plan sectors was 64 at checkpoint time"),
                        "{m}"
                    );
                }
                other => panic!("expected ConfigMismatch, got {other}"),
            }
        }
        assert!(from_text(&ctx, config, &text).is_ok());
    }

    #[test]
    fn other_checkpoint_version_is_a_typed_error() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let config = hour_config();
        let text = to_text(&StreamRuntime::new(&ctx, config), None);
        let (header, body) = text.split_once('\n').unwrap();
        assert_eq!(header, "wearscope-stream-checkpoint\tv9");
        for found in 1..=8 {
            let old = format!("wearscope-stream-checkpoint\tv{found}\n{body}");
            let err = from_text(&ctx, config, &old)
                .map(|_| ())
                .expect_err("an older checkpoint must be rejected");
            assert!(
                matches!(err, StreamError::CheckpointVersion { found: f, expected: 9 } if f == found),
                "{err}"
            );
            let message = err.to_string();
            assert!(
                message.contains(&format!("v{found}")) && message.contains("v9"),
                "{message}"
            );
            assert!(message.contains("without --resume"), "{message}");
        }
    }

    #[test]
    fn foreign_header_is_not_a_checkpoint() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let config = hour_config();
        for header in ["wearscope-stream-checkpoint\tvX", "hello"] {
            let err = from_text(&ctx, config, &format!("{header}\n"))
                .map(|_| ())
                .expect_err("a foreign header must be rejected");
            match err {
                StreamError::Checkpoint { line: 1, message } => {
                    assert_eq!(
                        message,
                        format!("not a stream checkpoint (header `{header}`)")
                    );
                }
                other => panic!("expected Checkpoint, got {other}"),
            }
        }
    }

    #[test]
    fn position_roundtrips_through_text() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let config = hour_config();
        let rt = StreamRuntime::new(&ctx, config);
        let pos = SourcePosition {
            proxy_offset: 1234,
            proxy_line: 17,
            mme_offset: 999,
            mme_line: 12,
        };
        let text = to_text(&rt, Some(pos));
        let (_, restored) = from_text(&ctx, config, &text).unwrap();
        assert_eq!(restored, Some(pos));
        let (_, restored) = from_text(&ctx, config, &to_text(&rt, None)).unwrap();
        assert_eq!(restored, None);
    }

    #[test]
    fn atomic_write_replaces_previous_checkpoint() {
        let dir = std::env::temp_dir().join(format!("wearscope-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.ckpt");
        write(&path, "first\n").unwrap();
        write(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
