//! Checkpoint files: serialize an in-flight [`StreamRuntime`] so a killed
//! run can resume and produce byte-identical final reports.
//!
//! The format is the same hand-rolled line/TSV discipline as
//! [`wearscope_core::snapshot`] (no serialization framework is vendored):
//! a version header, the configuration (verified on resume), the stream
//! clock and counters, emitted reports, each log validator's duplicate
//! memory (as raw record lines), the attributor queues, and one snapshot
//! per open window.
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

use wearscope_core::snapshot::{Snapshot, SnapshotReader};
use wearscope_core::StudyContext;
use wearscope_ingest::{LogRecord, RecordValidator};
use wearscope_report::{DataQuality, QuarantineReason, WindowReport};
use wearscope_simtime::{SimDuration, SimTime};
use wearscope_trace::{decode_log_line, MmeRecord, ProxyRecord, TsvRecord};

use crate::aggregates::WindowAggregates;
use crate::attrib::StreamingAttributor;
use crate::runtime::{Backpressure, Progress, StreamConfig, StreamError, StreamRuntime};
use crate::source::SourcePosition;
use crate::window::WindowSpec;

/// The first field of every checkpoint's header line.
const MAGIC: &str = "wearscope-stream-checkpoint";
/// The checkpoint format this build writes and reads: the header's second
/// field is `v` followed by it.
const VERSION: u32 = 2;

/// Serializes the runtime (and the source's committed position) to
/// checkpoint text.
pub fn to_text(rt: &StreamRuntime<'_>, position: Option<SourcePosition>) -> String {
    let mut out = format!("{MAGIC}\tv{VERSION}\n");
    let c = &rt.config;
    out.push_str(&format!(
        "config\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        c.spec.width().as_secs(),
        c.spec.slide().as_secs(),
        c.lateness.as_secs(),
        c.max_open_windows,
        c.backpressure.name(),
        c.max_timestamp
            .map_or("-".into(), |t| t.as_secs().to_string()),
        u8::from(c.collect_aggregates),
    ));
    out.push_str(&format!(
        "clock\t{}\t{}\n",
        rt.max_event.map_or("-".into(), |t| t.as_secs().to_string()),
        rt.records_processed,
    ));
    let q = &rt.quality;
    out.push_str(&format!("quality\t{}\t{}", q.records_seen, q.records_kept));
    for reason in QuarantineReason::ALL {
        out.push_str(&format!("\t{}", q.quarantined.get(reason)));
    }
    out.push_str(&format!("\t{:016x}\n", q.max_error_rate.to_bits()));
    out.push_str(&format!(
        "counters\t{}\t{}\n",
        rt.late_merged, rt.forced_emits
    ));
    match rt.progress {
        Some(p) => out.push_str(&format!("progress\t{}\t{}\n", p.base, p.next_emit)),
        None => out.push_str("progress\t-\t-\n"),
    }
    match position {
        Some(p) => out.push_str(&format!(
            "position\t{}\t{}\t{}\t{}\n",
            p.proxy_offset, p.proxy_line, p.mme_offset, p.mme_line
        )),
        None => out.push_str("position\t-\n"),
    }
    out.push_str(&format!("reports\t{}\n", rt.reports.len()));
    for r in &rt.reports {
        out.push_str(&r.to_tsv());
        out.push('\n');
    }
    out.push_str(&format!("collected\t{}\n", rt.collected.len()));
    for (id, agg) in &rt.collected {
        out.push_str(&format!("collected-window\t{id}\n"));
        agg.snapshot(&mut out);
    }
    let watermark = rt.watermark();
    push_remembered(
        &mut out,
        "dedup-proxy",
        rt.proxy_validator.remembered(watermark),
    );
    push_remembered(
        &mut out,
        "dedup-mme",
        rt.mme_validator.remembered(watermark),
    );
    rt.attributor.snapshot(&mut out);
    out.push_str(&format!("open\t{}\n", rt.open.len()));
    for (id, agg) in &rt.open {
        out.push_str(&format!("open-window\t{id}\n"));
        agg.snapshot(&mut out);
    }
    out.push_str("end\n");
    out
}

fn push_remembered<R: TsvRecord>(out: &mut String, tag: &str, records: Vec<&R>) {
    out.push_str(&format!("{tag}\t{}\n", records.len()));
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
    let header = r.line().map_err(StreamError::from)?;
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
            return Err(StreamError::Checkpoint {
                line: r.line_no(),
                message: format!("not a stream checkpoint (header `{header}`)"),
            })
        }
    }
    let fields = r.tagged("config")?;
    check_config(&config, &fields)?;

    let fields = r.tagged("clock")?;
    expect_len(&r, &fields, 2, "clock")?;
    let max_event = opt_secs(&r, fields[0])?.map(SimTime::from_secs);
    let records_processed = num(&r, fields[1])?;

    let fields = r.tagged("quality")?;
    expect_len(&r, &fields, 2 + QuarantineReason::ALL.len() + 1, "quality")?;
    let mut quality = DataQuality {
        records_seen: num(&r, fields[0])?,
        records_kept: num(&r, fields[1])?,
        ..DataQuality::default()
    };
    for (i, reason) in QuarantineReason::ALL.into_iter().enumerate() {
        let n = num(&r, fields[2 + i])?;
        for _ in 0..n {
            quality.quarantined.note(reason);
        }
    }
    quality.max_error_rate = f64::from_bits(
        u64::from_str_radix(fields[2 + QuarantineReason::ALL.len()], 16).map_err(|_| {
            StreamError::Checkpoint {
                line: r.line_no(),
                message: "bad max_error_rate bit pattern".into(),
            }
        })?,
    );

    let fields = r.tagged("counters")?;
    expect_len(&r, &fields, 2, "counters")?;
    let late_merged = num(&r, fields[0])?;
    let forced_emits = num(&r, fields[1])?;

    let fields = r.tagged("progress")?;
    expect_len(&r, &fields, 2, "progress")?;
    let progress = match opt_secs(&r, fields[0])? {
        Some(base) => Some(Progress {
            base,
            next_emit: num(&r, fields[1])?,
        }),
        None => None,
    };

    let fields = r.tagged("position")?;
    let position = if fields == ["-"] {
        None
    } else {
        expect_len(&r, &fields, 4, "position")?;
        Some(SourcePosition {
            proxy_offset: num(&r, fields[0])?,
            proxy_line: num(&r, fields[1])?,
            mme_offset: num(&r, fields[2])?,
            mme_line: num(&r, fields[3])?,
        })
    };

    let fields = r.tagged("reports")?;
    let n = num(&r, fields.first().copied().unwrap_or(""))? as usize;
    let mut reports = Vec::with_capacity(n);
    for _ in 0..n {
        let line = r.line()?;
        reports.push(
            WindowReport::from_tsv(line).map_err(|message| StreamError::Checkpoint {
                line: r.line_no(),
                message,
            })?,
        );
    }

    let fields = r.tagged("collected")?;
    let n = num(&r, fields.first().copied().unwrap_or(""))? as usize;
    let mut collected = Vec::with_capacity(n);
    for _ in 0..n {
        let fields = r.tagged("collected-window")?;
        let id = num(&r, fields.first().copied().unwrap_or(""))?;
        collected.push((id, WindowAggregates::restore(&mut r)?));
    }

    let horizon = config.max_timestamp;
    let proxy_validator = read_validator::<ProxyRecord>(&mut r, "dedup-proxy", horizon)?;
    let mme_validator = read_validator::<MmeRecord>(&mut r, "dedup-mme", horizon)?;
    let attributor = StreamingAttributor::restore(&mut r)?;

    let fields = r.tagged("open")?;
    let n = num(&r, fields.first().copied().unwrap_or(""))? as usize;
    let mut open = std::collections::BTreeMap::new();
    for _ in 0..n {
        let fields = r.tagged("open-window")?;
        let id = num(&r, fields.first().copied().unwrap_or(""))?;
        open.insert(id, WindowAggregates::restore(&mut r)?);
    }
    r.tagged("end")?;

    let mut rt = StreamRuntime::new(ctx, config);
    rt.max_event = max_event;
    rt.progress = progress;
    rt.open = open;
    rt.reports = reports;
    rt.collected = collected;
    rt.attributor = attributor;
    rt.proxy_validator = proxy_validator;
    rt.mme_validator = mme_validator;
    rt.quality = quality;
    rt.late_merged = late_merged;
    rt.forced_emits = forced_emits;
    rt.records_processed = records_processed;
    Ok((rt, position))
}

fn check_config(config: &StreamConfig, fields: &[&str]) -> Result<(), StreamError> {
    let mismatch = |what: &str, ckpt: &str, now: String| {
        Err(StreamError::ConfigMismatch(format!(
            "{what} was {ckpt} at checkpoint time, {now} now — rerun with the original flags or drop --resume"
        )))
    };
    if fields.len() != 7 {
        return Err(StreamError::ConfigMismatch(format!(
            "config line has {} fields, expected 7",
            fields.len()
        )));
    }
    let checks: [(&str, String); 6] = [
        ("window width", config.spec.width().as_secs().to_string()),
        ("window slide", config.spec.slide().as_secs().to_string()),
        ("lateness", config.lateness.as_secs().to_string()),
        ("max open windows", config.max_open_windows.to_string()),
        ("backpressure", config.backpressure.name().to_string()),
        (
            "skew horizon",
            config
                .max_timestamp
                .map_or("-".into(), |t| t.as_secs().to_string()),
        ),
    ];
    for ((what, now), ckpt) in checks.into_iter().zip(fields) {
        if *ckpt != now {
            return mismatch(what, ckpt, now);
        }
    }
    if fields[6] != u8::from(config.collect_aggregates).to_string() {
        return mismatch(
            "collect-aggregates",
            fields[6],
            u8::from(config.collect_aggregates).to_string(),
        );
    }
    Ok(())
}

/// Rebuilds one log's validator from its checkpointed duplicate memory.
fn read_validator<R: LogRecord + TsvRecord>(
    r: &mut SnapshotReader<'_>,
    tag: &str,
    horizon: Option<SimTime>,
) -> Result<RecordValidator<R>, StreamError> {
    let fields = r.tagged(tag)?;
    let n = num(r, fields.first().copied().unwrap_or(""))? as usize;
    let mut validator = RecordValidator::new(horizon);
    for _ in 0..n {
        let line = r.line()?;
        match decode_log_line::<R>(line) {
            Some(Ok(rec)) => {
                validator.remember(rec);
            }
            Some(Err(e)) => {
                return Err(StreamError::Checkpoint {
                    line: r.line_no(),
                    message: format!("bad dedup record: {e}"),
                });
            }
            None => {
                return Err(StreamError::Checkpoint {
                    line: r.line_no(),
                    message: "blank dedup record line".into(),
                });
            }
        }
    }
    Ok(validator)
}

fn expect_len(
    r: &SnapshotReader<'_>,
    fields: &[&str],
    n: usize,
    tag: &str,
) -> Result<(), StreamError> {
    if fields.len() == n {
        Ok(())
    } else {
        Err(StreamError::Checkpoint {
            line: r.line_no(),
            message: format!("{tag} needs {n} fields, got {}", fields.len()),
        })
    }
}

fn num(r: &SnapshotReader<'_>, s: &str) -> Result<u64, StreamError> {
    s.parse::<u64>().map_err(|_| StreamError::Checkpoint {
        line: r.line_no(),
        message: format!("bad integer `{s}`"),
    })
}

fn opt_secs(r: &SnapshotReader<'_>, s: &str) -> Result<Option<u64>, StreamError> {
    if s == "-" {
        Ok(None)
    } else {
        num(r, s).map(Some)
    }
}

/// Parses checkpoint text just far enough to recover the source position
/// (the CLI needs it before building the runtime).
///
/// # Errors
/// [`StreamError::Checkpoint`] on malformed text.
pub fn read_position(text: &str) -> Result<Option<SourcePosition>, StreamError> {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("position\t") {
            if rest == "-" {
                return Ok(None);
            }
            let fields: Vec<&str> = rest.split('\t').collect();
            let r = SnapshotReader::new("");
            if fields.len() != 4 {
                return Err(StreamError::Checkpoint {
                    line: 0,
                    message: "position line needs 4 fields".into(),
                });
            }
            return Ok(Some(SourcePosition {
                proxy_offset: num(&r, fields[0])?,
                proxy_line: num(&r, fields[1])?,
                mme_offset: num(&r, fields[2])?,
                mme_line: num(&r, fields[3])?,
            }));
        }
    }
    Err(StreamError::Checkpoint {
        line: 0,
        message: "no position line in checkpoint".into(),
    })
}

/// Reconstructs the [`StreamConfig`] a checkpoint was written under
/// (window geometry and policies; the caller supplies `ctx`).
///
/// # Errors
/// [`StreamError::Checkpoint`] on malformed text.
pub fn read_config(text: &str) -> Result<StreamConfig, StreamError> {
    let mut r = SnapshotReader::new(text);
    let _header = r.line()?;
    let fields = r.tagged("config")?;
    if fields.len() != 7 {
        return Err(StreamError::Checkpoint {
            line: r.line_no(),
            message: "config line needs 7 fields".into(),
        });
    }
    let spec = WindowSpec::sliding(
        SimDuration::from_secs(num(&r, fields[0])?),
        SimDuration::from_secs(num(&r, fields[1])?),
    )
    .map_err(|message| StreamError::Checkpoint {
        line: r.line_no(),
        message,
    })?;
    Ok(StreamConfig {
        spec,
        lateness: SimDuration::from_secs(num(&r, fields[2])?),
        max_open_windows: num(&r, fields[3])? as usize,
        backpressure: Backpressure::parse(fields[4]).map_err(|message| {
            StreamError::Checkpoint {
                line: r.line_no(),
                message,
            }
        })?,
        max_timestamp: opt_secs(&r, fields[5])?.map(SimTime::from_secs),
        collect_aggregates: fields[6] == "1",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{SourceItem, StreamEvent};
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::DeviceDb;
    use wearscope_geo::SectorDirectory;
    use wearscope_simtime::{Calendar, ObservationWindow};
    use wearscope_trace::{Scheme, TraceStore, UserId};

    fn proxy(db: &DeviceDb, user: u64, t: u64, host: &str) -> StreamEvent {
        StreamEvent::Proxy(ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei: db.example_imei(db.wearable_tacs()[0], user as u32).as_u64(),
            host: host.into(),
            scheme: Scheme::Https,
            bytes_down: 64,
            bytes_up: 8,
        })
    }

    #[test]
    fn roundtrip_resumes_to_identical_final_reports() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let store = TraceStore::new();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let mut config = StreamConfig::new(
            WindowSpec::tumbling(SimDuration::from_hours(1)).unwrap(),
            SimDuration::from_secs(300),
        );
        config.collect_aggregates = true;
        let events: Vec<StreamEvent> = (0..200)
            .map(|i| {
                let host = if i % 3 == 0 {
                    "api.weather.com"
                } else {
                    "cdn.telemetry.example"
                };
                proxy(&db, 1 + i % 4, i * 97, host)
            })
            .collect();

        // Uninterrupted run.
        let mut whole = StreamRuntime::new(&ctx, config);
        for ev in &events {
            whole.process_item(SourceItem::Event(ev.clone())).unwrap();
        }
        whole.finish();
        let (want, _) = whole.into_results();

        // Kill after 77 events, checkpoint, resume via text.
        let mut first = StreamRuntime::new(&ctx, config);
        for ev in &events[..77] {
            first.process_item(SourceItem::Event(ev.clone())).unwrap();
        }
        let text = to_text(&first, None);
        let (mut resumed, position) = from_text(&ctx, config, &text).unwrap();
        assert!(position.is_none());
        // Restored state re-serializes byte-identically.
        assert_eq!(to_text(&resumed, None), text);
        for ev in &events[77..] {
            resumed.process_item(SourceItem::Event(ev.clone())).unwrap();
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
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let store = TraceStore::new();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let config = StreamConfig::new(
            WindowSpec::tumbling(SimDuration::from_hours(1)).unwrap(),
            SimDuration::from_secs(300),
        );
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
        // read_config recovers the original.
        let recovered = read_config(&text).unwrap();
        assert_eq!(recovered, config);
    }

    #[test]
    fn other_checkpoint_version_is_a_typed_error() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let store = TraceStore::new();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let config = StreamConfig::new(
            WindowSpec::tumbling(SimDuration::from_hours(1)).unwrap(),
            SimDuration::from_secs(300),
        );
        let text = to_text(&StreamRuntime::new(&ctx, config), None);
        let (header, body) = text.split_once('\n').unwrap();
        assert_eq!(header, "wearscope-stream-checkpoint\tv2");
        let old = format!("wearscope-stream-checkpoint\tv1\n{body}");
        let err = from_text(&ctx, config, &old)
            .map(|_| ())
            .expect_err("a v1 checkpoint must be rejected");
        assert!(
            matches!(
                err,
                StreamError::CheckpointVersion {
                    found: 1,
                    expected: 2
                }
            ),
            "{err}"
        );
        let message = err.to_string();
        assert!(
            message.contains("v1") && message.contains("v2"),
            "{message}"
        );
        assert!(message.contains("without --resume"), "{message}");
    }

    #[test]
    fn foreign_header_is_not_a_checkpoint() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let store = TraceStore::new();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let config = StreamConfig::new(
            WindowSpec::tumbling(SimDuration::from_hours(1)).unwrap(),
            SimDuration::from_secs(300),
        );
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
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let store = TraceStore::new();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let config = StreamConfig::new(
            WindowSpec::tumbling(SimDuration::from_hours(1)).unwrap(),
            SimDuration::from_secs(300),
        );
        let rt = StreamRuntime::new(&ctx, config);
        let pos = SourcePosition {
            proxy_offset: 1234,
            proxy_line: 17,
            mme_offset: 999,
            mme_line: 12,
        };
        let text = to_text(&rt, Some(pos));
        assert_eq!(read_position(&text).unwrap(), Some(pos));
        let (_, restored) = from_text(&ctx, config, &text).unwrap();
        assert_eq!(restored, Some(pos));
        assert_eq!(read_position(&to_text(&rt, None)).unwrap(), None);
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
