//! Event sources: where the stream's records come from.
//!
//! Three producers feed the runtime through one trait, [`EventSource`]:
//!
//! * [`WorldSource`] — the two persisted vantage-point logs of a generated
//!   world (`proxy.log` + `mme.log`), merged by timestamp into one
//!   ordered-ish stream, optionally tailing files that are still growing;
//! * [`ChannelSource`] — an in-process channel, for wiring a live
//!   simulator (or tests) straight into the runtime;
//! * anything else implementing the trait.
//!
//! [`WorldSource`] reports a **committed position** ([`SourcePosition`])
//! suitable for checkpointing: byte offsets that account for the merge
//! lookahead, so a resumed source re-reads nothing and skips nothing.

use std::io;
use std::path::Path;
use std::sync::mpsc;

use wearscope_obs::Registry;
use wearscope_simtime::SimTime;
use wearscope_trace::{CodecError, IoMeter, MmeRecord, ProxyRecord, TailItem, TailReader};

/// One record from either vantage point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamEvent {
    /// A proxy-log transaction.
    Proxy(ProxyRecord),
    /// An MME mobility record.
    Mme(MmeRecord),
}

impl StreamEvent {
    /// The record's event timestamp.
    pub fn timestamp(&self) -> wearscope_simtime::SimTime {
        match self {
            StreamEvent::Proxy(r) => r.timestamp,
            StreamEvent::Mme(r) => r.timestamp,
        }
    }
}

/// Which log a malformed line came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceKind {
    /// `proxy.log`.
    Proxy,
    /// `mme.log`.
    Mme,
}

/// One item from an event source: a record, or a malformed line.
#[derive(Debug)]
pub enum SourceItem {
    /// A well-formed record.
    Event(StreamEvent),
    /// A line that failed to decode (counted against the quality ledger).
    Malformed {
        /// Which log the line came from.
        kind: SourceKind,
        /// 1-based line number within that log.
        line: u64,
        /// The decode failure.
        error: CodecError,
    },
}

/// Result of polling a source once.
#[derive(Debug)]
pub enum Polled {
    /// An item is available.
    Item(SourceItem),
    /// Nothing available right now, but the stream may still grow
    /// (follow mode / open channel). Poll again later.
    Pending,
    /// The stream is exhausted.
    End,
}

/// Committed read position of a [`WorldSource`] — what a checkpoint stores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SourcePosition {
    /// Byte offset into `proxy.log` of the first unconsumed line.
    pub proxy_offset: u64,
    /// Lines consumed from `proxy.log`.
    pub proxy_line: u64,
    /// Byte offset into `mme.log` of the first unconsumed line.
    pub mme_offset: u64,
    /// Lines consumed from `mme.log`.
    pub mme_line: u64,
}

/// A pull-based producer of stream items.
pub trait EventSource {
    /// Polls for the next item.
    ///
    /// # Errors
    /// Propagates I/O errors from the backing medium.
    fn poll(&mut self) -> io::Result<Polled>;

    /// The committed position, if this source is resumable from disk.
    fn position(&self) -> Option<SourcePosition>;
}

/// The two persisted logs of a world directory, merged by timestamp.
///
/// Each log is read through a [`TailReader`] with **one record of
/// lookahead** so the merge can pick the earlier timestamp (ties go to the
/// proxy log, matching the deterministic source order of the batch
/// loader). The committed position deliberately *excludes* the stashed
/// lookahead record — it is captured at refill time, before the stash is
/// consumed — so a checkpoint taken between any two items resumes exactly.
///
/// A record whose timestamp lies past the [`with_horizon`] bound is served
/// the moment it is stashed instead of entering the timestamp comparison:
/// the runtime quarantines it as skewed either way, and letting a
/// ten-years-in-the-future timestamp act as a merge key would park its
/// whole file behind every remaining record of the other one.
///
/// [`with_horizon`]: WorldSource::with_horizon
#[derive(Debug)]
pub struct WorldSource {
    proxy: TailReader<ProxyRecord>,
    mme: TailReader<MmeRecord>,
    /// Lookahead: the next proxy record, plus the position *before* it.
    proxy_next: Option<(ProxyRecord, u64, u64)>,
    mme_next: Option<(MmeRecord, u64, u64)>,
    proxy_done: bool,
    mme_done: bool,
    pos: SourcePosition,
    follow: bool,
    horizon: Option<SimTime>,
}

impl WorldSource {
    /// Opens the logs of a world directory from the beginning.
    ///
    /// # Errors
    /// Fails if either log cannot be opened.
    pub fn open(dir: &Path, follow: bool) -> io::Result<WorldSource> {
        WorldSource::resume(dir, &SourcePosition::default(), follow)
    }

    /// Reopens the logs at a checkpointed position.
    ///
    /// # Errors
    /// Fails if either log cannot be opened or is shorter than the
    /// checkpointed offset.
    pub fn resume(dir: &Path, pos: &SourcePosition, follow: bool) -> io::Result<WorldSource> {
        let proxy = TailReader::resume(
            &dir.join("proxy.log"),
            pos.proxy_offset,
            pos.proxy_line,
            follow,
        )?;
        let mme = TailReader::resume(&dir.join("mme.log"), pos.mme_offset, pos.mme_line, follow)?;
        Ok(WorldSource {
            proxy,
            mme,
            proxy_next: None,
            mme_next: None,
            proxy_done: false,
            mme_done: false,
            pos: *pos,
            follow,
            horizon: None,
        })
    }

    /// Sets the observation horizon: a stashed record with a timestamp
    /// past it is emitted immediately rather than merged by time, so one
    /// skewed record cannot stall its file behind the other log. Pass the
    /// same bound as [`StreamConfig::max_timestamp`].
    ///
    /// [`StreamConfig::max_timestamp`]: crate::StreamConfig
    #[must_use]
    pub fn with_horizon(mut self, horizon: Option<SimTime>) -> WorldSource {
        self.horizon = horizon;
        self
    }

    /// Meters both logs' I/O into `registry`: bytes read and decode
    /// errors, under the same `trace.proxy.*` / `trace.mme.*` names the
    /// batch loader reports, so batch and stream runs of one world are
    /// directly comparable.
    #[must_use]
    pub fn with_metrics(mut self, registry: &Registry) -> WorldSource {
        self.proxy = self.proxy.with_meter(IoMeter::new(registry, "trace.proxy"));
        self.mme = self.mme.with_meter(IoMeter::new(registry, "trace.mme"));
        self
    }

    /// Leaves follow mode on both logs (drains to `End` at EOF).
    pub fn finish(&mut self) {
        self.follow = false;
        self.proxy.finish();
        self.mme.finish();
    }

    /// Refills the proxy lookahead. Returns a non-record outcome to pass
    /// through, if any (malformed line, pending, or nothing: stash filled
    /// or log done).
    fn refill_proxy(&mut self) -> io::Result<Option<Polled>> {
        if self.proxy_next.is_some() || self.proxy_done {
            return Ok(None);
        }
        // Committed position *before* the stashed record: a checkpoint
        // taken while this record sits in the stash must re-read it.
        let (off, line) = (self.proxy.offset(), self.proxy.line_no());
        match self.proxy.next_item()? {
            TailItem::Record(r) => {
                self.proxy_next = Some((r, off, line));
                Ok(None)
            }
            TailItem::Malformed { line, error } => {
                self.pos.proxy_offset = self.proxy.offset();
                self.pos.proxy_line = self.proxy.line_no();
                Ok(Some(Polled::Item(SourceItem::Malformed {
                    kind: SourceKind::Proxy,
                    line,
                    error,
                })))
            }
            TailItem::Pending => Ok(Some(Polled::Pending)),
            TailItem::End => {
                self.proxy_done = true;
                self.pos.proxy_offset = self.proxy.offset();
                self.pos.proxy_line = self.proxy.line_no();
                Ok(None)
            }
        }
    }

    fn refill_mme(&mut self) -> io::Result<Option<Polled>> {
        if self.mme_next.is_some() || self.mme_done {
            return Ok(None);
        }
        let (off, line) = (self.mme.offset(), self.mme.line_no());
        match self.mme.next_item()? {
            TailItem::Record(r) => {
                self.mme_next = Some((r, off, line));
                Ok(None)
            }
            TailItem::Malformed { line, error } => {
                self.pos.mme_offset = self.mme.offset();
                self.pos.mme_line = self.mme.line_no();
                Ok(Some(Polled::Item(SourceItem::Malformed {
                    kind: SourceKind::Mme,
                    line,
                    error,
                })))
            }
            TailItem::Pending => Ok(Some(Polled::Pending)),
            TailItem::End => {
                self.mme_done = true;
                self.pos.mme_offset = self.mme.offset();
                self.pos.mme_line = self.mme.line_no();
                Ok(None)
            }
        }
    }

    fn emit_proxy(&mut self) -> Polled {
        let (r, _, _) = self.proxy_next.take().expect("proxy stash filled");
        self.pos.proxy_offset = self.proxy.offset();
        self.pos.proxy_line = self.proxy.line_no();
        Polled::Item(SourceItem::Event(StreamEvent::Proxy(r)))
    }

    fn emit_mme(&mut self) -> Polled {
        let (r, _, _) = self.mme_next.take().expect("mme stash filled");
        self.pos.mme_offset = self.mme.offset();
        self.pos.mme_line = self.mme.line_no();
        Polled::Item(SourceItem::Event(StreamEvent::Mme(r)))
    }
}

impl EventSource for WorldSource {
    fn poll(&mut self) -> io::Result<Polled> {
        // Malformed lines and Pending pass straight through; a filled
        // stash or End falls out as None and the merge below decides.
        if let Some(out) = self.refill_proxy()? {
            match out {
                Polled::Pending if self.mme_next.is_some() || !self.mme_done => {
                    // One log stalled mid-line: serve the other (lateness
                    // absorbs the cross-file skew). Only if the other side
                    // also has nothing do we report Pending.
                    if let Some(out) = self.refill_mme()? {
                        return Ok(out);
                    }
                    if self.mme_next.is_some() {
                        return Ok(self.emit_mme());
                    }
                    return Ok(Polled::Pending);
                }
                other => return Ok(other),
            }
        }
        if let Some(out) = self.refill_mme()? {
            match out {
                Polled::Pending if self.proxy_next.is_some() => {
                    return Ok(self.emit_proxy());
                }
                other => return Ok(other),
            }
        }
        // A stashed timestamp past the horizon is doomed to the skew
        // quarantine — flush it now, in file order, instead of letting it
        // hold its file hostage in the merge below.
        if let Some(h) = self.horizon {
            if self
                .proxy_next
                .as_ref()
                .is_some_and(|(p, _, _)| p.timestamp > h)
            {
                return Ok(self.emit_proxy());
            }
            if self
                .mme_next
                .as_ref()
                .is_some_and(|(m, _, _)| m.timestamp > h)
            {
                return Ok(self.emit_mme());
            }
        }
        match (&self.proxy_next, &self.mme_next) {
            (Some((p, _, _)), Some((m, _, _))) => {
                // Merge by timestamp; ties go to the proxy log (the batch
                // loader's deterministic source order).
                if p.timestamp <= m.timestamp {
                    Ok(self.emit_proxy())
                } else {
                    Ok(self.emit_mme())
                }
            }
            (Some(_), None) => Ok(self.emit_proxy()),
            (None, Some(_)) => Ok(self.emit_mme()),
            (None, None) => Ok(Polled::End),
        }
    }

    fn position(&self) -> Option<SourcePosition> {
        Some(self.pos)
    }
}

/// An in-process channel source (live simulator or test harness).
///
/// Wraps the receiving half of a [`std::sync::mpsc::channel`]: an empty
/// channel polls [`Polled::Pending`], a disconnected one [`Polled::End`].
/// Not resumable — [`EventSource::position`] is `None`.
#[derive(Debug)]
pub struct ChannelSource {
    rx: mpsc::Receiver<StreamEvent>,
}

impl ChannelSource {
    /// Wraps a receiver.
    pub fn new(rx: mpsc::Receiver<StreamEvent>) -> ChannelSource {
        ChannelSource { rx }
    }

    /// A connected `(sender, source)` pair.
    pub fn pair() -> (mpsc::Sender<StreamEvent>, ChannelSource) {
        let (tx, rx) = mpsc::channel();
        (tx, ChannelSource::new(rx))
    }
}

impl EventSource for ChannelSource {
    fn poll(&mut self) -> io::Result<Polled> {
        match self.rx.try_recv() {
            Ok(ev) => Ok(Polled::Item(SourceItem::Event(ev))),
            Err(mpsc::TryRecvError::Empty) => Ok(Polled::Pending),
            Err(mpsc::TryRecvError::Disconnected) => Ok(Polled::End),
        }
    }

    fn position(&self) -> Option<SourcePosition> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_simtime::SimTime;
    use wearscope_trace::{HostId, MmeEvent, Scheme, TsvRecord, UserId};

    fn proxy(t: u64) -> ProxyRecord {
        ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(1),
            imei: 352000011234564,
            host: HostId::intern("api.weather.com"),
            scheme: Scheme::Https,
            bytes_down: 10,
            bytes_up: 1,
        }
    }

    fn mme(t: u64) -> MmeRecord {
        MmeRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(1),
            imei: 352000011234564,
            event: MmeEvent::SectorUpdate,
            sector: 7,
        }
    }

    fn world_dir(name: &str, proxies: &[ProxyRecord], mmes: &[MmeRecord]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wearscope-src-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut text = String::new();
        for p in proxies {
            text.push_str(&p.to_line());
            text.push('\n');
        }
        std::fs::write(dir.join("proxy.log"), text).unwrap();
        let mut text = String::new();
        for m in mmes {
            text.push_str(&m.to_line());
            text.push('\n');
        }
        std::fs::write(dir.join("mme.log"), text).unwrap();
        dir
    }

    fn drain(src: &mut WorldSource) -> Vec<StreamEvent> {
        let mut out = Vec::new();
        loop {
            match src.poll().unwrap() {
                Polled::Item(SourceItem::Event(ev)) => out.push(ev),
                Polled::Item(SourceItem::Malformed { line, error, .. }) => {
                    panic!("line {line}: {error}")
                }
                Polled::Pending => panic!("pending in non-follow mode"),
                Polled::End => return out,
            }
        }
    }

    #[test]
    fn merges_by_timestamp_with_proxy_winning_ties() {
        let dir = world_dir(
            "merge",
            &[proxy(10), proxy(30), proxy(50)],
            &[mme(10), mme(20), mme(60)],
        );
        let mut src = WorldSource::open(&dir, false).unwrap();
        let events = drain(&mut src);
        let times: Vec<(u64, bool)> = events
            .iter()
            .map(|e| (e.timestamp().as_secs(), matches!(e, StreamEvent::Proxy(_))))
            .collect();
        assert_eq!(
            times,
            vec![
                (10, true), // tie at t=10: proxy first
                (10, false),
                (20, false),
                (30, true),
                (50, true),
                (60, false)
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn position_resume_replays_exactly_once() {
        let proxies: Vec<ProxyRecord> = (0..20).map(|i| proxy(i * 10)).collect();
        let mmes: Vec<MmeRecord> = (0..20).map(|i| mme(i * 10 + 5)).collect();
        let dir = world_dir("pos", &proxies, &mmes);
        let full = drain(&mut WorldSource::open(&dir, false).unwrap());
        // Stop after every prefix length; resuming must yield the suffix.
        for stop in [0usize, 1, 7, 20, 39, 40] {
            let mut src = WorldSource::open(&dir, false).unwrap();
            let mut head = Vec::new();
            for _ in 0..stop {
                match src.poll().unwrap() {
                    Polled::Item(SourceItem::Event(ev)) => head.push(ev),
                    other => panic!("unexpected {other:?}"),
                }
            }
            let pos = src.position().unwrap();
            drop(src);
            let mut resumed = WorldSource::resume(&dir, &pos, false).unwrap();
            head.extend(drain(&mut resumed));
            assert_eq!(head, full, "stop at {stop}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn skewed_record_does_not_stall_its_file_behind_the_other_log() {
        // A ten-years-skewed proxy record sits between normal ones. With a
        // horizon it is flushed in file order; without one it would sort
        // after every mme record and drag proxy(30)/proxy(50) with it.
        let dir = world_dir(
            "skew",
            &[proxy(10), proxy(500_000_000), proxy(30), proxy(50)],
            &[mme(20), mme(40), mme(60)],
        );
        let mut src = WorldSource::open(&dir, false)
            .unwrap()
            .with_horizon(Some(SimTime::from_secs(1000)));
        let events = drain(&mut src);
        let times: Vec<u64> = events.iter().map(|e| e.timestamp().as_secs()).collect();
        assert_eq!(times, vec![10, 500_000_000, 20, 30, 40, 50, 60]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn channel_source_polls_until_disconnect() {
        let (tx, mut src) = ChannelSource::pair();
        assert!(matches!(src.poll().unwrap(), Polled::Pending));
        tx.send(StreamEvent::Proxy(proxy(5))).unwrap();
        assert!(matches!(
            src.poll().unwrap(),
            Polled::Item(SourceItem::Event(StreamEvent::Proxy(_)))
        ));
        drop(tx);
        assert!(matches!(src.poll().unwrap(), Polled::End));
        assert!(src.position().is_none());
    }
}
