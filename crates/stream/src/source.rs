//! Event sources: where the stream's records come from.
//!
//! The runtime pulls records through one trait, [`EventSource`]:
//!
//! * [`WorldSource`] — the two persisted vantage-point logs of a generated
//!   world (`proxy.log` + `mme.log`), merged by timestamp into one
//!   ordered-ish stream, optionally tailing files that are still growing;
//! * [`ReadAhead`] — any source moved onto a reader thread of its own, so
//!   the runtime thread spends no time reading or decoding: it takes the
//!   items in bounded batches, each with the position after it, and
//!   yields them exactly as the wrapped source would have;
//! * [`ChannelSource`] — an in-process channel, for wiring a live
//!   simulator (or tests) straight into the runtime.
//!
//! Each log is read through one layer, its lane in the [`WorldSource`]:
//! the trace crate's [`Lines`] log reader, which decodes each line where
//! it lies in its buffer, with the committed position
//! ([`SourcePosition`]) a checkpoint stores — byte offsets that account
//! for the merge lookahead, so a resumed source re-reads nothing and
//! skips nothing. Whichever source hands the items
//! out counts their `trace.{proxy,mme}.*` bytes and decode errors.

use std::any::Any;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use wearscope_ingest::panic_message;
use wearscope_obs::{Counter, Registry};
use wearscope_report::ShardSource;
use wearscope_simtime::SimTime;
use wearscope_trace::codec::count_byte;
use wearscope_trace::{CodecError, Lines, MmeRecord, ProxyRecord, TsvRecord};

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

/// One item from an event source: a record, or a malformed line.
#[derive(Debug)]
pub enum SourceItem {
    /// A well-formed record.
    Event(StreamEvent),
    /// A line that failed to decode (counted against the quality ledger).
    Malformed {
        /// Which log the line came from.
        kind: ShardSource,
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

/// The `trace.{proxy,mme}.{bytes_read,decode_errors}` counters of a
/// stream run, under the names the batch loader reports, so batch and
/// stream runs of one world are directly comparable. Both are counted as
/// items are handed out, never as they are read: the bytes are the
/// committed position's advance and the errors the malformed items, so
/// for a given input they are functions of the log content and of where
/// the run stopped, and they sit in the **deterministic** section.
#[derive(Debug)]
struct LogMeter {
    proxy_bytes: Counter,
    proxy_errors: Counter,
    mme_bytes: Counter,
    mme_errors: Counter,
    /// Position up to which the bytes are counted.
    counted: Option<SourcePosition>,
}

impl LogMeter {
    /// Registers the four counters, counting bytes from `position` on.
    fn new(registry: &Registry, position: Option<SourcePosition>) -> LogMeter {
        LogMeter {
            proxy_bytes: registry.counter("trace.proxy.bytes_read"),
            proxy_errors: registry.counter("trace.proxy.decode_errors"),
            mme_bytes: registry.counter("trace.mme.bytes_read"),
            mme_errors: registry.counter("trace.mme.decode_errors"),
            counted: position,
        }
    }

    /// Counts `item` if it is a malformed line.
    fn item(&self, item: &SourceItem) {
        if let SourceItem::Malformed { kind, .. } = item {
            match kind {
                ShardSource::Proxy => self.proxy_errors.inc(),
                ShardSource::Mme => self.mme_errors.inc(),
            }
        }
    }

    /// Counts the bytes between the counted position and `to`.
    fn advance(&mut self, to: Option<SourcePosition>) {
        if let (Some(from), Some(to)) = (self.counted, to) {
            if to.proxy_offset != from.proxy_offset {
                self.proxy_bytes
                    .add(to.proxy_offset.saturating_sub(from.proxy_offset));
            }
            if to.mme_offset != from.mme_offset {
                self.mme_bytes
                    .add(to.mme_offset.saturating_sub(from.mme_offset));
            }
        }
        self.counted = to;
    }
}

/// The two persisted logs of a world directory, merged by timestamp.
///
/// Each log is read with **one record of lookahead** so the merge can
/// pick the earlier timestamp (ties go to the proxy log, matching the
/// deterministic source order of the batch loader). The committed
/// position deliberately *excludes* the stashed lookahead record — it
/// only moves past a line once that line is served — so a checkpoint
/// taken between any two items resumes exactly.
///
/// In follow mode a log's end is [`Polled::Pending`], not the end of the
/// stream, and a trailing unterminated line is held back until its `\n`
/// arrives (the writer may still be mid-line); otherwise a trailing
/// unterminated line is decoded as a final (possibly truncated) record,
/// as the batch chunk reader decodes it.
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
    proxy: Lane<ProxyRecord>,
    mme: Lane<MmeRecord>,
    horizon: Option<SimTime>,
    meter: Option<LogMeter>,
}

/// The log reader's initial buffer, which bounds each read until one
/// line outgrows it.
const READ_BYTES: usize = 64 * 1024;

/// One log of a [`WorldSource`]: its lines, one record of lookahead, and
/// two positions — after the last line read, and the committed one, which
/// excludes the lookahead.
#[derive(Debug)]
struct Lane<R: TsvRecord> {
    kind: ShardSource,
    wrap: fn(R) -> StreamEvent,
    lines: Lines<File>,
    /// Byte offset and line count after the last line read.
    read_offset: u64,
    read_line: u64,
    /// Byte offset of the first line not yet served.
    offset: u64,
    /// Lines served.
    line: u64,
    /// At the log's end, wait for it to grow (and hold back a partial
    /// last line) instead of ending.
    follow: bool,
    /// The next record, read but not yet served.
    next: Option<StreamEvent>,
    done: bool,
}

impl<R: TsvRecord> Lane<R> {
    /// Opens the log at `path` at a committed position: byte `offset`,
    /// after `line` lines.
    ///
    /// # Errors
    /// Fails if the file cannot be opened, if `offset` is neither 0, nor
    /// just after a `\n`, nor the file's length (the checkpoint points
    /// into a line or past the log: corruption or the wrong world), or if
    /// `line` is not the number of lines before `offset` (each `\n`, and
    /// an unterminated last line when `offset` is the length), which would
    /// shift every line number reported after it. Counting reads the log
    /// up to `offset` once.
    fn open(
        kind: ShardSource,
        wrap: fn(R) -> StreamEvent,
        path: &Path,
        (offset, line): (u64, u64),
        follow: bool,
    ) -> io::Result<Lane<R>> {
        let mut file = File::open(path)?;
        let len = file.seek(SeekFrom::End(0))?;
        let refuse = |message| Err(io::Error::new(io::ErrorKind::InvalidData, message));
        let path = path.display();
        if offset > len {
            return refuse(format!(
                "resume offset {offset} beyond end of {path} ({len} bytes)"
            ));
        }
        file.seek(SeekFrom::Start(0))?;
        let (newlines, before) = newlines_before(&mut file, offset)?;
        let tail = before.is_some_and(|b| b != b'\n');
        if tail && offset != len {
            return refuse(format!(
                "resume offset {offset} in {path} is not at a line start"
            ));
        }
        let lines = newlines + u64::from(tail);
        if line != lines {
            return refuse(format!(
                "resume line count {line} in {path} is not the {lines} lines before offset {offset}"
            ));
        }
        Ok(Lane {
            kind,
            wrap,
            lines: Lines::new(file, READ_BYTES),
            read_offset: offset,
            read_line: line,
            offset,
            line,
            follow,
            next: None,
            done: false,
        })
    }

    /// Refills the lookahead. Returns a non-record outcome to pass
    /// through, if any (malformed line, pending, or nothing: stash filled
    /// or log done). Blank lines are read past.
    fn refill(&mut self) -> io::Result<Option<Polled>> {
        if self.next.is_some() || self.done {
            return Ok(None);
        }
        loop {
            let Some((len, decoded)) = self.lines.next_decoded::<R>(self.follow)? else {
                if self.follow {
                    return Ok(Some(Polled::Pending));
                }
                self.done = true;
                self.commit();
                return Ok(None);
            };
            self.read_offset += len as u64;
            self.read_line += 1;
            match decoded {
                None => {}
                Some(Ok(record)) => {
                    self.next = Some((self.wrap)(record));
                    return Ok(None);
                }
                Some(Err(error)) => {
                    self.commit();
                    return Ok(Some(Polled::Item(SourceItem::Malformed {
                        kind: self.kind,
                        line: self.line,
                        error,
                    })));
                }
            }
        }
    }

    /// Serves the stashed record.
    fn emit(&mut self) -> Polled {
        let event = self.next.take().expect("lookahead filled");
        self.commit();
        Polled::Item(SourceItem::Event(event))
    }

    /// Moves the committed position past every line read.
    fn commit(&mut self) {
        (self.offset, self.line) = (self.read_offset, self.read_line);
    }

    /// The stashed record's timestamp.
    fn next_time(&self) -> Option<SimTime> {
        self.next.as_ref().map(StreamEvent::timestamp)
    }
}

/// Reads the next `n` bytes of `file`: how many are `\n`, and the last
/// one (`None` if `n` is 0).
fn newlines_before(file: &mut File, n: u64) -> io::Result<(u64, Option<u8>)> {
    let mut prefix = file.take(n);
    // A run from the start reads nothing and allocates nothing here.
    let mut buf = vec![0; n.min(READ_BYTES as u64) as usize];
    let (mut newlines, mut last, mut read) = (0, None, 0);
    loop {
        let got = match prefix.read(&mut buf) {
            Ok(0) => break,
            Ok(got) => got,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        newlines += count_byte(&buf[..got], b'\n') as u64;
        last = Some(buf[got - 1]);
        read += got as u64;
    }
    if read < n {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok((newlines, last))
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
    /// Fails if either log cannot be opened, or if a checkpointed offset
    /// lies past the log's end or inside one of its lines.
    pub fn resume(dir: &Path, pos: &SourcePosition, follow: bool) -> io::Result<WorldSource> {
        Ok(WorldSource {
            proxy: Lane::open(
                ShardSource::Proxy,
                StreamEvent::Proxy,
                &dir.join("proxy.log"),
                (pos.proxy_offset, pos.proxy_line),
                follow,
            )?,
            mme: Lane::open(
                ShardSource::Mme,
                StreamEvent::Mme,
                &dir.join("mme.log"),
                (pos.mme_offset, pos.mme_line),
                follow,
            )?,
            horizon: None,
            meter: None,
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

    /// Counts both logs into `registry` as items are served: the
    /// `trace.proxy.*` / `trace.mme.*` bytes and decode errors (see the
    /// module docs). Leave it off a source wrapped in a [`ReadAhead`],
    /// which counts them itself.
    #[must_use]
    pub fn with_metrics(mut self, registry: &Registry) -> WorldSource {
        self.meter = Some(LogMeter::new(registry, self.position()));
        self
    }

    /// Leaves follow mode on both logs (drains to `End` at EOF).
    pub fn finish(&mut self) {
        self.proxy.follow = false;
        self.mme.follow = false;
    }

    /// The merge: the next item of either log.
    fn merge(&mut self) -> io::Result<Polled> {
        // Malformed lines and Pending pass straight through; a filled
        // stash or End falls out as None and the merge below decides.
        if let Some(out) = self.proxy.refill()? {
            match out {
                Polled::Pending if self.mme.next.is_some() || !self.mme.done => {
                    // One log stalled mid-line: serve the other (lateness
                    // absorbs the cross-file skew). Only if the other side
                    // also has nothing do we report Pending.
                    if let Some(out) = self.mme.refill()? {
                        return Ok(out);
                    }
                    if self.mme.next.is_some() {
                        return Ok(self.mme.emit());
                    }
                    return Ok(Polled::Pending);
                }
                other => return Ok(other),
            }
        }
        if let Some(out) = self.mme.refill()? {
            match out {
                Polled::Pending if self.proxy.next.is_some() => {
                    return Ok(self.proxy.emit());
                }
                other => return Ok(other),
            }
        }
        // A stashed timestamp past the horizon is doomed to the skew
        // quarantine — flush it now, in file order, instead of letting it
        // hold its file hostage in the merge below.
        if let Some(h) = self.horizon {
            if self.proxy.next_time().is_some_and(|t| t > h) {
                return Ok(self.proxy.emit());
            }
            if self.mme.next_time().is_some_and(|t| t > h) {
                return Ok(self.mme.emit());
            }
        }
        match (self.proxy.next_time(), self.mme.next_time()) {
            (None, None) => Ok(Polled::End),
            // Merge by timestamp; ties go to the proxy log (the batch
            // loader's deterministic source order).
            (Some(p), m) if m.is_none_or(|m| p <= m) => Ok(self.proxy.emit()),
            _ => Ok(self.mme.emit()),
        }
    }
}

impl EventSource for WorldSource {
    fn poll(&mut self) -> io::Result<Polled> {
        let polled = self.merge()?;
        let position = self.position();
        if let Some(meter) = &mut self.meter {
            if let Polled::Item(item) = &polled {
                meter.item(item);
            }
            meter.advance(position);
        }
        Ok(polled)
    }

    fn position(&self) -> Option<SourcePosition> {
        Some(SourcePosition {
            proxy_offset: self.proxy.offset,
            proxy_line: self.proxy.line,
            mme_offset: self.mme.offset,
            mme_line: self.mme.line,
        })
    }
}

/// Items the reader thread of a [`ReadAhead`] collects before handing
/// them over.
const BATCH_ITEMS: usize = 256;

/// Full batches that may wait for the runtime; the reader blocks beyond.
const IN_FLIGHT: usize = 2;

/// How long the reader waits before polling a stalled source again.
const STALL_PAUSE: Duration = Duration::from_millis(50);

/// Why the reader ended a batch before it was full. `End` carries the
/// source's final position (past any trailing blank lines).
#[derive(Debug)]
enum Stop {
    Pending,
    End(Option<SourcePosition>),
    Failed(io::Error),
}

/// One hand-off from the reader thread: items in source order, each with
/// the source's position after it, and why the batch ended (`None`: it
/// is full).
#[derive(Debug)]
struct Batch {
    items: Vec<(SourceItem, Option<SourcePosition>)>,
    stop: Option<Stop>,
}

/// The reader thread and the receiving end of its batches.
#[derive(Debug)]
struct Reader {
    batches: mpsc::Receiver<Batch>,
    thread: JoinHandle<()>,
}

impl Reader {
    /// Disconnects and joins the thread: a reader blocked on a full
    /// channel or pausing on a stall exits at its next send.
    fn join(self) -> thread::Result<()> {
        drop(self.batches);
        self.thread.join()
    }
}

/// A source polled ahead on its own thread.
///
/// [`ReadAhead::spawn`] moves the wrapped source onto one named thread
/// (`stream-reader`) that polls it and hands over batches of at most 256
/// items, each with the source's position after it; at most 2 full
/// batches wait in the channel, so the reader runs at most about a
/// thousand items ahead. [`EventSource::poll`] yields the same items, the
/// same end and the same error, in the same order, as polling the
/// wrapped source directly, and [`EventSource::position`] is the position
/// after the last item handed out, so a checkpoint taken between any two
/// items resumes exactly.
///
/// When the source reports [`Polled::Pending`] (a follow-mode log with no
/// complete line yet), the reader hands over its partial batch, which
/// then polls `Pending`, pauses 50 ms and polls the source again; a
/// non-follow [`WorldSource`] never reports it. A source error, or a
/// panic while polling, ends the reader: it is returned as an
/// [`io::Error`] after the items before it.
///
/// Everything deterministic is counted on the caller's thread, as items
/// are taken, never as they are read: the `trace.proxy.*`/`trace.mme.*`
/// bytes (position deltas) and decode errors that
/// [`WorldSource::with_metrics`] counts — so wrap a source without them.
/// The bytes are added once per batch, when its last item has been
/// handed out, and at `Pending`, the end, a failure and drop, so the
/// totals are those of the items handed out. Two timing counters say
/// where the time went, updated once per batch: `stream.wait_ns` (the
/// caller blocked on the reader) and `stream.read_ns` (the reader polling
/// the source).
///
/// Dropping it disconnects the reader and joins it, so the thread never
/// outlives the source.
#[derive(Debug)]
pub struct ReadAhead {
    /// `None` once the reader has been joined after a failure.
    reader: Option<Reader>,
    /// The rest of the batch being handed out.
    items: std::vec::IntoIter<(SourceItem, Option<SourcePosition>)>,
    /// Why that batch ended (`End` stays here once reached).
    stop: Option<Stop>,
    /// Position after the last item handed out.
    position: Option<SourcePosition>,
    meter: LogMeter,
    wait_ns: Counter,
}

impl ReadAhead {
    /// Moves `source` onto a new reader thread, recording the source's
    /// meters and timers into `registry`.
    ///
    /// # Errors
    /// Fails if the thread cannot be started.
    pub fn spawn<S>(source: S, registry: &Registry) -> io::Result<ReadAhead>
    where
        S: EventSource + Send + 'static,
    {
        let position = source.position();
        let read_ns = registry.timing_counter("stream.read_ns");
        let (tx, batches) = mpsc::sync_channel(IN_FLIGHT);
        let thread = thread::Builder::new()
            .name("stream-reader".into())
            .spawn(move || read_ahead(source, &tx, &read_ns))?;
        Ok(ReadAhead {
            reader: Some(Reader { batches, thread }),
            items: Vec::new().into_iter(),
            stop: None,
            position,
            meter: LogMeter::new(registry, position),
            wait_ns: registry.timing_counter("stream.wait_ns"),
        })
    }

    /// Blocks for the reader's next batch.
    fn next_batch(&mut self) -> io::Result<()> {
        let Some(reader) = &self.reader else {
            return Err(io::Error::other("the log reader has stopped"));
        };
        let started = Instant::now();
        let received = reader.batches.recv();
        self.wait_ns.add(started.elapsed().as_nanos() as u64);
        match received {
            Ok(batch) => {
                self.items = batch.items.into_iter();
                self.stop = batch.stop;
                Ok(())
            }
            // The reader ended without a stop: it panicked outside a poll.
            Err(mpsc::RecvError) => {
                let joined = self.reader.take().map(Reader::join);
                Err(match joined {
                    Some(Err(payload)) => panicked("log reader", payload),
                    _ => io::Error::other("the log reader stopped early"),
                })
            }
        }
    }
}

impl EventSource for ReadAhead {
    fn poll(&mut self) -> io::Result<Polled> {
        loop {
            if let Some((item, position)) = self.items.next() {
                self.meter.item(&item);
                self.position = position;
                return Ok(Polled::Item(item));
            }
            // The batch is handed out.
            self.meter.advance(self.position);
            match self.stop.take() {
                Some(Stop::Pending) => return Ok(Polled::Pending),
                Some(Stop::End(position)) => {
                    self.position = position;
                    self.meter.advance(position);
                    self.stop = Some(Stop::End(position));
                    return Ok(Polled::End);
                }
                Some(Stop::Failed(e)) => {
                    if let Some(reader) = self.reader.take() {
                        // The reader returned after sending the failure.
                        let _ = reader.join();
                    }
                    return Err(e);
                }
                None => self.next_batch()?,
            }
        }
    }

    fn position(&self) -> Option<SourcePosition> {
        self.position
    }
}

impl Drop for ReadAhead {
    /// Counts the bytes of the items handed out since the last batch
    /// ended, and stops the reader.
    fn drop(&mut self) {
        self.meter.advance(self.position);
        if let Some(reader) = self.reader.take() {
            // A panic outside a poll has nobody left to report to.
            let _ = reader.join();
        }
    }
}

/// The reader thread: polls `source` into batches until it ends, fails,
/// or the [`ReadAhead`] is dropped.
fn read_ahead<S: EventSource>(mut source: S, tx: &mpsc::SyncSender<Batch>, read_ns: &Counter) {
    loop {
        let started = Instant::now();
        let mut items = Vec::with_capacity(BATCH_ITEMS);
        let stop = loop {
            match panic::catch_unwind(AssertUnwindSafe(|| source.poll())) {
                Ok(Ok(Polled::Item(item))) => {
                    items.push((item, source.position()));
                    if items.len() == BATCH_ITEMS {
                        break None;
                    }
                }
                Ok(Ok(Polled::Pending)) => break Some(Stop::Pending),
                Ok(Ok(Polled::End)) => break Some(Stop::End(source.position())),
                Ok(Err(e)) => break Some(Stop::Failed(e)),
                Err(payload) => break Some(Stop::Failed(panicked("log reader", payload))),
            }
        };
        read_ns.add(started.elapsed().as_nanos() as u64);
        let stalled = matches!(stop, Some(Stop::Pending));
        let last = matches!(stop, Some(Stop::End(_) | Stop::Failed(_)));
        if tx.send(Batch { items, stop }).is_err() || last {
            return;
        }
        if stalled {
            thread::sleep(STALL_PAUSE);
        }
    }
}

/// The error a panic on one of the stream's helper threads (`thread`
/// names it) becomes.
pub(crate) fn panicked(thread: &str, payload: Box<dyn Any + Send>) -> io::Error {
    let message = panic_message(payload.as_ref());
    io::Error::other(format!("the {thread} panicked: {message}"))
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
    use wearscope_trace::{decode_log_line, HostId, MmeEvent, Scheme, UserId};

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
        raw_world_dir(name, &log_text(proxies), &log_text(mmes))
    }

    fn log_text<R: TsvRecord>(records: &[R]) -> String {
        let mut text = String::new();
        for r in records {
            text.push_str(&r.to_line());
            text.push('\n');
        }
        text
    }

    fn raw_world_dir(name: &str, proxy_log: &str, mme_log: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wearscope-src-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("proxy.log"), proxy_log).unwrap();
        std::fs::write(dir.join("mme.log"), mme_log).unwrap();
        dir
    }

    /// Everything a source yields until it ends or fails: each poll's
    /// outcome with the position after it.
    fn transcript<S: EventSource>(src: &mut S) -> Vec<String> {
        let mut out = Vec::new();
        loop {
            match src.poll() {
                Ok(Polled::End) => return out,
                Ok(polled) => out.push(format!("{polled:?} @ {:?}", src.position())),
                Err(e) => {
                    out.push(format!("error {:?}: {e}", e.kind()));
                    return out;
                }
            }
        }
    }

    /// The first `n` items of a source with the position after each,
    /// skipping `Pending` (its count depends on when the reader polled).
    fn items(src: &mut impl EventSource, n: usize) -> Vec<String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut out = Vec::new();
        while out.len() < n {
            assert!(Instant::now() < deadline, "only {} of {n} items", out.len());
            match src.poll().unwrap() {
                Polled::Item(item) => out.push(format!("{item:?} @ {:?}", src.position())),
                Polled::Pending => thread::sleep(Duration::from_millis(5)),
                Polled::End => panic!("end after {} of {n} items", out.len()),
            }
        }
        out
    }

    /// Polls a fresh bare source and a read-ahead one over the same world
    /// and compares them item for item; returns the read-ahead's meters.
    fn assert_read_ahead_matches(dir: &Path, horizon: Option<SimTime>) -> wearscope_obs::Snapshot {
        let open = || WorldSource::open(dir, false).unwrap().with_horizon(horizon);
        let bare_metrics = Registry::new();
        let bare = transcript(&mut open().with_metrics(&bare_metrics));
        let metrics = Registry::new();
        let mut ahead = ReadAhead::spawn(open(), &metrics).unwrap();
        assert_eq!(transcript(&mut ahead), bare);
        // End is sticky and keeps the final position.
        assert!(matches!(ahead.poll().unwrap(), Polled::End));
        drop(ahead);
        // Counted on consumption, the complete run's totals are the
        // bare reader's.
        let (got, want) = (metrics.snapshot(), bare_metrics.snapshot());
        assert_eq!(got.counters, want.counters);
        assert!(got.timing.counters.contains_key("stream.read_ns"));
        assert!(got.timing.counters.contains_key("stream.wait_ns"));
        got
    }

    /// Yields `len` proxy records, failing (or panicking) at `fail_at`.
    struct Scripted {
        next: u64,
        len: u64,
        fail_at: u64,
        panics: bool,
    }

    impl EventSource for Scripted {
        fn poll(&mut self) -> io::Result<Polled> {
            if self.next == self.fail_at {
                assert!(!self.panics, "scripted panic at {}", self.next);
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("scripted failure at {}", self.next),
                ));
            }
            if self.next == self.len {
                return Ok(Polled::End);
            }
            self.next += 1;
            Ok(Polled::Item(SourceItem::Event(StreamEvent::Proxy(proxy(
                self.next,
            )))))
        }

        fn position(&self) -> Option<SourcePosition> {
            Some(SourcePosition {
                proxy_offset: self.next * 10,
                proxy_line: self.next,
                ..SourcePosition::default()
            })
        }
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

    /// A world whose `mme.log` is `text` and whose `proxy.log` is empty.
    fn mme_world(name: &str, text: &str) -> std::path::PathBuf {
        raw_world_dir(name, "", text)
    }

    /// What a non-following source yields until it ends: each record's
    /// time, or a malformed line's number and error.
    fn outline(src: &mut WorldSource) -> Vec<Result<u64, (u64, CodecError)>> {
        let mut out = Vec::new();
        loop {
            match src.poll().unwrap() {
                Polled::Item(SourceItem::Event(ev)) => out.push(Ok(ev.timestamp().as_secs())),
                Polled::Item(SourceItem::Malformed { line, error, .. }) => {
                    out.push(Err((line, error)));
                }
                Polled::Pending => panic!("pending in non-follow mode"),
                Polled::End => return out,
            }
        }
    }

    fn resume_mme(dir: &Path, mme_offset: u64, mme_line: u64) -> io::Result<WorldSource> {
        let pos = SourcePosition {
            mme_offset,
            mme_line,
            ..SourcePosition::default()
        };
        WorldSource::resume(dir, &pos, false)
    }

    #[test]
    fn a_lane_reads_every_record_past_a_blank_line() {
        let records: Vec<MmeRecord> = (0..500).map(mme).collect();
        let text = format!("\n{}", log_text(&records));
        let dir = mme_world("blank", &text);
        let mut src = WorldSource::open(&dir, false).unwrap();
        let want: Vec<StreamEvent> = records.into_iter().map(StreamEvent::Mme).collect();
        assert_eq!(drain(&mut src), want);
        let pos = src.position().unwrap();
        // 500 records and the blank line.
        assert_eq!((pos.mme_offset, pos.mme_line), (text.len() as u64, 501));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_lane_resumes_exactly() {
        let records: Vec<MmeRecord> = (0..100).map(mme).collect();
        let dir = mme_world("resume", &log_text(&records));
        let mut src = WorldSource::open(&dir, false).unwrap();
        let mut got = Vec::new();
        for _ in 0..40 {
            match src.poll().unwrap() {
                Polled::Item(SourceItem::Event(ev)) => got.push(ev),
                other => panic!("unexpected {other:?}"),
            }
        }
        let pos = src.position().unwrap();
        drop(src);
        got.extend(drain(&mut WorldSource::resume(&dir, &pos, false).unwrap()));
        let want: Vec<StreamEvent> = records.into_iter().map(StreamEvent::Mme).collect();
        assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_lane_reads_a_line_longer_than_its_buffer() {
        // A damaged line of more than two buffers, then a good record: the
        // buffer grows to hold the long line, and nothing is lost or
        // repeated.
        let good = mme(1).to_line();
        let text = format!("{good}\n{}\n{good}\n", "x".repeat(150_000));
        let dir = mme_world("long", &text);
        let mut src = WorldSource::open(&dir, false).unwrap();
        let got = outline(&mut src);
        assert_eq!(got.len(), 3);
        assert_eq!((&got[0], &got[2]), (&Ok(1), &Ok(1)));
        assert!(matches!(got[1], Err((2, _))), "{:?}", got[1]);
        assert_eq!(src.position().unwrap().mme_offset, text.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_lane_opens_at_a_line_start_or_the_end_only() {
        let (first, second) = (mme(1).to_line(), mme(2).to_line());
        // The last line is unterminated: a non-following run ends past it.
        let text = format!("{first}\n{second}");
        let dir = mme_world("line-start", &text);
        let len = text.len() as u64;
        // At 0, just after a `\n`, and at the length.
        assert_eq!(
            outline(&mut resume_mme(&dir, 0, 0).unwrap()),
            [Ok(1), Ok(2)]
        );
        let after_first = first.len() as u64 + 1;
        assert_eq!(
            outline(&mut resume_mme(&dir, after_first, 1).unwrap()),
            [Ok(2)]
        );
        let mut src = WorldSource::open(&dir, false).unwrap();
        outline(&mut src);
        assert_eq!(src.position().unwrap().mme_offset, len);
        assert_eq!(outline(&mut resume_mme(&dir, len, 2).unwrap()), []);
        // Anywhere else in a line is refused, naming the log.
        for offset in [1, after_first - 1, after_first + 1, len - 1] {
            let err = resume_mme(&dir, offset, 1).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let message = err.to_string();
            assert!(message.contains("mme.log"), "{message}");
            assert!(message.contains("not at a line start"), "{message}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_lane_refuses_a_line_count_that_is_not_the_lines_before_its_offset() {
        let (first, second) = (mme(1).to_line(), mme(2).to_line());
        // A blank line counts, and so does the unterminated tail at the end.
        let text = format!("{first}\n\n{second}");
        let dir = mme_world("line-count", &text);
        let after_first = first.len() as u64 + 1;
        let len = text.len() as u64;
        for (offset, lines) in [(0, 0), (after_first, 1), (after_first + 1, 2), (len, 3)] {
            assert!(resume_mme(&dir, offset, lines).is_ok(), "{offset}");
            for wrong in [lines + 1, lines + 1000, lines.wrapping_sub(1)] {
                let err = resume_mme(&dir, offset, wrong).map(|_| ()).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                let message = err.to_string();
                assert!(message.contains("mme.log"), "{message}");
                assert!(
                    message.contains(&format!("line count {wrong} "))
                        && message.contains(&format!("the {lines} lines before offset {offset}")),
                    "{message}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_lane_refuses_an_offset_past_the_end() {
        let dir = mme_world("beyond", "short\n");
        let err = resume_mme(&dir, 999, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("mme.log"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_following_lane_holds_back_a_partial_line() {
        let (line0, line1) = (mme(1).to_line(), mme(2).to_line());
        let half = line1.len() / 2;
        let dir = mme_world("follow", &format!("{line0}\n{}", &line1[..half]));
        let mut src = WorldSource::open(&dir, true).unwrap();
        let next = |src: &mut WorldSource| match src.poll().unwrap() {
            Polled::Item(SourceItem::Event(ev)) => ev,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(next(&mut src), StreamEvent::Mme(mme(1)));
        // The unterminated tail must not be decoded while following.
        assert!(matches!(src.poll().unwrap(), Polled::Pending));
        assert_eq!(src.position().unwrap().mme_offset, line0.len() as u64 + 1);
        // The writer completes the line; the lane picks it up.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("mme.log"))
                .unwrap();
            writeln!(f, "{}", &line1[half..]).unwrap();
        }
        assert_eq!(next(&mut src), StreamEvent::Mme(mme(2)));
        // `finish` turns the log's end into End, decoding nothing extra.
        src.finish();
        assert!(matches!(src.poll().unwrap(), Polled::End));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_lane_decodes_an_unterminated_tail_when_not_following() {
        let dir = mme_world("tail", &mme(3).to_line()); // no trailing \n
        assert_eq!(
            outline(&mut WorldSource::open(&dir, false).unwrap()),
            [Ok(3)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn with_metrics_counts_bytes_and_decode_errors() {
        let good = mme(1).to_line();
        let text = format!("{good}\nnot a record\n{good}\n");
        let dir = mme_world("meter", &text);
        let reg = Registry::new();
        let mut src = WorldSource::open(&dir, false).unwrap().with_metrics(&reg);
        assert_eq!(outline(&mut src).len(), 3);
        let counters = reg.snapshot().counters;
        assert_eq!(counters["trace.mme.bytes_read"], text.len() as u64);
        assert_eq!(counters["trace.mme.decode_errors"], 1);
        assert_eq!(counters["trace.proxy.bytes_read"], 0);
        assert_eq!(counters["trace.proxy.decode_errors"], 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_lane_quarantines_invalid_utf8() {
        let good = mme(1).to_line();
        let mut bad = good.clone().into_bytes();
        bad[1] = 0xff;
        let mut text = Vec::new();
        for line in [good.as_bytes(), &bad, good.as_bytes()] {
            text.extend_from_slice(line);
            text.push(b'\n');
        }
        let dir = mme_world("utf8", "");
        std::fs::write(dir.join("mme.log"), text).unwrap();
        assert_eq!(
            outline(&mut WorldSource::open(&dir, false).unwrap()),
            [Ok(1), Err((2, CodecError::InvalidUtf8)), Ok(1)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_lane_reports_malformed_line_numbers() {
        let good = mme(1).to_line();
        let dir = mme_world("bad", &format!("{good}\n\nnot a record\n{good}\n"));
        let got = outline(&mut WorldSource::open(&dir, false).unwrap());
        assert_eq!(got.len(), 3);
        assert!(matches!(got[1], Err((3, _))), "{:?}", got[1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Lines, records and `(line, error)` pairs of `text` as a
    /// `read_until` splitter finds them.
    type Split = (u64, Vec<MmeRecord>, Vec<(u64, CodecError)>);

    fn read_until_split(text: &[u8]) -> Split {
        use std::io::BufRead as _;
        let mut source = std::io::BufReader::new(text);
        let (mut lines, mut records, mut errors) = (0, Vec::new(), Vec::new());
        let mut line = Vec::new();
        while source.read_until(b'\n', &mut line).unwrap() > 0 {
            lines += 1;
            match decode_log_line::<MmeRecord>(&line) {
                None => {}
                Some(Ok(r)) => records.push(r),
                Some(Err(e)) => errors.push((lines, e)),
            }
            line.clear();
        }
        (lines, records, errors)
    }

    #[test]
    fn a_lane_splits_as_read_until_does() {
        let good = |i| mme(i).to_line();
        // Longer than the lane's buffer.
        let long = "7".repeat(150_000);
        let body = format!(
            "{}\n\n{}\r\n{long}\n\r\n{}\nnot a record\n{}\r\n",
            good(1),
            good(2),
            good(3),
            good(4)
        );
        for text in [
            body.clone(),
            format!("{body}{}", good(5)),
            format!("{body}truncated\t1"),
            format!("\n\n{body}\r"),
        ] {
            let dir = mme_world("splitter", &text);
            let mut src = WorldSource::open(&dir, false).unwrap();
            let mut got: Split = (0, Vec::new(), Vec::new());
            loop {
                match src.poll().unwrap() {
                    Polled::Item(SourceItem::Event(StreamEvent::Mme(r))) => got.1.push(r),
                    Polled::Item(SourceItem::Malformed { line, error, .. }) => {
                        got.2.push((line, error));
                    }
                    Polled::End => break,
                    other => panic!("unexpected {other:?}"),
                }
            }
            let pos = src.position().unwrap();
            got.0 = pos.mme_line;
            assert_eq!(got, read_until_split(text.as_bytes()));
            assert_eq!(pos.mme_offset, text.len() as u64);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn read_ahead_matches_the_bare_source_across_batches() {
        // More items than three batches, with ties and interleaving.
        let proxies: Vec<ProxyRecord> = (0..700).map(|i| proxy(i * 3)).collect();
        let mmes: Vec<MmeRecord> = (0..300).map(|i| mme(i * 7)).collect();
        let dir = world_dir("ahead-clean", &proxies, &mmes);
        let snap = assert_read_ahead_matches(&dir, None);
        let log_bytes = |name: &str| std::fs::metadata(dir.join(name)).unwrap().len();
        assert_eq!(
            snap.counters["trace.proxy.bytes_read"],
            log_bytes("proxy.log")
        );
        assert_eq!(snap.counters["trace.mme.bytes_read"], log_bytes("mme.log"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_ahead_matches_on_malformed_and_blank_lines() {
        let mut proxy_log = log_text(&(0..300).map(|i| proxy(i * 2)).collect::<Vec<_>>());
        proxy_log.insert_str(0, "not a record\n\n");
        proxy_log.push_str("1\t2\n\n");
        let mut mme_log = log_text(&(0..40).map(|i| mme(i * 5)).collect::<Vec<_>>());
        mme_log.push_str("garbage\n");
        let dir = raw_world_dir("ahead-bad", &proxy_log, &mme_log);
        let snap = assert_read_ahead_matches(&dir, None);
        assert_eq!(snap.counters["trace.proxy.decode_errors"], 2);
        assert_eq!(snap.counters["trace.mme.decode_errors"], 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_ahead_matches_on_an_unterminated_last_line() {
        let mut proxy_log = log_text(&(0..10).map(|i| proxy(i * 2)).collect::<Vec<_>>());
        proxy_log.push_str(&proxy(30).to_line());
        let mut mme_log = log_text(&[mme(1)]);
        mme_log.push_str("3\t4"); // cut short
        let dir = raw_world_dir("ahead-cut", &proxy_log, &mme_log);
        let snap = assert_read_ahead_matches(&dir, None);
        assert_eq!(snap.counters["trace.mme.decode_errors"], 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_ahead_matches_with_a_record_past_the_horizon() {
        let dir = world_dir(
            "ahead-skew",
            &[proxy(10), proxy(500_000_000), proxy(30), proxy(50)],
            &[mme(20), mme(40), mme(60)],
        );
        assert_read_ahead_matches(&dir, Some(SimTime::from_secs(1000)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_ahead_follows_a_stalled_log_once_it_grows() {
        // proxy.log ends mid-line; mme.log is complete. Both sources stall
        // on the same prefix, then read the same rest once the line ends.
        let proxies: Vec<ProxyRecord> = (0..600).map(|i| proxy(i * 2)).collect();
        let mmes: Vec<MmeRecord> = (0..50).map(|i| mme(i * 3)).collect();
        let full = log_text(&proxies);
        let cut = full.len() - proxies[599].to_line().len() / 2;
        let grown = |dir: &Path| {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("proxy.log"))
                .unwrap();
            f.write_all(&full.as_bytes()[cut..]).unwrap();
        };
        let bare_dir = raw_world_dir("follow-bare", &full[..cut], &log_text(&mmes));
        let mut bare = WorldSource::open(&bare_dir, true).unwrap();
        let mut want = Vec::new();
        loop {
            match bare.poll().unwrap() {
                Polled::Item(item) => want.push(format!("{item:?} @ {:?}", bare.position())),
                Polled::Pending => break,
                Polled::End => panic!("end while following"),
            }
        }
        let stalled = want.len();
        assert_eq!(stalled, 649);
        grown(&bare_dir);
        want.extend(items(&mut bare, 1));
        assert!(matches!(bare.poll().unwrap(), Polled::Pending));

        let dir = raw_world_dir("follow-ahead", &full[..cut], &log_text(&mmes));
        let metrics = Registry::new();
        let mut ahead = ReadAhead::spawn(WorldSource::open(&dir, true).unwrap(), &metrics).unwrap();
        let got = items(&mut ahead, stalled);
        assert!(matches!(ahead.poll().unwrap(), Polled::Pending));
        grown(&dir);
        let mut got = got;
        got.extend(items(&mut ahead, 1));
        assert_eq!(got, want);
        // Once the drain stalls again, every byte of both logs is counted.
        while !matches!(ahead.poll().unwrap(), Polled::Pending) {}
        let counters = metrics.snapshot().counters;
        assert_eq!(counters["trace.proxy.bytes_read"], full.len() as u64);
        assert_eq!(
            counters["trace.mme.bytes_read"],
            log_text(&mmes).len() as u64
        );
        // Dropping a reader that pauses on a stall joins it.
        drop(ahead);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&bare_dir).unwrap();
    }

    #[test]
    fn source_errors_surface_at_the_same_item() {
        let script = || Scripted {
            next: 0,
            len: 1000,
            fail_at: 600,
            panics: false,
        };
        let bare = transcript(&mut script());
        assert_eq!(bare.len(), 601);
        assert!(bare[600].contains("InvalidData: scripted failure at 600"));
        let mut ahead = ReadAhead::spawn(script(), &Registry::new()).unwrap();
        assert_eq!(transcript(&mut ahead), bare);
        // The failure ends the reader; polling on is an error, not End.
        assert!(ahead.poll().is_err());
    }

    /// Bytes are counted once per batch, and when the reader fails they
    /// are those of the items handed out.
    #[test]
    fn bytes_are_metered_per_batch_and_at_a_failure() {
        let metrics = Registry::new();
        let script = Scripted {
            next: 0,
            len: 1000,
            fail_at: 600,
            panics: false,
        };
        let bytes = |m: &Registry| m.snapshot().counters["trace.proxy.bytes_read"];
        let mut ahead = ReadAhead::spawn(script, &metrics).unwrap();
        let first = items(&mut ahead, BATCH_ITEMS + 1);
        assert_eq!(first.len(), BATCH_ITEMS + 1);
        // The first batch is counted once it is all handed out.
        assert_eq!(bytes(&metrics), 10 * BATCH_ITEMS as u64);
        while ahead.poll().is_ok() {}
        assert_eq!(bytes(&metrics), 6000);
    }

    /// A read-ahead dropped mid-batch counts the items it handed out.
    #[test]
    fn dropping_mid_batch_meters_the_items_handed_out() {
        let metrics = Registry::new();
        let script = Scripted {
            next: 0,
            len: 1000,
            fail_at: u64::MAX,
            panics: false,
        };
        let mut ahead = ReadAhead::spawn(script, &metrics).unwrap();
        items(&mut ahead, 300);
        drop(ahead);
        assert_eq!(metrics.snapshot().counters["trace.proxy.bytes_read"], 3000);
    }

    #[test]
    fn a_reader_panic_is_an_error_after_the_items_before_it() {
        let script = Scripted {
            next: 0,
            len: 1000,
            fail_at: 300,
            panics: true,
        };
        let got = transcript(&mut ReadAhead::spawn(script, &Registry::new()).unwrap());
        assert_eq!(got.len(), 301);
        assert!(got[299].starts_with("Item("), "{}", got[299]);
        assert!(
            got[300].contains("the log reader panicked: scripted panic at 300"),
            "{}",
            got[300]
        );
    }

    #[test]
    fn dropping_a_read_ahead_mid_stream_joins_its_reader() {
        let script = Scripted {
            next: 0,
            len: 100_000,
            fail_at: u64::MAX,
            panics: false,
        };
        let mut ahead = ReadAhead::spawn(script, &Registry::new()).unwrap();
        assert!(matches!(ahead.poll().unwrap(), Polled::Item(_)));
        // Position is the one after the last item handed out, not the
        // reader's.
        assert_eq!(ahead.position().unwrap().proxy_line, 1);
        drop(ahead);
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
