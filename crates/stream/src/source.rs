//! Event sources: where the stream's records come from.
//!
//! The runtime pulls records through one trait, [`EventSource`]. Its one
//! reader of saved logs is [`WorldSource`]: the two persisted
//! vantage-point logs of a world directory (`proxy.log` + `mme.log`),
//! merged by timestamp into one ordered-ish stream, optionally tailing
//! files that are still growing.
//!
//! Each log is one lane. A lane parses its log through the trace crate's
//! [`Lines`] reader, which decodes each line where it lies in its buffer,
//! into chunks: up to 512 records, each with its line's end as an offset
//! within the chunk, the chunk's other lines (blank or malformed, each
//! with the number of records before it and its end), and the chunk's
//! byte offset and line count in the log. The merge serves records where
//! they lie in the two lanes' head chunks, a slice of one log's records
//! in a row at a time, and the committed position ([`SourcePosition`]) a
//! checkpoint stores is rebuilt from those bases as records are served:
//! byte offsets that account for the merge lookahead, so a resumed
//! source re-reads nothing and skips nothing.
//!
//! [`WorldSource::read_ahead`] moves the lanes onto a reader thread of
//! their own. The reader fills chunks it is handed and hands each back
//! whole through a bounded channel per log; two chunks of each log
//! circulate, both allocated on the caller's thread, so the reader stays
//! at most one chunk ahead of the merge on each log. The source yields
//! exactly what it yields without the thread.
//!
//! [`EventSource::poll`] hands out one owned item at a time; the runtime
//! takes a [`WorldSource`]'s records where they lie instead (see
//! [`EventSource::as_world`]).

use std::any::Any;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use wearscope_ingest::{panic_message, LogRecord};
use wearscope_obs::{Counter, Registry};
use wearscope_report::ShardSource;
use wearscope_simtime::{SimDuration, SimTime};
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

/// Result of polling a source once.
#[derive(Debug)]
pub enum Polled {
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

    /// The source as a world's merged logs, if it is one: the runtime
    /// then takes each record where it lies in the lanes' chunks rather
    /// than a copy per [`poll`](EventSource::poll).
    fn as_world(&mut self) -> Option<&mut WorldSource> {
        None
    }
}

/// What the merge serves next: records of one log that come next in a
/// row, where they lie in its head chunk ([`Feed::serve`] says how many
/// were taken), a malformed line, or why there is none.
#[derive(Debug)]
pub(crate) enum Next<'a> {
    Proxies(&'a [ProxyRecord]),
    Mmes(&'a [MmeRecord]),
    Malformed(ShardSource, u64, CodecError),
    Pending,
    End,
}

/// What the runtime takes items from: a [`WorldSource`], or any
/// [`EventSource`] polled item by item ([`Polling`]).
pub(crate) trait Feed {
    fn next(&mut self) -> io::Result<Next<'_>>;

    /// Serves the first `n` records of the last [`Next`].
    fn serve(&mut self, n: usize);

    /// The committed position after the last item served.
    fn committed(&self) -> Option<SourcePosition>;

    /// Nanoseconds spent so far waiting for a reader thread.
    fn waited_ns(&self) -> u64 {
        0
    }

    /// Counts the bytes served so far into the source's meter, if any.
    fn sync(&mut self) {}
}

/// An [`EventSource`] read item by item, each record served from here.
pub(crate) struct Polling<'s, S> {
    pub(crate) source: &'s mut S,
    pub(crate) event: Option<StreamEvent>,
}

impl<S: EventSource> Feed for Polling<'_, S> {
    fn next(&mut self) -> io::Result<Next<'_>> {
        Ok(match self.source.poll()? {
            Polled::Event(event) => match self.event.insert(event) {
                StreamEvent::Proxy(r) => Next::Proxies(std::slice::from_ref(r)),
                StreamEvent::Mme(r) => Next::Mmes(std::slice::from_ref(r)),
            },
            Polled::Malformed { kind, line, error } => Next::Malformed(kind, line, error),
            Polled::Pending => Next::Pending,
            Polled::End => Next::End,
        })
    }

    fn serve(&mut self, _: usize) {}

    fn committed(&self) -> Option<SourcePosition> {
        self.source.position()
    }
}

/// The `trace.{proxy,mme}.{bytes_read,decode_errors}` counters, under the
/// batch loader's names (see [`WorldSource::with_metrics`]).
#[derive(Debug)]
struct LogMeter {
    proxy_bytes: Counter,
    proxy_errors: Counter,
    mme_bytes: Counter,
    mme_errors: Counter,
    /// Position up to which the bytes are counted.
    counted: SourcePosition,
}

impl LogMeter {
    /// Registers the four counters, counting bytes from `position` on.
    fn new(registry: &Registry, position: SourcePosition) -> LogMeter {
        LogMeter {
            proxy_bytes: registry.counter("trace.proxy.bytes_read"),
            proxy_errors: registry.counter("trace.proxy.decode_errors"),
            mme_bytes: registry.counter("trace.mme.bytes_read"),
            mme_errors: registry.counter("trace.mme.decode_errors"),
            counted: position,
        }
    }

    /// Counts the bytes between the counted position and `to`.
    fn advance(&mut self, to: SourcePosition) {
        let from = std::mem::replace(&mut self.counted, to);
        self.proxy_bytes
            .add(to.proxy_offset.saturating_sub(from.proxy_offset));
        self.mme_bytes
            .add(to.mme_offset.saturating_sub(from.mme_offset));
    }
}

/// The records a chunk holds at most: its vectors are allocated once, at
/// this size, and never grow.
const CHUNK_RECORDS: usize = 512;

/// The log bytes past which a chunk takes no further line, should its
/// lines not be records.
const CHUNK_BYTES: usize = 64 * 1024;

/// Chunks of each log alive at once on a read-ahead source: the merge's
/// head and the one the reader fills or has filled.
const CHUNKS_PER_LOG: usize = 2;

/// What follows a chunk's lines in its log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum After {
    /// More lines: the chunk is full.
    More,
    End,
    /// No complete line yet: a following lane waits for the log to grow.
    Waiting,
}

/// A line of a chunk that is not a record.
#[derive(Clone, Debug)]
struct Other {
    /// The chunk's records before it.
    before: u32,
    /// Its end, as an offset from the chunk's start.
    end: u32,
    /// Why it is malformed; `None` for a blank line.
    error: Option<CodecError>,
}

/// Whole lines of one log, parsed: what a lane hands over.
#[derive(Debug)]
struct Chunk<R> {
    records: Vec<R>,
    /// Each record's line end, as an offset from the chunk's start.
    ends: Vec<u32>,
    others: Vec<Other>,
    /// The log's byte offset and line count before and after the chunk.
    start: (u64, u64),
    end: (u64, u64),
    after: After,
}

impl<R> Chunk<R> {
    /// An empty chunk at a log position, with room for `records`.
    fn new(at: (u64, u64), records: usize) -> Chunk<R> {
        Chunk {
            records: Vec::with_capacity(records),
            ends: Vec::with_capacity(records),
            others: Vec::new(),
            start: at,
            end: at,
            after: After::More,
        }
    }
}

/// One log of a [`WorldSource`]: its lines, and the position after the
/// last line read.
#[derive(Debug)]
struct Lane {
    lines: Lines<File>,
    /// Byte offset and line count after the last line read.
    offset: u64,
    line: u64,
    /// At the log's end, wait for it to grow (and hold back a partial
    /// last line) instead of ending.
    follow: bool,
}

/// The log reader's initial buffer, which bounds each read until one
/// line outgrows it.
const READ_BYTES: usize = 32 * 1024;

impl Lane {
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
    fn open(path: &Path, (offset, line): (u64, u64), follow: bool) -> io::Result<Lane> {
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
            lines: Lines::new(file, READ_BYTES),
            offset,
            line,
            follow,
        })
    }

    /// Parses the lane's next lines into `chunk`, keeping its vectors:
    /// [`CHUNK_RECORDS`] records or [`CHUNK_BYTES`] bytes, or up to the
    /// log's end (for a following lane, its last complete line).
    ///
    /// # Errors
    /// Propagates read errors; a line of 4 GiB or more is invalid data.
    fn fill<R: TsvRecord>(&mut self, chunk: &mut Chunk<R>) -> io::Result<()> {
        chunk.records.clear();
        chunk.ends.clear();
        chunk.others.clear();
        chunk.start = (self.offset, self.line);
        let mut bytes = 0;
        chunk.after = loop {
            if chunk.records.len() == CHUNK_RECORDS || bytes >= CHUNK_BYTES {
                break After::More;
            }
            let Some((len, decoded)) = self.lines.next_decoded::<R>(self.follow)? else {
                break if self.follow {
                    After::Waiting
                } else {
                    After::End
                };
            };
            bytes += len;
            self.offset += len as u64;
            self.line += 1;
            let end = u32::try_from(bytes).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "a log line of 4 GiB or more")
            })?;
            let before = chunk.records.len() as u32;
            match decoded {
                Some(Ok(record)) => {
                    chunk.records.push(record);
                    chunk.ends.push(end);
                }
                other => chunk.others.push(Other {
                    before,
                    end,
                    error: other.and_then(Result::err),
                }),
            }
        };
        chunk.end = (self.offset, self.line);
        Ok(())
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

/// What a lane's head offers next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Peek {
    Record,
    Malformed,
    /// A following lane has no complete line yet.
    Pending,
    Done,
}

/// A lane's chunk being merged: the next record and the next other line
/// to serve, and the committed position.
#[derive(Debug)]
struct Head<R> {
    kind: ShardSource,
    chunk: Chunk<R>,
    record: usize,
    other: usize,
    committed: (u64, u64),
}

impl<R: LogRecord> Head<R> {
    /// A head at a committed position, holding an empty chunk its lane
    /// fills at the first [`peek`](Head::peek).
    fn new(kind: ShardSource, at: (u64, u64)) -> Head<R> {
        Head {
            kind,
            chunk: Chunk::new(at, CHUNK_RECORDS),
            record: 0,
            other: 0,
            committed: at,
        }
    }

    /// What the lane serves next, reading past blank lines (committed
    /// with the next line served, or at the log's end) and refilling the
    /// chunk through `refill` once it is served.
    fn peek(
        &mut self,
        mut refill: impl FnMut(&mut Chunk<R>) -> io::Result<()>,
    ) -> io::Result<Peek> {
        loop {
            let chunk = &self.chunk;
            match chunk.others.get(self.other) {
                Some(other) if other.before as usize == self.record => {
                    if other.error.is_some() {
                        return Ok(Peek::Malformed);
                    }
                    self.other += 1;
                    continue;
                }
                _ if self.record < chunk.records.len() => return Ok(Peek::Record),
                _ => {}
            }
            if chunk.after == After::End {
                self.committed = chunk.end;
                return Ok(Peek::Done);
            }
            let waiting = chunk.after == After::Waiting;
            refill(&mut self.chunk)?;
            (self.record, self.other) = (0, 0);
            let chunk = &self.chunk;
            if waiting && chunk.start == chunk.end && chunk.after == After::Waiting {
                return Ok(Peek::Pending);
            }
        }
    }

    /// The next record's timestamp (after a [`Peek::Record`]).
    fn time(&self) -> SimTime {
        self.chunk.records[self.record].timestamp()
    }

    /// The records from the next one on (after a [`Peek::Record`]) that
    /// come in a row: at most `limit`, up to the chunk's next other line,
    /// and stamped no later than `latest`.
    fn run(&self, latest: SimTime, limit: usize) -> &[R] {
        let chunk = &self.chunk;
        let stop = chunk
            .others
            .get(self.other)
            .map_or(chunk.records.len(), |o| o.before as usize);
        let records = &chunk.records[self.record..stop.min(self.record + limit)];
        let n = records.iter().position(|r| r.timestamp() > latest);
        &records[..n.unwrap_or(records.len())]
    }

    /// Serves the next `n` records.
    fn serve(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.record += n;
        let (i, chunk) = (self.record - 1, &self.chunk);
        let others = chunk.others.partition_point(|o| o.before as usize <= i);
        self.committed = (
            chunk.start.0 + u64::from(chunk.ends[i]),
            chunk.start.1 + (i + others + 1) as u64,
        );
    }

    /// Serves the next malformed line (after a [`Peek::Malformed`]).
    fn take_malformed(&mut self) -> Next<'static> {
        let (j, chunk) = (self.other, &self.chunk);
        self.other += 1;
        let other = &chunk.others[j];
        let line = chunk.start.1 + u64::from(other.before) + j as u64 + 1;
        self.committed = (chunk.start.0 + u64::from(other.end), line);
        let error = other.error.clone().expect("a malformed line");
        Next::Malformed(self.kind, line, error)
    }
}

/// Where a [`WorldSource`]'s lanes are read.
#[derive(Debug)]
enum Lanes {
    /// On the caller's thread, each chunk refilled in place.
    Here { proxy: Lane, mme: Lane },
    /// On a reader thread.
    Reader(Reader),
}

impl Lanes {
    fn refill_proxy(&mut self, chunk: &mut Chunk<ProxyRecord>) -> io::Result<()> {
        match self {
            Lanes::Here { proxy, .. } => proxy.fill(chunk),
            Lanes::Reader(reader) => reader.exchange(chunk, Request::Proxy, |r| &r.proxy),
        }
    }

    fn refill_mme(&mut self, chunk: &mut Chunk<MmeRecord>) -> io::Result<()> {
        match self {
            Lanes::Here { mme, .. } => mme.fill(chunk),
            Lanes::Reader(reader) => reader.exchange(chunk, Request::Mme, |r| &r.mme),
        }
    }
}

/// A served chunk handed back to the reader thread to refill.
#[derive(Debug)]
enum Request {
    Proxy(Chunk<ProxyRecord>),
    Mme(Chunk<MmeRecord>),
}

/// A lane's refilled chunk, or why it could not be read.
type Filled<R> = io::Result<Chunk<R>>;

/// The reader thread's ends of its channels.
struct ReaderEnds {
    requests: mpsc::Receiver<Request>,
    proxy: mpsc::SyncSender<Filled<ProxyRecord>>,
    mme: mpsc::SyncSender<Filled<MmeRecord>>,
    read_ns: Counter,
}

/// The reader thread of a read-ahead [`WorldSource`] and the caller's
/// ends of its channels.
#[derive(Debug)]
struct Reader {
    /// `None` once the reader is being stopped.
    requests: Option<mpsc::Sender<Request>>,
    proxy: mpsc::Receiver<Filled<ProxyRecord>>,
    mme: mpsc::Receiver<Filled<MmeRecord>>,
    /// `None` once joined.
    thread: Option<JoinHandle<()>>,
    wait_ns: Counter,
}

impl Reader {
    /// Starts a thread named `stream-reader` running `body`, and hands it
    /// `CHUNKS_PER_LOG - 1` chunks of each log, allocated here, where they
    /// are recycled (the heads are the last one, handed over at their
    /// first refill).
    fn spawn(
        registry: &Registry,
        body: impl FnOnce(ReaderEnds) + Send + 'static,
    ) -> io::Result<Reader> {
        let (requests, queue) = mpsc::channel();
        let (proxy_tx, proxy) = mpsc::sync_channel(CHUNKS_PER_LOG);
        let (mme_tx, mme) = mpsc::sync_channel(CHUNKS_PER_LOG);
        for _ in 1..CHUNKS_PER_LOG {
            for request in [
                Request::Proxy(Chunk::new((0, 0), CHUNK_RECORDS)),
                Request::Mme(Chunk::new((0, 0), CHUNK_RECORDS)),
            ] {
                requests.send(request).expect("the receiver is alive");
            }
        }
        let ends = ReaderEnds {
            requests: queue,
            proxy: proxy_tx,
            mme: mme_tx,
            read_ns: registry.timing_counter("stream.read_ns"),
        };
        let thread = thread::Builder::new()
            .name("stream-reader".into())
            .spawn(move || body(ends))?;
        Ok(Reader {
            requests: Some(requests),
            proxy,
            mme,
            thread: Some(thread),
            wait_ns: registry.timing_counter("stream.wait_ns"),
        })
    }

    /// Hands the served `chunk` back to the reader and puts the log's
    /// next one, which the reader filled ahead, in its place.
    fn exchange<R>(
        &mut self,
        chunk: &mut Chunk<R>,
        request: fn(Chunk<R>) -> Request,
        filled: fn(&Reader) -> &mpsc::Receiver<Filled<R>>,
    ) -> io::Result<()> {
        if let Some(requests) = &self.requests {
            // A reader that has gone is found at the receive below.
            let _ = requests.send(request(std::mem::replace(chunk, Chunk::new((0, 0), 0))));
        }
        let started = Instant::now();
        let received = filled(self).recv();
        self.wait_ns.add(started.elapsed().as_nanos() as u64);
        match received {
            Ok(filled) => *chunk = filled?,
            // The reader ended: it panicked, or it was asked for no more
            // after an error.
            Err(mpsc::RecvError) => {
                return Err(match self.thread.take().map(JoinHandle::join) {
                    Some(Err(payload)) => panicked("log reader", payload),
                    _ => io::Error::other("the log reader has stopped"),
                })
            }
        }
        Ok(())
    }
}

impl Drop for Reader {
    /// Disconnects the reader and joins it, so the thread never outlives
    /// the source: never blocked on a full channel (a log has no more
    /// chunks than its channel holds), it exits at its next request.
    fn drop(&mut self) {
        self.requests = None;
        if let Some(thread) = self.thread.take() {
            // A panic has nobody left to report to.
            let _ = thread.join();
        }
    }
}

/// The reader thread: fills each chunk it is handed from its log's lane,
/// in the order they come, until the source is dropped.
fn read_lanes(mut proxy: Lane, mut mme: Lane, ends: ReaderEnds) {
    for request in ends.requests {
        let started = Instant::now();
        let sent = match request {
            Request::Proxy(mut chunk) => ends
                .proxy
                .send(proxy.fill(&mut chunk).map(|()| chunk))
                .is_ok(),
            Request::Mme(mut chunk) => ends.mme.send(mme.fill(&mut chunk).map(|()| chunk)).is_ok(),
        };
        ends.read_ns.add(started.elapsed().as_nanos() as u64);
        if !sent {
            return;
        }
    }
}

/// The two persisted logs of a world directory, merged by timestamp.
///
/// Each log's next record is read ahead so the merge can pick the earlier
/// timestamp (ties go to the proxy log, matching the deterministic source
/// order of the batch loader). A malformed line is served as soon as its
/// lane reaches it. The committed position deliberately *excludes* a
/// record read but not served — it only moves past a line once that line
/// is served, and past trailing blank lines at the log's end — so a
/// checkpoint taken between any two items resumes exactly.
///
/// In follow mode a log's end is [`Polled::Pending`], not the end of the
/// stream, and a trailing unterminated line is held back until its `\n`
/// arrives (the writer may still be mid-line); while one log waits, the
/// other's lines are served. Otherwise a trailing unterminated line is
/// decoded as a final (possibly truncated) record, as the batch chunk
/// reader decodes it.
///
/// A record whose timestamp lies past the [`with_horizon`] bound is served
/// as soon as it is next in its lane instead of entering the timestamp
/// comparison: the runtime quarantines it as skewed either way, and
/// letting a ten-years-in-the-future timestamp act as a merge key would
/// park its whole file behind every remaining record of the other one.
///
/// [`with_horizon`]: WorldSource::with_horizon
#[derive(Debug)]
pub struct WorldSource {
    proxy: Head<ProxyRecord>,
    mme: Head<MmeRecord>,
    horizon: Option<SimTime>,
    lanes: Lanes,
    meter: Option<LogMeter>,
    /// The log whose records the merge last handed out.
    serving: ShardSource,
}

/// The records one merge step hands out at most.
const RUN_LIMIT: usize = 256;

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
        let proxy_at = (pos.proxy_offset, pos.proxy_line);
        let mme_at = (pos.mme_offset, pos.mme_line);
        Ok(WorldSource {
            lanes: Lanes::Here {
                proxy: Lane::open(&dir.join("proxy.log"), proxy_at, follow)?,
                mme: Lane::open(&dir.join("mme.log"), mme_at, follow)?,
            },
            proxy: Head::new(ShardSource::Proxy, proxy_at),
            mme: Head::new(ShardSource::Mme, mme_at),
            horizon: None,
            meter: None,
            serving: ShardSource::Proxy,
        })
    }

    /// Sets the observation horizon: a record with a timestamp past it is
    /// served as soon as it is next in its lane rather than merged by
    /// time, so one skewed record cannot stall its file behind the other
    /// log. Pass the same bound as [`StreamConfig::max_timestamp`].
    ///
    /// [`StreamConfig::max_timestamp`]: crate::StreamConfig
    #[must_use]
    pub fn with_horizon(mut self, horizon: Option<SimTime>) -> WorldSource {
        self.horizon = horizon;
        self
    }

    /// Counts both logs into `registry` as items are served: the
    /// `trace.proxy.*` / `trace.mme.*` bytes and decode errors, under the
    /// batch loader's names, so batch and stream runs of one world are
    /// comparable. Both are counted as items are served, never as they
    /// are read (the bytes are the committed position's advance), so they
    /// sit in the deterministic section. Bytes are counted at each poll
    /// and whenever [`StreamRuntime::pump`](crate::StreamRuntime::pump)
    /// returns.
    #[must_use]
    pub fn with_metrics(mut self, registry: &Registry) -> WorldSource {
        self.meter = Some(LogMeter::new(registry, self.world_position()));
        self
    }

    /// Moves the lanes onto a reader thread (`stream-reader`), so this
    /// thread spends no time reading or decoding. The source yields the
    /// same items, positions and meters as it does without the thread;
    /// the thread's busy time is the timing counter `stream.read_ns` and
    /// the time spent waiting for it `stream.wait_ns`, both in
    /// `registry`, updated once per chunk. A panic on the reader is an
    /// [`io::Error`] from the poll that needs its next chunk. A following
    /// source stays on the caller's thread, which reads a waiting log
    /// again at each poll.
    ///
    /// # Errors
    /// Fails if the thread cannot be started.
    pub fn read_ahead(self, registry: &Registry) -> io::Result<WorldSource> {
        let WorldSource {
            proxy,
            mme,
            horizon,
            lanes,
            meter,
            serving,
        } = self;
        let lanes = match lanes {
            Lanes::Here {
                proxy: proxy_lane,
                mme: mme_lane,
            } if !proxy_lane.follow && !mme_lane.follow => {
                Lanes::Reader(Reader::spawn(registry, move |ends| {
                    read_lanes(proxy_lane, mme_lane, ends)
                })?)
            }
            lanes => lanes,
        };
        Ok(WorldSource {
            proxy,
            mme,
            horizon,
            lanes,
            meter,
            serving,
        })
    }

    /// Leaves follow mode on both logs (drains to `End` at EOF).
    pub fn finish(&mut self) {
        if let Lanes::Here { proxy, mme } = &mut self.lanes {
            proxy.follow = false;
            mme.follow = false;
        }
    }

    /// The committed position.
    fn world_position(&self) -> SourcePosition {
        let ((proxy_offset, proxy_line), (mme_offset, mme_line)) =
            (self.proxy.committed, self.mme.committed);
        SourcePosition {
            proxy_offset,
            proxy_line,
            mme_offset,
            mme_line,
        }
    }

    /// Serves the next malformed line of `kind`'s log, and counts it.
    fn malformed(&mut self, kind: ShardSource) -> Next<'static> {
        let meter = self.meter.as_ref();
        match kind {
            ShardSource::Proxy => meter.inspect(|m| m.proxy_errors.inc()),
            ShardSource::Mme => meter.inspect(|m| m.mme_errors.inc()),
        };
        match kind {
            ShardSource::Proxy => self.proxy.take_malformed(),
            ShardSource::Mme => self.mme.take_malformed(),
        }
    }

    /// The merge: the next items of either log.
    fn merge(&mut self) -> io::Result<Next<'_>> {
        let lanes = &mut self.lanes;
        let proxy = self.proxy.peek(|c| lanes.refill_proxy(c))?;
        if proxy == Peek::Malformed {
            return Ok(self.malformed(ShardSource::Proxy));
        }
        let mme = self.mme.peek(|c| lanes.refill_mme(c))?;
        let never = SimTime::from_secs(u64::MAX);
        match (proxy, mme) {
            (_, Peek::Malformed) => return Ok(self.malformed(ShardSource::Mme)),
            // While a log waits, the other's records are served one at a
            // time, each after the waiting log is read again (lateness
            // absorbs the cross-file skew).
            (Peek::Pending, Peek::Record) => return Ok(self.mmes(never, 1)),
            (Peek::Record, Peek::Pending) => return Ok(self.proxies(never, 1)),
            (Peek::Pending, _) | (_, Peek::Pending) => return Ok(Next::Pending),
            _ => {}
        }
        // A record past the horizon is doomed to the skew quarantine —
        // flush it now, in file order, instead of letting it hold its
        // file hostage in the merge below.
        if let Some(h) = self.horizon {
            if proxy == Peek::Record && self.proxy.time() > h {
                return Ok(self.proxies(never, 1));
            }
            if mme == Peek::Record && self.mme.time() > h {
                return Ok(self.mmes(never, 1));
            }
        }
        // Merge by timestamp, ties to the proxy log (the batch loader's
        // deterministic source order): one log's records come in a row up
        // to the other's next one.
        Ok(match (proxy, mme) {
            (Peek::Record, Peek::Record) if self.proxy.time() <= self.mme.time() => {
                let latest = self.mme.time();
                self.proxies(latest, RUN_LIMIT)
            }
            (Peek::Record, Peek::Record) => {
                let latest = self.proxy.time().saturating_sub(SimDuration::from_secs(1));
                self.mmes(latest, RUN_LIMIT)
            }
            (Peek::Record, Peek::Done) => self.proxies(never, RUN_LIMIT),
            (Peek::Done, Peek::Record) => self.mmes(never, RUN_LIMIT),
            _ => Next::End,
        })
    }

    /// Hands out proxy records in a row (see [`Head::run`]).
    fn proxies(&mut self, latest: SimTime, limit: usize) -> Next<'_> {
        self.serving = ShardSource::Proxy;
        Next::Proxies(self.proxy.run(latest, limit))
    }

    /// Hands out MME records in a row (see [`Head::run`]).
    fn mmes(&mut self, latest: SimTime, limit: usize) -> Next<'_> {
        self.serving = ShardSource::Mme;
        Next::Mmes(self.mme.run(latest, limit))
    }

    /// Counts the bytes served so far.
    fn sync_meter(&mut self) {
        let position = self.world_position();
        if let Some(meter) = &mut self.meter {
            meter.advance(position);
        }
    }
}

impl Feed for WorldSource {
    fn next(&mut self) -> io::Result<Next<'_>> {
        self.merge()
    }

    fn serve(&mut self, n: usize) {
        match self.serving {
            ShardSource::Proxy => self.proxy.serve(n),
            ShardSource::Mme => self.mme.serve(n),
        }
    }

    fn committed(&self) -> Option<SourcePosition> {
        Some(self.world_position())
    }

    fn waited_ns(&self) -> u64 {
        match &self.lanes {
            Lanes::Here { .. } => 0,
            Lanes::Reader(reader) => reader.wait_ns.get(),
        }
    }

    fn sync(&mut self) {
        self.sync_meter();
    }
}

impl EventSource for WorldSource {
    /// The merge's next item, copied out of its chunk.
    fn poll(&mut self) -> io::Result<Polled> {
        let polled = match self.merge()? {
            Next::Proxies(records) => Polled::Event(StreamEvent::Proxy(records[0])),
            Next::Mmes(records) => Polled::Event(StreamEvent::Mme(records[0])),
            Next::Malformed(kind, line, error) => Polled::Malformed { kind, line, error },
            Next::Pending => Polled::Pending,
            Next::End => Polled::End,
        };
        if let Polled::Event(_) = polled {
            Feed::serve(self, 1);
        }
        self.sync_meter();
        Ok(polled)
    }

    fn position(&self) -> Option<SourcePosition> {
        Some(self.world_position())
    }

    fn as_world(&mut self) -> Option<&mut WorldSource> {
        Some(self)
    }
}

/// The error a panic on one of the stream's helper threads (`thread`
/// names it) becomes.
pub(crate) fn panicked(thread: &str, payload: Box<dyn Any + Send>) -> io::Error {
    let message = panic_message(payload.as_ref());
    io::Error::other(format!("the {thread} panicked: {message}"))
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

    /// Polls a source on the caller's thread and a read-ahead one over the
    /// same world and compares them item for item; returns the read-ahead
    /// one's meters.
    fn assert_read_ahead_matches(dir: &Path, horizon: Option<SimTime>) -> wearscope_obs::Snapshot {
        let open = || WorldSource::open(dir, false).unwrap().with_horizon(horizon);
        let here_metrics = Registry::new();
        let here = transcript(&mut open().with_metrics(&here_metrics));
        let metrics = Registry::new();
        let mut ahead = open().with_metrics(&metrics).read_ahead(&metrics).unwrap();
        assert!(matches!(ahead.lanes, Lanes::Reader(_)));
        assert_eq!(transcript(&mut ahead), here);
        // End is sticky and keeps the final position.
        let end = ahead.position();
        assert!(matches!(ahead.poll().unwrap(), Polled::End));
        assert_eq!(ahead.position(), end);
        drop(ahead);
        let (got, want) = (metrics.snapshot(), here_metrics.snapshot());
        assert_eq!(got.counters, want.counters);
        assert!(got.timing.counters.contains_key("stream.read_ns"));
        assert!(got.timing.counters.contains_key("stream.wait_ns"));
        got
    }

    fn drain(src: &mut WorldSource) -> Vec<StreamEvent> {
        let mut out = Vec::new();
        loop {
            match src.poll().unwrap() {
                Polled::Event(ev) => out.push(ev),
                Polled::Malformed { line, error, .. } => {
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
                    Polled::Event(ev) => head.push(ev),
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
                Polled::Event(ev) => out.push(Ok(ev.timestamp().as_secs())),
                Polled::Malformed { line, error, .. } => {
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
                Polled::Event(ev) => got.push(ev),
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
            Polled::Event(ev) => ev,
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
                    Polled::Event(StreamEvent::Mme(r)) => got.1.push(r),
                    Polled::Malformed { line, error, .. } => {
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
    fn read_ahead_matches_the_callers_thread_across_chunks() {
        // More records than two chunks of each log, with ties and
        // interleaving.
        let proxies: Vec<ProxyRecord> = (0..1500).map(|i| proxy(i * 3)).collect();
        let mmes: Vec<MmeRecord> = (0..1100).map(|i| mme(i * 4)).collect();
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
        let mut proxy_log = log_text(&(0..1300).map(|i| proxy(i * 2)).collect::<Vec<_>>());
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

    /// Each item's position is its line's number and end, found by
    /// splitting the log on `\n`, also where the item is the first or
    /// last of a chunk and where blank and malformed lines sit at a chunk
    /// boundary.
    #[test]
    fn positions_are_line_ends_across_chunk_boundaries() {
        let mut text = String::new();
        for i in 0..1600u64 {
            match i {
                // Around the first chunk's end (record 512).
                510 | 511 => text.push('\n'),
                512 | 1027 => text.push_str("not a record\n"),
                i if i % 97 == 0 => text.push('\n'),
                i => text.push_str(&(mme(i).to_line() + "\n")),
            }
        }
        let dir = mme_world("ends", &text);
        let mut want = Vec::new();
        let mut end = 0;
        for (i, line) in text.split_inclusive('\n').enumerate() {
            end += line.len() as u64;
            if line != "\n" {
                want.push((i as u64 + 1, end));
            }
        }
        for ahead in [false, true] {
            let mut src = WorldSource::open(&dir, false).unwrap();
            if ahead {
                src = src.read_ahead(&Registry::new()).unwrap();
            }
            let mut got = Vec::new();
            while !matches!(src.poll().unwrap(), Polled::End) {
                let pos = src.position().unwrap();
                got.push((pos.mme_line, pos.mme_offset));
            }
            assert_eq!(got, want, "read ahead: {ahead}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A following source is read on the caller's thread: it still holds
    /// back a partial last line, and serves it once it is complete.
    #[test]
    fn a_following_source_stays_on_the_callers_thread() {
        let (line0, line1) = (mme(1).to_line(), mme(2).to_line());
        let half = line1.len() / 2;
        let dir = mme_world("follow-ahead", &format!("{line0}\n{}", &line1[..half]));
        let mut src = WorldSource::open(&dir, true)
            .unwrap()
            .read_ahead(&Registry::new())
            .unwrap();
        assert!(matches!(src.lanes, Lanes::Here { .. }));
        assert!(matches!(src.poll().unwrap(), Polled::Event(_)));
        assert!(matches!(src.poll().unwrap(), Polled::Pending));
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("mme.log"))
                .unwrap();
            writeln!(f, "{}", &line1[half..]).unwrap();
        }
        assert!(matches!(
            src.poll().unwrap(),
            Polled::Event(StreamEvent::Mme(r)) if r == mme(2)
        ));
        src.finish();
        assert!(matches!(src.poll().unwrap(), Polled::End));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A reader that panics on its third chunk: the items of the chunks
    /// it handed over come first, then the panic as an error, and polling
    /// on is an error, not the end.
    #[test]
    fn a_reader_panic_is_an_error_after_the_items_before_it() {
        let proxies: Vec<ProxyRecord> = (0..1500).map(|i| proxy(i * 3)).collect();
        let mmes: Vec<MmeRecord> = (0..100).map(|i| mme(i * 40)).collect();
        let dir = world_dir("ahead-panic", &proxies, &mmes);
        let want = transcript(&mut WorldSource::open(&dir, false).unwrap());
        let WorldSource {
            proxy,
            mme,
            horizon,
            lanes:
                Lanes::Here {
                    proxy: mut proxy_lane,
                    mme: mut mme_lane,
                },
            meter,
            serving,
        } = WorldSource::open(&dir, false).unwrap()
        else {
            unreachable!("a new source reads on the caller's thread")
        };
        let reader = Reader::spawn(&Registry::new(), move |ends| {
            for (i, request) in ends.requests.iter().enumerate() {
                assert!(i < 2, "scripted panic");
                match request {
                    Request::Proxy(mut chunk) => {
                        proxy_lane.fill(&mut chunk).unwrap();
                        ends.proxy.send(Ok(chunk)).unwrap();
                    }
                    Request::Mme(mut chunk) => {
                        mme_lane.fill(&mut chunk).unwrap();
                        ends.mme.send(Ok(chunk)).unwrap();
                    }
                }
            }
        })
        .unwrap();
        let mut src = WorldSource {
            proxy,
            mme,
            horizon,
            lanes: Lanes::Reader(reader),
            meter,
            serving,
        };
        let got = transcript(&mut src);
        let (last, served) = got.split_last().unwrap();
        // The first proxy chunk, and the 39 MME records up to its end.
        assert_eq!(served.len(), CHUNK_RECORDS + 39);
        assert_eq!(served, &want[..served.len()]);
        assert!(
            last.contains("the log reader panicked: scripted panic"),
            "{last}"
        );
        assert!(src.poll().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropping_a_read_ahead_source_mid_stream_joins_its_reader() {
        let proxies: Vec<ProxyRecord> = (0..5000).map(|i| proxy(i * 3)).collect();
        let dir = world_dir("ahead-drop", &proxies, &[]);
        let mut src = WorldSource::open(&dir, false)
            .unwrap()
            .read_ahead(&Registry::new())
            .unwrap();
        assert!(matches!(src.poll().unwrap(), Polled::Event(_)));
        // The position is the one after the item handed out, not the
        // reader's.
        assert_eq!(src.position().unwrap().proxy_line, 1);
        drop(src);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
