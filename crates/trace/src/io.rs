//! Streaming log writers and readers.
//!
//! Logs are plain text: one TSV-encoded record per `\n`-terminated line.
//! The writer buffers into a `Vec<u8>` and flushes in large chunks; the
//! tail reader yields records one at a time without materializing the file.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::Path;

use wearscope_obs::{Counter, Registry};

use crate::codec::{find_byte, CodecError, TsvRecord};

/// Byte and decode-error meters for trace I/O.
///
/// Registered under a caller-chosen prefix (`"{prefix}.bytes_read"`,
/// `"{prefix}.decode_errors"`) in the **deterministic** section: for a
/// given input both totals are functions of the log content alone, not of
/// sharding or wall clock. Attach to a [`TailReader`] via
/// [`TailReader::with_meter`].
#[derive(Clone, Debug, Default)]
pub struct IoMeter {
    bytes_read: Counter,
    decode_errors: Counter,
}

impl IoMeter {
    /// Registers the two counters under `prefix` in `registry`.
    pub fn new(registry: &Registry, prefix: &str) -> IoMeter {
        IoMeter {
            bytes_read: registry.counter(&format!("{prefix}.bytes_read")),
            decode_errors: registry.counter(&format!("{prefix}.decode_errors")),
        }
    }

    /// Record `n` bytes read from the log.
    pub fn add_bytes(&self, n: u64) {
        self.bytes_read.add(n);
    }

    /// Record one malformed line.
    pub fn add_decode_error(&self) {
        self.decode_errors.inc();
    }
}

/// Decodes one raw log line (trailing `\n`/`\r` included) into a record:
/// `None` for a blank line, `Some(Err(..))` for a malformed one — a line
/// whose bytes are not UTF-8 is [`CodecError::InvalidUtf8`], quarantined
/// like any other damaged line.
///
/// This is **the** line decoder: the batch chunk reader
/// ([`crate::read_tsv_shard`]) and the streaming tail reader
/// ([`TailReader`]) both route through it, so the batch and streaming
/// paths parse byte-for-byte identically — the invariant the streaming
/// engine's batch-equivalence test rests on.
pub fn decode_log_line<R: TsvRecord>(raw: &[u8]) -> Option<Result<R, CodecError>> {
    let end = raw
        .iter()
        .rposition(|&b| b != b'\n' && b != b'\r')
        .map_or(0, |i| i + 1);
    if end == 0 {
        return None;
    }
    Some(R::from_bytes(&raw[..end]))
}

/// The one line splitter, behind [`TailReader`] and the chunk reader
/// ([`crate::ShardReader`]): it reads its source into a buffer it
/// reuses, finds each `\n` a word at a time, and hands out the lines in
/// place, so no line is copied out of the buffer.
#[derive(Debug)]
pub(crate) struct Lines<S> {
    source: S,
    /// `buf[start..filled]` holds bytes read but not yet handed out as
    /// lines; reads land in place in `buf[filled..]`, which is zeroed
    /// once, when the buffer grows.
    buf: Vec<u8>,
    /// Handed-out prefix of `buf` (compacted before the next read).
    start: usize,
    /// End of the bytes read into `buf`.
    filled: usize,
    /// Scan resume point within `buf` (avoids rescanning on refills).
    scanned: usize,
}

impl<S: Read> Lines<S> {
    /// Splits `source` through a buffer of `capacity` bytes, which bounds
    /// each read until one line outgrows it.
    pub(crate) fn new(source: S, capacity: usize) -> Lines<S> {
        Lines {
            source,
            buf: vec![0; capacity.max(1)],
            start: 0,
            filled: 0,
            scanned: 0,
        }
    }

    /// The source, to attach a meter to it or to point it elsewhere.
    pub(crate) fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }

    /// Forgets the bytes read but not handed out, so the next line comes
    /// from wherever the source now reads; the buffer is kept.
    pub(crate) fn discard(&mut self) {
        (self.start, self.filled, self.scanned) = (0, 0, 0);
    }

    /// The next line, its `\n` included, reading the source as needed.
    /// At the end of the source an unterminated last line is handed out
    /// too, unless `hold_partial` (a follower waits for its `\n`, and
    /// finds it by calling again once the source has grown). `None` when
    /// no line is available.
    ///
    /// # Errors
    /// Propagates read errors other than [`io::ErrorKind::Interrupted`].
    pub(crate) fn next_line(&mut self, hold_partial: bool) -> io::Result<Option<&[u8]>> {
        loop {
            if let Some(nl) = find_byte(&self.buf[self.scanned..self.filled], b'\n') {
                return Ok(Some(self.hand_out(self.scanned + nl + 1)));
            }
            self.scanned = self.filled;
            self.make_room();
            let n = match self.source.read(&mut self.buf[self.filled..]) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if n == 0 {
                if hold_partial || self.start == self.filled {
                    return Ok(None);
                }
                return Ok(Some(self.hand_out(self.filled)));
            }
            self.filled += n;
        }
    }

    /// Hands out `buf[start..end]` as one line.
    fn hand_out(&mut self, end: usize) -> &[u8] {
        let line = &self.buf[self.start..end];
        self.start = end;
        self.scanned = end;
        line
    }

    /// Frees the buffer's tail for the next read: the unconsumed partial
    /// line moves to the front, and the buffer doubles only when that one
    /// line fills it.
    fn make_room(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.filled, 0);
            self.filled -= self.start;
            self.scanned -= self.start;
            self.start = 0;
        }
        if self.filled == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
    }
}

/// Buffered line-oriented writer for any [`TsvRecord`].
///
/// # Examples
/// ```
/// use wearscope_trace::{decode_log_line, HostId, LogWriter, ProxyRecord, Scheme, UserId};
/// use wearscope_simtime::SimTime;
///
/// let rec = ProxyRecord {
///     timestamp: SimTime::from_secs(1),
///     user: UserId(9),
///     imei: 352000011234564,
///     host: HostId::intern("api.weather.com"),
///     scheme: Scheme::Https,
///     bytes_down: 2000,
///     bytes_up: 300,
/// };
/// let mut buf = Vec::new();
/// {
///     let mut w = LogWriter::new(&mut buf);
///     w.write(&rec).unwrap();
///     w.flush().unwrap();
/// }
/// let line = decode_log_line::<ProxyRecord>(&buf).unwrap().unwrap();
/// assert_eq!(line, rec);
/// ```
#[derive(Debug)]
pub struct LogWriter<W: Write, R: TsvRecord> {
    /// `None` only transiently inside `into_inner`.
    sink: Option<W>,
    buf: Vec<u8>,
    _marker: PhantomData<fn(&R)>,
}

/// Flush threshold for the in-memory buffer.
const FLUSH_AT: usize = 64 * 1024;

/// The line splitter's initial buffer, which bounds each read until one
/// line outgrows it.
const READ_BYTES: usize = 64 * 1024;

impl<W: Write, R: TsvRecord> LogWriter<W, R> {
    /// Wraps a sink.
    pub fn new(sink: W) -> LogWriter<W, R> {
        LogWriter {
            sink: Some(sink),
            buf: Vec::with_capacity(FLUSH_AT + 1024),
            _marker: PhantomData,
        }
    }

    /// Appends one record.
    ///
    /// # Errors
    /// Propagates I/O errors from the underlying sink.
    pub fn write(&mut self, record: &R) -> io::Result<()> {
        record.encode_into(&mut self.buf);
        self.buf.push(b'\n');
        if self.buf.len() >= FLUSH_AT {
            self.flush_buf()?;
        }
        Ok(())
    }

    fn flush_buf(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            if let Some(sink) = self.sink.as_mut() {
                sink.write_all(&self.buf)?;
            }
            self.buf.clear();
        }
        Ok(())
    }

    /// Flushes buffered lines and the sink.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn flush(&mut self) -> io::Result<()> {
        self.flush_buf()?;
        match self.sink.as_mut() {
            Some(sink) => sink.flush(),
            None => Ok(()),
        }
    }

    /// Flushes and returns the sink.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.flush()?;
        Ok(self.sink.take().expect("sink present until into_inner"))
    }
}

impl<W: Write, R: TsvRecord> Drop for LogWriter<W, R> {
    fn drop(&mut self) {
        let _ = self.flush_buf();
    }
}

/// One item yielded by [`TailReader::next_item`].
#[derive(Debug)]
pub enum TailItem<R> {
    /// A well-formed record.
    Record(R),
    /// A malformed line, with its 1-based line number.
    Malformed {
        /// 1-based line number of the bad line.
        line: u64,
        /// The decode failure.
        error: CodecError,
    },
    /// No complete line is available yet, but the log may still grow
    /// (follow mode only). Poll again later.
    Pending,
    /// End of the log (never yielded in follow mode).
    End,
}

/// Incremental reader over a possibly-growing log file.
///
/// A `TailReader` tracks a *committed byte offset*:
/// after each yielded item, [`TailReader::offset`] points at the first byte
/// of the next unconsumed line, and [`TailReader::resume`] can reopen the
/// log at exactly that position. That pair is what makes streaming
/// checkpoint/resume exact — a resumed reader re-reads nothing and skips
/// nothing.
///
/// In follow mode (`follow = true`), hitting end-of-file yields
/// [`TailItem::Pending`] instead of [`TailItem::End`] and a trailing
/// unterminated line is held back until its `\n` arrives (the writer may
/// still be mid-line). In non-follow mode a trailing unterminated line is
/// decoded as a final (possibly truncated) record, as the chunk reader
/// ([`crate::read_tsv_shard`]) decodes it.
#[derive(Debug)]
pub struct TailReader<R: TsvRecord> {
    lines: Lines<MeteredFile>,
    /// Byte offset in the file of the first line not yet consumed — the
    /// committed position.
    offset: u64,
    line_no: u64,
    follow: bool,
    _marker: PhantomData<fn() -> R>,
}

/// A log file that counts the bytes read from it, once a meter is
/// attached.
#[derive(Debug)]
struct MeteredFile {
    file: File,
    meter: Option<IoMeter>,
}

impl Read for MeteredFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.file.read(buf)?;
        if let Some(meter) = &self.meter {
            meter.add_bytes(n as u64);
        }
        Ok(n)
    }
}

impl<R: TsvRecord> TailReader<R> {
    /// Opens a log from the beginning.
    ///
    /// # Errors
    /// Propagates the open failure.
    pub fn open(path: &Path, follow: bool) -> io::Result<TailReader<R>> {
        TailReader::resume(path, 0, 0, follow)
    }

    /// Reopens a log at a committed position previously reported by
    /// [`TailReader::offset`] / [`TailReader::line_no`].
    ///
    /// # Errors
    /// Fails if the file cannot be opened or is shorter than `offset`
    /// (the checkpoint points beyond the log — corruption or the wrong
    /// world).
    pub fn resume(
        path: &Path,
        offset: u64,
        line_no: u64,
        follow: bool,
    ) -> io::Result<TailReader<R>> {
        let mut file = File::open(path)?;
        let len = file.seek(SeekFrom::End(0))?;
        if offset > len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "resume offset {offset} beyond end of {} ({len} bytes)",
                    path.display()
                ),
            ));
        }
        file.seek(SeekFrom::Start(offset))?;
        let file = MeteredFile { file, meter: None };
        Ok(TailReader {
            lines: Lines::new(file, READ_BYTES),
            offset,
            line_no,
            follow,
            _marker: PhantomData,
        })
    }

    /// Attaches an [`IoMeter`]: bytes read from the file and malformed
    /// lines are counted from this point on.
    #[must_use]
    pub fn with_meter(mut self, meter: IoMeter) -> TailReader<R> {
        self.lines.source_mut().meter = Some(meter);
        self
    }

    /// Committed byte offset: the first byte not yet consumed as a line.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Lines consumed so far (blank lines included).
    pub fn line_no(&self) -> u64 {
        self.line_no
    }

    /// Leaves follow mode: the next end-of-file yields [`TailItem::End`]
    /// (after decoding any trailing unterminated line).
    pub fn finish(&mut self) {
        self.follow = false;
    }

    /// Yields the next item. See [`TailItem`] for the follow-mode contract.
    /// A line that is not UTF-8 is [`TailItem::Malformed`], as in the
    /// chunk reader.
    ///
    /// # Errors
    /// Propagates I/O errors reading the file.
    pub fn next_item(&mut self) -> io::Result<TailItem<R>> {
        loop {
            let Some(line) = self.lines.next_line(self.follow)? else {
                return Ok(if self.follow {
                    TailItem::Pending
                } else {
                    TailItem::End
                });
            };
            self.offset += line.len() as u64;
            self.line_no += 1;
            match decode_log_line::<R>(line) {
                None => continue, // a blank line
                Some(Ok(r)) => return Ok(TailItem::Record(r)),
                Some(Err(error)) => {
                    if let Some(meter) = &self.lines.source_mut().meter {
                        meter.add_decode_error();
                    }
                    return Ok(TailItem::Malformed {
                        line: self.line_no,
                        error,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::UserId;
    use crate::mme::{MmeEvent, MmeRecord};
    use wearscope_simtime::SimTime;

    fn recs(n: u64) -> Vec<MmeRecord> {
        (0..n)
            .map(|i| MmeRecord {
                timestamp: SimTime::from_secs(i),
                user: UserId(i % 10),
                imei: 352000011234564,
                event: MmeEvent::SectorUpdate,
                sector: (i % 100) as u32,
            })
            .collect()
    }

    #[test]
    fn write_read_roundtrip_many() {
        let records = recs(5000); // crosses the flush threshold
        let mut sink = Vec::new();
        {
            let mut w = LogWriter::new(&mut sink);
            for r in &records {
                w.write(r).unwrap();
            }
            w.flush().unwrap();
        }
        let read: Vec<MmeRecord> = sink
            .split_inclusive(|&b| b == b'\n')
            .map(|line| decode_log_line(line).unwrap().unwrap())
            .collect();
        assert_eq!(read, records);
    }

    #[test]
    fn drop_flushes() {
        let mut sink = Vec::new();
        {
            let mut w: LogWriter<_, MmeRecord> = LogWriter::new(&mut sink);
            w.write(&recs(1)[0]).unwrap();
            // No explicit flush: Drop must flush the buffered line.
        }
        assert!(!sink.is_empty());
    }

    /// Two good lines around one with a byte that is not UTF-8.
    fn text_with_invalid_utf8() -> Vec<u8> {
        let good = recs(1)[0].to_line();
        let mut bad = good.clone().into_bytes();
        bad[1] = 0xff;
        let mut text = Vec::new();
        for line in [good.as_bytes(), &bad, good.as_bytes()] {
            text.extend_from_slice(line);
            text.push(b'\n');
        }
        text
    }

    #[test]
    fn decode_trims_line_endings_and_skips_blank_lines() {
        let line = recs(1)[0].to_line();
        for raw in [format!("{line}\n"), format!("{line}\r\n"), line.clone()] {
            let rec = decode_log_line::<MmeRecord>(raw.as_bytes())
                .unwrap()
                .unwrap();
            assert_eq!(rec, recs(1)[0]);
        }
        for blank in ["", "\n", "\r\n", "\r\r\n"] {
            assert!(decode_log_line::<MmeRecord>(blank.as_bytes()).is_none());
        }
    }

    #[test]
    fn into_inner_returns_flushed_sink() {
        let w: LogWriter<Vec<u8>, MmeRecord> = LogWriter::new(Vec::new());
        let mut w = w;
        w.write(&recs(1)[0]).unwrap();
        let sink = w.into_inner().unwrap();
        assert!(sink.ends_with(b"\n"));
    }

    fn temp_log(name: &str, text: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("wearscope-io-{}-{name}", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn tail_reader_reads_every_record_past_a_blank_line() {
        let records = recs(500);
        let mut text = String::new();
        for r in &records {
            text.push_str(&r.to_line());
            text.push('\n');
        }
        text.insert(0, '\n'); // leading blank line
        let path = temp_log("match", &text);
        let mut tail: TailReader<MmeRecord> = TailReader::open(&path, false).unwrap();
        let mut got = Vec::new();
        loop {
            match tail.next_item().unwrap() {
                TailItem::Record(r) => got.push(r),
                TailItem::Malformed { line, error } => panic!("line {line}: {error}"),
                TailItem::Pending => panic!("pending in non-follow mode"),
                TailItem::End => break,
            }
        }
        assert_eq!(got, records);
        assert_eq!(tail.offset(), text.len() as u64);
        assert_eq!(tail.line_no(), 501); // 500 records + 1 blank
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tail_reader_resume_is_exact() {
        let records = recs(100);
        let mut text = String::new();
        for r in &records {
            text.push_str(&r.to_line());
            text.push('\n');
        }
        let path = temp_log("resume", &text);
        let mut tail: TailReader<MmeRecord> = TailReader::open(&path, false).unwrap();
        let mut first = Vec::new();
        for _ in 0..40 {
            match tail.next_item().unwrap() {
                TailItem::Record(r) => first.push(r),
                other => panic!("unexpected {other:?}"),
            }
        }
        let (off, line) = (tail.offset(), tail.line_no());
        drop(tail);
        let mut resumed: TailReader<MmeRecord> =
            TailReader::resume(&path, off, line, false).unwrap();
        loop {
            match resumed.next_item().unwrap() {
                TailItem::Record(r) => first.push(r),
                TailItem::End => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(first, records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tail_reader_reads_a_line_longer_than_its_buffer() {
        // A damaged line of 2.5 buffers, then a good record: the buffer
        // grows to hold the long line, and nothing is lost or repeated.
        let good = recs(1)[0].to_line();
        let long = "x".repeat(READ_BYTES * 5 / 2);
        let text = format!("{good}\n{long}\n{good}\n");
        let path = temp_log("long", &text);
        let mut tail: TailReader<MmeRecord> = TailReader::open(&path, false).unwrap();
        assert!(matches!(tail.next_item().unwrap(), TailItem::Record(_)));
        assert!(matches!(
            tail.next_item().unwrap(),
            TailItem::Malformed { line: 2, .. }
        ));
        assert!(matches!(tail.next_item().unwrap(), TailItem::Record(_)));
        assert!(matches!(tail.next_item().unwrap(), TailItem::End));
        assert_eq!(tail.offset(), text.len() as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tail_reader_resume_rejects_offset_beyond_eof() {
        let path = temp_log("beyond", "short\n");
        let err = TailReader::<MmeRecord>::resume(&path, 999, 0, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tail_reader_follow_holds_back_partial_line() {
        let full = recs(2);
        let line0 = full[0].to_line();
        let line1 = full[1].to_line();
        let half = &line1[..line1.len() / 2];
        let path = temp_log("follow", &format!("{line0}\n{half}"));
        let mut tail: TailReader<MmeRecord> = TailReader::open(&path, true).unwrap();
        match tail.next_item().unwrap() {
            TailItem::Record(r) => assert_eq!(r, full[0]),
            other => panic!("unexpected {other:?}"),
        }
        // The unterminated tail must not be decoded while following.
        assert!(matches!(tail.next_item().unwrap(), TailItem::Pending));
        assert_eq!(tail.offset(), line0.len() as u64 + 1);
        // Writer completes the line; the reader picks it up.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(f, "{}", &line1[line1.len() / 2..]).unwrap();
        }
        match tail.next_item().unwrap() {
            TailItem::Record(r) => assert_eq!(r, full[1]),
            other => panic!("unexpected {other:?}"),
        }
        // finish() converts EOF into End, decoding nothing extra.
        tail.finish();
        assert!(matches!(tail.next_item().unwrap(), TailItem::End));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tail_reader_decodes_unterminated_tail_when_not_following() {
        let rec = &recs(1)[0];
        let path = temp_log("tail", rec.to_line().as_str()); // no trailing \n
        let mut tail: TailReader<MmeRecord> = TailReader::open(&path, false).unwrap();
        match tail.next_item().unwrap() {
            TailItem::Record(r) => assert_eq!(&r, rec),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(tail.next_item().unwrap(), TailItem::End));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tail_reader_meter_counts_bytes_and_decode_errors() {
        let good = recs(1)[0].to_line();
        let text = format!("{good}\nnot a record\n{good}\n");
        let path = temp_log("meter", &text);
        let reg = Registry::new();
        let meter = IoMeter::new(&reg, "trace.mme");
        let mut tail: TailReader<MmeRecord> =
            TailReader::open(&path, false).unwrap().with_meter(meter);
        while !matches!(tail.next_item().unwrap(), TailItem::End) {}
        let snap = reg.snapshot();
        assert_eq!(snap.counters["trace.mme.bytes_read"], text.len() as u64);
        assert_eq!(snap.counters["trace.mme.decode_errors"], 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tail_reader_quarantines_invalid_utf8() {
        let path = std::env::temp_dir().join(format!("wearscope-io-{}-utf8", std::process::id()));
        std::fs::write(&path, text_with_invalid_utf8()).unwrap();
        let mut tail: TailReader<MmeRecord> = TailReader::open(&path, false).unwrap();
        assert!(matches!(tail.next_item().unwrap(), TailItem::Record(_)));
        match tail.next_item().unwrap() {
            TailItem::Malformed { line, error } => {
                assert_eq!((line, error), (2, CodecError::InvalidUtf8));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(tail.next_item().unwrap(), TailItem::Record(_)));
        assert!(matches!(tail.next_item().unwrap(), TailItem::End));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tail_reader_reports_malformed_line_numbers() {
        let good = recs(1)[0].to_line();
        let path = temp_log("bad", &format!("{good}\nnot a record\n{good}\n"));
        let mut tail: TailReader<MmeRecord> = TailReader::open(&path, false).unwrap();
        assert!(matches!(tail.next_item().unwrap(), TailItem::Record(_)));
        match tail.next_item().unwrap() {
            TailItem::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(tail.next_item().unwrap(), TailItem::Record(_)));
        assert!(matches!(tail.next_item().unwrap(), TailItem::End));
        std::fs::remove_file(&path).unwrap();
    }
}
