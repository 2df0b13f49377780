//! The log writer, the log reader and the line decoder.
//!
//! Logs are plain text: one TSV-encoded record per `\n`-terminated line.
//! The writer buffers into a `Vec<u8>` and flushes in large chunks.
//! [`Lines`] reads any byte source through one reused buffer and decodes
//! each line where it lies in that buffer, in one pass; a line that pass
//! cannot settle is split off and handed to [`decode_log_line`], which
//! turns one line into a record. Every reader of a saved log is
//! [`Lines`]: the chunk reader ([`crate::ShardReader`]) here, and the
//! stream's lanes over a growing log in `wearscope-stream`.

use std::io::{self, Read, Write};
use std::marker::PhantomData;

use crate::codec::{find_byte, CodecError, FieldReader, TsvRecord};
use crate::host::HostTable;

/// What one line decodes to: `None` for a blank line, else the record
/// or why the line is malformed.
pub type Decoded<R> = Option<Result<R, CodecError>>;

/// Decodes one raw log line (trailing `\n`/`\r` included) into a record:
/// `None` for a blank line, `Some(Err(..))` for a malformed one — a line
/// whose bytes are not UTF-8 is [`CodecError::InvalidUtf8`], quarantined
/// like any other damaged line.
///
/// This is **the** line decoder: every line the log reader ([`Lines`])
/// hands out decodes as it decodes here, in the batch chunk reader
/// ([`crate::read_tsv_shard`]) and the stream's log reader alike, so the
/// batch and streaming paths parse byte-for-byte identically — the
/// invariant the streaming engine's batch-equivalence test rests on.
pub fn decode_log_line<R: TsvRecord>(raw: &[u8]) -> Decoded<R> {
    let end = raw
        .iter()
        .rposition(|&b| b != b'\n' && b != b'\r')
        .map_or(0, |i| i + 1);
    if end == 0 {
        return None;
    }
    Some(R::from_bytes(&raw[..end]))
}

/// The one log reader, behind the chunk reader ([`crate::ShardReader`])
/// and the stream's log reader: it reads its source into a buffer it
/// reuses and decodes each line in place ([`Lines::next_decoded`]), so
/// no line is copied out of the buffer, and a well-formed one is read
/// once.
#[derive(Debug)]
pub struct Lines<S> {
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
    /// The hosts of the lines decoded in place: found here by their
    /// bytes, without the thread's table.
    hosts: HostTable,
}

impl<S: Read> Lines<S> {
    /// Splits `source` through a buffer of `capacity` bytes, which bounds
    /// each read until one line outgrows it.
    pub fn new(source: S, capacity: usize) -> Lines<S> {
        Lines {
            source,
            buf: vec![0; capacity.max(1)],
            start: 0,
            filled: 0,
            scanned: 0,
            hosts: HostTable::new(),
        }
    }

    /// The source, to point it elsewhere.
    pub(crate) fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }

    /// Forgets the bytes read but not handed out, so the next line comes
    /// from wherever the source now reads; the buffer is kept.
    pub(crate) fn discard(&mut self) {
        (self.start, self.filled, self.scanned) = (0, 0, 0);
    }

    /// The next line's length (its `\n` included) and what
    /// [`decode_log_line`] makes of it, reading the source as needed. At
    /// the end of the source an unterminated last line is decoded too,
    /// unless `hold_partial` (a follower waits for its `\n`, and finds it
    /// by calling again once the source has grown). `None` when no line
    /// is available.
    ///
    /// A line is decoded in one pass: its fields are read straight from
    /// the buffer at the cursor, and the `\n` that ends its last field
    /// ends the line. Whatever that pass cannot settle (a malformed or
    /// blank line, a `\r`, an escaped host, a line the buffer holds only
    /// part of, the end of the source) falls back to finding the line's
    /// `\n` and handing the line to [`decode_log_line`]. The pass settles
    /// only a line whose fields parse and whose only `\n` ends it, which
    /// decodes there to the same record, so every line, line count and
    /// offset is what splitting then decoding gives.
    ///
    /// # Errors
    /// Propagates read errors other than [`io::ErrorKind::Interrupted`].
    pub fn next_decoded<R: TsvRecord>(
        &mut self,
        hold_partial: bool,
    ) -> io::Result<Option<(usize, Decoded<R>)>> {
        let mut fields = FieldReader::in_place(
            &self.buf[self.start..self.filled],
            R::FIELDS,
            &mut self.hosts,
        );
        if let Ok(record) = R::read_fields(&mut fields) {
            if let Some(len) = fields.line_len() {
                self.start += len;
                self.scanned = self.start;
                return Ok(Some((len, Some(Ok(record)))));
            }
        }
        let line = self.next_line(hold_partial)?;
        Ok(line.map(|line| (line.len(), decode_log_line(line))))
    }

    /// The next line, its `\n` included, split off by a SWAR scan for
    /// `\n` ([`find_byte`]) and reading the source as needed, under
    /// [`Lines::next_decoded`]'s rules for the end of the source.
    fn next_line(&mut self, hold_partial: bool) -> io::Result<Option<&[u8]>> {
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
}
