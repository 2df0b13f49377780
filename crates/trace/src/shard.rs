//! Byte-range shard planning for persisted logs.
//!
//! Parallel ingestion needs to hand each worker a *self-contained* slice of
//! a log file: one that starts and ends exactly on record boundaries, so the
//! shards partition the file with no record lost, duplicated, or split.
//! Records are `\n`-terminated lines and the codec escapes embedded
//! newlines, so a boundary is valid iff it sits immediately after a `\n`
//! (or at EOF). [`plan_tsv_shards`] seeks to evenly spaced tentative
//! offsets and scans forward to the next newline.
//!
//! A [`ShardReader`] then parses planned ranges one after another, into a
//! [`TsvShard`] the caller owns, reporting per-shard counters (records,
//! bytes, malformed lines) that feed the ingest progress report. It keeps
//! its open file and line buffer from chunk to chunk, and a caller that
//! hands the same shard back for every chunk keeps its vectors too;
//! [`read_tsv_shard`] reads one range through a reader of its own.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Take};
use std::path::{Path, PathBuf};

use crate::codec::{CodecError, TsvRecord};
use crate::io::Lines;

/// A half-open byte range `[start, end)` of a log file, aligned to record
/// boundaries by [`plan_tsv_shards`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ByteRange {
    /// First byte of the shard.
    pub start: u64,
    /// One past the last byte of the shard.
    pub end: u64,
}

impl ByteRange {
    /// Number of bytes covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// `true` when the range covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// The planner's read buffer: longer than a typical log line.
const PLAN_READ_BYTES: usize = 512;

/// Plans up to `max_shards` newline-aligned byte ranges over a TSV log.
///
/// The ranges are contiguous, non-overlapping, and cover the file exactly;
/// every range starts at offset 0 or immediately after a `\n`. Files smaller
/// than one byte per shard yield fewer (possibly one) shards. An empty file
/// yields no shards.
///
/// # Errors
/// Propagates filesystem errors.
pub fn plan_tsv_shards(path: &Path, max_shards: usize) -> io::Result<Vec<ByteRange>> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(Vec::new());
    }
    let shards = max_shards.max(1) as u64;
    let target = len.div_ceil(shards);
    // Each cut reads on from a seek only to the next newline, so a small
    // buffer reads a line or two rather than 8 KiB per cut.
    let mut reader = BufReader::with_capacity(PLAN_READ_BYTES, file);
    let (mut ranges, mut skipped) = (Vec::new(), Vec::new());
    let mut start = 0u64;
    while start < len {
        let tentative = (start + target).min(len);
        let end = if tentative >= len {
            len
        } else {
            // Scan forward from the tentative cut to the next newline; the
            // shard ends just past it. A record longer than `target` simply
            // produces an oversized shard.
            reader.seek(SeekFrom::Start(tentative))?;
            skipped.clear();
            let n = reader.read_until(b'\n', &mut skipped)? as u64;
            tentative + n
        };
        ranges.push(ByteRange { start, end });
        start = end;
    }
    Ok(ranges)
}

/// The parsed contents and counters of one TSV shard.
#[derive(Debug)]
pub struct TsvShard<R> {
    /// Successfully decoded records, in file order.
    pub records: Vec<R>,
    /// Bytes covered by the shard.
    pub bytes: u64,
    /// Total lines in the shard, blank lines included. Since shard ranges
    /// are newline-aligned and partition the file, summing `lines` over the
    /// preceding shards turns a shard-local line number into a global one.
    pub lines: u64,
    /// Malformed lines, as `(1-based line within the shard, error)`. The
    /// caller decides what to do with them; the resilient loader
    /// quarantines each one.
    pub errors: Vec<(u64, CodecError)>,
}

impl<R> Default for TsvShard<R> {
    fn default() -> TsvShard<R> {
        TsvShard {
            records: Vec::new(),
            bytes: 0,
            lines: 0,
            errors: Vec::new(),
        }
    }
}

/// The chunk reader's buffer. Each parse worker holds one, so it stays
/// small: a 64 KiB chunk takes four reads.
const READ_BYTES: usize = 16 * 1024;

/// Parses planned TSV byte ranges one after another, keeping what it
/// allocates: the open log file (reopened only when the path changes) and
/// one line buffer. The records and malformed lines go into a [`TsvShard`]
/// the caller owns, so a caller that hands the same shard back for every
/// range allocates nothing once its vectors have grown to the largest one.
#[derive(Debug, Default)]
pub struct ShardReader {
    /// The open log's path, and the line splitter over it.
    open: Option<(PathBuf, Lines<Take<File>>)>,
}

impl ShardReader {
    /// A reader with no file open yet.
    pub fn new() -> ShardReader {
        ShardReader::default()
    }

    /// Parses one planned range of the log at `path` into `shard`,
    /// replacing what it held but keeping its vectors' room.
    ///
    /// The range must come from [`plan_tsv_shards`] (newline-aligned), so
    /// the slice is a whole number of lines. Malformed lines are counted
    /// and collected rather than aborting the shard, letting the parallel
    /// loader report totals before failing. Every call starts afresh, so a
    /// call after a failed one reads its range whole.
    ///
    /// # Errors
    /// Propagates filesystem errors only.
    pub fn read_into<R: TsvRecord>(
        &mut self,
        path: &Path,
        range: ByteRange,
        shard: &mut TsvShard<R>,
    ) -> io::Result<()> {
        if !matches!(&self.open, Some((open, _)) if open == path) {
            let file = File::open(path)?.take(0);
            match &mut self.open {
                Some((open, lines)) => {
                    *lines.source_mut() = file;
                    *open = path.to_path_buf();
                }
                None => self.open = Some((path.to_path_buf(), Lines::new(file, READ_BYTES))),
            }
        }
        let (_, lines) = self.open.as_mut().expect("a file is open");
        let source = lines.source_mut();
        source.get_mut().seek(SeekFrom::Start(range.start))?;
        source.set_limit(range.len());
        lines.discard();
        shard.records.clear();
        shard.errors.clear();
        shard.bytes = range.len();
        shard.lines = 0;
        let room = shard.records.capacity();
        while let Some((_, decoded)) = lines.next_decoded::<R>(false)? {
            shard.lines += 1;
            match decoded {
                None => {} // a blank line
                Some(Ok(record)) => shard.records.push(record),
                Some(Err(error)) => shard.errors.push((shard.lines, error)),
            }
        }
        // The shard keeps its room for the ranges it is handed back for,
        // so what doubling added past this range's records, less a
        // sixteenth for the next range, is given back.
        if shard.records.capacity() > room {
            let len = shard.records.len();
            shard.records.shrink_to(len + len / 16);
        }
        Ok(())
    }
}

/// Parses one planned TSV byte range through a [`ShardReader`] of its own.
///
/// # Errors
/// Propagates filesystem errors only.
pub fn read_tsv_shard<R: TsvRecord>(path: &Path, range: ByteRange) -> io::Result<TsvShard<R>> {
    let mut shard = TsvShard::default();
    ShardReader::new().read_into(path, range, &mut shard)?;
    Ok(shard)
}

/// Every record of a log with no malformed line, read as one chunk.
#[cfg(test)]
pub(crate) fn read_whole_log<R: TsvRecord>(path: &Path) -> Vec<R> {
    let len = std::fs::metadata(path).unwrap().len();
    let shard = read_tsv_shard(path, ByteRange { start: 0, end: len }).unwrap();
    assert!(shard.errors.is_empty(), "{:?}", shard.errors);
    shard.records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::UserId;
    use crate::io::{decode_log_line, LogWriter};
    use crate::mme::{MmeEvent, MmeRecord};
    use wearscope_simtime::SimTime;

    fn mme(i: u64) -> MmeRecord {
        MmeRecord {
            timestamp: SimTime::from_secs(i * 13),
            user: UserId(i % 7),
            imei: 352_000_011_234_564,
            event: MmeEvent::SectorUpdate,
            sector: (i % 40) as u32,
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("wearscope-shard-{tag}-{}", std::process::id()))
    }

    fn assert_partition(ranges: &[ByteRange], len: u64) {
        assert_eq!(ranges.first().map(|r| r.start), Some(0));
        assert_eq!(ranges.last().map(|r| r.end), Some(len));
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "ranges must be contiguous");
        }
        assert!(ranges.iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn tsv_shards_partition_exactly() {
        let records: Vec<MmeRecord> = (0..500).map(mme).collect();
        let path = temp_path("tsv");
        let mut w = LogWriter::new(std::fs::File::create(&path).unwrap());
        for r in &records {
            w.write(r).unwrap();
        }
        w.flush().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();

        for shards in [1, 2, 3, 7, 64, 10_000] {
            let ranges = plan_tsv_shards(&path, shards).unwrap();
            assert!(ranges.len() <= shards.max(1));
            assert_partition(&ranges, len);
            let mut all = Vec::new();
            for r in &ranges {
                let shard: TsvShard<MmeRecord> = read_tsv_shard(&path, *r).unwrap();
                assert!(shard.errors.is_empty());
                all.extend(shard.records);
            }
            assert_eq!(all, records, "{shards} shards lost or reordered records");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tsv_without_trailing_newline() {
        let records: Vec<MmeRecord> = (0..20).map(mme).collect();
        let mut text = String::new();
        for r in &records {
            text.push_str(&r.to_line());
            text.push('\n');
        }
        text.pop(); // drop the final newline
        let path = temp_path("tsv-notrail");
        std::fs::write(&path, &text).unwrap();
        let ranges = plan_tsv_shards(&path, 4).unwrap();
        assert_partition(&ranges, text.len() as u64);
        let mut all = Vec::new();
        for r in &ranges {
            all.extend(read_tsv_shard::<MmeRecord>(&path, *r).unwrap().records);
        }
        assert_eq!(all, records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tsv_empty_file_plans_nothing() {
        let path = temp_path("tsv-empty");
        std::fs::write(&path, "").unwrap();
        assert!(plan_tsv_shards(&path, 8).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tsv_shard_collects_malformed_lines() {
        let good = mme(1).to_line();
        let path = temp_path("tsv-bad");
        std::fs::write(&path, format!("{good}\nnot a record\n{good}\n")).unwrap();
        let ranges = plan_tsv_shards(&path, 1).unwrap();
        let shard: TsvShard<MmeRecord> = read_tsv_shard(&path, ranges[0]).unwrap();
        assert_eq!(shard.records.len(), 2);
        assert_eq!(shard.errors.len(), 1);
        assert_eq!(shard.errors[0].0, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_ending_mid_record_counts_one_truncated_line() {
        // A tail cut mid-record must surface as exactly one malformed line
        // in the final shard, never as a planner failure.
        let records: Vec<MmeRecord> = (0..50).map(mme).collect();
        let mut text = String::new();
        for r in &records {
            text.push_str(&r.to_line());
            text.push('\n');
        }
        let cut = text.len() - 7; // strictly inside the last record
        let path = temp_path("tsv-midrec");
        std::fs::write(&path, &text[..cut]).unwrap();
        for shards in [1, 4, 16] {
            let ranges = plan_tsv_shards(&path, shards).unwrap();
            assert_partition(&ranges, cut as u64);
            let mut ok = 0usize;
            let mut bad = 0usize;
            for r in &ranges {
                let shard: TsvShard<MmeRecord> = read_tsv_shard(&path, *r).unwrap();
                ok += shard.records.len();
                bad += shard.errors.len();
            }
            assert_eq!(ok, 49, "{shards} shards");
            assert_eq!(bad, 1, "{shards} shards");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn record_straddling_planned_boundary_stays_whole() {
        // Force a tentative cut to land inside a record: many single-byte
        // shards over few records means every tentative offset is mid-line.
        let records: Vec<MmeRecord> = (0..10).map(mme).collect();
        let path = temp_path("tsv-straddle");
        let mut w = LogWriter::new(std::fs::File::create(&path).unwrap());
        for r in &records {
            w.write(r).unwrap();
        }
        w.flush().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let ranges = plan_tsv_shards(&path, len as usize).unwrap();
        assert_partition(&ranges, len);
        // Every shard holds a whole number of records and nothing is lost.
        let mut all = Vec::new();
        for r in &ranges {
            let shard: TsvShard<MmeRecord> = read_tsv_shard(&path, *r).unwrap();
            assert!(shard.errors.is_empty());
            all.extend(shard.records);
        }
        assert_eq!(all, records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crlf_line_endings_parse_and_count_lines() {
        let records: Vec<MmeRecord> = (0..40).map(mme).collect();
        let mut text = String::new();
        for (i, r) in records.iter().enumerate() {
            text.push_str(&r.to_line());
            // Mixed endings: every third line CRLF, the rest LF.
            text.push_str(if i % 3 == 0 { "\r\n" } else { "\n" });
        }
        let path = temp_path("tsv-crlf");
        std::fs::write(&path, &text).unwrap();
        for shards in [1, 3, 8] {
            let ranges = plan_tsv_shards(&path, shards).unwrap();
            assert_partition(&ranges, text.len() as u64);
            let mut all = Vec::new();
            let mut lines = 0;
            for r in &ranges {
                let shard: TsvShard<MmeRecord> = read_tsv_shard(&path, *r).unwrap();
                assert!(shard.errors.is_empty());
                lines += shard.lines;
                all.extend(shard.records);
            }
            assert_eq!(all, records, "{shards} shards");
            assert_eq!(lines, 40);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shard_line_counts_sum_to_file_lines() {
        // Blank lines are skipped as records but still counted, so global
        // line numbers reconstructed from shard bases stay exact.
        let good = mme(1).to_line();
        let path = temp_path("tsv-lines");
        std::fs::write(&path, format!("{good}\n\n{good}\nbad line\n{good}\n")).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let ranges = plan_tsv_shards(&path, 3).unwrap();
        assert_partition(&ranges, len);
        let mut lines = 0;
        let mut global_error_lines = Vec::new();
        for r in &ranges {
            let shard: TsvShard<MmeRecord> = read_tsv_shard(&path, *r).unwrap();
            for (local, _) in &shard.errors {
                global_error_lines.push(lines + local);
            }
            lines += shard.lines;
        }
        assert_eq!(lines, 5);
        assert_eq!(global_error_lines, vec![4]);
        std::fs::remove_file(&path).unwrap();
    }

    /// Lines, records and `(line, error)` pairs of `text` as the
    /// `read_until` splitter the shared one replaced found them.
    type Split = (u64, Vec<MmeRecord>, Vec<(u64, CodecError)>);

    fn read_until_split(text: &[u8]) -> Split {
        let mut source = BufReader::new(text);
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
    fn every_reader_splits_as_read_until_did() {
        let good = |i| mme(i).to_line();
        // Longer than the chunk reader's buffer.
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
            let want = read_until_split(text.as_bytes());
            let path = temp_path("splitter");
            std::fs::write(&path, &text).unwrap();

            for shards in [1, 3, 64] {
                let mut got: Split = (0, Vec::new(), Vec::new());
                for range in plan_tsv_shards(&path, shards).unwrap() {
                    let shard: TsvShard<MmeRecord> = read_tsv_shard(&path, range).unwrap();
                    let base = got.0;
                    got.0 += shard.lines;
                    got.1.extend(shard.records);
                    got.2
                        .extend(shard.errors.into_iter().map(|(l, e)| (base + l, e)));
                }
                assert_eq!(got, want, "{shards} chunks");
            }

            std::fs::remove_file(&path).unwrap();
        }
    }

    /// One reader and one shard, handed back for every range of two logs
    /// in an order that switches files and goes backwards, read what a
    /// fresh reader reads; a failed open leaves the reader usable.
    #[test]
    fn a_reused_reader_and_shard_read_what_fresh_ones_do() {
        let good = |i| mme(i).to_line();
        let damaged = temp_path("reuse-damaged");
        let mut text = String::new();
        for i in 0..60 {
            match i % 9 {
                4 => text.push_str("not a record\n"),
                7 => text.push('\n'),
                _ => text.push_str(&format!("{}\n", good(i))),
            }
        }
        std::fs::write(&damaged, &text).unwrap();
        let crlf = temp_path("reuse-crlf");
        let lines: Vec<String> = (0..45).map(|i| format!("{}\r\n", good(i))).collect();
        std::fs::write(&crlf, lines.concat()).unwrap();

        let mut order = Vec::new();
        for path in [&damaged, &crlf] {
            for range in plan_tsv_shards(path, 5).unwrap() {
                order.push((path.clone(), range));
            }
        }
        // Interleave the two logs, then read them again in reverse.
        let (first, second) = order.split_at(order.len() / 2);
        let mut order: Vec<_> = first.iter().zip(second).flat_map(|(a, b)| [a, b]).collect();
        order.extend(order.clone().into_iter().rev());

        let mut reader = ShardReader::new();
        let mut shard = TsvShard::<MmeRecord>::default();
        let missing = temp_path("reuse-missing");
        let range = ByteRange { start: 0, end: 1 };
        assert!(reader.read_into(&missing, range, &mut shard).is_err());
        for (path, range) in order {
            reader.read_into(path, *range, &mut shard).unwrap();
            let fresh: TsvShard<MmeRecord> = read_tsv_shard(path, *range).unwrap();
            assert_eq!(shard.records, fresh.records, "{range:?}");
            assert_eq!(shard.errors, fresh.errors, "{range:?}");
            assert_eq!((shard.lines, shard.bytes), (fresh.lines, range.len()));
        }
        std::fs::remove_file(&damaged).unwrap();
        std::fs::remove_file(&crlf).unwrap();
    }

    #[test]
    fn oversized_record_gets_own_shard() {
        // One line far larger than the per-shard target must stay whole.
        let path = temp_path("tsv-long");
        let good = mme(1).to_line();
        let huge = "x".repeat(4096);
        std::fs::write(&path, format!("{good}\n{huge}\n{good}\n")).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let ranges = plan_tsv_shards(&path, 100).unwrap();
        assert_partition(&ranges, len);
        // The huge line sits entirely inside one shard.
        assert!(ranges.iter().any(|r| r.len() > 4096));
        std::fs::remove_file(&path).unwrap();
    }
}
