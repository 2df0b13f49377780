//! The injector: applies a [`FaultSpec`] to a persisted world's logs.
//!
//! Determinism contract: each (class, file) pair draws from its own
//! `StdRng` stream seeded by `seed ^ hash(class) ^ hash(file)`, and every
//! class draws one decision per original line regardless of what other
//! classes selected. Enabling or disabling one class therefore never moves
//! another class's victims, and the corrupted bytes are a pure function of
//! (world, seed, spec).
//!
//! A line receives at most one fault. Classes claim victims in
//! [`FaultClass::ALL`] order (truncate first — it owns the file tail), so
//! overlapping draws resolve the same way on every run.
//!
//! Logs are bytes, not text: a line is what lies between two `\n`s, so a
//! `\r` or a byte that is not UTF-8 is line content like any other. Every
//! line no fault claims is written back byte for byte, its `\r` and a
//! missing final `\n` included.

use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
use std::ops::Range;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wearscope_trace::codec::find_byte;

use crate::spec::{FaultClass, FaultSpec};

/// Ten years in seconds — far past any observation window.
const SKEW_OFFSET_SECS: u64 = 10 * 365 * 86_400;

/// What happened to one log file.
#[derive(Clone, Debug)]
pub struct FileCorruption {
    /// File name within the world directory (`proxy.log` / `mme.log`).
    pub file: String,
    /// Lines the file had before corruption.
    pub lines: u64,
    /// Faults injected, indexed by [`FaultClass::index`].
    pub counts: [u64; 8],
}

impl FileCorruption {
    /// Faults of `class` injected into this file.
    pub fn count(&self, class: FaultClass) -> u64 {
        self.counts[class.index()]
    }

    /// Total faults injected into this file.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// The full `wearscope corrupt` outcome.
#[derive(Clone, Debug)]
pub struct CorruptionReport {
    /// The seed the injection ran with.
    pub seed: u64,
    /// Per-file breakdown, in the order the files were processed.
    pub files: Vec<FileCorruption>,
}

impl CorruptionReport {
    /// Faults of `class` across all files.
    pub fn count(&self, class: FaultClass) -> u64 {
        self.files.iter().map(|f| f.count(class)).sum()
    }

    /// Total faults across all files.
    pub fn total(&self) -> u64 {
        self.files.iter().map(FileCorruption::total).sum()
    }

    /// One line per file plus a total, for CLI output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.files {
            let detail: Vec<String> = FaultClass::ALL
                .into_iter()
                .filter(|c| f.count(*c) > 0)
                .map(|c| format!("{}={}", c.name(), f.count(c)))
                .collect();
            out.push_str(&format!(
                "{}: {} faults over {} lines ({})\n",
                f.file,
                f.total(),
                f.lines,
                if detail.is_empty() {
                    "none".to_string()
                } else {
                    detail.join(", ")
                },
            ));
        }
        out.push_str(&format!(
            "injected {} faults total (seed {})\n",
            self.total(),
            self.seed
        ));
        out
    }
}

/// Bytes each log is read and written through.
const BUFFER: usize = 64 * 1024;

/// Corrupts the world under `dir` in place.
///
/// Each log streams through a 64 KiB buffer into `<log>.tmp`
/// beside it, which is then renamed over the log: memory holds a few
/// lines whatever the log's size, and a process killed midway leaves
/// the whole old log or the whole new one, never a half-written one.
///
/// # Errors
/// Propagates I/O errors reading or rewriting `proxy.log` / `mme.log`
/// (both must exist — this is the same layout `wearscope generate` saves).
pub fn corrupt_world(dir: &Path, seed: u64, spec: &FaultSpec) -> io::Result<CorruptionReport> {
    let mut files = Vec::new();
    for file in ["proxy.log", "mme.log"] {
        let path = dir.join(file);
        let tmp = dir.join(format!("{file}.tmp"));
        let corruption = corrupt_file(&path, &tmp, file, seed, spec)
            .and_then(|corruption| fs::rename(&tmp, &path).map(|()| corruption))
            .inspect_err(|_| {
                let _ = fs::remove_file(&tmp);
            })?;
        files.push(corruption);
    }
    Ok(CorruptionReport { seed, files })
}

/// Writes the corruption of the log at `path` to `tmp`.
fn corrupt_file(
    path: &Path,
    tmp: &Path,
    file: &str,
    seed: u64,
    spec: &FaultSpec,
) -> io::Result<FileCorruption> {
    let input = File::open(path)?;
    let mut out = BufWriter::with_capacity(BUFFER, File::create(tmp)?);
    let corruption = corrupt_log(input, &mut out, file, seed, spec)?;
    out.flush()?;
    Ok(corruption)
}

/// What a claimed line turns into when the output is assembled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fate {
    Keep,
    Mutated,
    Duplicate,
    /// First line of a swapped pair — emitted after its successor.
    ReorderFirst,
    /// Second line of a swapped pair — emitted before its predecessor.
    ReorderSecond,
    Crlf,
    /// The file tail is cut inside this (final) line, after `keep` bytes.
    Truncate {
        keep: usize,
    },
}

/// One log line in the read buffer, and what becomes of it.
#[derive(Debug)]
struct Line {
    /// Where the line starts in the buffer.
    start: usize,
    /// Where it ends, before its `\n`.
    end: usize,
    /// Where the line after it starts: past its `\n`, if it has one.
    after: usize,
    fate: Fate,
    /// A mutated line's bytes; the buffer is kept from line to line.
    mutated: Vec<u8>,
}

impl Line {
    fn new() -> Line {
        Line {
            start: 0,
            end: 0,
            after: 0,
            fate: Fate::Keep,
            mutated: Vec::new(),
        }
    }

    /// The offsets after the buffer's first `by` bytes are dropped.
    fn shift(&mut self, by: usize) {
        self.start -= by;
        self.end -= by;
        self.after -= by;
    }
}

/// What [`LineReader::next`] found in the buffer.
enum Next {
    /// A line's bytes, without its `\n`, and whether it is the log's last.
    Line(Range<usize>, bool),
    /// The buffer holds no whole line that is known to be the last or not.
    Refill,
    /// The log has no more lines.
    End,
}

/// A log's bytes in a read buffer, split into lines a word at a time.
struct LineReader<R> {
    input: R,
    /// The bytes read and not yet dropped, then room for more.
    buf: Vec<u8>,
    /// The bytes read.
    filled: usize,
    /// Where the next line starts.
    at: usize,
    /// How far from `at` the bytes hold no `\n`.
    scanned: usize,
    /// `true` once a read returned nothing.
    eof: bool,
    /// Lines handed out.
    count: u64,
}

impl<R: Read> LineReader<R> {
    fn new(input: R) -> LineReader<R> {
        LineReader {
            input,
            buf: vec![0; BUFFER],
            filled: 0,
            at: 0,
            scanned: 0,
            eof: false,
            count: 0,
        }
    }

    /// The next line in the buffer. A line ends at a `\n`, or at the end
    /// of the log; it is the last when no byte follows it.
    fn next(&mut self) -> Next {
        let from = self.scanned.max(self.at);
        let line = match find_byte(&self.buf[from..self.filled], b'\n') {
            Some(i) if from + i + 1 < self.filled || self.eof => self.at..from + i,
            Some(i) => {
                self.scanned = from + i;
                return Next::Refill;
            }
            None if !self.eof => {
                self.scanned = self.filled;
                return Next::Refill;
            }
            None if self.at < self.filled => self.at..self.filled,
            None => return Next::End,
        };
        self.at = (line.end + 1).min(self.filled);
        self.count += 1;
        Next::Line(line, self.at == self.filled)
    }

    /// `true` when no byte can be read without dropping some first.
    fn full(&self) -> bool {
        self.filled == self.buf.len()
    }

    /// Drops the buffer's first `by` bytes, which the caller no longer
    /// needs, and doubles the buffer when what is left fills half of it
    /// (a line longer than that).
    fn drop_front(&mut self, by: usize) {
        self.buf.copy_within(by..self.filled, 0);
        self.filled -= by;
        self.at -= by;
        self.scanned = self.scanned.saturating_sub(by);
        if self.filled > self.buf.len() / 2 {
            self.buf.resize(2 * self.buf.len(), 0);
        }
    }

    /// Reads more bytes into the room after the ones read.
    fn read(&mut self) -> io::Result<()> {
        let read = loop {
            match self.input.read(&mut self.buf[self.filled..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                read => break read?,
            }
        };
        self.filled += read;
        self.eof = read == 0;
        Ok(())
    }
}

/// Each enabled class's RNG stream over one log, and the faults injected.
struct Injector<'s> {
    spec: &'s FaultSpec,
    rngs: [Option<StdRng>; 8],
    counts: [u64; 8],
}

impl Injector<'_> {
    fn new<'s>(spec: &'s FaultSpec, seed: u64, file: &str) -> Injector<'s> {
        let mut rngs = [const { None }; 8];
        for class in spec.classes() {
            rngs[class.index()] = Some(class_rng(seed, class, file));
        }
        Injector {
            spec,
            rngs,
            counts: [0; 8],
        }
    }

    /// A hit of `class` on the current line: one draw whenever the class
    /// is enabled, claimed line or not, so its victims do not depend on
    /// what other classes selected.
    fn draw(&mut self, class: FaultClass) -> Option<(bool, &mut StdRng)> {
        let rng = self.rngs[class.index()].as_mut()?;
        Some((rng.random_bool(self.spec.rate(class)), rng))
    }

    /// The classes ahead of `reorder`, which claim a line by itself:
    /// truncate (the last line only), then the mutators and `dup`.
    /// `bytes` are the line's, and a mutator writes its line to
    /// `line.mutated`.
    fn claim(&mut self, line: &mut Line, bytes: &[u8], last: bool) {
        line.fate = Fate::Keep;
        if last {
            if let Some(rng) = self.rngs[FaultClass::Truncate.index()].as_mut() {
                // One cut per file: drop the tail of the last line, ending
                // it inside its first field so the reader sees a record
                // with a missing field, exactly like a writer that died.
                let first = field_end(bytes);
                let keep = if first > 1 {
                    rng.random_range(1..first)
                } else {
                    first.min(1)
                };
                line.fate = Fate::Truncate { keep };
                self.counts[FaultClass::Truncate.index()] = 1;
            }
        }
        for class in [
            FaultClass::BitFlip,
            FaultClass::Garbage,
            FaultClass::BadImei,
            FaultClass::Skew,
            FaultClass::Duplicate,
        ] {
            let Some((hit, rng)) = self.draw(class) else {
                continue;
            };
            if !hit || line.fate != Fate::Keep {
                continue;
            }
            let out = &mut line.mutated;
            line.fate = Fate::Mutated;
            match class {
                FaultClass::BitFlip => bitflip(bytes, rng, out),
                FaultClass::Garbage => garbage(rng, out),
                FaultClass::BadImei => bad_imei(bytes, rng, out),
                FaultClass::Skew => skew(bytes, out),
                _ => line.fate = Fate::Duplicate,
            }
            self.counts[class.index()] += 1;
        }
    }

    /// `reorder` then `crlf` on `line`, whose successor `next` (if any)
    /// has been through [`claim`](Injector::claim) only.
    fn settle(&mut self, line: &mut Line, next: Option<&mut Line>) {
        if let Some((hit, _)) = self.draw(FaultClass::Reorder) {
            if let Some(next) =
                next.filter(|n| hit && line.fate == Fate::Keep && n.fate == Fate::Keep)
            {
                line.fate = Fate::ReorderFirst;
                next.fate = Fate::ReorderSecond;
                self.counts[FaultClass::Reorder.index()] += 1;
            }
        }
        if let Some((hit, _)) = self.draw(FaultClass::Crlf) {
            if hit && line.fate == Fate::Keep {
                line.fate = Fate::Crlf;
                self.counts[FaultClass::Crlf.index()] += 1;
            }
        }
    }
}

/// One log's pass: its lines read from the buffer and claimed, and the
/// output written.
struct Pass<'s, R, W> {
    lines: LineReader<R>,
    out: W,
    injector: Injector<'s>,
    /// Where the bytes read and not yet written start: a run of kept
    /// lines, then the lines not yet settled.
    run: usize,
    /// The first line of a swapped pair, written after its successor.
    held: Vec<u8>,
}

impl<R: Read, W: Write> Pass<'_, R, W> {
    /// Reads the next line into `line` and claims it; `false` at the
    /// log's end. `pending`, the line before it, is not yet written, so
    /// its bytes stay in the buffer when it is refilled.
    fn read_line(&mut self, line: &mut Line, mut pending: Option<&mut Line>) -> io::Result<bool> {
        loop {
            match self.lines.next() {
                Next::Line(bytes, last) => {
                    self.injector
                        .claim(line, &self.lines.buf[bytes.clone()], last);
                    line.start = bytes.start;
                    line.end = bytes.end;
                    line.after = self.lines.at;
                    return Ok(true);
                }
                Next::End => return Ok(false),
                Next::Refill => {
                    if self.lines.full() {
                        // The run of kept lines goes out before its bytes
                        // are dropped.
                        let keep = pending.as_ref().map_or(self.lines.at, |p| p.start);
                        self.out.write_all(&self.lines.buf[self.run..keep])?;
                        self.lines.drop_front(keep);
                        if let Some(pending) = pending.as_mut() {
                            pending.shift(keep);
                        }
                        self.run = 0;
                    }
                    self.lines.read()?;
                }
            }
        }
    }

    /// Writes `line`, settled, unless it only extends the run of kept
    /// lines; then the run starts after it.
    fn write(&mut self, line: &Line) -> io::Result<()> {
        if line.fate == Fate::Keep {
            return Ok(());
        }
        let buf = &self.lines.buf;
        let bytes = &buf[line.start..line.end];
        self.out.write_all(&buf[self.run..line.start])?;
        match line.fate {
            Fate::Keep => {}
            Fate::Mutated => push_line(&mut self.out, &line.mutated)?,
            Fate::Duplicate => {
                push_line(&mut self.out, bytes)?;
                push_line(&mut self.out, bytes)?;
            }
            Fate::ReorderFirst => {
                self.held.clear();
                self.held.extend_from_slice(bytes);
            }
            Fate::ReorderSecond => {
                push_line(&mut self.out, bytes)?;
                push_line(&mut self.out, &self.held)?;
            }
            Fate::Crlf => {
                self.out.write_all(bytes)?;
                self.out.write_all(b"\r\n")?;
            }
            Fate::Truncate { keep } => self.out.write_all(&bytes[..keep])?,
        }
        self.run = line.after;
        Ok(())
    }
}

/// Corrupts one log from `input` to `out`. Classes claim victims in
/// [`FaultClass::ALL`] order: every class but the last two needs only
/// the line (and whether it is the last), `reorder` also needs its
/// successor's claim, so lines are claimed one ahead of being settled
/// and written.
///
/// Lines are found in the read buffer, not copied out of it: a line no
/// class claims is left there as part of a run of such lines, and each
/// run is written as one slice, its bytes as they were read, `\r`s and a
/// missing final `\n` included.
fn corrupt_log<R: Read, W: Write>(
    input: R,
    out: W,
    file: &str,
    seed: u64,
    spec: &FaultSpec,
) -> io::Result<FileCorruption> {
    let mut pass = Pass {
        lines: LineReader::new(input),
        out,
        injector: Injector::new(spec, seed, file),
        run: 0,
        held: Vec::new(),
    };
    let (mut line, mut next) = (Line::new(), Line::new());
    let mut more = pass.read_line(&mut line, None)?;
    while more {
        more = pass.read_line(&mut next, Some(&mut line))?;
        pass.injector.settle(&mut line, more.then_some(&mut next));
        pass.write(&line)?;
        std::mem::swap(&mut line, &mut next);
    }
    let lines = &pass.lines;
    pass.out.write_all(&lines.buf[pass.run..lines.at])?;
    Ok(FileCorruption {
        file: file.to_string(),
        lines: lines.count,
        counts: pass.injector.counts,
    })
}

fn push_line<W: Write>(out: &mut W, line: &[u8]) -> io::Result<()> {
    out.write_all(line)?;
    out.write_all(b"\n")
}

/// The end of a line's first field: its first tab, or the line's end.
fn field_end(line: &[u8]) -> usize {
    find_byte(line, b'\t').unwrap_or(line.len())
}

/// An independent deterministic stream per (seed, class, file).
fn class_rng(seed: u64, class: FaultClass, file: &str) -> StdRng {
    StdRng::seed_from_u64(seed ^ fnv1a(class.name()) ^ fnv1a(file).rotate_left(17))
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The position in `field` of one of its ASCII digits, drawn uniformly;
/// `None` if it has none.
fn draw_digit(field: &[u8], rng: &mut StdRng) -> Option<usize> {
    let digits = field.iter().filter(|b| b.is_ascii_digit()).count();
    if digits == 0 {
        return None;
    }
    let nth = rng.random_range(0..digits);
    field
        .iter()
        .enumerate()
        .filter(|(_, b)| b.is_ascii_digit())
        .nth(nth)
        .map(|(i, _)| i)
}

/// Sets bit 6 on one digit of the first field, turning `0x30..0x39` into
/// `p..y` — a single flipped storage bit that breaks the numeric parse.
fn bitflip(line: &[u8], rng: &mut StdRng, out: &mut Vec<u8>) {
    out.clear();
    match draw_digit(&line[..field_end(line)], rng) {
        Some(pos) => {
            out.extend_from_slice(line);
            out[pos] |= 0x40;
        }
        None => {
            out.push(b'\x7f');
            out.extend_from_slice(line);
        }
    }
}

/// A line of printable junk with no tabs — nothing the codec can parse.
fn garbage(rng: &mut StdRng, out: &mut Vec<u8>) {
    const CHARSET: &[u8] = b"#@!$%^&*~abcdefghjkmnpqrstuvwxyz";
    let len = rng.random_range(5..24usize);
    out.clear();
    out.extend((0..len).map(|_| CHARSET[rng.random_range(0..CHARSET.len())]));
}

/// Bumps one digit of the IMEI field (index 2) by one, which always breaks
/// the Luhn checksum — the record now names a device no DB row matches.
fn bad_imei(line: &[u8], rng: &mut StdRng, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(line);
    let mut fields = line.split(|&b| b == b'\t');
    let start: usize = fields.by_ref().take(2).map(|f| f.len() + 1).sum();
    if let Some(pos) = fields.next().and_then(|imei| draw_digit(imei, rng)) {
        let pos = start + pos;
        out[pos] = b'0' + (out[pos] - b'0' + 1) % 10;
    }
}

/// Pushes the timestamp (field 0, seconds) ten years forward.
fn skew(line: &[u8], out: &mut Vec<u8>) {
    let end = field_end(line);
    let secs = std::str::from_utf8(&line[..end])
        .ok()
        .and_then(|ts| ts.parse::<u64>().ok());
    out.clear();
    match secs {
        Some(secs) => {
            write!(out, "{}", secs + SKEW_OFFSET_SECS).expect("a Vec takes every byte");
            out.extend_from_slice(&line[end..]);
        }
        None => out.extend_from_slice(line),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proxy_line(i: u64) -> String {
        format!(
            "{}\t{}\t356656100000000\thost-{}.example.com\thttps\t{}\t{}",
            i * 60,
            i % 7,
            i % 3,
            100 + i,
            40 + i
        )
    }

    fn sample_log(lines: u64) -> String {
        (0..lines).map(|i| proxy_line(i) + "\n").collect()
    }

    /// A reader that hands out at most seven bytes a read.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.0.len()).min(7);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// [`corrupt_log`] over bytes in memory, read seven bytes at a time
    /// so lines straddle the reads.
    fn corrupt_bytes(log: &[u8], seed: u64, spec: &FaultSpec) -> (Vec<u8>, FileCorruption) {
        let mut out = Vec::new();
        let report = corrupt_log(Trickle(log), &mut out, "proxy.log", seed, spec).unwrap();
        (out, report)
    }

    /// A mutator's line.
    fn mutated(mutate: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = b"left over".to_vec();
        mutate(&mut out);
        out
    }

    /// [`corrupt_log`] over text that stays text.
    fn corrupt_text(log: &str, seed: u64, spec: &FaultSpec) -> (String, FileCorruption) {
        let (out, report) = corrupt_bytes(log.as_bytes(), seed, spec);
        (String::from_utf8(out).unwrap(), report)
    }

    fn text(bytes: Vec<u8>) -> String {
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn same_inputs_same_bytes() {
        let log = sample_log(200);
        let spec: FaultSpec = "all=0.05".parse().unwrap();
        let (a, ra) = corrupt_text(&log, 7, &spec);
        let (b, rb) = corrupt_text(&log, 7, &spec);
        assert_eq!(a, b);
        assert_eq!(ra.counts, rb.counts);
        assert!(ra.total() > 0);
        let (c, _) = corrupt_text(&log, 8, &spec);
        assert_ne!(a, c, "different seed must move the faults");
    }

    #[test]
    fn classes_draw_independent_streams() {
        let log = sample_log(400);
        let solo: FaultSpec = "bitflip=0.03".parse().unwrap();
        let mixed: FaultSpec = "bitflip=0.03,dup=0.05,crlf=0.05".parse().unwrap();
        let (a, ra) = corrupt_text(&log, 11, &solo);
        let (b, rb) = corrupt_text(&log, 11, &mixed);
        assert_eq!(
            ra.count(FaultClass::BitFlip),
            rb.count(FaultClass::BitFlip),
            "adding classes must not move bitflip victims"
        );
        // The same garbled first fields appear in both outputs.
        let flipped = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| {
                    l.split('\t')
                        .next()
                        .is_some_and(|f| f.bytes().any(|b| b.is_ascii_alphabetic()))
                })
                .map(str::to_string)
                .collect()
        };
        assert_eq!(flipped(&a), flipped(&b));
    }

    #[test]
    fn truncate_cuts_inside_the_first_field() {
        let log = sample_log(50);
        let spec = FaultSpec::single(FaultClass::Truncate, 1.0);
        let (out, report) = corrupt_text(&log, 3, &spec);
        assert_eq!(report.count(FaultClass::Truncate), 1);
        assert!(!out.ends_with('\n'), "tail must be cut, not line-aligned");
        let tail = out.rsplit('\n').next().unwrap();
        assert!(!tail.is_empty() && !tail.contains('\t'), "tail {tail:?}");
    }

    #[test]
    fn duplicate_and_reorder_change_structure_not_content() {
        let log = sample_log(100);
        let spec: FaultSpec = "dup=0.1,reorder=0.1".parse().unwrap();
        let (out, report) = corrupt_text(&log, 5, &spec);
        let dups = report.count(FaultClass::Duplicate);
        let swaps = report.count(FaultClass::Reorder);
        assert!(dups > 0 && swaps > 0);
        assert_eq!(out.lines().count() as u64, 100 + dups);
        // Every original line is still present (reorder/dup lose nothing).
        for i in 0..100 {
            assert!(out.contains(&proxy_line(i)), "line {i} lost");
        }
    }

    #[test]
    fn mutators_break_exactly_what_they_claim() {
        let mut rng = StdRng::seed_from_u64(1);
        let line = proxy_line(42);
        let flipped = text(mutated(|out| bitflip(line.as_bytes(), &mut rng, out)));
        assert!(flipped.split('\t').next().unwrap().parse::<u64>().is_err());
        let bad = text(mutated(|out| bad_imei(line.as_bytes(), &mut rng, out)));
        let imei_field: Vec<&str> = bad.split('\t').collect();
        assert_ne!(imei_field[2], "356656100000000");
        assert_eq!(imei_field[2].len(), 15);
        let skewed = text(mutated(|out| skew(line.as_bytes(), out)));
        let ts: u64 = skewed.split('\t').next().unwrap().parse().unwrap();
        assert!(ts >= SKEW_OFFSET_SECS);
        assert!(!mutated(|out| garbage(&mut rng, out)).contains(&b'\t'));
    }

    #[test]
    fn empty_log_is_left_alone() {
        let spec: FaultSpec = "all=0.5".parse().unwrap();
        let (out, report) = corrupt_bytes(b"", 1, &spec);
        assert!(out.is_empty());
        assert_eq!(report.total(), 0);
        assert_eq!(report.lines, 0);
    }

    /// The injector as it was before it streamed: the whole log in
    /// memory, one pass per class over a vector of fates. The streaming
    /// [`corrupt_log`] must give the same bytes and counts.
    fn corrupt_in_memory(
        content: &[u8],
        file: &str,
        seed: u64,
        spec: &FaultSpec,
    ) -> (Vec<u8>, FileCorruption) {
        #[derive(Clone, Copy, PartialEq)]
        enum F {
            Keep,
            Mutated,
            Duplicate,
            ReorderFirst,
            ReorderSecond,
            Crlf,
            Truncate,
        }
        let mut lines: Vec<Vec<u8>> = content.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
        let terminated = content.last() == Some(&b'\n');
        if terminated || content.is_empty() {
            lines.pop();
        }
        let n = lines.len();
        let mut counts = [0u64; 8];
        let mut fates = vec![F::Keep; n];
        let mut truncate_keep = 0usize;
        for class in spec.classes() {
            let mut rng = class_rng(seed, class, file);
            let rate = spec.rate(class);
            match class {
                FaultClass::Truncate => {
                    if n > 0 && fates[n - 1] == F::Keep {
                        let first = field_end(&lines[n - 1]);
                        truncate_keep = if first > 1 {
                            rng.random_range(1..first)
                        } else {
                            first.min(1)
                        };
                        fates[n - 1] = F::Truncate;
                        counts[class.index()] = 1;
                    }
                }
                FaultClass::Reorder => {
                    for i in 0..n {
                        let hit = rng.random_bool(rate);
                        if hit && i + 1 < n && fates[i] == F::Keep && fates[i + 1] == F::Keep {
                            fates[i] = F::ReorderFirst;
                            fates[i + 1] = F::ReorderSecond;
                            counts[class.index()] += 1;
                        }
                    }
                }
                _ => {
                    for i in 0..n {
                        let hit = rng.random_bool(rate);
                        if !hit || fates[i] != F::Keep {
                            continue;
                        }
                        counts[class.index()] += 1;
                        fates[i] = F::Mutated;
                        match class {
                            FaultClass::BitFlip => {
                                lines[i] = mutated(|out| bitflip(&lines[i], &mut rng, out))
                            }
                            FaultClass::Garbage => lines[i] = mutated(|out| garbage(&mut rng, out)),
                            FaultClass::BadImei => {
                                lines[i] = mutated(|out| bad_imei(&lines[i], &mut rng, out))
                            }
                            FaultClass::Skew => lines[i] = mutated(|out| skew(&lines[i], out)),
                            FaultClass::Duplicate => fates[i] = F::Duplicate,
                            FaultClass::Crlf => fates[i] = F::Crlf,
                            FaultClass::Truncate | FaultClass::Reorder => unreachable!(),
                        }
                    }
                }
            }
        }
        let mut out = Vec::new();
        let push = |out: &mut Vec<u8>, line: &[u8]| {
            out.extend_from_slice(line);
            out.push(b'\n');
        };
        let mut i = 0;
        while i < n {
            match fates[i] {
                F::Keep | F::Mutated => push(&mut out, &lines[i]),
                F::Duplicate => {
                    push(&mut out, &lines[i]);
                    push(&mut out, &lines[i]);
                }
                F::ReorderFirst => {
                    push(&mut out, &lines[i + 1]);
                    push(&mut out, &lines[i]);
                    i += 1;
                }
                F::ReorderSecond => unreachable!("consumed by ReorderFirst"),
                F::Crlf => {
                    out.extend_from_slice(&lines[i]);
                    out.extend_from_slice(b"\r\n");
                }
                F::Truncate => out.extend_from_slice(&lines[i][..truncate_keep]),
            }
            i += 1;
        }
        if n > 0 && !terminated && fates[n - 1] == F::Keep {
            out.pop();
        }
        let corruption = FileCorruption {
            file: file.to_string(),
            lines: n as u64,
            counts,
        };
        (out, corruption)
    }

    /// The streaming injector and the in-memory one agree on `log` under
    /// a spread of specs and seeds.
    fn assert_matches_in_memory(log: &[u8]) {
        let specs = [
            "all",
            "all=0.2",
            "dup=0",
            "truncate",
            "reorder=0.3,crlf=0.3",
            "truncate,dup=0.5,reorder=0.5",
            "reorder=1",
            "bitflip=0.4,garbage=0.3,badimei=0.3,skew=0.3",
        ];
        for spec in specs {
            let spec: FaultSpec = spec.parse().unwrap();
            for seed in [3, 5] {
                let (streamed, got) = corrupt_bytes(log, seed, &spec);
                let (expected, want) = corrupt_in_memory(log, "proxy.log", seed, &spec);
                assert_eq!(streamed, expected, "spec {spec:?} seed {seed}");
                assert_eq!((got.lines, got.counts), (want.lines, want.counts));
            }
        }
    }

    #[test]
    fn streaming_matches_the_in_memory_injector() {
        assert_matches_in_memory(sample_log(500).as_bytes());
        assert_matches_in_memory(b"");
        assert_matches_in_memory(b"\n\n\n");
        assert_matches_in_memory(b"x");
        // `\r\n` endings, a `0xff` byte, blank lines, and no final `\n`.
        let mut odd = Vec::new();
        for i in 0..300 {
            odd.extend_from_slice(proxy_line(i).as_bytes());
            odd.extend_from_slice(match i % 7 {
                0 => b"\r\n",
                3 => b"\n\n",
                5 => b"\n\r\n",
                _ => b"\n",
            });
        }
        odd[100] = 0xff;
        assert_matches_in_memory(&odd);
        odd.extend_from_slice(proxy_line(300).as_bytes());
        assert_matches_in_memory(&odd);
        // More lines than the read buffer holds, and a line longer than it
        // among them, so that runs and pending lines cross its refills.
        let mut long = sample_log(1500).into_bytes();
        long.extend_from_slice(
            proxy_line(7)
                .replace("host", &"h".repeat(BUFFER + 3))
                .as_bytes(),
        );
        long.extend_from_slice(b"\r\n\n");
        long.extend_from_slice(sample_log(1500).as_bytes());
        long.extend_from_slice(b"no final newline");
        assert_matches_in_memory(&long);
    }

    #[test]
    fn an_unterminated_last_line_is_kept_unterminated_or_claimed() {
        let mut log = sample_log(40);
        log.push_str(&proxy_line(40));
        assert_matches_in_memory(log.as_bytes());
        let spec: FaultSpec = "dup=0".parse().unwrap();
        assert_eq!(corrupt_text(&log, 3, &spec).0, log);
        // Duplicated, the last line gains the `\n` that separates the two.
        let spec: FaultSpec = "dup=1".parse().unwrap();
        let (out, report) = corrupt_text(&log, 3, &spec);
        assert_eq!(report.count(FaultClass::Duplicate), 41);
        assert!(out.ends_with(&format!("{0}\n{0}\n", proxy_line(40))));
    }

    #[test]
    fn crlf_lines_stream_byte_for_byte() {
        let log: String = (0..80)
            .map(|i| proxy_line(i) + if i % 2 == 0 { "\r\n" } else { "\n" })
            .collect();
        assert_matches_in_memory(log.as_bytes());
        let spec: FaultSpec = "crlf=0.5".parse().unwrap();
        let (out, report) = corrupt_text(&log, 5, &spec);
        assert!(report.count(FaultClass::Crlf) > 0);
        assert_eq!(out.lines().count(), 80);
    }

    #[test]
    fn a_non_utf8_byte_streams_as_line_content() {
        let mut log = sample_log(60).into_bytes();
        log[10] = 0xff;
        assert_matches_in_memory(&log);
        let spec: FaultSpec = "dup=0".parse().unwrap();
        assert_eq!(corrupt_bytes(&log, 3, &spec).0, log);
    }

    #[test]
    fn a_one_line_log_is_truncated_inside_its_first_field() {
        let log = format!("{}\n", proxy_line(30));
        assert_matches_in_memory(log.as_bytes());
        let spec = FaultSpec::single(FaultClass::Truncate, 1.0);
        let (out, report) = corrupt_text(&log, 3, &spec);
        assert_eq!((report.lines, report.count(FaultClass::Truncate)), (1, 1));
        assert!(!out.is_empty() && log.starts_with(&out) && !out.contains('\t'));
    }

    #[test]
    fn the_last_pair_can_be_swapped() {
        // At rate 1 every free pair swaps: (0, 1) and (2, 3).
        let spec: FaultSpec = "reorder=1".parse().unwrap();
        for log in ["a\nb\nc\nd\n", "a\nb\nc\nd"] {
            assert_matches_in_memory(log.as_bytes());
            let (out, report) = corrupt_text(log, 7, &spec);
            assert_eq!(out, "b\na\nd\nc\n");
            assert_eq!(report.count(FaultClass::Reorder), 2);
        }
    }

    #[test]
    fn a_line_longer_than_the_buffer_streams_whole() {
        let long = format!(
            "1\t2\t356656100000000\t{}\thttps\t3\t4",
            "h".repeat(3 * BUFFER)
        );
        let mut log = sample_log(20);
        log.push_str(&long);
        log.push('\n');
        log.push_str(&sample_log(20));
        assert_matches_in_memory(log.as_bytes());
        let dir = world_with_proxy_log("long-line", log.as_bytes());
        let spec: FaultSpec = "dup=0".parse().unwrap();
        corrupt_world(&dir, 3, &spec).unwrap();
        assert_eq!(std::fs::read_to_string(dir.join("proxy.log")).unwrap(), log);
        assert!(!dir.join("proxy.log.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_missing_log_fails_and_leaves_no_temp_file() {
        let dir = world_with_proxy_log("missing", sample_log(5).as_bytes());
        std::fs::remove_file(dir.join("mme.log")).unwrap();
        let spec: FaultSpec = "all".parse().unwrap();
        let err = corrupt_world(&dir, 3, &spec).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(left, ["proxy.log"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A world directory holding `proxy` and a clean `mme.log`.
    fn world_with_proxy_log(tag: &str, proxy: &[u8]) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wearscope-faults-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("proxy.log"), proxy).unwrap();
        let mme: String = (0..60)
            .map(|i| format!("{}\t{}\t356656100000000\tattach\t3\n", i * 90, i % 5))
            .collect();
        std::fs::write(dir.join("mme.log"), mme).unwrap();
        dir
    }

    #[test]
    fn a_log_with_a_non_utf8_byte_is_corrupted_and_untouched_lines_keep_their_bytes() {
        let mut lines: Vec<Vec<u8>> = (0..120).map(|i| proxy_line(i).into_bytes()).collect();
        let dash = lines[3].iter().position(|&b| b == b'-').unwrap();
        lines[3][dash] = 0xff;
        let log: Vec<u8> = lines
            .iter()
            .flat_map(|l| [&l[..], b"\n"].concat())
            .collect();
        let dir = world_with_proxy_log("non-utf8", &log);
        let spec: FaultSpec = "bitflip=0.05".parse().unwrap();
        let report = corrupt_world(&dir, 9, &spec).unwrap();
        let out = std::fs::read(dir.join("proxy.log")).unwrap();
        let out: Vec<&[u8]> = out
            .strip_suffix(b"\n")
            .unwrap()
            .split(|&b| b == b'\n')
            .collect();
        assert_eq!(out.len(), lines.len());
        let changed = out
            .iter()
            .zip(&lines)
            .filter(|(o, l)| **o != &l[..])
            .count();
        assert!(changed > 0);
        assert_eq!(report.files[0].file, "proxy.log");
        assert_eq!(changed as u64, report.files[0].count(FaultClass::BitFlip));
        assert_eq!(
            out[3],
            &lines[3][..],
            "the 0xff line is not a victim, so it is kept"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_spec_that_injects_nothing_leaves_crlf_lines_byte_identical() {
        let mut log = String::new();
        for i in 0..60 {
            log.push_str(&proxy_line(i));
            log.push_str(if i % 3 == 0 { "\r\n" } else { "\n" });
        }
        log.push_str(&proxy_line(60)); // no final newline
        let dir = world_with_proxy_log("crlf", log.as_bytes());
        let spec: FaultSpec = "dup=0".parse().unwrap();
        let report = corrupt_world(&dir, 3, &spec).unwrap();
        assert_eq!(report.total(), 0);
        assert_eq!(std::fs::read_to_string(dir.join("proxy.log")).unwrap(), log);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_world_rewrites_both_logs() {
        let dir = std::env::temp_dir().join(format!("wearscope-faults-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("proxy.log"), sample_log(120)).unwrap();
        std::fs::write(
            dir.join("mme.log"),
            (0..60)
                .map(|i| format!("{}\t{}\t356656100000000\tattach\t3\n", i * 90, i % 5))
                .collect::<String>(),
        )
        .unwrap();
        let spec: FaultSpec = "garbage=0.05".parse().unwrap();
        let report = corrupt_world(&dir, 9, &spec).unwrap();
        assert_eq!(report.files.len(), 2);
        assert!(report.total() > 0);
        assert!(report.render().contains("proxy.log"));
        let rendered = report.render();
        assert!(rendered.contains("seed 9"), "{rendered}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
