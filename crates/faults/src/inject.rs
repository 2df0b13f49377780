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
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    let input = BufReader::with_capacity(BUFFER, File::open(path)?);
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

/// One log line, without its `\n`, and what becomes of it.
struct Line {
    bytes: Vec<u8>,
    fate: Fate,
}

/// A log's lines, read one ahead so each is known to be the last or not.
struct Lines<R> {
    input: R,
    ahead: Option<Vec<u8>>,
    /// Lines handed out.
    count: u64,
    /// `false` once a line without a final `\n` was read.
    terminated: bool,
}

impl<R: BufRead> Lines<R> {
    fn new(input: R) -> io::Result<Lines<R>> {
        let mut lines = Lines {
            input,
            ahead: None,
            count: 0,
            terminated: true,
        };
        lines.ahead = lines.read()?;
        Ok(lines)
    }

    fn read(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut line = Vec::new();
        if self.input.read_until(b'\n', &mut line)? == 0 {
            return Ok(None);
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        } else {
            self.terminated = false;
        }
        Ok(Some(line))
    }

    /// The next line, and whether it is the log's last.
    fn next(&mut self) -> io::Result<Option<(Vec<u8>, bool)>> {
        let Some(line) = self.ahead.take() else {
            return Ok(None);
        };
        self.ahead = self.read()?;
        self.count += 1;
        Ok(Some((line, self.ahead.is_none())))
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
    fn claim(&mut self, bytes: Vec<u8>, last: bool) -> Line {
        let mut line = Line {
            bytes,
            fate: Fate::Keep,
        };
        if last {
            if let Some(rng) = self.rngs[FaultClass::Truncate.index()].as_mut() {
                // One cut per file: drop the tail of the last line, ending
                // it inside its first field so the reader sees a record
                // with a missing field, exactly like a writer that died.
                let first = field_end(&line.bytes);
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
            (line.bytes, line.fate) = match class {
                FaultClass::BitFlip => (bitflip(&line.bytes, rng), Fate::Mutated),
                FaultClass::Garbage => (garbage(rng), Fate::Mutated),
                FaultClass::BadImei => (bad_imei(&line.bytes, rng), Fate::Mutated),
                FaultClass::Skew => (skew(&line.bytes), Fate::Mutated),
                _ => (line.bytes, Fate::Duplicate),
            };
            self.counts[class.index()] += 1;
        }
        line
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

/// Corrupts one log from `input` to `out`, a line at a time. Classes
/// claim victims in [`FaultClass::ALL`] order: every class but the last
/// two needs only the line (and whether it is the last), `reorder` also
/// needs its successor's claim, so lines are claimed one ahead of being
/// settled and written.
fn corrupt_log<R: BufRead, W: Write>(
    input: R,
    out: &mut W,
    file: &str,
    seed: u64,
    spec: &FaultSpec,
) -> io::Result<FileCorruption> {
    let mut lines = Lines::new(input)?;
    let mut injector = Injector::new(spec, seed, file);
    let mut next = lines.next()?.map(|(b, last)| injector.claim(b, last));
    // The first line of a swapped pair, written after its successor.
    let mut held: Option<Vec<u8>> = None;
    while let Some(mut line) = next.take() {
        next = lines.next()?.map(|(b, last)| injector.claim(b, last));
        injector.settle(&mut line, next.as_mut());
        match line.fate {
            // An unterminated last line that no fault claimed stays
            // unterminated.
            Fate::Keep if next.is_none() && !lines.terminated => out.write_all(&line.bytes)?,
            Fate::Keep | Fate::Mutated => push_line(out, &line.bytes)?,
            Fate::Duplicate => {
                push_line(out, &line.bytes)?;
                push_line(out, &line.bytes)?;
            }
            Fate::ReorderFirst => held = Some(line.bytes),
            Fate::ReorderSecond => {
                push_line(out, &line.bytes)?;
                push_line(out, &held.take().expect("held by ReorderFirst"))?;
            }
            Fate::Crlf => {
                out.write_all(&line.bytes)?;
                out.write_all(b"\r\n")?;
            }
            Fate::Truncate { keep } => out.write_all(&line.bytes[..keep])?,
        }
    }
    Ok(FileCorruption {
        file: file.to_string(),
        lines: lines.count,
        counts: injector.counts,
    })
}

fn push_line<W: Write>(out: &mut W, line: &[u8]) -> io::Result<()> {
    out.write_all(line)?;
    out.write_all(b"\n")
}

/// The end of a line's first field: its first tab, or the line's end.
fn field_end(line: &[u8]) -> usize {
    line.iter().position(|&b| b == b'\t').unwrap_or(line.len())
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

/// Positions of the ASCII digits in `field`.
fn digit_positions(field: &[u8]) -> Vec<usize> {
    (0..field.len())
        .filter(|&i| field[i].is_ascii_digit())
        .collect()
}

/// Sets bit 6 on one digit of the first field, turning `0x30..0x39` into
/// `p..y` — a single flipped storage bit that breaks the numeric parse.
fn bitflip(line: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let digits = digit_positions(&line[..field_end(line)]);
    let mut bytes = line.to_vec();
    if digits.is_empty() {
        bytes.insert(0, b'\x7f');
    } else {
        let pos = digits[rng.random_range(0..digits.len())];
        bytes[pos] |= 0x40;
    }
    bytes
}

/// A line of printable junk with no tabs — nothing the codec can parse.
fn garbage(rng: &mut StdRng) -> Vec<u8> {
    const CHARSET: &[u8] = b"#@!$%^&*~abcdefghjkmnpqrstuvwxyz";
    let len = rng.random_range(5..24usize);
    (0..len)
        .map(|_| CHARSET[rng.random_range(0..CHARSET.len())])
        .collect()
}

/// Bumps one digit of the IMEI field (index 2) by one, which always breaks
/// the Luhn checksum — the record now names a device no DB row matches.
fn bad_imei(line: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = line.to_vec();
    let mut fields = line.split(|&b| b == b'\t');
    let start: usize = fields.by_ref().take(2).map(|f| f.len() + 1).sum();
    if let Some(imei) = fields.next() {
        let digits = digit_positions(imei);
        if !digits.is_empty() {
            let pos = start + digits[rng.random_range(0..digits.len())];
            bytes[pos] = b'0' + (bytes[pos] - b'0' + 1) % 10;
        }
    }
    bytes
}

/// Pushes the timestamp (field 0, seconds) ten years forward.
fn skew(line: &[u8]) -> Vec<u8> {
    let end = field_end(line);
    let secs = std::str::from_utf8(&line[..end])
        .ok()
        .and_then(|ts| ts.parse::<u64>().ok());
    match secs {
        Some(secs) => {
            let mut bytes = (secs + SKEW_OFFSET_SECS).to_string().into_bytes();
            bytes.extend_from_slice(&line[end..]);
            bytes
        }
        None => line.to_vec(),
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

    /// [`corrupt_log`] over bytes in memory, read through a 7-byte buffer
    /// so lines straddle its refills.
    fn corrupt_bytes(log: &[u8], seed: u64, spec: &FaultSpec) -> (Vec<u8>, FileCorruption) {
        let mut out = Vec::new();
        let input = BufReader::with_capacity(7, log);
        let report = corrupt_log(input, &mut out, "proxy.log", seed, spec).unwrap();
        (out, report)
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
        let flipped = text(bitflip(line.as_bytes(), &mut rng));
        assert!(flipped.split('\t').next().unwrap().parse::<u64>().is_err());
        let bad = text(bad_imei(line.as_bytes(), &mut rng));
        let imei_field: Vec<&str> = bad.split('\t').collect();
        assert_ne!(imei_field[2], "356656100000000");
        assert_eq!(imei_field[2].len(), 15);
        let skewed = text(skew(line.as_bytes()));
        let ts: u64 = skewed.split('\t').next().unwrap().parse().unwrap();
        assert!(ts >= SKEW_OFFSET_SECS);
        assert!(!garbage(&mut rng).contains(&b'\t'));
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
                            FaultClass::BitFlip => lines[i] = bitflip(&lines[i], &mut rng),
                            FaultClass::Garbage => lines[i] = garbage(&mut rng),
                            FaultClass::BadImei => lines[i] = bad_imei(&lines[i], &mut rng),
                            FaultClass::Skew => lines[i] = skew(&lines[i]),
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
