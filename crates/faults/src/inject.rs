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

use std::borrow::Cow;
use std::io;
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

/// Corrupts the world under `dir` in place.
///
/// # Errors
/// Propagates I/O errors reading or rewriting `proxy.log` / `mme.log`
/// (both must exist — this is the same layout `wearscope generate` saves).
pub fn corrupt_world(dir: &Path, seed: u64, spec: &FaultSpec) -> io::Result<CorruptionReport> {
    let mut files = Vec::new();
    for file in ["proxy.log", "mme.log"] {
        let path = dir.join(file);
        let content = std::fs::read(&path)?;
        let (corrupted, corruption) = corrupt_log(&content, file, seed, spec);
        std::fs::write(&path, corrupted)?;
        files.push(corruption);
    }
    Ok(CorruptionReport { seed, files })
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
    /// The file tail is cut inside this (final) line.
    Truncate,
}

/// Pure corruption of one log's bytes. Exposed to the unit tests; the
/// public entry point is [`corrupt_world`]. Lines stay borrowed from
/// `content` unless a fault rewrites them.
fn corrupt_log(
    content: &[u8],
    file: &str,
    seed: u64,
    spec: &FaultSpec,
) -> (Vec<u8>, FileCorruption) {
    let mut lines: Vec<Cow<[u8]>> = content.split(|&b| b == b'\n').map(Cow::Borrowed).collect();
    // A final `\n` ends the last line rather than starting an empty one.
    let terminated = content.last() == Some(&b'\n');
    if terminated || content.is_empty() {
        lines.pop();
    }
    let n = lines.len();
    let mut corruption = FileCorruption {
        file: file.to_string(),
        lines: n as u64,
        counts: [0; 8],
    };
    if n == 0 {
        return (content.to_vec(), corruption);
    }

    let mut fates = vec![Fate::Keep; n];
    let mut truncate_keep = 0usize;
    for class in spec.classes() {
        let mut rng = class_rng(seed, class, file);
        let rate = spec.rate(class);
        match class {
            FaultClass::Truncate => {
                // One cut per file: drop the tail of the last line, ending
                // it inside its first field so the reader sees a record
                // with a missing field, exactly like a writer that died.
                if fates[n - 1] == Fate::Keep {
                    let first = field_end(&lines[n - 1]);
                    truncate_keep = if first > 1 {
                        rng.random_range(1..first)
                    } else {
                        first.min(1)
                    };
                    fates[n - 1] = Fate::Truncate;
                    corruption.counts[class.index()] = 1;
                }
            }
            FaultClass::Reorder => {
                for i in 0..n {
                    // One draw per line, claimed or not, so this class's
                    // victims do not depend on what others selected.
                    let hit = rng.random_bool(rate);
                    if hit && i + 1 < n && fates[i] == Fate::Keep && fates[i + 1] == Fate::Keep {
                        fates[i] = Fate::ReorderFirst;
                        fates[i + 1] = Fate::ReorderSecond;
                        corruption.counts[class.index()] += 1;
                    }
                }
            }
            _ => {
                for i in 0..n {
                    let hit = rng.random_bool(rate);
                    if !hit || fates[i] != Fate::Keep {
                        continue;
                    }
                    corruption.counts[class.index()] += 1;
                    match class {
                        FaultClass::BitFlip => {
                            lines[i] = Cow::Owned(bitflip(&lines[i], &mut rng));
                            fates[i] = Fate::Mutated;
                        }
                        FaultClass::Garbage => {
                            lines[i] = Cow::Owned(garbage(&mut rng));
                            fates[i] = Fate::Mutated;
                        }
                        FaultClass::BadImei => {
                            lines[i] = Cow::Owned(bad_imei(&lines[i], &mut rng));
                            fates[i] = Fate::Mutated;
                        }
                        FaultClass::Skew => {
                            lines[i] = Cow::Owned(skew(&lines[i]));
                            fates[i] = Fate::Mutated;
                        }
                        FaultClass::Duplicate => fates[i] = Fate::Duplicate,
                        FaultClass::Crlf => fates[i] = Fate::Crlf,
                        FaultClass::Truncate | FaultClass::Reorder => unreachable!(),
                    }
                }
            }
        }
    }

    let mut out = Vec::with_capacity(content.len() + 64);
    let mut i = 0;
    while i < n {
        match fates[i] {
            Fate::Keep | Fate::Mutated => push_line(&mut out, &lines[i]),
            Fate::Duplicate => {
                push_line(&mut out, &lines[i]);
                push_line(&mut out, &lines[i]);
            }
            Fate::ReorderFirst => {
                push_line(&mut out, &lines[i + 1]);
                push_line(&mut out, &lines[i]);
                i += 1;
            }
            Fate::ReorderSecond => unreachable!("consumed by ReorderFirst"),
            Fate::Crlf => {
                out.extend_from_slice(&lines[i]);
                out.extend_from_slice(b"\r\n");
            }
            Fate::Truncate => out.extend_from_slice(&lines[i][..truncate_keep]),
        }
        i += 1;
    }
    // An unterminated last line that no fault claimed stays unterminated.
    if !terminated && fates[n - 1] == Fate::Keep {
        out.pop();
    }
    (out, corruption)
}

fn push_line(out: &mut Vec<u8>, line: &[u8]) {
    out.extend_from_slice(line);
    out.push(b'\n');
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

    /// [`corrupt_log`] over text that stays text.
    fn corrupt_text(log: &str, seed: u64, spec: &FaultSpec) -> (String, FileCorruption) {
        let (out, report) = corrupt_log(log.as_bytes(), "proxy.log", seed, spec);
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
        let (out, report) = corrupt_log(b"", "proxy.log", 1, &spec);
        assert!(out.is_empty());
        assert_eq!(report.total(), 0);
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
