//! Integrity checks for a saved world's metadata files.
//!
//! [`GeneratedWorld::save`](crate::GeneratedWorld::save) records, for each
//! file in [`CHECKED`], its line count and FNV-1a checksum in
//! `manifest.tsv`, one `check<TAB>file<TAB>lines<TAB>checksum` line each
//! (the checksum in hex). The metadata loader verifies them, so a cut or
//! altered summary is a typed `manifest.tsv:` error instead of a silently
//! different report. The multi-megabyte logs are not checked here: the
//! loader validates them record by record.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// The metadata files a manifest checks, in manifest order.
pub const CHECKED: [&str; 3] = ["summary_mme.tsv", "summary_traffic.tsv", "sectors.tsv"];

/// The 64-bit FNV-1a hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Lines in `bytes`: newlines, plus one for an unterminated last line.
fn lines(bytes: &[u8]) -> u64 {
    let newlines = bytes.iter().filter(|&&b| b == b'\n').count() as u64;
    newlines + u64::from(bytes.last().is_some_and(|&b| b != b'\n'))
}

/// `(lines, checksum)` of the file `name` under `dir`.
fn measure(dir: &Path, name: &str) -> io::Result<(u64, u64)> {
    let bytes = std::fs::read(dir.join(name))?;
    Ok((lines(&bytes), fnv1a(&bytes)))
}

/// The manifest's check lines for the files under `dir`.
///
/// # Errors
/// Propagates filesystem errors.
pub(crate) fn check_lines(dir: &Path) -> io::Result<String> {
    let mut out = String::new();
    for name in CHECKED {
        let (lines, sum) = measure(dir, name)?;
        let _ = writeln!(out, "check\t{name}\t{lines}\t{sum:016x}");
    }
    Ok(out)
}

/// Verifies the files under `dir` against the check lines of its
/// `manifest.tsv`, and returns the files the manifest has no check for (a
/// world written before checks were recorded).
///
/// # Errors
/// The manifest cannot be read, a check line is malformed or names an
/// unknown file, or a file's line count or checksum differs from its
/// check; the message names `manifest.tsv`.
pub fn verify(dir: &Path) -> io::Result<Vec<&'static str>> {
    let named = |message: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("manifest.tsv: {message}"),
        )
    };
    let text = std::fs::read_to_string(dir.join("manifest.tsv"))
        .map_err(|e| io::Error::new(e.kind(), format!("manifest.tsv: {e}")))?;
    let mut unchecked = CHECKED.to_vec();
    for line in text.lines() {
        let Some(check) = line.strip_prefix("check\t") else {
            continue;
        };
        let bad = || named(format!("bad check line `{line}`"));
        let mut fields = check.split('\t');
        let (Some(name), Some(lines), Some(sum), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(bad());
        };
        let want: (u64, u64) = (
            lines.parse().map_err(|_| bad())?,
            u64::from_str_radix(sum, 16).map_err(|_| bad())?,
        );
        let Some(slot) = unchecked.iter().position(|&n| n == name) else {
            return Err(bad());
        };
        let name = unchecked.remove(slot);
        let got = measure(dir, name).map_err(|e| named(format!("{name}: {e}")))?;
        if got != want {
            return Err(named(format!(
                "{name} has {} lines (checksum {:016x}) but was written with {} (checksum {:016x})",
                got.0, got.1, want.0, want.1
            )));
        }
    }
    Ok(unchecked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn line_counts_include_an_unterminated_tail() {
        assert_eq!(lines(b""), 0);
        assert_eq!(lines(b"a\nb\n"), 2);
        assert_eq!(lines(b"a\nb"), 2);
    }

    #[test]
    fn checks_catch_a_cut_file_and_name_missing_ones() {
        let dir = std::env::temp_dir().join(format!("wearscope-checks-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in CHECKED {
            std::fs::write(dir.join(name), format!("{name}\n1\t2\n3\t4\n")).unwrap();
        }
        let window = "summary_days\t42\ndetailed_days\t14\n";
        std::fs::write(dir.join("manifest.tsv"), window).unwrap();
        assert_eq!(verify(&dir).unwrap(), CHECKED.to_vec());

        let checks = check_lines(&dir).unwrap();
        std::fs::write(dir.join("manifest.tsv"), format!("{window}{checks}")).unwrap();
        assert!(verify(&dir).unwrap().is_empty());

        std::fs::write(dir.join("summary_mme.tsv"), "summary_mme.tsv\n1\t2\n").unwrap();
        let err = verify(&dir).unwrap_err().to_string();
        assert!(
            err.starts_with("manifest.tsv: summary_mme.tsv has 2 lines"),
            "{err}"
        );
        assert!(err.contains("written with 3"), "{err}");

        let bad = format!("{window}check\tsummary_mme.tsv\tmany\t0\n");
        std::fs::write(dir.join("manifest.tsv"), bad).unwrap();
        let err = verify(&dir).unwrap_err().to_string();
        assert!(err.contains("bad check line"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
