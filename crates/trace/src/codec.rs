//! A line-oriented TSV codec with escaping.
//!
//! Every record type serializes to one text line of tab-separated fields.
//! String fields are escaped (`\t`, `\n`, `\r`, `\\`) so arbitrary hosts are
//! safe; numeric fields round-trip exactly. The codec is deliberately
//! self-contained: logs written by the simulator are plain files any tool
//! can inspect, and the reader is streaming.

use core::fmt;

use crate::host::{HostId, HostTable};

/// Errors raised while decoding a log line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The line had fewer fields than the schema requires.
    MissingField {
        /// 0-based index of the missing field.
        index: usize,
    },
    /// A field failed to parse.
    BadField {
        /// 0-based index of the offending field.
        index: usize,
        /// What the field was expected to be.
        expected: &'static str,
    },
    /// The line had more fields than the schema allows.
    TrailingFields {
        /// Number of expected fields.
        expected: usize,
    },
    /// An escape sequence was malformed.
    BadEscape,
    /// The line's bytes are not valid UTF-8 (storage damage).
    InvalidUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::MissingField { index } => write!(f, "missing field {index}"),
            CodecError::BadField { index, expected } => {
                write!(f, "field {index} is not a valid {expected}")
            }
            CodecError::TrailingFields { expected } => {
                write!(f, "more than {expected} fields")
            }
            CodecError::BadEscape => write!(f, "malformed escape sequence"),
            CodecError::InvalidUtf8 => write!(f, "line is not valid UTF-8"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Escapes a string field into `out`.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
}

/// Reverses [`escape_into`].
///
/// # Errors
/// [`CodecError::BadEscape`] on a dangling or unknown escape.
pub fn unescape(s: &str) -> Result<String, CodecError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            _ => return Err(CodecError::BadEscape),
        }
    }
    Ok(out)
}

/// Bytes in a [`LineBuf`]. The last [`NUMBERS`] are kept for numeric
/// fields: a raw field is copied in only while it leaves them free.
const LINE_BUF: usize = 256;

/// Room for the numeric fields of a line: five `u64`s of 20 digits, their
/// tabs, and the whole word the last digits are written in.
const NUMBERS: usize = 128;

/// A record's line, assembled in an array on the stack and appended to
/// the output in one copy.
///
/// A field written here costs an index check in the array, not a
/// capacity check of the output and a store of its length. A number is
/// written eight digits a step: it is cut into groups of eight digits
/// (at most three), and each group becomes eight ASCII bytes at once, one
/// `u64` split into two 4-digit lanes, then four 2-digit lanes, then
/// eight 1-digit lanes, a multiply and a shift per lane instead of a
/// division per digit. Only the leading group drops its leading zeros.
pub(crate) struct LineBuf {
    bytes: [u8; LINE_BUF],
    len: usize,
}

impl LineBuf {
    /// An empty line.
    #[inline(always)]
    pub(crate) fn new() -> LineBuf {
        LineBuf {
            bytes: [0; LINE_BUF],
            len: 0,
        }
    }

    /// Appends `v` in decimal.
    #[inline(always)]
    pub(crate) fn u64(&mut self, v: u64) -> &mut LineBuf {
        const GROUP: u64 = 100_000_000;
        if v < 10 {
            self.bytes[self.len] = b'0' + v as u8;
            self.len += 1;
        } else if v < GROUP {
            self.leading(v);
        } else if v < GROUP * GROUP {
            self.leading(v / GROUP);
            self.word(eight_digits(v % GROUP) | ZEROS, 8);
        } else {
            self.leading(v / (GROUP * GROUP));
            self.word(eight_digits(v / GROUP % GROUP) | ZEROS, 8);
            self.word(eight_digits(v % GROUP) | ZEROS, 8);
        }
        self
    }

    /// Appends a tab.
    #[inline(always)]
    pub(crate) fn tab(&mut self) -> &mut LineBuf {
        self.bytes[self.len] = b'\t';
        self.len += 1;
        self
    }

    /// Appends `field` as it is. One too long to leave room for the
    /// numbers goes straight to `out`, after the line so far.
    #[inline(always)]
    pub(crate) fn raw(&mut self, field: &[u8], out: &mut Vec<u8>) -> &mut LineBuf {
        if self.len + field.len() <= LINE_BUF - NUMBERS {
            self.bytes[self.len..self.len + field.len()].copy_from_slice(field);
            self.len += field.len();
        } else {
            self.append_to(out);
            out.extend_from_slice(field);
        }
        self
    }

    /// Appends the line to `out` and empties it.
    #[inline(always)]
    pub(crate) fn append_to(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.bytes[..self.len]);
        self.len = 0;
    }

    /// Appends `0 < n < 10^8` without leading zeros: each leading zero
    /// digit is one zero byte at the low end of the word, shifted out
    /// before the word is written and left out of the length.
    #[inline(always)]
    fn leading(&mut self, n: u64) {
        let digits = eight_digits(n);
        let skip = digits.trailing_zeros() / 8;
        self.word((digits >> (8 * skip)) | ZEROS, 8 - skip as usize);
    }

    /// Writes the eight bytes of `word` and keeps the first `keep`.
    #[inline(always)]
    fn word(&mut self, word: u64, keep: usize) {
        self.bytes[self.len..self.len + 8].copy_from_slice(&word.to_le_bytes());
        self.len += keep;
    }
}

/// The eight decimal digits of `n < 10^8`, as byte values 0–9, most
/// significant first in memory order.
#[inline(always)]
fn eight_digits(n: u64) -> u64 {
    // Two 32-bit lanes: the high four digits, then the low four.
    let x = (n / 10_000) | ((n % 10_000) << 32);
    // In each lane, `q = x / 100` as `x * 10486 >> 20` (exact below 43 699),
    // then four 16-bit lanes of two digits each.
    let q = ((x * 10_486) >> 20) & 0x0000_007f_0000_007f;
    let x = q | ((x - q * 100) << 16);
    // In each lane, `q = x / 10` as `x * 103 >> 10` (exact below 179), then
    // eight byte lanes of one digit each.
    let q = ((x * 103) >> 10) & 0x000f_000f_000f_000f;
    q | ((x - q * 10) << 8)
}

/// ASCII `0` in every byte lane of a word: ORed onto digit values 0–9.
const ZEROS: u64 = LANES * b'0' as u64;

/// `0x01` in every byte lane of a word.
const LANES: u64 = u64::from_le_bytes([0x01; 8]);

/// The index of the first `byte` in `haystack`, eight bytes a step: the
/// scan that splits log lines, in the readers and in the fault injector.
pub fn find_byte(haystack: &[u8], byte: u8) -> Option<usize> {
    find_any(haystack, [byte])
}

/// The index of the first byte of `haystack` that is one of `bytes`,
/// eight bytes a step.
///
/// Each `u64` word is XORed with each byte in every lane, and the classic
/// has-zero-byte test finds the lanes that matched. A borrow can only set
/// the flag of a lane above a true zero, so the lowest flag of each byte's
/// test is exact, and so is the lowest of them all.
fn find_any<const N: usize>(haystack: &[u8], bytes: [u8; N]) -> Option<usize> {
    let mut words = haystack.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of 8"));
        let found = bytes.iter().fold(0, |found, &byte| {
            let x = word ^ (LANES * u64::from(byte));
            found | (x.wrapping_sub(LANES) & !x & (LANES * 0x80))
        });
        if found != 0 {
            return Some(at + (found.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    words
        .remainder()
        .iter()
        .position(|b| bytes.contains(b))
        .map(|i| at + i)
}

/// How many times `byte` occurs in `haystack`, eight bytes a step: the
/// exact zero-byte test (no borrow crosses a lane) flags each matching
/// lane of a word, and the flags are counted.
pub fn count_byte(haystack: &[u8], byte: u8) -> usize {
    const LOW: u64 = LANES * 0x7f;
    let needle = LANES * u64::from(byte);
    let mut words = haystack.chunks_exact(8);
    let mut count = 0;
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().expect("chunks of 8")) ^ needle;
        count += (!(((x & LOW) + LOW) | x | LOW)).count_ones() as usize;
    }
    count + words.remainder().iter().filter(|&&b| b == byte).count()
}

/// 10^n for the digit counts a word holds below a full one.
const POW10: [u64; 8] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// A word of eight bytes XORed with ASCII `0` in every lane (a digit
/// lane then holds 0..=9): how many lanes from the lowest are digits.
fn digit_lanes(x: u64) -> usize {
    // The high bit of a lane flags a byte that is not a digit.
    let not_digit = (((x & (LANES * 0x7f)) + LANES * (0x80 - 10)) | x) & (LANES * 0x80);
    (not_digit.trailing_zeros() / 8) as usize
}

/// The leading digits of `digits` as a number, and how many there are;
/// `None` on overflow.
fn leading_digits(digits: &[u8]) -> Option<(u64, usize)> {
    let len = digits.iter().take_while(|b| b.is_ascii_digit()).count();
    let value = digits[..len].iter().try_fold(0u64, |value, &b| {
        value.checked_mul(10)?.checked_add(u64::from(b - b'0'))
    })?;
    Some((value, len))
}

/// The value of eight decimal digits, one per byte lane (0..=9), the most
/// significant in the lowest lane: pairs, then quads, then the whole.
fn lanes_to_u64(x: u64) -> u64 {
    let x = (x & 0x000f_000f_000f_000f) * 10 + ((x >> 8) & 0x000f_000f_000f_000f);
    let x = (x & 0x0000_00ff_0000_00ff) * 100 + ((x >> 16) & 0x0000_00ff_0000_00ff);
    (x & 0x0000_0000_0000_ffff) * 10_000 + ((x >> 32) & 0x0000_0000_0000_ffff)
}

/// Incremental reader over one TSV line's bytes.
///
/// Fields are read in order, straight from the bytes: a `u64` in one pass
/// that checks its digits and finds the tab after them, a host through
/// an unescape only when it holds `\`. Only the host field is checked
/// for UTF-8; [`TsvRecord::from_bytes`] settles the rest of the line.
///
/// The log reader ([`Lines`]) also reads in place, from its buffer at a
/// line's start: the last field must then end at a `\n`, which ends the
/// line, and a host must end at a tab and hold no escape; it is found
/// through the reader's host table. An error there only means the line
/// cannot be settled in one pass; the reader then decodes it through
/// [`decode_log_line`], which reports the error.
///
/// A `u64` field of up to 15 digits and no sign is read from one or two
/// whole words, without the general loop, when the bytes from its start
/// hold them. In place that is nearly every field, the last one too,
/// since the next line's bytes follow it in the buffer.
///
/// [`Lines`]: crate::Lines
/// [`decode_log_line`]: crate::decode_log_line
#[derive(Debug)]
pub struct FieldReader<'a> {
    /// The unread bytes after the last field read, or `None` once the
    /// last field (the one no tab ends) has been read.
    rest: Option<&'a [u8]>,
    index: usize,
    expected_total: usize,
    /// Set when reading in place: the reader's host table, and the bytes
    /// from the line's start.
    in_place: Option<(&'a mut HostTable, usize)>,
    /// In place, the bytes after the line's `\n` once it has been read.
    after: usize,
}

impl<'a> FieldReader<'a> {
    /// Wraps a line expected to contain exactly `expected_total` fields.
    pub fn new(line: &'a [u8], expected_total: usize) -> FieldReader<'a> {
        FieldReader {
            rest: Some(line),
            index: 0,
            expected_total,
            in_place: None,
            after: 0,
        }
    }

    /// Reads the line at the start of `bytes`, a reader's buffered bytes,
    /// in place, finding hosts through the reader's `hosts`.
    pub(crate) fn in_place(
        bytes: &'a [u8],
        expected_total: usize,
        hosts: &'a mut HostTable,
    ) -> FieldReader<'a> {
        FieldReader {
            in_place: Some((hosts, bytes.len())),
            ..FieldReader::new(bytes, expected_total)
        }
    }

    /// In place, the length of the line read, its `\n` included, once its
    /// last field has been read.
    #[inline]
    pub(crate) fn line_len(&self) -> Option<usize> {
        match (&self.in_place, self.rest) {
            (Some((_, len)), None) => Some(len - self.after),
            _ => None,
        }
    }

    /// The unread line, counting the field about to be read.
    #[inline]
    fn next_rest(&mut self) -> Result<&'a [u8], CodecError> {
        let rest = self
            .rest
            .ok_or(CodecError::MissingField { index: self.index })?;
        self.index += 1;
        Ok(rest)
    }

    /// Reads a `u64` field by `str::parse`'s rules: one optional leading
    /// `+`, then at least one ASCII digit (leading zeros are fine), with
    /// overflow an error.
    #[inline(always)]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let rest = self.next_rest()?;
        // The common field, unsigned with 1 to 15 digits that two words
        // hold, is read without the general loop; the second word is
        // read only for a field of eight digits or more.
        let word = |at: usize| {
            rest.get(at..at + 8)
                .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")) ^ ZEROS)
        };
        // The n leading digits of a word are shifted to its top, below
        // which empty lanes read as leading zeros.
        if let Some(x) = word(0) {
            let n = digit_lanes(x);
            if n < 8 {
                if n > 0 && self.end_field(rest, n) {
                    return Ok(lanes_to_u64(x << (64 - 8 * n)));
                }
            } else if let Some(y) = word(8) {
                let m = digit_lanes(y);
                if m < 8 && self.end_field(rest, 8 + m) {
                    let low = y.checked_shl(64 - 8 * m as u32).map_or(0, lanes_to_u64);
                    return Ok(lanes_to_u64(x) * POW10[m] + low);
                }
            }
        }
        self.u64_from(rest)
    }

    /// [`FieldReader::u64`] for any field, a digit at a step: a signed
    /// field, one of 16 digits or more, one too near the end of the
    /// bytes for whole words, or one that is not a number.
    fn u64_from(&mut self, rest: &'a [u8]) -> Result<u64, CodecError> {
        let bad = CodecError::BadField {
            index: self.index - 1,
            expected: "u64",
        };
        let sign = usize::from(rest.first() == Some(&b'+'));
        match leading_digits(&rest[sign..]) {
            Some((value, len)) if len > 0 && self.end_field(rest, sign + len) => Ok(value),
            _ => Err(bad),
        }
    }

    /// Ends the field read from `rest` at `end`, if a field can end
    /// there: at a tab, at the end of a line, or in place at the `\n`
    /// that ends the line.
    #[inline(always)]
    fn end_field(&mut self, rest: &'a [u8], end: usize) -> bool {
        match rest.get(end) {
            Some(b'\t') => self.rest = Some(&rest[end + 1..]),
            None if self.in_place.is_none() => self.rest = None,
            Some(b'\n') if self.in_place.is_some() => {
                self.rest = None;
                self.after = rest.len() - end - 1;
            }
            _ => return false,
        }
        true
    }

    /// Reads a host field and interns it, straight from the line unless
    /// the field holds an escape.
    #[inline]
    pub fn host(&mut self) -> Result<HostId, CodecError> {
        let rest = self.next_rest()?;
        if let Some((hosts, _)) = &mut self.in_place {
            // One scan stops at the tab, or at a `\n` or `\\` first (so
            // it never reads into the next line), which leaves the line
            // to the line decoder, as does a buffer ending first.
            return match find_any(rest, [b'\t', b'\n', b'\\']) {
                Some(end) if rest[end] == b'\t' => {
                    self.rest = Some(&rest[end + 1..]);
                    hosts.intern(&rest[..end]).ok_or(CodecError::InvalidUtf8)
                }
                _ => Err(CodecError::MissingField { index: self.index }),
            };
        }
        let raw = match find_byte(rest, b'\t') {
            Some(tab) => {
                self.rest = Some(&rest[tab + 1..]);
                &rest[..tab]
            }
            None => {
                self.rest = None;
                rest
            }
        };
        if raw.contains(&b'\\') {
            let name = std::str::from_utf8(raw).map_err(|_| CodecError::InvalidUtf8)?;
            Ok(HostId::intern(&unescape(name)?))
        } else {
            HostId::intern_bytes(raw).ok_or(CodecError::InvalidUtf8)
        }
    }

    /// Asserts the line is exhausted.
    ///
    /// # Errors
    /// [`CodecError::TrailingFields`] when a field is left.
    #[inline]
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.rest {
            Some(_) => Err(CodecError::TrailingFields {
                expected: self.expected_total,
            }),
            None => Ok(()),
        }
    }
}

/// A record type with a TSV line representation.
pub trait TsvRecord: Sized {
    /// Number of TSV fields.
    const FIELDS: usize;

    /// Appends the record's line (no newline) to `out`: the one encoder
    /// behind both the log writer and [`TsvRecord::to_line`].
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Serializes to one line (no newline).
    fn to_line(&self) -> String {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        String::from_utf8(out).expect("the encoder writes UTF-8")
    }

    /// Reads the record's fields in schema order; the caller then checks
    /// that none is left ([`FieldReader::finish`]).
    ///
    /// # Errors
    /// The first field's [`CodecError`].
    fn read_fields(fields: &mut FieldReader<'_>) -> Result<Self, CodecError>;

    /// Parses from one line's bytes (no line ending): the one decoder.
    ///
    /// A line that is not UTF-8 is [`CodecError::InvalidUtf8`], whatever
    /// else is wrong with it. The line is not checked up front: a line
    /// that parses holds only ASCII digits, `+` and tabs outside its host
    /// field, and the host field is checked as it is read, so only a line
    /// that fails needs the whole-line check.
    ///
    /// # Errors
    /// Any [`CodecError`] on schema mismatch.
    fn from_bytes(line: &[u8]) -> Result<Self, CodecError> {
        let mut fields = FieldReader::new(line, Self::FIELDS);
        Self::read_fields(&mut fields)
            .and_then(|record| fields.finish().map(|()| record))
            .map_err(|error| match std::str::from_utf8(line) {
                Ok(_) => error,
                Err(_) => CodecError::InvalidUtf8,
            })
    }

    /// Parses from one line.
    ///
    /// # Errors
    /// Any [`CodecError`] on schema mismatch.
    fn from_line(line: &str) -> Result<Self, CodecError> {
        Self::from_bytes(line.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrip_specials() {
        for s in [
            "",
            "plain",
            "a\tb",
            "line\nbreak",
            "back\\slash",
            "\r\n\t\\",
            "ünïcodé",
        ] {
            let mut esc = String::new();
            escape_into(s, &mut esc);
            assert!(!esc.contains('\t') && !esc.contains('\n'));
            assert_eq!(unescape(&esc).unwrap(), s);
        }
    }

    #[test]
    fn bad_escapes_rejected() {
        assert_eq!(unescape("trailing\\"), Err(CodecError::BadEscape));
        assert_eq!(unescape("bad\\x"), Err(CodecError::BadEscape));
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut out = Vec::new();
        LineBuf::new()
            .u64(42)
            .tab()
            .raw(HostId::intern("host\twith\ttabs").encoded(), &mut out)
            .tab()
            .u64(7)
            .append_to(&mut out);
        let line = String::from_utf8(out).unwrap();
        let mut r = FieldReader::new(line.as_bytes(), 3);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.host().unwrap().name(), "host\twith\ttabs");
        assert_eq!(r.u64().unwrap(), 7);
        r.finish().unwrap();
    }

    #[test]
    fn missing_and_trailing_fields() {
        let mut r = FieldReader::new(b"1", 2);
        assert_eq!(r.u64().unwrap(), 1);
        assert_eq!(r.u64(), Err(CodecError::MissingField { index: 1 }));

        let mut r = FieldReader::new(b"1\t2\t3", 2);
        let _ = r.u64().unwrap();
        let _ = r.u64().unwrap();
        assert_eq!(r.finish(), Err(CodecError::TrailingFields { expected: 2 }));
    }

    #[test]
    fn bad_numeric_field() {
        let mut r = FieldReader::new(b"abc", 1);
        assert_eq!(
            r.u64(),
            Err(CodecError::BadField {
                index: 0,
                expected: "u64"
            })
        );
    }

    #[test]
    fn error_display() {
        assert_eq!(
            CodecError::MissingField { index: 3 }.to_string(),
            "missing field 3"
        );
        assert!(CodecError::BadEscape.to_string().contains("escape"));
        assert!(CodecError::InvalidUtf8.to_string().contains("UTF-8"));
    }

    #[test]
    fn find_byte_matches_position() {
        // Every length up to eight words, every needle offset, and bytes
        // next to `\n` around it (a borrow across lanes must not fake a
        // match below the real one), from every start within a word.
        let filler = [0x0b, 0x8a, 0x09, 0xff, 0x00, b'a', 0x8a, 0x01];
        for len in 0..=64 {
            let base: Vec<u8> = (0..len).map(|i| filler[i % filler.len()]).collect();
            let mut bufs = vec![base.clone()];
            for at in 0..len {
                let mut buf = base.clone();
                buf[at] = b'\n';
                if at + 3 < len {
                    buf[at + 3] = b'\n';
                }
                bufs.push(buf);
            }
            for buf in &bufs {
                for from in 0..len.min(8) {
                    let hay = &buf[from..];
                    let want = hay.iter().position(|&b| b == b'\n');
                    assert_eq!(find_byte(hay, b'\n'), want, "{hay:?}");
                }
            }
        }
    }

    #[test]
    fn count_byte_matches_a_filter() {
        // Every string of ten bytes over the needle and the two bytes one
        // bit from it (a borrow out of a matching lane must not flag the
        // lane above), across one word and its remainder.
        for byte in [b'\n', 0x00, 0x01, 0x80, 0xff] {
            let alphabet = [byte, byte ^ 0x01, byte ^ 0x80];
            for mut code in 0..3usize.pow(10) {
                let hay: Vec<u8> = (0..10)
                    .map(|_| {
                        let b = alphabet[code % 3];
                        code /= 3;
                        b
                    })
                    .collect();
                let want = hay.iter().filter(|&&b| b == byte).count();
                assert_eq!(count_byte(&hay, byte), want, "{hay:?}");
            }
        }
    }

    fn pushed(v: u64) -> Vec<u8> {
        let mut out = b"x".to_vec();
        LineBuf::new().u64(v).append_to(&mut out);
        out.split_off(1)
    }

    #[test]
    fn push_u64_matches_display() {
        let mut values = vec![0, 352_000_011_234_564, u64::MAX, u64::MAX - 1];
        for p in 0..=19 {
            let ten = 10u64.pow(p);
            values.extend([ten - 1, ten, ten + 1]);
        }
        for v in values {
            assert_eq!(pushed(v), v.to_string().into_bytes(), "{v}");
        }
    }

    proptest::proptest! {
        #[test]
        fn push_u64_matches_display_on_any_value(v: u64, shift in 0u32..64) {
            // Shifted, so that every digit count is drawn, not only 19 and 20.
            let v = v >> shift;
            proptest::prop_assert_eq!(pushed(v), v.to_string().into_bytes());
        }
    }
}
