//! A line-oriented TSV codec with escaping.
//!
//! Every record type serializes to one text line of tab-separated fields.
//! String fields are escaped (`\t`, `\n`, `\r`, `\\`) so arbitrary hosts are
//! safe; numeric fields round-trip exactly. The codec is deliberately
//! self-contained: logs written by the simulator are plain files any tool
//! can inspect, and the reader is streaming.

use core::fmt;

use crate::host::HostId;

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

/// Appends `v` in decimal, formatted on the stack.
pub(crate) fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends a string field: as-is, or through [`escape_into`] when it
/// holds a byte the codec escapes.
pub(crate) fn push_str(out: &mut Vec<u8>, s: &str) {
    if s.bytes()
        .any(|b| matches!(b, b'\\' | b'\t' | b'\n' | b'\r'))
    {
        let mut escaped = String::with_capacity(s.len() + 4);
        escape_into(s, &mut escaped);
        out.extend_from_slice(escaped.as_bytes());
    } else {
        out.extend_from_slice(s.as_bytes());
    }
}

/// Incremental reader over one TSV line.
#[derive(Debug)]
pub struct FieldReader<'a> {
    fields: std::str::Split<'a, char>,
    index: usize,
    expected_total: usize,
}

impl<'a> FieldReader<'a> {
    /// Wraps a line expected to contain exactly `expected_total` fields.
    pub fn new(line: &'a str, expected_total: usize) -> FieldReader<'a> {
        FieldReader {
            fields: line.split('\t'),
            index: 0,
            expected_total,
        }
    }

    fn next_raw(&mut self) -> Result<&'a str, CodecError> {
        match self.fields.next() {
            Some(f) => {
                self.index += 1;
                Ok(f)
            }
            None => Err(CodecError::MissingField { index: self.index }),
        }
    }

    /// Reads a `u64` field.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let idx = self.index;
        let raw = self.next_raw()?;
        raw.parse().map_err(|_| CodecError::BadField {
            index: idx,
            expected: "u64",
        })
    }

    /// Reads a host field and interns it, straight from the line unless
    /// the field holds an escape.
    pub fn host(&mut self) -> Result<HostId, CodecError> {
        let raw = self.next_raw()?;
        if raw.contains('\\') {
            Ok(HostId::intern(&unescape(raw)?))
        } else {
            Ok(HostId::intern(raw))
        }
    }

    /// Asserts the line is exhausted.
    pub fn finish(mut self) -> Result<(), CodecError> {
        if self.fields.next().is_some() {
            Err(CodecError::TrailingFields {
                expected: self.expected_total,
            })
        } else {
            Ok(())
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

    /// Parses from one line.
    ///
    /// # Errors
    /// Any [`CodecError`] on schema mismatch.
    fn from_line(line: &str) -> Result<Self, CodecError>;
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
        push_u64(&mut out, 42);
        out.push(b'\t');
        push_str(&mut out, "host\twith\ttabs");
        out.push(b'\t');
        push_u64(&mut out, 7);
        let line = String::from_utf8(out).unwrap();
        let mut r = FieldReader::new(&line, 3);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.host().unwrap().name(), "host\twith\ttabs");
        assert_eq!(r.u64().unwrap(), 7);
        r.finish().unwrap();
    }

    #[test]
    fn missing_and_trailing_fields() {
        let mut r = FieldReader::new("1", 2);
        assert_eq!(r.u64().unwrap(), 1);
        assert_eq!(r.u64(), Err(CodecError::MissingField { index: 1 }));

        let mut r = FieldReader::new("1\t2\t3", 2);
        let _ = r.u64().unwrap();
        let _ = r.u64().unwrap();
        assert_eq!(r.finish(), Err(CodecError::TrailingFields { expected: 2 }));
    }

    #[test]
    fn bad_numeric_field() {
        let mut r = FieldReader::new("abc", 1);
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
    fn push_u64_matches_display() {
        for v in [0, 1, 9, 10, 99, 100, 352_000_011_234_564, u64::MAX] {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes());
        }
    }
}
