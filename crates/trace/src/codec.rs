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

/// Incremental writer for one TSV line.
#[derive(Debug, Default)]
pub struct FieldWriter {
    line: String,
    first: bool,
}

impl FieldWriter {
    /// Starts an empty line.
    pub fn new() -> FieldWriter {
        FieldWriter {
            line: String::new(),
            first: true,
        }
    }

    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.line.push('\t');
        }
    }

    /// Appends an unsigned integer field.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        let buf = itoa(v);
        self.line.push_str(&buf);
        self
    }

    /// Appends a string field, escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.sep();
        escape_into(s, &mut self.line);
        self
    }

    /// Finishes the line (no trailing newline).
    pub fn finish(self) -> String {
        self.line
    }
}

fn itoa(v: u64) -> String {
    v.to_string()
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

    /// Serializes to one line (no newline).
    fn to_line(&self) -> String;

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
        let mut w = FieldWriter::new();
        w.u64(42).str("host\twith\ttabs").u64(7);
        let line = w.finish();
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
    }
}
