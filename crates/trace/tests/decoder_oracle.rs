//! The byte decoder against the string decoder it replaced.
//!
//! [`OracleFieldReader`] and the `oracle_*` parsers are the old decoder's
//! bodies, kept as the reference: the line is checked for UTF-8 first,
//! split by `char`, and each field parsed through `str`. The byte decoder
//! must give the same `Option<Result<R, CodecError>>` for every input,
//! down to the error variant and field index, because `quarantine.log`
//! prints them.

use proptest::prelude::*;
use proptest::TestCaseError;
use wearscope_simtime::SimTime;
use wearscope_trace::{
    codec, decode_log_line, CodecError, HostId, MmeEvent, MmeRecord, ProxyRecord, Scheme,
    TsvRecord, UserId,
};

/// The `str`-based field reader the byte decoder replaced.
struct OracleFieldReader<'a> {
    fields: std::str::Split<'a, char>,
    index: usize,
    expected_total: usize,
}

impl<'a> OracleFieldReader<'a> {
    fn new(line: &'a str, expected_total: usize) -> OracleFieldReader<'a> {
        OracleFieldReader {
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

    fn u64(&mut self) -> Result<u64, CodecError> {
        let idx = self.index;
        let raw = self.next_raw()?;
        raw.parse().map_err(|_| CodecError::BadField {
            index: idx,
            expected: "u64",
        })
    }

    fn host(&mut self) -> Result<HostId, CodecError> {
        let raw = self.next_raw()?;
        if raw.contains('\\') {
            Ok(HostId::intern(&codec::unescape(raw)?))
        } else {
            Ok(HostId::intern(raw))
        }
    }

    fn finish(mut self) -> Result<(), CodecError> {
        if self.fields.next().is_some() {
            Err(CodecError::TrailingFields {
                expected: self.expected_total,
            })
        } else {
            Ok(())
        }
    }
}

fn oracle_proxy(line: &str) -> Result<ProxyRecord, CodecError> {
    let mut r = OracleFieldReader::new(line, ProxyRecord::FIELDS);
    let timestamp = SimTime::from_secs(r.u64()?);
    let user = UserId(r.u64()?);
    let imei = r.u64()?;
    let host = r.host()?;
    let scheme = match r.u64()? {
        0 => Scheme::Http,
        1 => Scheme::Https,
        _ => {
            return Err(CodecError::BadField {
                index: 4,
                expected: "scheme code 0|1",
            })
        }
    };
    let bytes_down = r.u64()?;
    let bytes_up = r.u64()?;
    r.finish()?;
    Ok(ProxyRecord {
        timestamp,
        user,
        imei,
        host,
        scheme,
        bytes_down,
        bytes_up,
    })
}

fn oracle_mme(line: &str) -> Result<MmeRecord, CodecError> {
    let mut r = OracleFieldReader::new(line, MmeRecord::FIELDS);
    let timestamp = SimTime::from_secs(r.u64()?);
    let user = UserId(r.u64()?);
    let imei = r.u64()?;
    let event = match r.u64()? {
        0 => MmeEvent::Attach,
        1 => MmeEvent::Detach,
        2 => MmeEvent::SectorUpdate,
        _ => {
            return Err(CodecError::BadField {
                index: 3,
                expected: "mme event code 0|1|2",
            })
        }
    };
    let sector_raw = r.u64()?;
    let sector = u32::try_from(sector_raw).map_err(|_| CodecError::BadField {
        index: 4,
        expected: "u32 sector id",
    })?;
    r.finish()?;
    Ok(MmeRecord {
        timestamp,
        user,
        imei,
        event,
        sector,
    })
}

/// The old `decode_log_line`: trim the line ending, check UTF-8, parse.
fn oracle_decode<R>(
    raw: &[u8],
    parse: fn(&str) -> Result<R, CodecError>,
) -> Option<Result<R, CodecError>> {
    let end = raw
        .iter()
        .rposition(|&b| b != b'\n' && b != b'\r')
        .map_or(0, |i| i + 1);
    if end == 0 {
        return None;
    }
    Some(
        std::str::from_utf8(&raw[..end])
            .map_err(|_| CodecError::InvalidUtf8)
            .and_then(parse),
    )
}

/// Both decoders agree on `raw` as a proxy line and as an MME line.
fn agree(raw: &[u8]) -> Result<(), TestCaseError> {
    let proxy = (
        decode_log_line::<ProxyRecord>(raw),
        oracle_decode(raw, oracle_proxy),
    );
    let mme = (
        decode_log_line::<MmeRecord>(raw),
        oracle_decode(raw, oracle_mme),
    );
    if proxy.0 != proxy.1 || mme.0 != mme.1 {
        return Err(TestCaseError::Fail(format!(
            "line {:?}: proxy {:?} vs oracle {:?}; mme {:?} vs oracle {:?}",
            String::from_utf8_lossy(raw),
            proxy.0,
            proxy.1,
            mme.0,
            mme.1
        )));
    }
    Ok(())
}

/// Bytes a damaged line is made of: digits, separators, the escape's
/// letters, line endings, and bytes that are not UTF-8 on their own or
/// start a multi-byte character.
const ALPHABET: &[u8] = b"0123456789\t\t\t++-\\tnrx .a\r\n\x80\xbf\xc3\xa9\xe6\xff";

fn alphabet_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0..ALPHABET.len()).prop_map(|i| ALPHABET[i]), 0..60)
}

fn valid_proxy() -> impl Strategy<Value = ProxyRecord> {
    (
        prop_oneof![0u64..100_000_000, any::<u64>()],
        prop_oneof![0u64..100_000, any::<u64>()],
        any::<u64>(),
        prop_oneof!["[a-z.]{0,24}", "[a-z.\\\t\n\r]{0,12}", "\\PC{0,12}"],
        prop::bool::ANY,
        prop_oneof![0u64..10_000_000, any::<u64>()],
        prop_oneof![0u64..10_000_000, any::<u64>()],
    )
        .prop_map(|(t, u, imei, host, https, down, up)| ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(u),
            imei,
            host: HostId::intern(&host),
            scheme: if https { Scheme::Https } else { Scheme::Http },
            bytes_down: down,
            bytes_up: up,
        })
}

fn valid_mme() -> impl Strategy<Value = MmeRecord> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        0u8..3,
        any::<u32>(),
    )
        .prop_map(|(t, u, imei, ev, sector)| MmeRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(u),
            imei,
            event: match ev {
                0 => MmeEvent::Attach,
                1 => MmeEvent::Detach,
                _ => MmeEvent::SectorUpdate,
            },
            sector,
        })
}

/// One damage to a line: a kind, where, and a byte to use.
type Mutation = (u8, usize, u8);

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    prop::collection::vec((0u8..12, any::<usize>(), any::<u8>()), 1..4)
}

/// The byte range of field `k` (modulo the field count) of `line`.
fn field(line: &[u8], k: usize) -> std::ops::Range<usize> {
    let mut bounds = vec![0];
    bounds.extend(
        line.iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\t')
            .map(|(i, _)| i + 1),
    );
    let start = bounds[k % bounds.len()];
    let end = line[start..]
        .iter()
        .position(|&b| b == b'\t')
        .map_or(line.len(), |i| start + i);
    start..end
}

/// Applies one mutation to `line`.
fn mutate(line: &mut Vec<u8>, (kind, at, byte): Mutation) {
    let f = field(line, at);
    match kind {
        // A flipped byte anywhere.
        0 if !line.is_empty() => {
            let i = at % line.len();
            line[i] ^= byte | 1;
        }
        // A byte above 0x7F inside a field.
        1 => line.insert(f.start + at % (f.len() + 1), byte | 0x80),
        // An added tab.
        2 => line.insert(at % (line.len() + 1), b'\t'),
        // A removed tab.
        3 => {
            if let Some(i) = (0..line.len())
                .map(|i| (i + at) % line.len())
                .find(|&i| line[i] == b'\t')
            {
                line.remove(i);
            }
        }
        // One or two `+` signs.
        4 => line.insert(f.start, b'+'),
        5 => line.splice(f.start..f.start, *b"++").for_each(drop),
        // Twenty digits: u64::MAX, one past it, all nines, or any.
        6 => {
            let digits = match byte % 4 {
                0 => u64::MAX.to_string(),
                1 => "18446744073709551616".to_string(),
                2 => "99999999999999999999".to_string(),
                _ => format!("{:020}", at as u64),
            };
            line.splice(f, digits.into_bytes()).for_each(drop);
        }
        // Leading zeros.
        7 => line
            .splice(f.start..f.start, b"0".repeat(1 + at % 20))
            .for_each(drop),
        // A line ending: `\r\n`, `\r`, `\n`, or a stray `\r` inside.
        8 => match byte % 4 {
            0 => line.extend_from_slice(b"\r\n"),
            1 => line.push(b'\r'),
            2 => line.push(b'\n'),
            _ => line.insert(at % (line.len() + 1), b'\r'),
        },
        // An escaped host: good escapes, an unknown one, a dangling one.
        9 => {
            let host: &[u8] = match byte % 4 {
                0 => b"tab\\tand\\\\slash.example",
                1 => b"cr\\rnl\\n.example",
                2 => b"bad\\x.example",
                _ => b"dangling.example\\",
            };
            line.splice(f, host.iter().copied()).for_each(drop);
        }
        // An emptied field.
        10 => line.splice(f, []).for_each(drop),
        // A removed byte.
        _ if !line.is_empty() => {
            line.remove(at % line.len());
        }
        _ => {}
    }
}

proptest! {
    /// Arbitrary bytes decode the same way through both decoders.
    #[test]
    fn arbitrary_bytes_decode_as_the_oracle(
        lines in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..80), 32..33),
        damaged in prop::collection::vec(alphabet_bytes(), 32..33),
    ) {
        for raw in lines.iter().chain(&damaged) {
            agree(raw)?;
        }
    }

    /// Damaged proxy lines decode the same way through both decoders.
    #[test]
    fn mutated_proxy_lines_decode_as_the_oracle(
        cases in prop::collection::vec((valid_proxy(), mutations()), 32..33),
    ) {
        for (rec, damage) in cases {
            let mut line = rec.to_line().into_bytes();
            agree(&line)?;
            for m in damage {
                mutate(&mut line, m);
                agree(&line)?;
            }
        }
    }

    /// Damaged MME lines decode the same way through both decoders.
    #[test]
    fn mutated_mme_lines_decode_as_the_oracle(
        cases in prop::collection::vec((valid_mme(), mutations()), 32..33),
    ) {
        for (rec, damage) in cases {
            let mut line = rec.to_line().into_bytes();
            agree(&line)?;
            for m in damage {
                mutate(&mut line, m);
                agree(&line)?;
            }
        }
    }
}

/// The numeric rules one by one, for a field in every position of both
/// schemas: signs, overflow at every length, leading zeros, empty fields.
#[test]
fn numeric_fields_follow_str_parse() {
    let numbers = [
        "",
        "+",
        "++1",
        "-1",
        "+0",
        "0",
        "007",
        "+007",
        "1+",
        "1 ",
        " 1",
        "0x1",
        "١",
        "9999999999999999999",
        "18446744073709551615",
        "+18446744073709551615",
        "18446744073709551616",
        "00000000000000000000018446744073709551615",
        "99999999999999999999",
        "123456789012345678901234567890",
    ];
    let proxy = "5\t6\t352000011234564\thost.example\t1\t7\t8";
    let mme = "5\t6\t352000011234564\t2\t40";
    for line in [proxy, mme] {
        let fields: Vec<&str> = line.split('\t').collect();
        for k in 0..fields.len() {
            for n in numbers {
                let mut damaged = fields.clone();
                damaged[k] = n;
                agree(damaged.join("\t").as_bytes()).unwrap();
            }
        }
    }
}

/// A byte that is not UTF-8 wins over any other fault, wherever it sits:
/// in a number, in the host, past the last field.
#[test]
fn invalid_utf8_wins_everywhere() {
    let line = b"5\t6\t352000011234564\thost.example\t1\t7\t8";
    for i in 0..=line.len() {
        for byte in [0x80, 0xc3, 0xff] {
            let mut damaged = line.to_vec();
            damaged.insert(i, byte);
            assert_eq!(
                decode_log_line::<ProxyRecord>(&damaged),
                Some(Err(CodecError::InvalidUtf8)),
                "byte {byte:#x} at {i}"
            );
            agree(&damaged).unwrap();
        }
    }
}
