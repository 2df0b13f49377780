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
use wearscope::simtime::SimTime;
use wearscope::trace::{
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

/// A `u64` of any digit count, 1 to 20: a full-range draw shifted right
/// by a drawn count, so short numbers come up as often as long ones.
fn any_digits() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift)
}

fn valid_proxy() -> impl Strategy<Value = ProxyRecord> {
    (
        prop_oneof![0u64..100_000_000, any_digits()],
        prop_oneof![0u64..100_000, any_digits()],
        any_digits(),
        // Hosts with bytes to escape, non-ASCII ones, and ones too long
        // for the encoder's line buffer.
        prop_oneof![
            "[a-z.]{0,24}",
            "[a-z.\\\t\n\r]{0,12}",
            "\\PC{0,12}",
            "[a-z.\\\t]{100,300}",
        ],
        prop::bool::ANY,
        prop_oneof![0u64..10_000_000, any_digits()],
        prop_oneof![0u64..10_000_000, any_digits()],
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
        any_digits(),
        any_digits(),
        any_digits(),
        0u8..3,
        (any::<u32>(), 0u32..32).prop_map(|(v, shift)| v >> shift),
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

/// A proxy record's line as `format!` writes it, its host through
/// [`codec::escape_into`]: the reference for the encoder.
fn format_proxy(r: &ProxyRecord) -> String {
    let mut host = String::new();
    codec::escape_into(r.host.name(), &mut host);
    let scheme = match r.scheme {
        Scheme::Http => 0,
        Scheme::Https => 1,
    };
    format!(
        "{}\t{}\t{}\t{host}\t{scheme}\t{}\t{}",
        r.timestamp.as_secs(),
        r.user.raw(),
        r.imei,
        r.bytes_down,
        r.bytes_up
    )
}

/// An MME record's line as `format!` writes it.
fn format_mme(r: &MmeRecord) -> String {
    let event = match r.event {
        MmeEvent::Attach => 0,
        MmeEvent::Detach => 1,
        MmeEvent::SectorUpdate => 2,
    };
    format!(
        "{}\t{}\t{}\t{event}\t{}",
        r.timestamp.as_secs(),
        r.user.raw(),
        r.imei,
        r.sector
    )
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
    /// The encoder writes each record as `format!` and `escape_into`
    /// write it, byte for byte, after what the output already holds. The
    /// log writer and the stream checkpoint's rows both encode through
    /// it, so neither can drift from this.
    #[test]
    fn records_encode_as_the_format_oracle(
        proxy in prop::collection::vec(valid_proxy(), 16..17),
        mme in prop::collection::vec(valid_mme(), 16..17),
    ) {
        let mut out = Vec::new();
        let mut want = String::new();
        for (p, m) in proxy.iter().zip(&mme) {
            p.encode_into(&mut out);
            m.encode_into(&mut out);
            want.push_str(&format_proxy(p));
            want.push_str(&format_mme(m));
            prop_assert_eq!(std::str::from_utf8(&out).unwrap(), want.as_str());
        }
    }

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

// The readers against a `read_until` splitter: whole logs of such lines,
// read by the chunk reader in several cuts and by the stream's source,
// decode line for line as the string oracle decodes what `read_until`
// splits, with the same line numbers and end offsets.

/// One line of a log as the oracle reads it: its 1-based number, the
/// offset just past it, and what it decodes to (`None` when blank).
struct OracleLine<R> {
    line: u64,
    end: u64,
    decoded: Option<Result<R, CodecError>>,
}

/// `text` split by `read_until(b'\n')`, each line decoded by the oracle.
fn oracle_lines<R>(text: &[u8], parse: fn(&str) -> Result<R, CodecError>) -> Vec<OracleLine<R>> {
    use std::io::BufRead;
    let mut source = std::io::BufReader::new(text);
    let (mut out, mut line, mut end) = (Vec::new(), Vec::new(), 0);
    while source.read_until(b'\n', &mut line).unwrap() > 0 {
        end += line.len() as u64;
        out.push(OracleLine {
            line: out.len() as u64 + 1,
            end,
            decoded: oracle_decode(&line, parse),
        });
        line.clear();
    }
    out
}

/// Special lines (no line ending yet): a blank line, a host with no tab
/// before its line ends and a next line whose four fields would complete
/// its record, a line of one `\r`, an escaped host, a record whose last
/// field is followed by a space.
const SPECIAL_LINES: [&[u8]; 5] = [
    b"",
    b"5\t6\t352000011234564\thost.example\n1\t1\t7\t8",
    b"\r",
    b"5\t6\t352000011234564\tesc\\tape.example\t1\t7\t8",
    b"5\t6\t352000011234564\t2\t40 ",
];

/// One line of a damaged log, with its line ending: `\n`, `\r\n` or
/// `\r\r\n`.
fn log_line() -> impl Strategy<Value = Vec<u8>> {
    let mutated_proxy = (valid_proxy(), mutations()).prop_map(|(rec, damage)| {
        let mut line = rec.to_line().into_bytes();
        damage.into_iter().for_each(|m| mutate(&mut line, m));
        line
    });
    let mutated_mme = (valid_mme(), mutations()).prop_map(|(rec, damage)| {
        let mut line = rec.to_line().into_bytes();
        damage.into_iter().for_each(|m| mutate(&mut line, m));
        line
    });
    let body = prop_oneof![
        valid_proxy().prop_map(|r| r.to_line().into_bytes()),
        valid_proxy().prop_map(|r| r.to_line().into_bytes()),
        valid_mme().prop_map(|r| r.to_line().into_bytes()),
        valid_mme().prop_map(|r| r.to_line().into_bytes()),
        mutated_proxy,
        mutated_mme,
        alphabet_bytes(),
        (0..SPECIAL_LINES.len()).prop_map(|i| SPECIAL_LINES[i].to_vec()),
    ];
    (body, 0u8..8).prop_map(|(mut line, ending)| {
        line.extend_from_slice(match ending {
            0 => b"\r\n",
            1 => b"\r\r\n",
            _ => b"\n",
        });
        line
    })
}

/// A log: its lines repeated to 67–100 KB, so lines straddle the chunk
/// reader's 16 KiB buffer and the stream lane's 64 KiB one; up to two
/// lines of 16–70 KB (a record with a long host, or digits), longer
/// than the chunk reader's buffer and at times than the lane's; and at
/// times no `\n` after the last line.
fn log_text() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(log_line(), 100..300),
        67_000usize..100_000,
        prop::collection::vec((16_000usize..70_000, any::<usize>()), 0..3),
        prop::bool::ANY,
    )
        .prop_map(|(lines, size, long, unterminated)| {
            let mut lines: Vec<Vec<u8>> = lines
                .iter()
                .cycle()
                .cloned()
                .scan(0, |len, line| {
                    *len += line.len();
                    (*len - line.len() < size).then_some(line)
                })
                .collect();
            for (len, at) in long {
                let mut line = match at % 2 {
                    0 => format!("5\t6\t352000011234564\t{}\t1\t7\t8", "h".repeat(len)),
                    _ => "7".repeat(len),
                }
                .into_bytes();
                line.push(b'\n');
                lines.insert(at % (lines.len() + 1), line);
            }
            let mut text = lines.concat();
            if unterminated {
                text.pop();
            }
            text
        })
}

/// A scratch directory for one test's logs, emptied first.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wearscope-oracle-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The chunk reader, one reader for every chunk of several cuts, against
/// the oracle: each chunk's records, `(line, error)` pairs, line count
/// and bytes are those of the oracle's lines that end inside it, and it
/// ends where its last line does.
fn shard_reader_agrees<R>(
    path: &std::path::Path,
    want: &[OracleLine<R>],
) -> Result<(), TestCaseError>
where
    R: TsvRecord + PartialEq + std::fmt::Debug + Clone,
{
    use wearscope::trace::{plan_tsv_shards, ShardReader, TsvShard};
    let len = std::fs::metadata(path).unwrap().len();
    let mut reader = ShardReader::new();
    let mut shard = TsvShard::<R>::default();
    for cuts in [1, 5, len.div_ceil(64 * 1024) as usize] {
        let mut next = 0;
        for range in plan_tsv_shards(path, cuts).unwrap() {
            reader.read_into(path, range, &mut shard).unwrap();
            let first = next;
            while next < want.len() && want[next].end <= range.end {
                next += 1;
            }
            let inside = &want[first..next];
            let records: Vec<R> = inside
                .iter()
                .filter_map(|l| l.decoded.clone()?.ok())
                .collect();
            let errors: Vec<(u64, CodecError)> = inside
                .iter()
                .enumerate()
                .filter_map(|(i, l)| Some((i as u64 + 1, l.decoded.clone()?.err()?)))
                .collect();
            prop_assert_eq!(inside.last().map(|l| l.end), Some(range.end));
            prop_assert!(
                shard.records == records,
                "{range:?} of {cuts} cuts: records"
            );
            prop_assert_eq!(&shard.errors, &errors);
            prop_assert_eq!(
                (shard.lines, shard.bytes),
                (inside.len() as u64, range.len())
            );
        }
        prop_assert_eq!(next, want.len());
    }
    Ok(())
}

/// One item a stream source served: the line number and offset its
/// position moved to, and the record or the `(line, error)` it gave.
type Served = (
    u64,
    u64,
    Result<wearscope::stream::StreamEvent, (u64, CodecError)>,
);

/// What the oracle says a source serves for `want`'s lines.
fn oracle_served<R: Clone>(
    want: &[OracleLine<R>],
    wrap: fn(R) -> wearscope::stream::StreamEvent,
) -> Vec<Served> {
    want.iter()
        .filter_map(|l| {
            let served = l.decoded.clone()?.map(wrap).map_err(|e| (l.line, e));
            Some((l.line, l.end, served))
        })
        .collect()
}

/// Polls `source` until it ends or waits, recording what it serves and
/// the log's `(line, offset)` position after each item (`at`), then the
/// position it stopped at.
fn serve(
    source: &mut wearscope::stream::WorldSource,
    at: fn(&wearscope::stream::SourcePosition) -> (u64, u64),
    out: &mut Vec<Served>,
) -> (u64, u64) {
    use wearscope::stream::{EventSource, Polled};
    loop {
        let polled = source.poll().unwrap();
        let (line, offset) = at(&source.position().unwrap());
        match polled {
            Polled::Event(event) => out.push((line, offset, Ok(event))),
            Polled::Malformed { line: l, error, .. } => {
                out.push((line, offset, Err((l, error))));
            }
            Polled::Pending | Polled::End => return (line, offset),
        }
    }
}

/// The stream's source over `text` as `log` (the other log empty),
/// against the oracle: read whole, on the caller's thread and read ahead
/// on a reader thread, and followed while its last line is cut in two and
/// then completed, it serves the oracle's lines at their line numbers and
/// end offsets, and stops at the log's end.
fn world_source_agrees<R: Clone>(
    dir: &std::path::Path,
    text: &[u8],
    want: &[OracleLine<R>],
    (log, other): (&str, &str),
    wrap: fn(R) -> wearscope::stream::StreamEvent,
    at: fn(&wearscope::stream::SourcePosition) -> (u64, u64),
) -> Result<(), TestCaseError> {
    use wearscope::stream::WorldSource;
    let end = (want.len() as u64, text.len() as u64);
    std::fs::write(dir.join(other), b"").unwrap();
    std::fs::write(dir.join(log), text).unwrap();
    let registry = wearscope::obs::Registry::new();
    for ahead in [false, true] {
        let mut source = WorldSource::open(dir, false).unwrap();
        if ahead {
            source = source.read_ahead(&registry).unwrap();
        }
        let mut got = Vec::new();
        let stop = serve(&mut source, at, &mut got);
        prop_assert_eq!(&got, &oracle_served(want, wrap));
        prop_assert_eq!(stop, end);
    }

    // Follow mode: the last line arrives in two parts; the first is held
    // back until its `\n` (or, when there is none, until following ends).
    let last_start = want
        .len()
        .checked_sub(2)
        .map_or(0, |i| want[i].end as usize);
    let cut = last_start + (text.len() - last_start) / 2;
    std::fs::write(dir.join(log), &text[..cut]).unwrap();
    let mut source = WorldSource::open(dir, true).unwrap();
    let mut got = Vec::new();
    let stop = serve(&mut source, at, &mut got);
    let complete = want
        .iter()
        .take_while(|l| l.end as usize <= cut && text[l.end as usize - 1] == b'\n');
    let held = complete.count();
    prop_assert_eq!(&got, &oracle_served(&want[..held], wrap));
    // A waiting source has committed up to the last line it served.
    let served = want[..held].iter().rev().find(|l| l.decoded.is_some());
    prop_assert_eq!(stop, served.map_or((0, 0), |l| (l.line, l.end)));
    std::fs::write(dir.join(log), text).unwrap();
    serve(&mut source, at, &mut got);
    source.finish();
    let stop = serve(&mut source, at, &mut got);
    prop_assert_eq!(&got, &oracle_served(want, wrap));
    prop_assert_eq!(stop, end);
    Ok(())
}

proptest! {
    /// Damaged logs read through the chunk reader and the stream's source
    /// decode as the oracle decodes their `read_until` lines, as proxy
    /// logs and as MME logs.
    #[test]
    fn readers_decode_logs_as_the_oracle(text in log_text()) {
        use wearscope::stream::StreamEvent;
        let dir = scratch_dir("readers");
        let proxy = oracle_lines(&text, oracle_proxy);
        let mme = oracle_lines(&text, oracle_mme);
        std::fs::write(dir.join("log"), &text).unwrap();
        shard_reader_agrees(&dir.join("log"), &proxy)?;
        shard_reader_agrees(&dir.join("log"), &mme)?;
        world_source_agrees(
            &dir,
            &text,
            &proxy,
            ("proxy.log", "mme.log"),
            StreamEvent::Proxy,
            |p| (p.proxy_line, p.proxy_offset),
        )?;
        world_source_agrees(
            &dir,
            &text,
            &mme,
            ("mme.log", "proxy.log"),
            StreamEvent::Mme,
            |p| (p.mme_line, p.mme_offset),
        )?;
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
