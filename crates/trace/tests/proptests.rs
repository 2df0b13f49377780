//! Property-based tests: codec round-trips, the byte encoder against the
//! string-building writer it replaced, and store ordering invariants.

use proptest::prelude::*;
use wearscope_simtime::SimTime;
use wearscope_trace::{
    codec, HostId, MmeEvent, MmeRecord, ProxyRecord, Scheme, TraceStore, TsvRecord, UserId,
};

/// The string-building line writer the byte encoder replaced, kept here as
/// the oracle for [`TsvRecord::encode_into`]: one `String` per line, every
/// number through `to_string`, every string field through the escape.
struct FieldWriter {
    line: String,
    first: bool,
}

impl FieldWriter {
    fn new() -> FieldWriter {
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

    fn u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        self.line.push_str(&v.to_string());
        self
    }

    fn str(&mut self, s: &str) -> &mut Self {
        self.sep();
        codec::escape_into(s, &mut self.line);
        self
    }

    fn finish(self) -> String {
        self.line
    }
}

fn oracle_proxy_line(r: &ProxyRecord) -> String {
    let scheme = match r.scheme {
        Scheme::Http => 0,
        Scheme::Https => 1,
    };
    let mut w = FieldWriter::new();
    w.u64(r.timestamp.as_secs())
        .u64(r.user.raw())
        .u64(r.imei)
        .str(r.host.name())
        .u64(scheme)
        .u64(r.bytes_down)
        .u64(r.bytes_up);
    w.finish()
}

fn oracle_mme_line(r: &MmeRecord) -> String {
    let event = match r.event {
        MmeEvent::Attach => 0,
        MmeEvent::Detach => 1,
        MmeEvent::SectorUpdate => 2,
    };
    let mut w = FieldWriter::new();
    w.u64(r.timestamp.as_secs())
        .u64(r.user.raw())
        .u64(r.imei)
        .u64(event)
        .u64(u64::from(r.sector));
    w.finish()
}

/// Any `u64`, with both ends of the range drawn often.
fn edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..=0, u64::MAX..=u64::MAX, any::<u64>()]
}

/// Hosts the escape must handle: the specials, non-ASCII, empty (one
/// class draw in 17).
fn edge_host() -> impl Strategy<Value = String> {
    prop_oneof!["[a-z.\\\t\n\rüé漢]{0,16}", "\\PC{0,30}"]
}

fn edge_proxy() -> impl Strategy<Value = ProxyRecord> {
    (
        edge_u64(),
        edge_u64(),
        edge_u64(),
        edge_host(),
        prop::bool::ANY,
        edge_u64(),
        edge_u64(),
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

fn edge_mme() -> impl Strategy<Value = MmeRecord> {
    (
        edge_u64(),
        edge_u64(),
        edge_u64(),
        0u8..3,
        prop_oneof![0u32..=0, u32::MAX..=u32::MAX, any::<u32>()],
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

fn arb_proxy() -> impl Strategy<Value = ProxyRecord> {
    (
        0u64..10_000_000,
        0u64..1_000_000,
        0u64..1_000_000_000_000_000,
        "\\PC{0,30}",
        prop::bool::ANY,
        0u64..100_000_000,
        0u64..100_000_000,
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

fn arb_mme() -> impl Strategy<Value = MmeRecord> {
    (
        0u64..10_000_000,
        0u64..1_000_000,
        0u64..1_000_000_000_000_000,
        0u8..3,
        0u32..100_000,
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

proptest! {
    /// Escape/unescape round-trips arbitrary unicode.
    #[test]
    fn escape_roundtrip(s in "\\PC{0,60}") {
        let mut esc = String::new();
        codec::escape_into(&s, &mut esc);
        prop_assert!(!esc.contains('\t'));
        prop_assert!(!esc.contains('\n'));
        prop_assert_eq!(codec::unescape(&esc).unwrap(), s);
    }

    /// ProxyRecord TSV round-trip, even with hostile hosts.
    #[test]
    fn proxy_roundtrip(rec in arb_proxy()) {
        let line = rec.to_line();
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(ProxyRecord::from_line(&line).unwrap(), rec);
    }

    /// MmeRecord TSV round-trip.
    #[test]
    fn mme_roundtrip(rec in arb_mme()) {
        prop_assert_eq!(MmeRecord::from_line(&rec.to_line()).unwrap(), rec);
    }

    /// The byte encoder writes exactly the oracle's proxy line, and the
    /// line decodes back to the record.
    #[test]
    fn proxy_encoder_matches_oracle(rec in edge_proxy()) {
        let mut out = Vec::new();
        rec.encode_into(&mut out);
        let oracle = oracle_proxy_line(&rec);
        prop_assert_eq!(&out, oracle.as_bytes());
        prop_assert_eq!(rec.to_line(), oracle);
        prop_assert_eq!(ProxyRecord::from_line(&rec.to_line()).unwrap(), rec);
    }

    /// The byte encoder writes exactly the oracle's MME line, and the line
    /// decodes back to the record.
    #[test]
    fn mme_encoder_matches_oracle(rec in edge_mme()) {
        let mut out = Vec::new();
        rec.encode_into(&mut out);
        let oracle = oracle_mme_line(&rec);
        prop_assert_eq!(&out, oracle.as_bytes());
        prop_assert_eq!(rec.to_line(), oracle);
        prop_assert_eq!(MmeRecord::from_line(&rec.to_line()).unwrap(), rec);
    }

    /// A written log is the oracle's lines, each ended by `\n`.
    #[test]
    fn log_writer_matches_oracle(recs in prop::collection::vec(edge_proxy(), 0..20)) {
        use wearscope_trace::LogWriter;
        let mut sink = Vec::new();
        {
            let mut w = LogWriter::new(&mut sink);
            for r in &recs {
                w.write(r).unwrap();
            }
            w.flush().unwrap();
        }
        let expected: String = recs.iter().map(|r| oracle_proxy_line(r) + "\n").collect();
        prop_assert_eq!(sink, expected.into_bytes());
    }

    /// A store built from arbitrary records is sorted and keeps them all.
    #[test]
    fn store_from_records_is_sorted(proxy in prop::collection::vec(arb_proxy(), 0..80)) {
        let total = proxy.len();
        let store = TraceStore::from_records(proxy, vec![]);
        prop_assert!(store.proxy().is_sorted_by_key(|r| r.timestamp));
        prop_assert_eq!(store.proxy().len(), total);
    }

    /// Reading a concatenation of serialized records yields them in order.
    #[test]
    fn log_stream_roundtrip(recs in prop::collection::vec(arb_mme(), 0..50)) {
        use wearscope_trace::{decode_log_line, LogWriter};
        let mut sink = Vec::new();
        {
            let mut w = LogWriter::new(&mut sink);
            for r in &recs {
                w.write(r).unwrap();
            }
            w.flush().unwrap();
        }
        let read: Vec<MmeRecord> = sink
            .split_inclusive(|&b| b == b'\n')
            .map(|line| decode_log_line(line).unwrap().unwrap())
            .collect();
        prop_assert_eq!(read, recs);
    }
}
