//! Property-based tests: codec round-trips and store ordering invariants.

use proptest::prelude::*;
use wearscope_simtime::SimTime;
use wearscope_trace::{
    codec, HostId, MmeEvent, MmeRecord, ProxyRecord, Scheme, TraceStore, TsvRecord, UserId,
};

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

    /// A store built from arbitrary records is sorted and keeps them all.
    #[test]
    fn store_from_records_is_sorted(proxy in prop::collection::vec(arb_proxy(), 0..80)) {
        let total = proxy.len();
        let store = TraceStore::from_records(proxy, vec![]);
        prop_assert!(store.is_time_sorted());
        prop_assert_eq!(store.proxy().len(), total);
    }

    /// Reading a concatenation of serialized records yields them in order.
    #[test]
    fn log_stream_roundtrip(recs in prop::collection::vec(arb_mme(), 0..50)) {
        use wearscope_trace::{LogReader, LogWriter};
        let mut sink = Vec::new();
        {
            let mut w = LogWriter::new(&mut sink);
            for r in &recs {
                w.write(r).unwrap();
            }
            w.flush().unwrap();
        }
        let read: Vec<MmeRecord> = LogReader::new(sink.as_slice())
            .collect::<Result<_, _>>()
            .unwrap();
        prop_assert_eq!(read, recs);
    }
}
