//! Property tests for the merge contract of [`Snapshot::merge`]:
//! commutative, associative, identity — the same laws the core partial
//! aggregates rely on for shard-order-independent folds.

use proptest::prelude::*;
use wearscope_obs::{HistogramSnapshot, Snapshot, StageSnapshot};

/// A small fixed key space so generated snapshots collide on names, which
/// is the interesting merge path.
const KEYS: [&str; 4] = [
    "ingest.kept",
    "ingest.seen",
    "stream.emitted",
    "trace.bytes",
];

/// Shared histogram bounds: merge requires identical bounds per name.
const BOUNDS: [u64; 3] = [10, 100, 1000];

#[allow(clippy::type_complexity)]
fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        prop::collection::vec((0usize..4, 0u64..1_000), 0..8),
        prop::collection::vec((0usize..4, -100i64..100), 0..8),
        prop::collection::vec((0usize..4, prop::collection::vec(0u64..2_000, 0..6)), 0..4),
        prop::collection::vec((0usize..4, 1u64..4, 0u64..1_000_000), 0..6),
    )
        .prop_map(|(counters, gauges, hists, stages)| {
            let mut s = Snapshot::default();
            for (k, v) in counters {
                *s.counters.entry(KEYS[k].to_string()).or_insert(0) += v;
            }
            for (k, v) in gauges {
                s.gauges.insert(KEYS[k].to_string(), v);
            }
            for (k, observations) in hists {
                let h =
                    s.histograms
                        .entry(KEYS[k].to_string())
                        .or_insert_with(|| HistogramSnapshot {
                            bounds: BOUNDS.to_vec(),
                            counts: vec![0; BOUNDS.len() + 1],
                            count: 0,
                            sum: 0,
                        });
                for v in observations {
                    let idx = BOUNDS.partition_point(|&b| b < v);
                    h.counts[idx] += 1;
                    h.count += 1;
                    h.sum += v;
                }
            }
            for (k, count, total_ns) in stages {
                match s.timing.stages.iter_mut().find(|st| st.path == KEYS[k]) {
                    Some(st) => {
                        st.count += count;
                        st.total_ns += total_ns;
                    }
                    None => s.timing.stages.push(StageSnapshot {
                        path: KEYS[k].to_string(),
                        count,
                        total_ns,
                    }),
                }
            }
            s
        })
}

/// Stage order is first-seen, so `a.merge(b)` and `b.merge(a)` may list
/// disjoint paths in different orders; normalize before comparing.
fn normalized(mut s: Snapshot) -> Snapshot {
    s.timing.stages.sort_by(|a, b| a.path.cmp(&b.path));
    s
}

proptest! {
    /// merge is commutative (up to stage listing order).
    #[test]
    fn merge_commutes(a in arb_snapshot(), b in arb_snapshot()) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(normalized(ab), normalized(ba));
    }

    /// merge is associative.
    #[test]
    fn merge_is_associative(a in arb_snapshot(), b in arb_snapshot(), c in arb_snapshot()) {
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(normalized(left), normalized(right));
    }

    /// Snapshot::default() is a two-sided identity.
    #[test]
    fn merge_identity(a in arb_snapshot()) {
        let mut left = Snapshot::default();
        left.merge(&a);
        let mut right = a.clone();
        right.merge(&Snapshot::default());
        prop_assert_eq!(normalized(left), normalized(a.clone()));
        prop_assert_eq!(normalized(right), normalized(a));
    }

    /// JSON serialization is a pure function of the snapshot: merging in
    /// either order yields byte-identical JSON after normalization.
    #[test]
    fn merged_json_is_order_independent(a in arb_snapshot(), b in arb_snapshot()) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(normalized(ab).to_json(), normalized(ba).to_json());
    }
}
