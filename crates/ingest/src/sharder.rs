//! In-memory sharding of a [`TraceStore`] by user-ID hash.
//!
//! Two of the pipeline's folds are stateful *within* a user — mobility
//! dwell tracking walks a device's attach/update/detach stream in order,
//! and third-party attribution searches a user's first-party anchors — so
//! a correct shard must hold **all** of a user's records, in log order.
//! Hashing the user ID gives exactly that: each shard is the full,
//! time-ordered sub-log of a disjoint user set, and the union of shards is
//! the whole store.

use wearscope_trace::{MmeRecord, ProxyRecord, TraceStore, UserId};

/// The store partitioned into user-disjoint shards. Record references keep
/// the store's time order within each shard.
#[derive(Debug)]
pub(crate) struct MemoryShards<'a> {
    /// Per shard: that user set's proxy records, in log order.
    pub(crate) proxy: Vec<Vec<&'a ProxyRecord>>,
    /// Per shard: that user set's MME records, in log order.
    pub(crate) mme: Vec<Vec<&'a MmeRecord>>,
}

impl MemoryShards<'_> {
    /// Number of shards (identical for both logs).
    pub(crate) fn len(&self) -> usize {
        self.proxy.len()
    }

    /// `true` if shard `i` holds no records of either log.
    pub(crate) fn shard_is_empty(&self, i: usize) -> bool {
        self.proxy[i].is_empty() && self.mme[i].is_empty()
    }
}

/// FNV-1a over the user ID. Splitmix-quality dispersion is not needed —
/// only a deterministic, platform-independent spread of user IDs over
/// shards (`DefaultHasher` is seeded per process, which would make shard
/// membership, and thus progress reports, differ run to run).
fn shard_of(user: UserId, shards: usize) -> usize {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for byte in user.0.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(PRIME);
    }
    (h % shards as u64) as usize
}

/// Partitions `store` into `shards` user-disjoint shards (at least 1).
pub(crate) fn shard_store(store: &TraceStore, shards: usize) -> MemoryShards<'_> {
    let shards = shards.max(1);
    let mut out = MemoryShards {
        proxy: vec![Vec::new(); shards],
        mme: vec![Vec::new(); shards],
    };
    for r in store.proxy() {
        out.proxy[shard_of(r.user, shards)].push(r);
    }
    for r in store.mme() {
        out.mme[shard_of(r.user, shards)].push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_simtime::SimTime;
    use wearscope_trace::{MmeEvent, Scheme};

    fn ptx(user: u64, t: u64) -> ProxyRecord {
        ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei: user * 1000,
            host: "example.com".into(),
            scheme: Scheme::Https,
            bytes_down: 100,
            bytes_up: 10,
        }
    }

    fn mme(user: u64, t: u64) -> MmeRecord {
        MmeRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei: user * 1000,
            event: MmeEvent::Attach,
            sector: 0,
        }
    }

    #[test]
    fn shards_partition_and_keep_user_whole() {
        let store = TraceStore::from_records(
            (0..300).map(|i| ptx(i % 17, i * 59)).collect(),
            (0..100).map(|i| mme(i % 17, i * 131)).collect(),
        );
        let shards = shard_store(&store, 5);
        assert_eq!(shards.len(), 5);
        // Every record lands in exactly one shard.
        let total_proxy: usize = shards.proxy.iter().map(Vec::len).sum();
        let total_mme: usize = shards.mme.iter().map(Vec::len).sum();
        assert_eq!(total_proxy, 300);
        assert_eq!(total_mme, 100);
        // A user's records never span shards, across both logs.
        for user in 0..17u64 {
            let in_proxy: Vec<usize> = (0..5)
                .filter(|&s| shards.proxy[s].iter().any(|r| r.user.0 == user))
                .collect();
            let in_mme: Vec<usize> = (0..5)
                .filter(|&s| shards.mme[s].iter().any(|r| r.user.0 == user))
                .collect();
            assert!(in_proxy.len() <= 1, "user {user} proxy in {in_proxy:?}");
            assert!(in_mme.len() <= 1);
            if let (Some(p), Some(m)) = (in_proxy.first(), in_mme.first()) {
                assert_eq!(p, m, "user {user} split across logs");
            }
        }
        // Log order is preserved within a shard.
        for shard in &shards.proxy {
            assert!(shard.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let store = TraceStore::from_records(vec![ptx(1, 5)], vec![]);
        let shards = shard_store(&store, 0);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards.proxy[0].len(), 1);
        assert!(!shards.shard_is_empty(0));
    }

    #[test]
    fn assignment_is_deterministic_across_calls() {
        let store = TraceStore::from_records((0..50).map(|i| ptx(i, i)).collect(), vec![]);
        let a = shard_store(&store, 7);
        let b = shard_store(&store, 7);
        for s in 0..7 {
            let ua: Vec<u64> = a.proxy[s].iter().map(|r| r.user.0).collect();
            let ub: Vec<u64> = b.proxy[s].iter().map(|r| r.user.0).collect();
            assert_eq!(ua, ub);
        }
    }
}
