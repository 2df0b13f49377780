//! One fixed, fast hasher for the fold's per-record maps.
//!
//! The analyses key their maps by small integers and tuples of them —
//! [`UserId`](wearscope_trace::UserId) (`kind << 32 | index`), days,
//! IMEIs, app and sector ids — and touch them once or more per record.
//! SipHash (the `std` default) is built to resist keys an attacker picks;
//! these keys come from the analyst's own logs, so a multiply-and-rotate
//! hash in the shape of `rustc-hash` 2 does the job at a fraction of the
//! cost. Output never depends on map iteration order (DESIGN decision 6:
//! every map is sorted or reduced order-free before it reaches a report),
//! so swapping the hasher leaves every byte the same. Maps keyed by
//! strings read from a log (host names) keep `std`'s SipHash.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over [`FastHasher`]. Build one with `default()` or
/// `collect()`; `new()` belongs to the `RandomState` map only.
pub type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` over [`FastHasher`].
pub type HashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FastHasher>>;

/// The multiplier of `rustc-hash` 2: odd, with its set bits spread out.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-and-rotate hasher: each word is added then multiplied by
/// an odd constant; [`finish`](Hasher::finish) rotates the well-mixed high bits
/// down to where the table takes its bucket index.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        // The length keeps `"a\0"` and `"a"` apart.
        self.add(u64::from_le_bytes(tail) ^ ((bytes.len() as u64) << 56));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};
    use wearscope_trace::UserId;

    fn hash_of<T: Hash + ?Sized>(key: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(key)
    }

    /// Distinct values of the low 16 bits (the bucket index of a table
    /// up to 65 536 slots) and of the top 7 (the table's tag byte) over
    /// `keys`.
    fn spread<T: Hash>(keys: &[T]) -> (usize, usize) {
        let low: HashSet<u64> = keys.iter().map(|k| hash_of(k) & 0xffff).collect();
        let top: HashSet<u64> = keys.iter().map(|k| hash_of(k) >> 57).collect();
        (low.len(), top.len())
    }

    /// 4 096 keys thrown at random into 65 536 buckets land in about
    /// 3 970 distinct ones; the repo's key shapes must come close.
    fn assert_spread<T: Hash>(what: &str, keys: &[T]) {
        assert_eq!(keys.len(), 4096);
        let (low, top) = spread(keys);
        assert!(low >= 3800, "{what}: {low} distinct low-16-bit values");
        assert_eq!(top, 128, "{what}: {top} distinct top-7-bit values");
    }

    fn users() -> Vec<UserId> {
        // Two subscriber kinds, 2 048 each: `(kind << 32) | index`.
        (0..2u64)
            .flat_map(|kind| (0..2048u64).map(move |i| UserId((kind << 32) | i)))
            .collect()
    }

    #[test]
    fn user_ids_spread_over_the_low_bits() {
        assert_spread("UserId", &users());
    }

    #[test]
    fn user_day_pairs_spread_over_the_low_bits() {
        // 128 users on each of 32 consecutive days.
        let keys: Vec<(UserId, u64)> = users()
            .into_iter()
            .step_by(32)
            .flat_map(|u| (19_000..19_032u64).map(move |day| (u, day)))
            .collect();
        assert_spread("(UserId, day)", &keys);
    }

    #[test]
    fn user_imei_pairs_spread_over_the_low_bits() {
        // Each user's IMEI: one TAC, a serial per user, a check digit.
        let keys: Vec<(UserId, u64)> = users()
            .into_iter()
            .enumerate()
            .map(|(i, u)| (u, 356_656_100_000_000 + 10 * i as u64 + (i as u64 % 10)))
            .collect();
        assert_spread("(UserId, imei)", &keys);
    }

    #[test]
    fn byte_strings_of_different_lengths_differ() {
        assert_ne!(hash_of(&"a"), hash_of(&"a\0"));
        assert_ne!(hash_of(&b"abcdefgh"[..]), hash_of(&b"abcdefgh\0"[..]));
    }
}
