//! The three metric primitives: [`Counter`], [`Gauge`], [`Histogram`].
//!
//! All three are thin handles around atomics shared through an `Arc`, so a
//! handle can be cloned into every shard worker and updated without locks.
//! Loads/stores use `Relaxed` ordering: metrics are monotone accumulators
//! read only after the work they observe has been joined, so no ordering
//! beyond atomicity is required.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing `u64` counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge: a value that can move both ways (open windows, watermark
/// position, queue depth).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger (peak tracking).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
pub(crate) struct HistogramInner {
    /// Inclusive upper bounds, strictly increasing. An implicit overflow
    /// bucket (`+inf`) always exists, so `counts.len() == bounds.len() + 1`.
    pub(crate) bounds: Vec<u64>,
    pub(crate) counts: Vec<AtomicU64>,
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
}

/// A fixed-bucket histogram over `u64` observations.
///
/// Buckets are defined by inclusive upper bounds chosen at registration:
/// an observation `v` lands in the first bucket whose bound is `>= v`, or
/// in the implicit overflow bucket when `v` exceeds every bound.
#[derive(Clone, Debug)]
pub struct Histogram(pub(crate) Arc<HistogramInner>);

impl Histogram {
    /// Build a histogram with the given inclusive upper bounds.
    ///
    /// Bounds must be strictly increasing; out-of-order or duplicate bounds
    /// are a programming error and panic.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.0.bounds.partition_point(|&b| b < v);
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The configured inclusive upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.0.bounds
    }

    /// Per-bucket counts, overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        // Clones share the cell.
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 43);

        let g = Gauge::default();
        g.set(4);
        assert_eq!(g.get(), 4);
        g.set_max(10);
        g.set_max(2);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bounds are inclusive upper bounds: 0..=10 | 11..=100 | 101..
        let h = Histogram::new(&[10, 100]);
        h.observe(0); // first bucket (<= 10)
        h.observe(10); // first bucket, exactly on the bound
        h.observe(11); // second bucket, just past the bound
        h.observe(100); // second bucket, exactly on the bound
        h.observe(101); // overflow bucket
        h.observe(u64::MAX); // overflow bucket
        assert_eq!(h.bucket_counts(), vec![2, 2, 2]);
        assert_eq!(h.count(), 6);
        // The sum accumulator wraps on overflow, like any fetch_add.
        assert_eq!(h.sum(), u64::MAX.wrapping_add(10 + 11 + 100 + 101));
    }

    #[test]
    fn histogram_single_bound_and_empty_bounds() {
        let h = Histogram::new(&[5]);
        h.observe(5);
        h.observe(6);
        assert_eq!(h.bucket_counts(), vec![1, 1]);

        // No bounds: everything lands in the lone overflow bucket.
        let h = Histogram::new(&[]);
        h.observe(0);
        h.observe(123);
        assert_eq!(h.bucket_counts(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[10, 10]);
    }

    #[test]
    fn histogram_shared_across_threads() {
        let h = Histogram::new(&[100]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for v in 0..1000u64 {
                        h.observe(v);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.bucket_counts(), vec![4 * 101, 4 * 899]);
    }
}
