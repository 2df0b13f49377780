//! The [`Registry`]: named metric registration and wall-clock [`Span`]s.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{HistogramSnapshot, Snapshot, StageSnapshot, TimingSnapshot};

/// Accumulated wall-clock time for one stage path.
#[derive(Debug)]
struct StageAccum {
    /// First-seen order, so reports can render stages in execution order.
    seq: usize,
    count: u64,
    total_ns: u64,
}

#[derive(Debug, Default)]
struct Section {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Section {
    fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut map = self.histograms.lock().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    fn snapshot_into(
        &self,
    ) -> (
        BTreeMap<String, u64>,
        BTreeMap<String, i64>,
        BTreeMap<String, HistogramSnapshot>,
    ) {
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        bounds: v.bounds().to_vec(),
                        counts: v.bucket_counts(),
                        count: v.count(),
                        sum: v.sum(),
                    },
                )
            })
            .collect();
        (counters, gauges, histograms)
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Deterministic section: must be bit-identical across worker counts.
    main: Section,
    /// Timing section: wall-clock and layout-dependent values, excluded
    /// from determinism gates.
    timing: Section,
    stages: Mutex<BTreeMap<String, StageAccum>>,
}

/// A handle to a set of named metrics, cheap to clone and share across
/// threads. See the crate docs for the deterministic-vs-timing split.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create a counter in the **deterministic** section.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.main.counter(name)
    }

    /// Get or create a gauge in the **deterministic** section.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.main.gauge(name)
    }

    /// Get or create a histogram in the **deterministic** section.
    ///
    /// Bounds are fixed by the first registration; later calls with the
    /// same name return the existing histogram regardless of `bounds`.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        self.inner.main.histogram(name, bounds)
    }

    /// Get or create a counter in the **timing** section.
    pub fn timing_counter(&self, name: &str) -> Counter {
        self.inner.timing.counter(name)
    }

    /// Get or create a gauge in the **timing** section.
    pub fn timing_gauge(&self, name: &str) -> Gauge {
        self.inner.timing.gauge(name)
    }

    /// Get or create a histogram in the **timing** section.
    pub fn timing_histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        self.inner.timing.histogram(name, bounds)
    }

    /// Sets the timing gauge `process.peak_rss_kb` to the process's peak
    /// resident set size so far (`VmHWM` in `/proc/self/status`), so a
    /// snapshot taken next doubles as a small bench record. Where that file
    /// cannot be read the gauge stays absent.
    pub fn note_peak_rss(&self) {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        if let Some(kb) = vm_hwm_kb(&status) {
            self.timing_gauge("process.peak_rss_kb").set(kb);
        }
    }

    /// Open a root wall-clock span named `name`. Time is recorded into the
    /// timing section when the span drops.
    pub fn stage(&self, name: &str) -> Span {
        Span {
            registry: self.clone(),
            path: name.to_string(),
            start: Instant::now(),
        }
    }

    fn record_stage(&self, path: &str, elapsed: Duration) {
        let mut stages = self.inner.stages.lock().unwrap();
        let next_seq = stages.len();
        let acc = stages.entry(path.to_string()).or_insert(StageAccum {
            seq: next_seq,
            count: 0,
            total_ns: 0,
        });
        acc.count += 1;
        acc.total_ns = acc.total_ns.saturating_add(elapsed.as_nanos() as u64);
    }

    /// Freeze every metric into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let (counters, gauges, histograms) = self.inner.main.snapshot_into();
        let (t_counters, t_gauges, t_histograms) = self.inner.timing.snapshot_into();
        let mut stages: Vec<(usize, StageSnapshot)> = self
            .inner
            .stages
            .lock()
            .unwrap()
            .iter()
            .map(|(path, acc)| {
                (
                    acc.seq,
                    StageSnapshot {
                        path: path.clone(),
                        count: acc.count,
                        total_ns: acc.total_ns,
                    },
                )
            })
            .collect();
        stages.sort_by_key(|(seq, _)| *seq);
        Snapshot {
            counters,
            gauges,
            histograms,
            timing: TimingSnapshot {
                counters: t_counters,
                gauges: t_gauges,
                histograms: t_histograms,
                stages: stages.into_iter().map(|(_, s)| s).collect(),
            },
        }
    }
}

/// An RAII wall-clock span. Records its elapsed time under its
/// slash-separated path when dropped; nest with [`Span::child`].
#[derive(Debug)]
pub struct Span {
    registry: Registry,
    path: String,
    start: Instant,
}

impl Span {
    /// Open a child span whose path is `"{parent}/{name}"`.
    pub fn child(&self, name: &str) -> Span {
        Span {
            registry: self.registry.clone(),
            path: format!("{}/{}", self.path, name),
            start: Instant::now(),
        }
    }

    /// The slash-separated stage path of this span.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Close the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.registry.record_stage(&self.path, elapsed);
    }
}

/// The `VmHWM:` value of a `/proc/<pid>/status` text, in KiB.
fn vm_hwm_kb(status: &str) -> Option<i64> {
    let value = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    value.trim().strip_suffix("kB")?.trim_end().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_the_status_text() {
        let status =
            "Name:\twearscope\nVmPeak:\t  20000 kB\nVmHWM:\t    4412 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(4412));
        assert_eq!(vm_hwm_kb("Name:\twearscope\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn peak_rss_is_a_timing_gauge() {
        let reg = Registry::new();
        reg.note_peak_rss();
        let snap = reg.snapshot();
        assert!(snap.gauges.is_empty());
        if std::fs::read_to_string("/proc/self/status").is_ok() {
            assert!(snap.timing.gauges["process.peak_rss_kb"] > 0);
        } else {
            assert!(snap.timing.gauges.is_empty());
        }
    }

    #[test]
    fn same_name_shares_the_cell() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(reg.counter("x").get(), 3);
        // Deterministic and timing sections are separate namespaces.
        reg.timing_counter("x").add(10);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["x"], 3);
        assert_eq!(snap.timing.counters["x"], 10);
    }

    #[test]
    fn spans_nest_and_preserve_first_seen_order() {
        let reg = Registry::new();
        {
            let root = reg.stage("analyze");
            {
                let load = root.child("load");
                let _shard = load.child("shard");
            }
            root.child("fold").finish();
        }
        // Run "analyze" a second time: counts accumulate, order is stable.
        reg.stage("analyze").finish();
        let snap = reg.snapshot();
        let paths: Vec<&str> = snap.timing.stages.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "analyze/load/shard",
                "analyze/load",
                "analyze/fold",
                "analyze"
            ]
        );
        let analyze = snap
            .timing
            .stages
            .iter()
            .find(|s| s.path == "analyze")
            .unwrap();
        assert_eq!(analyze.count, 2);
    }

    #[test]
    fn registry_clones_share_state() {
        let reg = Registry::new();
        let reg2 = reg.clone();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = reg2.clone();
                s.spawn(move || r.counter("hits").add(100));
            }
        });
        assert_eq!(reg.counter("hits").get(), 400);
    }
}
