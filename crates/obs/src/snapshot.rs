//! Frozen metric snapshots and their deterministic JSON.

use std::collections::BTreeMap;
use std::fmt::Write;

/// A frozen histogram: bounds, per-bucket counts (overflow last), total
/// count, and sum of observations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1` (overflow last).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations (wrapping).
    pub sum: u64,
}

/// Accumulated wall-clock time for one stage path, in execution order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Slash-separated stage path (`"analyze/load"`).
    pub path: String,
    /// Number of times the span ran.
    pub count: u64,
    /// Total wall-clock nanoseconds across all runs.
    pub total_ns: u64,
}

/// The timing section of a snapshot: everything that legitimately varies
/// run-to-run (wall clock, per-shard layout), excluded from determinism
/// gates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimingSnapshot {
    /// Timing-section counters.
    pub counters: BTreeMap<String, u64>,
    /// Timing-section gauges.
    pub gauges: BTreeMap<String, i64>,
    /// Timing-section histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Stage spans in first-seen order.
    pub stages: Vec<StageSnapshot>,
}

/// A frozen view of a whole [`Registry`](crate::Registry).
///
/// The deterministic maps (`counters`, `gauges`, `histograms`) must be
/// bit-identical across worker counts for the same input; everything that
/// cannot promise that lives under [`Snapshot::timing`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Deterministic counters.
    pub counters: BTreeMap<String, u64>,
    /// Deterministic gauges.
    pub gauges: BTreeMap<String, i64>,
    /// Deterministic histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// The run-varying section, serialized last.
    pub timing: TimingSnapshot,
}

impl Snapshot {
    /// Serialize to pretty-printed JSON with two-space indent.
    ///
    /// Keys are emitted in sorted order within every object, and the
    /// top-level key order is `counters`, `gauges`, `histograms`, `timing`
    /// — alphabetical, with `timing` last, so a determinism gate can strip
    /// the timing section by cutting at the `"timing"` line and
    /// byte-compare the rest.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        write_u64_map(&mut out, 1, "counters", &self.counters);
        out.push_str(",\n");
        write_i64_map(&mut out, 1, "gauges", &self.gauges);
        out.push_str(",\n");
        write_hist_map(&mut out, 1, "histograms", &self.histograms);
        out.push_str(",\n");
        // Timing object: sorted keys with "stages" last (s > h > g > c).
        push_indent(&mut out, 1);
        out.push_str("\"timing\": {\n");
        write_u64_map(&mut out, 2, "counters", &self.timing.counters);
        out.push_str(",\n");
        write_i64_map(&mut out, 2, "gauges", &self.timing.gauges);
        out.push_str(",\n");
        write_hist_map(&mut out, 2, "histograms", &self.timing.histograms);
        out.push_str(",\n");
        push_indent(&mut out, 2);
        out.push_str("\"stages\": [");
        for (i, stage) in self.timing.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            push_indent(&mut out, 3);
            let _ = write!(
                out,
                "{{\"path\": {}, \"count\": {}, \"total_ns\": {}}}",
                json_string(&stage.path),
                stage.count,
                stage.total_ns
            );
        }
        if !self.timing.stages.is_empty() {
            out.push('\n');
            push_indent(&mut out, 2);
        }
        out.push_str("]\n");
        push_indent(&mut out, 1);
        out.push_str("}\n");
        out.push_str("}\n");
        out
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn write_u64_map(out: &mut String, depth: usize, name: &str, map: &BTreeMap<String, u64>) {
    push_indent(out, depth);
    let _ = write!(out, "\"{name}\": {{");
    write_scalar_entries(out, depth, map.iter().map(|(k, v)| (k, v.to_string())));
    out.push('}');
}

fn write_i64_map(out: &mut String, depth: usize, name: &str, map: &BTreeMap<String, i64>) {
    push_indent(out, depth);
    let _ = write!(out, "\"{name}\": {{");
    write_scalar_entries(out, depth, map.iter().map(|(k, v)| (k, v.to_string())));
    out.push('}');
}

fn write_scalar_entries<'a>(
    out: &mut String,
    depth: usize,
    entries: impl Iterator<Item = (&'a String, String)>,
) {
    let mut any = false;
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        push_indent(out, depth + 1);
        let _ = write!(out, "{}: {}", json_string(k), v);
        any = true;
    }
    if any {
        out.push('\n');
        push_indent(out, depth);
    }
}

fn write_hist_map(
    out: &mut String,
    depth: usize,
    name: &str,
    map: &BTreeMap<String, HistogramSnapshot>,
) {
    push_indent(out, depth);
    let _ = write!(out, "\"{name}\": {{");
    let mut any = false;
    for (i, (k, h)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        push_indent(out, depth + 1);
        let _ = write!(
            out,
            "{}: {{\"bounds\": {:?}, \"count\": {}, \"counts\": {:?}, \"sum\": {}}}",
            json_string(k),
            h.bounds,
            h.count,
            h.counts,
            h.sum
        );
        any = true;
    }
    if any {
        out.push('\n');
        push_indent(out, depth);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("ingest.kept".into(), 90);
        s.counters.insert("ingest.seen".into(), 100);
        s.gauges.insert("stream.open_windows".into(), 3);
        s.histograms.insert(
            "stream.window_events".into(),
            HistogramSnapshot {
                bounds: vec![10, 100],
                counts: vec![1, 2, 0],
                count: 3,
                sum: 57,
            },
        );
        s.timing.counters.insert("ingest.shards".into(), 4);
        s.timing.stages.push(StageSnapshot {
            path: "analyze/load".into(),
            count: 1,
            total_ns: 1234,
        });
        s
    }

    #[test]
    fn json_is_sorted_and_timing_last() {
        let json = sample().to_json();
        let counters = json.find("\"counters\"").unwrap();
        let gauges = json.find("\"gauges\"").unwrap();
        let histograms = json.find("\"histograms\"").unwrap();
        let timing = json.find("\"timing\"").unwrap();
        assert!(counters < gauges && gauges < histograms && histograms < timing);
        // Sorted keys within a map.
        assert!(json.find("ingest.kept").unwrap() < json.find("ingest.seen").unwrap());
        // The timing key sits at top-level indent, strippable by line.
        assert!(json.contains("\n  \"timing\": {"));
    }

    #[test]
    fn json_of_empty_snapshot_is_stable() {
        let json = Snapshot::default().to_json();
        assert_eq!(
            json,
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {},\n  \"timing\": {\n    \"counters\": {},\n    \"gauges\": {},\n    \"histograms\": {},\n    \"stages\": []\n  }\n}\n"
        );
    }
}
