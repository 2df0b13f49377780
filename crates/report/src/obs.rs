//! Rendering pipeline metric snapshots for `--metrics` runs: the
//! wall-clock stage-timing table and a one-screen counter digest.
//!
//! The JSON snapshot ([`wearscope_obs::Snapshot::to_json`]) is the
//! machine-readable artifact; these renderers are what the CLI prints to
//! stderr so a human can see where a run spent its time without opening
//! the file.

use wearscope_obs::Snapshot;

use crate::Table;

/// Renders the snapshot's stage spans as a table in execution order,
/// parents before their children and each stage indented by its depth in
/// the span tree (one span path per row; repeated spans accumulate into
/// `count` and `total`).
pub fn render_stage_table(snapshot: &Snapshot) -> String {
    let stages = &snapshot.timing.stages;
    if stages.is_empty() {
        return String::new();
    }
    // The snapshot lists spans as they first finish, children before their
    // parent. Ordering each path by where every ancestor's subtree first
    // appears puts parents first and keeps siblings in execution order.
    let first_seen = |prefix: &str| {
        stages
            .iter()
            .position(|s| {
                s.path
                    .strip_prefix(prefix)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
            })
            .unwrap_or(usize::MAX)
    };
    let mut ordered: Vec<_> = stages.iter().collect();
    ordered.sort_by_cached_key(|s| {
        let path = s.path.as_str();
        let ancestors = path.match_indices('/').map(|(i, _)| &path[..i]);
        ancestors.chain([path]).map(first_seen).collect::<Vec<_>>()
    });
    let mut t = Table::new(vec!["stage", "count", "total ms", "mean ms"]);
    for s in ordered {
        let depth = s.path.matches('/').count();
        let name = s.path.rsplit('/').next().unwrap_or(&s.path);
        let label = format!("{}{}", "  ".repeat(depth), name);
        let total_ms = s.total_ns as f64 / 1e6;
        let mean_ms = total_ms / (s.count.max(1)) as f64;
        t.row(vec![
            label,
            s.count.to_string(),
            format!("{total_ms:.3}"),
            format!("{mean_ms:.3}"),
        ]);
    }
    t.render()
}

/// Renders the deterministic counters and gauges as a two-column table
/// (histograms are summarized as `count/sum`). Timing-section scalars are
/// appended under the same layout with a `timing.` prefix so the split
/// stays visible.
pub fn render_metrics(snapshot: &Snapshot) -> String {
    let mut t = Table::new(vec!["metric", "value"]);
    for (k, v) in &snapshot.counters {
        t.row(vec![k.clone(), v.to_string()]);
    }
    for (k, v) in &snapshot.gauges {
        t.row(vec![k.clone(), v.to_string()]);
    }
    for (k, h) in &snapshot.histograms {
        t.row(vec![k.clone(), format!("{}/{}", h.count, h.sum)]);
    }
    for (k, v) in &snapshot.timing.counters {
        t.row(vec![format!("timing.{k}"), v.to_string()]);
    }
    for (k, v) in &snapshot.timing.gauges {
        t.row(vec![format!("timing.{k}"), v.to_string()]);
    }
    for (k, h) in &snapshot.timing.histograms {
        t.row(vec![
            format!("timing.{k}"),
            format!("{}/{}", h.count, h.sum),
        ]);
    }
    if t.is_empty() {
        return String::new();
    }
    let mut out = t.render();
    let stages = render_stage_table(snapshot);
    if !stages.is_empty() {
        out.push('\n');
        out.push_str(&stages);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_obs::Registry;

    #[test]
    fn stage_table_indents_by_depth_in_execution_order() {
        let reg = Registry::new();
        {
            let root = reg.stage("analyze");
            {
                let load = root.child("load");
                load.child("shard").finish();
            }
            root.child("fold").finish();
            {
                let results = root.child("results");
                results.child("weekly").finish();
                results.child("devices").finish();
            }
            root.child("report").finish();
        }
        let s = render_stage_table(&reg.snapshot());
        let labels: Vec<&str> = s
            .lines()
            .skip(2) // header and underline
            // Drop the count, total and mean columns.
            .map(|l| l.trim_end_matches(|c: char| c.is_ascii_digit() || " .".contains(c)))
            .collect();
        // Pre-order: each parent before its children, siblings in
        // execution order.
        assert_eq!(
            labels,
            [
                "analyze",
                "  load",
                "    shard",
                "  fold",
                "  results",
                "    weekly",
                "    devices",
                "  report"
            ],
            "{s}"
        );
    }

    #[test]
    fn metrics_digest_lists_both_sections() {
        let reg = Registry::new();
        reg.counter("ingest.records_seen").add(500);
        reg.gauge("stream.open_windows").set(3);
        reg.timing_counter("ingest.shards").add(8);
        let s = render_metrics(&reg.snapshot());
        assert!(s.contains("ingest.records_seen"), "{s}");
        assert!(s.contains("500"), "{s}");
        assert!(s.contains("stream.open_windows"), "{s}");
        assert!(s.contains("timing.ingest.shards"), "{s}");
    }

    #[test]
    fn empty_snapshot_renders_nothing() {
        let reg = Registry::new();
        assert_eq!(render_metrics(&reg.snapshot()), "");
        assert_eq!(render_stage_table(&reg.snapshot()), "");
    }
}
