//! The corrupted-world drills, run on the `wearscope` binary: a quick
//! seed-7 world, corrupted by `corrupt --seed 3 --faults all`, analyzed
//! at 1 and 4 workers and streamed at zero lateness. Worker count must
//! change nothing but timings, and batch and stream must quarantine and
//! count alike.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `wearscope ARGS`, which must exit 0.
fn wearscope(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_wearscope"))
        .args(args)
        .output()
        .expect("run wearscope");
    assert!(
        out.status.success(),
        "wearscope {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn path(p: &Path) -> &str {
    p.to_str().expect("UTF-8 path")
}

/// Every file under `dir` by its path below it, with its bytes.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for entry in std::fs::read_dir(&d).expect("read dir") {
            let p = entry.expect("dir entry").path();
            if p.is_dir() {
                dirs.push(p);
            } else {
                let bytes = std::fs::read(&p).expect("read file");
                files.insert(p.strip_prefix(dir).unwrap().to_path_buf(), bytes);
            }
        }
    }
    files
}

/// A `--metrics` snapshot cut before its `timing` key, which is written
/// last: the deterministic sections, then the timing section.
fn split_timing(json: &str) -> (&str, &str) {
    let at = json.find("\n  \"timing\":").expect("a timing section") + 1;
    json.split_at(at)
}

/// The text after `quarantined: ` on each `quality:` or `stream:` line of
/// a run's stderr: the per-reason quarantine counts.
fn quarantine_counts(stderr: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(stderr)
        .lines()
        .filter(|l| l.starts_with("quality:") || l.starts_with("stream:"))
        .filter_map(|l| Some(l[l.find("quarantined: ")?..].to_string()))
        .collect()
}

/// The `trace.*` counter lines of a snapshot's deterministic sections.
fn trace_lines(deterministic: &str) -> Vec<&str> {
    deterministic
        .lines()
        .filter(|l| l.contains("\"trace."))
        .collect()
}

#[test]
fn corrupted_world_is_analyzed_alike_at_any_worker_count_and_by_stream() {
    let dir = std::env::temp_dir().join(format!("wearscope-cli-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (world, twin) = (dir.join("world"), dir.join("world-twin"));
    let world_arg = path(&world);
    wearscope(&[
        "generate", "--out", world_arg, "--seed", "7", "--scale", "quick",
    ]);
    std::fs::create_dir_all(&twin).unwrap();
    for (name, bytes) in tree(&world) {
        std::fs::write(twin.join(name), bytes).unwrap();
    }
    for w in [&world, &twin] {
        wearscope(&[
            "corrupt",
            "--world",
            path(w),
            "--seed",
            "3",
            "--faults",
            "all",
        ]);
    }
    // `corrupt` streams each log through `<log>.tmp` renamed over it: no
    // temp file is left, and the same (world, seed, spec) gives the same
    // bytes.
    let (corrupted, twin_files) = (tree(&world), tree(&twin));
    for files in [&corrupted, &twin_files] {
        assert!(files
            .keys()
            .all(|p| p.extension().is_none_or(|e| e != "tmp")));
    }
    for log in ["proxy.log", "mme.log"] {
        assert!(
            corrupted[Path::new(log)] == twin_files[Path::new(log)],
            "{log}"
        );
    }

    // Fault matrix: the full report, the figure CSVs and quarantine.log
    // are the same at 1 and 4 workers.
    let full = |workers: &str| {
        let csv = dir.join(format!("csv{workers}"));
        let out = wearscope(&[
            "analyze",
            "--world",
            world_arg,
            "--workers",
            workers,
            "--full",
            "--csv",
            path(&csv),
        ]);
        let stdout: Vec<String> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.contains("CSV figure files"))
            .map(String::from)
            .collect();
        let quarantine = std::fs::read(world.join("quarantine.log")).expect("quarantine.log");
        (stdout, tree(&csv), quarantine)
    };
    let (out1, csv1, quarantine1) = full("1");
    let (out4, csv4, quarantine4) = full("4");
    assert_eq!(out1, out4);
    assert!(!csv1.is_empty());
    assert!(csv1 == csv4, "figure CSVs differ across worker counts");
    assert!(quarantine1 == quarantine4, "quarantine.log differs");

    // Metrics determinism: everything outside `timing` is a function of
    // record content alone; peak RSS varies run to run, so it sits under
    // `timing`.
    let metrics = |workers: &str| {
        let file = dir.join(format!("metrics{workers}.json"));
        let out = wearscope(&[
            "analyze",
            "--world",
            world_arg,
            "--workers",
            workers,
            "--metrics",
            path(&file),
        ]);
        (std::fs::read_to_string(&file).expect("metrics"), out.stderr)
    };
    let (metrics1, analyze1_err) = metrics("1");
    let (metrics4, _) = metrics("4");
    let (det1, timing1) = split_timing(&metrics1);
    let (det4, timing4) = split_timing(&metrics4);
    assert!(!det1.is_empty());
    assert_eq!(det1, det4);
    for (det, timing) in [(det1, timing1), (det4, timing4)] {
        let at = timing
            .find("\"process.peak_rss_kb\": ")
            .expect("peak RSS under timing");
        let value = &timing[at + "\"process.peak_rss_kb\": ".len()..];
        assert!(
            value.starts_with(|c: char| ('1'..='9').contains(&c)),
            "{value}"
        );
        assert!(!det.contains("process.peak_rss_kb"));
    }

    // Batch/stream agreement: at lateness 0 the two differ only in the
    // watermark, which quarantines no extra record here, so the
    // per-reason counts, bytes read and decode errors are equal.
    let stream_file = dir.join("stream0.json");
    let stream = wearscope(&[
        "stream",
        "--world",
        world_arg,
        "--lateness",
        "0s",
        "--metrics",
        path(&stream_file),
    ]);
    let stream_metrics = std::fs::read_to_string(&stream_file).expect("stream metrics");
    assert!(stream_metrics.lines().any(|l| {
        let l = l.trim_end_matches(',');
        l.ends_with("\"stream.watermark_only_quarantined\": 0")
    }));
    let counts = quarantine_counts(&analyze1_err);
    assert!(!counts.is_empty());
    assert_eq!(counts, quarantine_counts(&stream.stderr));
    let trace = trace_lines(det1);
    assert!(!trace.is_empty());
    assert_eq!(trace, trace_lines(split_timing(&stream_metrics).0));

    std::fs::remove_dir_all(&dir).unwrap();
}
