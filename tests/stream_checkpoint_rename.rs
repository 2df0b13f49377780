//! A kill between a checkpoint's fsync and its rename leaves a newer,
//! complete `stream.tmp` beside the previous `stream.ckpt`. `stream
//! --resume` must read only `stream.ckpt`, end on the uninterrupted run's
//! reports and final checkpoint, and its next checkpoint must replace the
//! stale temp file.

use std::path::Path;
use std::process::Command;

use wearscope::prelude::*;

fn tiny_world(seed: u64) -> GeneratedWorld {
    let mut config = ScenarioConfig::compact(seed);
    config.wearable_users = 60;
    config.comparison_users = 80;
    config.through_device_users = 20;
    generate(&config)
}

/// Runs `wearscope stream --world WORLD ARGS`, which must exit 0.
fn stream(world: &Path, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_wearscope"))
        .arg("stream")
        .arg("--world")
        .arg(world)
        .args(["--checkpoint-every", "2000"])
        .args(args)
        .output()
        .expect("run wearscope");
    assert!(
        out.status.success(),
        "stream {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn path(p: &Path) -> &str {
    p.to_str().expect("UTF-8 path")
}

/// A counter of a `--metrics` file.
fn counter(metrics: &Path, name: &str) -> u64 {
    let text = std::fs::read_to_string(metrics).expect("read metrics");
    let key = format!("\"{name}\": ");
    let at = text.find(&key).expect("counter present") + key.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("counter value")
}

#[test]
fn resume_reads_the_renamed_checkpoint_not_a_newer_temp_file() {
    let work = std::env::temp_dir().join(format!("wearscope-ckpt-rename-{}", std::process::id()));
    let world = work.join("world");
    tiny_world(7).save(&world).expect("save world");
    let (full, killed, newer) = (work.join("full"), work.join("killed"), work.join("newer"));

    stream(
        &world,
        &[
            "--checkpoint",
            path(&full),
            "--report",
            path(&work.join("full.tsv")),
            "--metrics",
            path(&work.join("full.json")),
        ],
    );
    // The last checkpoint before the kill covers 4000 records.
    stream(
        &world,
        &["--checkpoint", path(&killed), "--stop-after", "5000"],
    );
    // The next one, at 8000, was written and synced but never renamed.
    stream(
        &world,
        &["--checkpoint", path(&newer), "--stop-after", "9000"],
    );
    let stale = killed.join("stream.tmp");
    std::fs::copy(newer.join("stream.ckpt"), &stale).expect("leave stream.tmp");

    stream(
        &world,
        &[
            "--checkpoint",
            path(&killed),
            "--resume",
            "--report",
            path(&work.join("resumed.tsv")),
            "--metrics",
            path(&work.join("resumed.json")),
        ],
    );
    let read = |p: &Path| std::fs::read(p).expect("read output");
    assert!(read(&work.join("full.tsv")) == read(&work.join("resumed.tsv")));
    assert!(read(&full.join("stream.ckpt")) == read(&killed.join("stream.ckpt")));
    assert!(!stale.exists(), "the next checkpoint leaves no stream.tmp");
    // The resumed run started from the 4000-record checkpoint.
    let records = counter(&work.join("full.json"), "stream.records_processed");
    assert_eq!(
        counter(&work.join("resumed.json"), "stream.records_processed"),
        records - 4000
    );
    std::fs::remove_dir_all(&work).ok();
}
