//! The stream kill/resume drills, run on the `wearscope` binary over the
//! quick seed-11 world: a kill-point sweep, a checkpoint after every
//! record, the metrics of two identical stopped runs, and the resumes of
//! a reordered world, of one 400-day window and of a drop-oldest run.
//! `--stop-after N` stands in for a kill after N source items; no
//! checkpoint is written at the stop point. A resumed run must end on the
//! uninterrupted run's window reports (and, where the drill says so, its
//! stdout and final checkpoint), byte for byte.

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

fn read(p: &Path) -> Vec<u8> {
    std::fs::read(p).unwrap_or_else(|e| panic!("reading {}: {e}", p.display()))
}

/// A temporary directory holding a freshly generated quick seed-11 world
/// as `world`; removed when dropped.
struct Drill {
    dir: PathBuf,
}

impl Drill {
    fn new(name: &str) -> Drill {
        let dir = std::env::temp_dir().join(format!("wearscope-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("drill dir");
        let drill = Drill { dir };
        wearscope(&[
            "generate",
            "--out",
            path(&drill.world()),
            "--seed",
            "11",
            "--scale",
            "quick",
        ]);
        drill
    }

    fn world(&self) -> PathBuf {
        self.dir.join("world")
    }

    fn join(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// `wearscope stream --world WORLD ARGS`.
    fn stream(&self, world: &Path, args: &[&str]) -> Output {
        let mut all = vec!["stream", "--world", path(world)];
        all.extend_from_slice(args);
        wearscope(&all)
    }
}

impl Drop for Drill {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A `--metrics` snapshot cut before its `timing` key, which is written
/// last: the deterministic sections.
fn deterministic(json: &str) -> &str {
    let at = json.find("\n  \"timing\":").expect("a timing section") + 1;
    &json[..at]
}

/// The value of counter `name` in a `--metrics` snapshot.
fn counter(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let at = json.find(&key).unwrap_or_else(|| panic!("no {name}")) + key.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("a counter value")
}

/// The items the uninterrupted hourly run over the quick seed-11 world
/// processes.
const RECORDS: u64 = 156_617;

/// The two kill points `awk -v n=156617 'BEGIN { srand(20); for (i = 0;
/// i < 2; i++) print 2000 + int(rand() * (n - 2000)) }'` draws: between
/// the first checkpoint (item 2000) and the last item.
const DRAWN_KILL_POINTS: [u64; 2] = [25_008, 116_435];

const HOURLY: [&str; 4] = ["--window", "1h", "--lateness", "5m"];

/// The uninterrupted hourly run with a checkpoint every 2000 items: its
/// report, its final checkpoint and its metrics.
fn full_run(drill: &Drill) -> (Vec<u8>, Vec<u8>, String) {
    let (ckpt, report, metrics) = (
        drill.join("full-ckpt"),
        drill.join("stream-full.txt"),
        drill.join("stream-full.json"),
    );
    let mut args = HOURLY.to_vec();
    args.extend([
        "--checkpoint",
        path(&ckpt),
        "--checkpoint-every",
        "2000",
        "--report",
        path(&report),
        "--metrics",
        path(&metrics),
    ]);
    drill.stream(&drill.world(), &args);
    let metrics = std::fs::read_to_string(&metrics).expect("metrics");
    (read(&report), read(&ckpt.join("stream.ckpt")), metrics)
}

/// Kill points just before, at and just after the checkpoint at item
/// 6000, and two drawn between the first checkpoint and the last item.
/// The log reader runs ahead of the runtime, so a kill always leaves read
/// but unprocessed items behind. Each resumed run must end on the
/// uninterrupted run's report and final checkpoint, byte for byte: the
/// duplicate memory, attributor and windows restore exactly. Checkpoint
/// writes are atomic and durable (temp file, fsync, rename, directory
/// fsync), so a kill right after a rename cannot resurrect the previous
/// checkpoint.
#[test]
fn a_kill_at_each_point_of_a_sweep_resumes_to_the_same_reports_and_checkpoint() {
    let drill = Drill::new("stream-sweep");
    let (full_report, full_ckpt, metrics) = full_run(&drill);
    assert_eq!(counter(&metrics, "stream.records_processed"), RECORDS);
    let ckpt = drill.join("ckpt");
    let resumed = drill.join("stream-resumed.txt");
    for stop in [5999, 6000, 6001].into_iter().chain(DRAWN_KILL_POINTS) {
        let _ = std::fs::remove_dir_all(&ckpt);
        let stop_arg = stop.to_string();
        let mut args = HOURLY.to_vec();
        args.extend([
            "--checkpoint",
            path(&ckpt),
            "--checkpoint-every",
            "2000",
            "--stop-after",
            &stop_arg,
        ]);
        drill.stream(&drill.world(), &args);
        assert!(ckpt.join("stream.ckpt").is_file(), "kill at {stop}");
        let mut args = HOURLY.to_vec();
        args.extend([
            "--checkpoint",
            path(&ckpt),
            "--resume",
            "--report",
            path(&resumed),
        ]);
        drill.stream(&drill.world(), &args);
        assert!(
            read(&resumed) == full_report,
            "resuming after a kill at item {stop} changed the window reports"
        );
        assert!(
            read(&ckpt.join("stream.ckpt")) == full_ckpt,
            "resuming after a kill at item {stop} changed the final checkpoint"
        );
    }
}

/// A writer thread makes the periodic checkpoints durable while the
/// runtime goes on; with one due after every record, each hand-off waits
/// for the previous write. The interval must change neither the report
/// nor the final checkpoint.
#[test]
fn a_checkpoint_after_every_record_ends_on_the_same_report_and_checkpoint() {
    let drill = Drill::new("stream-every1");
    let (full_report, full_ckpt, _) = full_run(&drill);
    let (ckpt, report) = (drill.join("every1-ckpt"), drill.join("stream-every1.txt"));
    let mut args = HOURLY.to_vec();
    args.extend([
        "--checkpoint",
        path(&ckpt),
        "--checkpoint-every",
        "1",
        "--report",
        path(&report),
    ]);
    drill.stream(&drill.world(), &args);
    assert!(read(&report) == full_report, "--checkpoint-every 1 report");
    assert!(
        read(&ckpt.join("stream.ckpt")) == full_ckpt,
        "--checkpoint-every 1 final checkpoint"
    );
}

/// I/O is counted as the runtime takes items, not as the reader thread
/// reads them, so a stopped run's deterministic section does not depend
/// on how far the reader got ahead.
#[test]
fn two_identical_stopped_runs_write_the_same_deterministic_metrics() {
    let drill = Drill::new("stream-stopped-metrics");
    let run = |name: &str| {
        let (ckpt, metrics) = (
            drill.join(&format!("stop-ckpt-{name}")),
            drill.join(&format!("stop-{name}.json")),
        );
        let mut args = HOURLY.to_vec();
        args.extend([
            "--checkpoint",
            path(&ckpt),
            "--checkpoint-every",
            "2000",
            "--stop-after",
            "6001",
            "--metrics",
            path(&metrics),
        ]);
        drill.stream(&drill.world(), &args);
        std::fs::read_to_string(&metrics).expect("metrics")
    };
    let (a, b) = (run("a"), run("b"));
    assert!(deterministic(&a).contains("\"stream.records_processed\": 6001"));
    assert_eq!(deterministic(&a), deterministic(&b));
}

/// `reorder` moves records by less than the 5 m lateness, so they merge
/// late rather than being quarantined. The checkpoint at the kill point
/// must hold pending attributor transactions (`q` rows): the resume then
/// restores attribution state that still waits for the watermark.
#[test]
fn a_reordered_world_killed_with_pending_attribution_resumes_to_the_same_report() {
    let drill = Drill::new("stream-late");
    let late = drill.join("late-world");
    std::fs::create_dir_all(&late).unwrap();
    for entry in std::fs::read_dir(drill.world()).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), late.join(entry.file_name())).unwrap();
    }
    wearscope(&[
        "corrupt",
        "--world",
        path(&late),
        "--seed",
        "5",
        "--faults",
        "reorder=0.05",
    ]);
    let (full, resumed, ckpt) = (
        drill.join("late-full.txt"),
        drill.join("late-resumed.txt"),
        drill.join("late-ckpt"),
    );
    let mut args = HOURLY.to_vec();
    args.extend(["--report", path(&full)]);
    let out = drill.stream(&late, &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let late_merged = stderr.split(" late merged").next().and_then(|head| {
        let count = head.rsplit(' ').next()?;
        count.parse::<u64>().ok()
    });
    assert!(late_merged.is_some_and(|n| n > 0), "{stderr}");

    let mut args = HOURLY.to_vec();
    args.extend([
        "--checkpoint",
        path(&ckpt),
        "--checkpoint-every",
        "100",
        "--stop-after",
        "40100",
    ]);
    drill.stream(&late, &args);
    let text = String::from_utf8(read(&ckpt.join("stream.ckpt"))).unwrap();
    assert!(text.lines().any(|l| l.starts_with("q\t")), "no q rows");
    let mut args = HOURLY.to_vec();
    args.extend([
        "--checkpoint",
        path(&ckpt),
        "--resume",
        "--report",
        path(&resumed),
    ]);
    drill.stream(&late, &args);
    assert!(read(&resumed) == read(&full), "late-merged reports differ");
}

/// A 400-day window holds the whole log. Each user-day the watermark has
/// passed is kept as its farthest sector pair, the days still open as
/// sector sets; the checkpoint at the kill point must hold both, and the
/// resumed run must end on the uninterrupted run's stdout, report and
/// final checkpoint.
#[test]
fn one_long_window_killed_with_closed_and_open_days_resumes_to_the_same_output() {
    let drill = Drill::new("stream-long");
    let long = [
        "--window",
        "400d",
        "--lateness",
        "5m",
        "--checkpoint-every",
        "5000",
    ];
    let (full_ckpt, ckpt) = (drill.join("long-full-ckpt"), drill.join("long-ckpt"));
    let (full_tsv, resumed_tsv) = (drill.join("long-full.tsv"), drill.join("long-resumed.tsv"));
    let mut args = long.to_vec();
    args.extend([
        "--checkpoint",
        path(&full_ckpt),
        "--report",
        path(&full_tsv),
    ]);
    let full = drill.stream(&drill.world(), &args);
    let mut args = long.to_vec();
    args.extend(["--checkpoint", path(&ckpt), "--stop-after", "70001"]);
    drill.stream(&drill.world(), &args);
    // The mobility header counts streams, open days, users with closed
    // days and dwell users.
    let text = String::from_utf8(read(&ckpt.join("stream.ckpt"))).unwrap();
    let holds_both = text.lines().any(|l| {
        let f: Vec<&str> = l.split('\t').collect();
        let count = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        let nonzero = |s: &str| count(s) && !s.starts_with('0');
        f.len() > 4 && f[0] == "mobility" && count(f[1]) && nonzero(f[2]) && nonzero(f[3])
    });
    assert!(holds_both, "no mobility block with open and closed days");
    let mut args = long.to_vec();
    args.extend([
        "--checkpoint",
        path(&ckpt),
        "--resume",
        "--report",
        path(&resumed_tsv),
    ]);
    let resumed = drill.stream(&drill.world(), &args);
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&full.stdout)
    );
    assert!(read(&resumed_tsv) == read(&full_tsv), "400-day reports");
    assert!(
        read(&ckpt.join("stream.ckpt")) == read(&full_ckpt.join("stream.ckpt")),
        "400-day final checkpoints"
    );
}

/// Two open windows and 2 h of lateness: a third window opens before the
/// watermark closes the first, so drop-oldest forces windows out. The
/// runtime keeps neither the forced count nor the timeline's start; a
/// resumed run reads both from the checkpointed reports, so its stdout and
/// report must equal the uninterrupted run's.
#[test]
fn a_drop_oldest_run_killed_after_a_forced_window_resumes_to_the_same_output() {
    let drill = Drill::new("stream-drop");
    let drop = [
        "--window",
        "1h",
        "--max-open",
        "2",
        "--backpressure",
        "drop-oldest",
        "--lateness",
        "2h",
    ];
    let (full_tsv, resumed_tsv, ckpt) = (
        drill.join("drop-full.tsv"),
        drill.join("drop-resumed.tsv"),
        drill.join("drop-ckpt"),
    );
    let mut args = drop.to_vec();
    args.extend(["--report", path(&full_tsv)]);
    let full = drill.stream(&drill.world(), &args);
    let full_out = String::from_utf8_lossy(&full.stdout).into_owned();
    assert!(full_out.lines().any(|l| l.ends_with("[forced]")));
    let mut args = drop.to_vec();
    args.extend([
        "--checkpoint",
        path(&ckpt),
        "--checkpoint-every",
        "500",
        "--stop-after",
        "5000",
    ]);
    drill.stream(&drill.world(), &args);
    // The checkpoint at the kill point already holds a forced report: a
    // row of the `reports` block whose eleventh field is 1.
    let text = String::from_utf8(read(&ckpt.join("stream.ckpt"))).unwrap();
    let reports = text
        .lines()
        .skip_while(|l| !l.starts_with("reports\t"))
        .skip(1)
        .take_while(|l| !l.starts_with("collected\t"));
    let forced = reports
        .filter(|l| l.split('\t').nth(10) == Some("1"))
        .count();
    assert!(forced > 0, "no forced report at the kill point");
    let mut args = drop.to_vec();
    args.extend([
        "--checkpoint",
        path(&ckpt),
        "--resume",
        "--report",
        path(&resumed_tsv),
    ]);
    let resumed = drill.stream(&drill.world(), &args);
    assert_eq!(String::from_utf8_lossy(&resumed.stdout), full_out);
    assert!(read(&resumed_tsv) == read(&full_tsv), "drop-oldest reports");
}
