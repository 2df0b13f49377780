//! `pump` hands periodic checkpoints to a writer thread. That must change
//! no checkpoint byte and lose no error: a stopped run's last checkpoint
//! is the one a runtime pumped to the same record would render, the
//! checkpoint interval changes no final checkpoint or report, and a
//! failed write comes back from `pump` as an error, with the writer
//! joined.

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wearscope::ingest::IngestOptions;
use wearscope::prelude::*;
use wearscope::stream::{
    checkpoint, EventSource, Polled, PumpOptions, PumpOutcome, SourcePosition, StreamError,
};
use wearscope::synthpop::SavedWorld;

/// Tests that pump with checkpoints in this process run one at a time, so
/// one of them can count this process's writer threads.
static PUMPING: Mutex<()> = Mutex::new(());

fn small_world(seed: u64) -> GeneratedWorld {
    let mut config = ScenarioConfig::compact(seed);
    config.wearable_users = 20;
    config.comparison_users = 20;
    config.through_device_users = 6;
    generate(&config)
}

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wearscope-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

fn saved_world(work: &Path) -> PathBuf {
    let dir = work.join("world");
    small_world(7).save(&dir).expect("save world");
    dir
}

fn open(dir: &Path) -> WorldSource {
    WorldSource::open(dir, false)
        .expect("open source")
        .with_horizon(IngestOptions::for_world(dir).max_timestamp)
}

/// The world's metadata, borrowed by each run's context.
struct World {
    dir: PathBuf,
    saved: SavedWorld,
    db: DeviceDb,
    catalog: AppCatalog,
}

impl World {
    fn load(dir: &Path) -> World {
        World {
            dir: dir.to_path_buf(),
            saved: GeneratedWorld::load_with_store(dir, TraceStore::new()).expect("metadata"),
            db: DeviceDb::standard(),
            catalog: AppCatalog::standard(),
        }
    }

    fn ctx(&self) -> StudyContext<'_> {
        StudyContext::new(
            &self.saved.store,
            &self.db,
            &self.saved.sectors,
            &self.catalog,
            self.saved.window,
        )
    }

    fn config(&self) -> StreamConfig {
        let spec = WindowSpec::tumbling(SimDuration::from_hours(1)).unwrap();
        let mut config = StreamConfig::new(spec, SimDuration::from_secs(300));
        let opts = IngestOptions::for_world(&self.dir);
        config.max_timestamp = opts.max_timestamp;
        config.sector_count = opts.sector_count;
        config
    }
}

/// Threads of this process named as the checkpoint writer (a thread
/// name is cut to 15 bytes). Zero where `/proc` is not there to ask.
fn writer_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim_end() == "stream-checkpoi")
        .count()
}

/// [`writer_threads`] once it reads zero, or after 5 s. `pthread_join`
/// returns once the kernel clears the thread's id, which is before the
/// thread's `/proc` entry goes, so a joined writer can be listed for a
/// moment longer; a writer that was never joined stays blocked on its
/// channel and is still counted when the 5 s are up.
fn writer_threads_after_join() -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = writer_threads();
        if n == 0 || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A source that runs `hook` once, after handing out item `at`.
struct Hooked<F: FnMut()> {
    inner: WorldSource,
    seen: u64,
    at: u64,
    hook: Option<F>,
}

impl<F: FnMut()> EventSource for Hooked<F> {
    fn poll(&mut self) -> io::Result<Polled> {
        let polled = self.inner.poll()?;
        self.seen += 1;
        if self.seen == self.at {
            if let Some(mut hook) = self.hook.take() {
                hook();
            }
        }
        Ok(polled)
    }

    fn position(&self) -> Option<SourcePosition> {
        self.inner.position()
    }
}

/// Pumps the whole world with a checkpoint to `ckpt` every `every`
/// items, running `hook` after item `at`; returns `pump`'s result.
fn pump_with_hook(
    world: &World,
    ckpt: &Path,
    every: u64,
    at: u64,
    hook: impl FnMut(),
) -> Result<PumpOutcome, StreamError> {
    let ctx = world.ctx();
    let mut rt = StreamRuntime::new(&ctx, world.config());
    let mut source = Hooked {
        inner: open(&world.dir),
        seen: 0,
        at,
        hook: Some(hook),
    };
    let opts = PumpOptions {
        checkpoint: Some((ckpt.to_path_buf(), every)),
        stop_after: None,
    };
    rt.pump(&mut source, &opts)
}

#[test]
fn a_failed_periodic_write_is_an_error_from_pump_and_the_writer_is_joined() {
    let _one_at_a_time = PUMPING.lock().unwrap_or_else(|e| e.into_inner());
    let work = work_dir("ckpt-writer-fail");
    let world = World::load(&saved_world(&work));

    // The checkpoint directory is removed mid-run: the next write fails.
    let gone = work.join("gone");
    std::fs::create_dir_all(&gone).unwrap();
    let ckpt = gone.join("stream.ckpt");
    let err = pump_with_hook(&world, &ckpt, 500, 1200, || {
        // The writer may be creating the temp file as the directory goes.
        while gone.exists() {
            let _ = std::fs::remove_dir_all(&gone);
        }
    })
    .expect_err("a write into a removed directory fails");
    assert!(
        matches!(&err, StreamError::Io(e) if e.kind() == io::ErrorKind::NotFound),
        "{err}"
    );
    assert_eq!(writer_threads_after_join(), 0, "the writer outlived pump");

    // A directory sits where the temp file goes: the first write fails.
    let blocked = work.join("blocked");
    std::fs::create_dir_all(blocked.join("stream.tmp")).unwrap();
    let ckpt = blocked.join("stream.ckpt");
    let err = pump_with_hook(&world, &ckpt, 500, 0, || {}).expect_err("the temp file is a dir");
    assert!(matches!(err, StreamError::Io(_)), "{err}");
    assert!(!ckpt.exists());
    assert_eq!(writer_threads_after_join(), 0, "the writer outlived pump");

    // The same world pumps to the end when the writes succeed.
    let fine = work.join("fine");
    std::fs::create_dir_all(&fine).unwrap();
    let outcome = pump_with_hook(&world, &fine.join("stream.ckpt"), 500, 0, || {});
    assert_eq!(outcome.unwrap(), PumpOutcome::Finished);
    assert_eq!(writer_threads_after_join(), 0, "the writer outlived pump");
    std::fs::remove_dir_all(&work).ok();
}

#[test]
fn a_stopped_runs_checkpoint_is_the_text_of_a_runtime_pumped_to_the_same_record() {
    let _one_at_a_time = PUMPING.lock().unwrap_or_else(|e| e.into_inner());
    let work = work_dir("ckpt-writer-stop");
    let world = World::load(&saved_world(&work));
    let ctx = world.ctx();
    for (every, stop) in [(777, 6000), (1, 2501), (2000, 4000)] {
        let ckpt = work.join(format!("stop-{every}.ckpt"));
        let mut rt = StreamRuntime::new(&ctx, world.config());
        let opts = PumpOptions {
            checkpoint: Some((ckpt.clone(), every)),
            stop_after: Some(stop),
        };
        let outcome = rt.pump(&mut open(&world.dir), &opts).unwrap();
        assert_eq!(outcome, PumpOutcome::Stopped);
        let written = std::fs::read_to_string(&ckpt).unwrap();

        // The last checkpoint was due at the last multiple of `every`.
        let mut sync = StreamRuntime::new(&ctx, world.config());
        let mut source = open(&world.dir);
        let opts = PumpOptions {
            checkpoint: None,
            stop_after: Some(stop / every * every),
        };
        assert_eq!(sync.pump(&mut source, &opts).unwrap(), PumpOutcome::Stopped);
        let expected = checkpoint::to_text(&sync, source.position());
        assert!(written == expected, "every {every}, stop after {stop}");
    }
    std::fs::remove_dir_all(&work).ok();
}

/// Runs `wearscope stream --world WORLD ARGS`, which must exit 0.
fn stream_cli(world: &Path, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_wearscope"))
        .arg("stream")
        .arg("--world")
        .arg(world)
        .args(args)
        .output()
        .expect("run wearscope");
    assert!(
        out.status.success(),
        "stream {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn the_checkpoint_interval_changes_no_final_checkpoint_or_report() {
    let work = work_dir("ckpt-writer-every");
    let world = saved_world(&work);
    let mut runs = Vec::new();
    for every in ["1", "2000"] {
        let ckpt = work.join(format!("every-{every}"));
        let report = work.join(format!("every-{every}.tsv"));
        stream_cli(
            &world,
            &[
                "--checkpoint",
                ckpt.to_str().unwrap(),
                "--checkpoint-every",
                every,
                "--report",
                report.to_str().unwrap(),
            ],
        );
        let checkpoint = std::fs::read_to_string(ckpt.join("stream.ckpt")).unwrap();
        let report = std::fs::read_to_string(report).unwrap();
        assert!(!report.is_empty());
        runs.push((checkpoint, report));
    }
    assert!(runs[0] == runs[1], "--checkpoint-every 1 and 2000 differ");
    std::fs::remove_dir_all(&work).ok();
}
