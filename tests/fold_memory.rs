//! The memory of the batch fold, counted: a counting global allocator
//! (std only) measures the live heap bytes each partial holds after one
//! single-threaded [`CorePartials::fold`] of the compact seed-7 world, so
//! the counts are deterministic, what the `analyze` pipeline holds on top
//! of that fold, and the peak of a `stream` run over the same world, its
//! log reader's chunks included. Run with `--nocapture` to see them.
//!
//! Before the fold reduced each final user-day to its farthest sector
//! pair, its mobility partial held 1 069 328 bytes by this count on this
//! world, most of it one sector set per user-day of the whole window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use wearscope::core::{CoreAggregates, CorePartials};
use wearscope::ingest::{fold_logs_resilient, load_store_resilient, IngestOptions};
use wearscope::obs::Registry;
use wearscope::prelude::*;
use wearscope::stream::{PumpOptions, PumpOutcome};

/// The system allocator, counting the bytes live and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// The tests share the counters, so they take turns.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `f`'s result, and the most bytes live during `f` beyond those live
/// before it.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = live();
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

/// The live bytes `value` holds: what dropping it frees.
fn held<T>(value: T) -> usize {
    let before = live();
    drop(value);
    before - live()
}

/// The mobility partial holds at most 465 KB, less than half of what it
/// held: its streams and dwell maps stay, its user-days shrink to the
/// open ones and one pair per final day. No user keeps more than two
/// open days. The fold's peak is pinned within 2 %.
#[test]
fn fold_state_follows_the_open_days() {
    let _turn = one_at_a_time();
    let world = generate(&ScenarioConfig::compact(7));
    let ctx = StudyContext::new(
        &world.store,
        &world.db,
        &world.sectors,
        &world.apps,
        world.config.window,
    );
    let base = live();
    let (partials, peak) = peak_of(|| CorePartials::fold(&ctx));
    let total = live() - base;
    let most_open = partials.mobility.open_days_per_user().max();

    let CorePartials {
        hourly,
        traffic,
        mobility,
        wearable,
        attributed,
        through_device,
        quality,
    } = partials;
    let counts = [
        ("mobility", held(mobility)),
        ("wearable", held(wearable)),
        ("attributed", held(attributed)),
        ("traffic", held(traffic)),
        ("through_device", held(through_device)),
        ("quality", held(quality)),
        ("hourly", held(hourly)),
    ];
    println!("fold state: {total} B held after the fold, {peak} B at its peak");
    for (partial, bytes) in counts {
        println!("  {partial:<15} {bytes:>9} B");
    }
    let mobility = counts[0].1;
    assert!(mobility <= 465_000, "mobility holds {mobility} B");
    assert!(most_open.is_some_and(|n| n <= 2), "{most_open:?} open days");
    assert!(peak <= FOLD_PEAK * 102 / 100, "the fold peaks at {peak} B");
}

/// The fold's peak on this world, by this count. It was 1 357 160 B while
/// the fold held every wearable transaction for one attribution flush at
/// the end and `close_days` left its emptied day map at twice its size.
const FOLD_PEAK: usize = 1_058_476;

/// The loader's chunk size and the parsed chunks each worker may queue
/// (`CHUNK_BYTES` and `IN_FLIGHT` in `crates/ingest/src/load.rs`).
const CHUNK_BYTES: usize = 64 * 1024;
const IN_FLIGHT: usize = 2;

/// `analyze`'s pipeline over the saved world holds its fold and a bounded
/// queue: its peak, less the peak of folding and finishing the same
/// records from a store, stays below what `workers × (IN_FLIGHT + 1) + 1`
/// chunks take as text, the most parsed chunks that can be alive at once.
/// A queue that grows with the log, or a second copy of the records,
/// fails here.
#[test]
fn the_pipeline_holds_its_fold_and_a_bounded_queue() {
    let _turn = one_at_a_time();
    let dir = std::env::temp_dir().join(format!("wearscope-fold-memory-{}", std::process::id()));
    generate(&ScenarioConfig::compact(7)).save(&dir).unwrap();
    let saved = GeneratedWorld::load_with_store(&dir, TraceStore::new()).unwrap();
    let (db, catalog) = (DeviceDb::standard(), AppCatalog::standard());
    let opts = IngestOptions::from_metadata(&dir, Some(saved.window), Some(&saved.sectors));

    let (store, _) = load_store_resilient(&dir, 1, &opts).unwrap();
    let store_ctx = StudyContext::new(&store, &db, &saved.sectors, &catalog, saved.window);
    let (want, fold_peak) = peak_of(|| CoreAggregates::sequential(&store_ctx));
    drop(store_ctx);
    drop(store);

    let ctx = StudyContext::new(&saved.store, &db, &saved.sectors, &catalog, saved.window);
    for workers in [1, 2] {
        let ((got, _), peak) = peak_of(|| fold_logs_resilient(&dir, workers, &opts, &ctx).unwrap());
        assert_eq!(got.attributed, want.attributed, "workers={workers}");
        let queue = peak.saturating_sub(fold_peak);
        let bound = (workers * (IN_FLIGHT + 1) + 1) * CHUNK_BYTES;
        println!("--workers {workers}: {peak} B at the peak, {queue} B above the fold's {fold_peak} B (bound {bound} B)");
        assert!(
            queue < bound,
            "workers={workers}: {queue} B above the fold, bound {bound} B"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The counted heap peak of an hourly `stream` run over the compact
/// seed-7 world with its logs read ahead, as `wearscope stream` reads
/// them: the open windows, attributor and ledgers, the two log buffers
/// and the chunks of each log in flight between the reader and the
/// merge, all allocated before the first record: two of each log, of 512
/// records each, when this was pinned.
const STREAM_PEAK: usize = 853_702;

/// A stream run holds its windows and a fixed set of chunks: its counted
/// peak is pinned within 2 %, so chunks that grow, more of them in
/// flight, or a queue that grows with the log fail here. The peak is the
/// same when the logs are read on the caller's thread but for one more
/// chunk of each log (44 KiB) and the reader's channels.
#[test]
fn a_stream_run_holds_its_windows_and_a_fixed_set_of_chunks() {
    let _turn = one_at_a_time();
    let dir = std::env::temp_dir().join(format!("wearscope-stream-memory-{}", std::process::id()));
    generate(&ScenarioConfig::compact(7)).save(&dir).unwrap();
    let saved = GeneratedWorld::load_with_store(&dir, TraceStore::new()).unwrap();
    let (db, catalog) = (DeviceDb::standard(), AppCatalog::standard());
    let opts = IngestOptions::from_metadata(&dir, Some(saved.window), Some(&saved.sectors));
    let ctx = StudyContext::new(&saved.store, &db, &saved.sectors, &catalog, saved.window);
    let spec = WindowSpec::tumbling(SimDuration::from_hours(1)).unwrap();
    let mut config = StreamConfig::new(spec, SimDuration::from_secs(300));
    config.max_timestamp = opts.max_timestamp;
    config.sector_count = opts.sector_count;
    let run = |ahead: bool| {
        let metrics = Registry::new();
        let mut rt = StreamRuntime::new(&ctx, config).with_metrics(&metrics);
        let mut src = WorldSource::open(&dir, false)
            .unwrap()
            .with_horizon(config.max_timestamp)
            .with_metrics(&metrics);
        if ahead {
            src = src.read_ahead(&metrics).unwrap();
        }
        let outcome = rt.pump(&mut src, &PumpOptions::default()).unwrap();
        assert_eq!(outcome, PumpOutcome::Finished);
        rt.finish();
        rt.into_results().0.windows.len()
    };
    let (windows, peak) = peak_of(|| run(true));
    let (here_windows, here_peak) = peak_of(|| run(false));
    assert_eq!(windows, here_windows);
    println!("stream: {peak} B at the peak read ahead, {here_peak} B on the caller's thread");
    assert!(
        peak.abs_diff(STREAM_PEAK) <= STREAM_PEAK / 50,
        "the stream run peaks at {peak} B, pinned at {STREAM_PEAK} B"
    );
    assert!(
        peak.saturating_sub(here_peak) <= 80 * 1024,
        "reading ahead adds {} B",
        peak.saturating_sub(here_peak)
    );
    std::fs::remove_dir_all(&dir).ok();
}
