//! The memory of the batch fold, counted: a counting global allocator
//! (std only) measures the live heap bytes each partial holds after one
//! single-threaded [`CorePartials::fold`] of the compact seed-7 world, so
//! the counts are deterministic. Run with `--nocapture` to see them.
//!
//! Before the fold reduced each final user-day to its farthest sector
//! pair, its mobility partial held 1 069 328 bytes by this count on this
//! world, most of it one sector set per user-day of the whole window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wearscope::core::CorePartials;
use wearscope::prelude::*;

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

/// The live bytes `value` holds: what dropping it frees.
fn held<T>(value: T) -> usize {
    let before = live();
    drop(value);
    before - live()
}

/// The mobility partial holds at most 465 KB, less than half of what it
/// held: its streams and dwell maps stay, its user-days shrink to the
/// open ones and one pair per final day. No user keeps more than two
/// open days.
#[test]
fn fold_state_follows_the_open_days() {
    let world = generate(&ScenarioConfig::compact(7));
    let ctx = StudyContext::new(
        &world.store,
        &world.db,
        &world.sectors,
        &world.apps,
        world.config.window,
    );
    let base = live();
    PEAK.store(base, Ordering::Relaxed);
    let partials = CorePartials::fold(&ctx);
    let peak = PEAK.load(Ordering::Relaxed) - base;
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
}
