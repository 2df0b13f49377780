//! Watermark edge cases, pinned to exact counts:
//!
//! * a record exactly at a window boundary belongs to the *next* window
//!   (half-open semantics);
//! * zero allowed lateness quarantines anything behind the max event time;
//! * a late-but-allowed record arriving *after* a checkpoint + resume is
//!   merged exactly as in the uninterrupted run — final reports are
//!   byte-identical;
//! * a drop-oldest run resumed before or after its first forced emission
//!   seals, counts and reports its windows as the uninterrupted run does;
//! * a silent window between two active ones still emits (all zeros).

use wearscope::prelude::*;
use wearscope::report::QuarantineReason;
use wearscope::stream::{
    checkpoint, Backpressure, EventSource, Polled, PumpOptions, PumpOutcome, SourcePosition,
    StreamError, StreamEvent, StreamRuntime,
};
use wearscope::trace::Scheme;

/// Records handed out in order, then the end.
struct Events(std::vec::IntoIter<StreamEvent>);

impl EventSource for Events {
    fn poll(&mut self) -> std::io::Result<Polled> {
        Ok(self.0.next().map_or(Polled::End, Polled::Event))
    }

    fn position(&self) -> Option<SourcePosition> {
        None
    }
}

/// Pumps `events` through `rt`, in order, as one source.
fn feed<const N: usize>(
    rt: &mut StreamRuntime<'_>,
    events: [StreamEvent; N],
) -> Result<PumpOutcome, StreamError> {
    let mut source = Events(Vec::from(events).into_iter());
    rt.pump(&mut source, &PumpOptions::default())
}

struct Fixture {
    store: TraceStore,
    db: DeviceDb,
    sectors: SectorDirectory,
    catalog: AppCatalog,
}

impl Fixture {
    fn new() -> Fixture {
        Fixture {
            store: TraceStore::new(),
            db: DeviceDb::standard(),
            sectors: SectorDirectory::new(),
            catalog: AppCatalog::standard(),
        }
    }

    fn ctx(&self) -> StudyContext<'_> {
        StudyContext::new(
            &self.store,
            &self.db,
            &self.sectors,
            &self.catalog,
            ObservationWindow::compact(),
        )
    }

    fn proxy(&self, user: u64, t: u64) -> StreamEvent {
        StreamEvent::Proxy(ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei: self
                .db
                .example_imei(self.db.wearable_tacs()[0], user as u32)
                .as_u64(),
            host: HostId::intern("api.weather.com"),
            scheme: Scheme::Https,
            bytes_down: 100,
            bytes_up: 10,
        })
    }
}

fn hour_config(lateness_secs: u64) -> StreamConfig {
    StreamConfig::new(
        WindowSpec::tumbling(SimDuration::from_hours(1)).unwrap(),
        SimDuration::from_secs(lateness_secs),
    )
}

#[test]
fn record_exactly_at_the_boundary_opens_the_next_window() {
    let fx = Fixture::new();
    let ctx = fx.ctx();
    let mut rt = StreamRuntime::new(&ctx, hour_config(0));
    for t in [3599u64, 3600] {
        feed(&mut rt, [fx.proxy(1, t)]).unwrap();
    }
    rt.finish();
    let (summary, _) = rt.into_results();
    assert_eq!(summary.windows.len(), 2);
    assert_eq!(summary.windows[0].index, 0);
    assert_eq!(summary.windows[0].proxy_records, 1); // t = 3599 only
    assert_eq!(summary.windows[1].index, 1);
    assert_eq!(summary.windows[1].proxy_records, 1); // t = 3600
    assert_eq!(summary.windows[1].start_secs, 3600);
    assert_eq!(summary.quality.records_kept, 2);
    assert!(summary.quality.quarantined.is_empty());
}

#[test]
fn zero_lateness_quarantines_anything_behind_the_max_event() {
    let fx = Fixture::new();
    let ctx = fx.ctx();
    let mut rt = StreamRuntime::new(&ctx, hour_config(0));
    for t in [100u64, 200, 150] {
        feed(&mut rt, [fx.proxy(1, t)]).unwrap();
    }
    rt.finish();
    let (summary, _) = rt.into_results();
    assert_eq!(summary.quality.records_kept, 2);
    assert_eq!(
        summary
            .quality
            .quarantined
            .get(QuarantineReason::OutOfOrder),
        1
    );
    assert_eq!(summary.late_merged, 0);
    assert_eq!(summary.windows.len(), 1);
    assert_eq!(summary.windows[0].proxy_records, 2);
}

#[test]
fn late_record_after_checkpoint_resume_merges_identically() {
    let fx = Fixture::new();
    let ctx = fx.ctx();
    let config = hour_config(600);
    let events = [1000u64, 2000, 1500, 4000, 7300];

    // Uninterrupted run.
    let mut whole = StreamRuntime::new(&ctx, config);
    for t in events {
        feed(&mut whole, [fx.proxy(1, t)]).unwrap();
    }
    whole.finish();
    let (want, _) = whole.into_results();
    assert_eq!(want.late_merged, 1, "t = 1500 behind max event 2000");
    assert!(want.quality.quarantined.is_empty());

    // Kill after [1000, 2000], checkpoint, resume, then the late record.
    let mut first = StreamRuntime::new(&ctx, config);
    for t in &events[..2] {
        feed(&mut first, [fx.proxy(1, *t)]).unwrap();
    }
    let text = checkpoint::to_text(&first, None);
    let (mut resumed, _) = checkpoint::from_text(&ctx, config, &text).expect("restore");
    for t in &events[2..] {
        feed(&mut resumed, [fx.proxy(1, *t)]).unwrap();
    }
    resumed.finish();
    let (got, _) = resumed.into_results();
    assert_eq!(got.late_merged, 1);
    assert_eq!(got.windows, want.windows);
    assert_eq!(got.render(), want.render(), "byte-identical reports");
}

/// The out-of-order quarantines of a runtime's ledgers.
fn out_of_order(rt: StreamRuntime<'_>) -> u64 {
    let (summary, _) = rt.into_results();
    summary
        .quality
        .quarantined
        .get(QuarantineReason::OutOfOrder)
}

/// The runtime keeps no forced-emission count and no timeline start: a
/// resumed run reads both from its restored reports. Cut at every point
/// of a drop-oldest run (two open windows, 10 h lateness, so only the cap
/// emits), the resumed run's summary, reports and final checkpoint equal
/// the uninterrupted run's.
#[test]
fn drop_oldest_resume_derives_forced_windows_and_sealing_from_reports() {
    let fx = Fixture::new();
    let ctx = fx.ctx();
    let mut config = hour_config(36_000);
    config.max_open_windows = 2;
    config.backpressure = Backpressure::DropOldest;
    // 100 moves the timeline's start down to window 0; 7300 forces window
    // 0 out, so 200 is sealed; 10 900 forces window 1, so 5000 is sealed;
    // 8000 merges late into window 2; 14 500 and 20 000 force 2 and 3.
    let events = [3700u64, 100, 7300, 200, 10_900, 5000, 8000, 14_500, 20_000];

    let mut whole = StreamRuntime::new(&ctx, config);
    for t in events {
        feed(&mut whole, [fx.proxy(1, t)]).unwrap();
    }
    whole.finish();
    let want_text = checkpoint::to_text(&whole, None);
    let (want, _) = whole.into_results();
    let forced: Vec<bool> = want.windows.iter().map(|w| w.forced).collect();
    assert_eq!(forced, [true, true, true, true, false, false]);
    assert_eq!(
        want.quality.quarantined.get(QuarantineReason::OutOfOrder),
        2
    );
    assert_eq!(want.late_merged, 2, "100 and 8000");

    for cut in 0..=events.len() {
        let mut first = StreamRuntime::new(&ctx, config);
        for t in &events[..cut] {
            feed(&mut first, [fx.proxy(1, *t)]).unwrap();
        }
        let text = checkpoint::to_text(&first, None);
        let restore = || checkpoint::from_text(&ctx, config, &text).unwrap().0;

        // A record for window 0 is sealed once a report is out, and before
        // that moves the timeline's start (or already lies on it).
        let emitted = !restore().reports().is_empty();
        let mut probe = restore();
        feed(&mut probe, [fx.proxy(2, 50)]).unwrap();
        assert_eq!(
            out_of_order(probe),
            out_of_order(restore()) + u64::from(emitted),
            "cut {cut}"
        );

        let mut resumed = restore();
        assert_eq!(checkpoint::to_text(&resumed, None), text, "cut {cut}");
        for t in &events[cut..] {
            feed(&mut resumed, [fx.proxy(1, *t)]).unwrap();
        }
        resumed.finish();
        assert_eq!(checkpoint::to_text(&resumed, None), want_text, "cut {cut}");
        let (got, _) = resumed.into_results();
        assert_eq!(got.windows, want.windows, "cut {cut}");
        assert_eq!(got.late_merged, want.late_merged, "cut {cut}");
        assert_eq!(got.quality, want.quality, "cut {cut}");
        assert_eq!(got.render(), want.render(), "cut {cut}");
    }
}

#[test]
fn empty_window_between_active_ones_is_emitted_as_zeros() {
    let fx = Fixture::new();
    let ctx = fx.ctx();
    let mut rt = StreamRuntime::new(&ctx, hour_config(300));
    // Window 0 active, windows 1-2 silent, window 3 active.
    for t in [500u64, 600, 11_000, 11_100, 11_200] {
        feed(&mut rt, [fx.proxy(2, t)]).unwrap();
    }
    rt.finish();
    let (summary, _) = rt.into_results();
    let per_window: Vec<(u64, u64)> = summary
        .windows
        .iter()
        .map(|w| (w.index, w.proxy_records))
        .collect();
    assert_eq!(per_window, vec![(0, 2), (1, 0), (2, 0), (3, 3)]);
    for w in &summary.windows[1..3] {
        assert_eq!(w.mme_records, 0);
        assert_eq!(w.users, 0);
        assert_eq!(w.wearable_tx, 0);
        assert_eq!(w.late_merged, 0);
        assert!(!w.forced);
    }
    assert_eq!(summary.quality.records_kept, 5);
}
