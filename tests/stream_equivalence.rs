//! Golden equivalence: streaming a persisted world through tumbling
//! event-time windows and merging every emitted window's partials must
//! reproduce the batch aggregates **bit-identically**.
//!
//! The figures folded from the same partials (weekly pattern, domain
//! classes, device mix, Through-Device report, trace QA, owners) are
//! compared too, and so are the four owner-split figures and the
//! Fig. 4(d) single-location share of [`StudyResults`] over the merged
//! aggregates and the stream's own context.
//!
//! This is the streaming engine's core correctness contract: windowing,
//! watermark-driven emission, online attribution and late-merge handling
//! are all allowed to reorder *work*, but never to change a single bit of
//! the final analysis. Two window widths are exercised — one aligned with
//! the hourly figures (1 h) and one that straddles day boundaries (25 h) —
//! so both many-window and few-window merges are covered. Two inputs are
//! exercised: a pristine world, and the same world after every fault
//! class, streamed at lateness 0, where batch and stream run the same
//! record validator and must quarantine the same records.
//!
//! A third case shuffles a world's records within the lateness horizon
//! and feeds them through a channel: attribution must still match the
//! batch rule over the same records exactly.

use wearscope::core::merge::{CoreAggregates, CorePartials};
use wearscope::core::{Ecdf, StudyResults};
use wearscope::faults::{corrupt_world, FaultSpec};
use wearscope::ingest::{load_store_resilient, IngestOptions};
use wearscope::prelude::*;
use wearscope::report::QuarantineReason;
use wearscope::stream::{
    EventSource, Polled, PumpOptions, PumpOutcome, SourcePosition, StreamEvent, StreamRuntime,
};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An in-process channel as a stream source, as a live simulator would
/// feed one: an empty channel polls [`Polled::Pending`], a disconnected
/// one [`Polled::End`]. Not resumable.
struct ChannelSource {
    rx: std::sync::mpsc::Receiver<StreamEvent>,
}

impl ChannelSource {
    /// A connected `(sender, source)` pair.
    fn pair() -> (std::sync::mpsc::Sender<StreamEvent>, ChannelSource) {
        let (tx, rx) = std::sync::mpsc::channel();
        (tx, ChannelSource { rx })
    }
}

impl EventSource for ChannelSource {
    fn poll(&mut self) -> std::io::Result<Polled> {
        use std::sync::mpsc::TryRecvError;
        match self.rx.try_recv() {
            Ok(ev) => Ok(Polled::Event(ev)),
            Err(TryRecvError::Empty) => Ok(Polled::Pending),
            Err(TryRecvError::Disconnected) => Ok(Polled::End),
        }
    }

    fn position(&self) -> Option<SourcePosition> {
        None
    }
}

fn tiny_world(seed: u64) -> GeneratedWorld {
    let mut config = ScenarioConfig::compact(seed);
    config.wearable_users = 60;
    config.comparison_users = 80;
    config.through_device_users = 20;
    generate(&config)
}

fn bits(samples: &[f64]) -> Vec<u64> {
    samples.iter().map(|x| x.to_bits()).collect()
}

/// The bits of every sample and scalar of the figures that split users
/// into owners and the rest: Fig. 4(a), 4(b), 4(c) and the Sec. 4.4
/// entropy.
fn owner_split_bits(r: &StudyResults<'_>) -> [(&'static str, Vec<u64>); 4] {
    let (o, s, d, e) = (
        &r.owner_vs_rest,
        &r.wearable_share,
        &r.displacement,
        &r.entropy,
    );
    let with = |ecdfs: &[&Ecdf], scalars: &[f64]| {
        let mut v = Vec::new();
        for ecdf in ecdfs {
            v.push(ecdf.samples().len() as u64);
            v.extend(bits(ecdf.samples()));
        }
        v.extend(bits(scalars));
        v
    };
    [
        (
            "owner_vs_rest",
            with(
                &[&o.owner_bytes, &o.rest_bytes, &o.owner_tx, &o.rest_tx],
                &[o.bytes_ratio, o.tx_ratio],
            ),
        ),
        (
            "wearable_share",
            with(&[&s.ratio], &[s.mean_ratio, s.frac_over_3pct]),
        ),
        (
            "displacement",
            with(
                &[&d.owners, &d.rest, &d.all],
                &[
                    d.owner_mean_km,
                    d.rest_mean_km,
                    d.owners_under_30km,
                    d.owner_nonstationary_mean_km,
                    d.rest_nonstationary_mean_km,
                ],
            ),
        ),
        ("entropy", with(&[&e.owners, &e.rest], &[e.ratio])),
    ]
}

#[test]
fn merged_stream_windows_reproduce_batch_aggregates_bit_identically() {
    let world = tiny_world(7);
    let dir = std::env::temp_dir().join(format!("wearscope-streq-{}", std::process::id()));
    world.save(&dir).expect("save world");
    assert_equivalent(&dir, "pristine", SimDuration::from_secs(300));
    corrupt_world(&dir, 3, &FaultSpec::all(0.002)).expect("corrupt world");
    assert_equivalent(&dir, "corrupted", SimDuration::ZERO);
    std::fs::remove_dir_all(&dir).ok();
}

/// Records arriving out of order within the lateness horizon: each is
/// delayed by a seeded draw of up to the lateness, so none falls behind
/// the watermark. The merged windows attribute exactly as batch does over
/// the same records.
#[test]
fn shuffled_within_lateness_stream_attributes_like_batch() {
    const LATENESS: u64 = 600;
    let world = tiny_world(7);
    let mut rng = StdRng::seed_from_u64(17);
    let mut arrivals: Vec<(u64, StreamEvent)> = world
        .store
        .proxy()
        .iter()
        .map(|r| (r.timestamp.as_secs(), StreamEvent::Proxy(*r)))
        .chain(
            world
                .store
                .mme()
                .iter()
                .map(|r| (r.timestamp.as_secs(), StreamEvent::Mme(*r))),
        )
        .map(|(t, ev)| (t + rng.random_range(0..=LATENESS), ev))
        .collect();
    arrivals.sort_by_key(|a| a.0);

    // Stream side: the shuffled records through a channel.
    let empty = TraceStore::new();
    let (db, catalog) = (DeviceDb::standard(), AppCatalog::standard());
    let window = world.config.window;
    let stream_ctx = StudyContext::new(&empty, &db, &world.sectors, &catalog, window);
    let spec = WindowSpec::tumbling(SimDuration::from_hours(1)).unwrap();
    let mut config = StreamConfig::new(spec, SimDuration::from_secs(LATENESS));
    config.collect_aggregates = true;
    let mut rt = StreamRuntime::new(&stream_ctx, config);
    let (tx, mut src) = ChannelSource::pair();
    let (mut proxy, mut mme) = (Vec::new(), Vec::new());
    for (_, ev) in arrivals {
        match &ev {
            StreamEvent::Proxy(r) => proxy.push(*r),
            StreamEvent::Mme(r) => mme.push(*r),
        }
        tx.send(ev).unwrap();
    }
    drop(tx);
    assert_eq!(
        rt.pump(&mut src, &PumpOptions::default()).expect("pump"),
        PumpOutcome::Finished
    );
    rt.finish();
    let (summary, collected) = rt.into_results();
    assert!(summary.quality.quarantined.is_empty());
    assert!(summary.late_merged > 1000, "{} late", summary.late_merged);

    // Batch side: the same records, stably time-sorted by the store.
    let store = TraceStore::from_records(proxy, mme);
    let batch_ctx = StudyContext::new(&store, &db, &world.sectors, &catalog, window);
    let batch = CoreAggregates::sequential(&batch_ctx);
    let mut merged = CorePartials::default();
    for (_, partials) in collected {
        merged.merge(partials);
    }
    let got = merged.finish(&batch_ctx);
    assert!(batch
        .attributed
        .iter()
        .any(|t| t.app.is_some() && !t.first_party()));
    assert_eq!(got.attributed, batch.attributed);
    assert_eq!(got.popularity, batch.popularity);
    assert_eq!(got.domains, batch.domains);
    // Late sightings reach the sector join out of time order; the join
    // sorts each timeline before it looks anything up.
    assert_eq!(got.transaction_sectors, batch.transaction_sectors);
    for (a, b) in [
        (&got.domains.users, &batch.domains.users),
        (&got.domains.frequency, &batch.domains.frequency),
        (&got.domains.data, &batch.domains.data),
    ] {
        assert_eq!(bits(a), bits(b), "domain share bits");
    }
}

/// Streams the world under `dir` at both widths and checks the merged
/// windows and the quarantine ledger against the batch load and fold.
fn assert_equivalent(dir: &std::path::Path, input: &str, lateness: SimDuration) {
    // Batch side: the same resilient load `wearscope analyze` performs.
    let opts = IngestOptions::for_world(dir).with_max_error_rate(1.0);
    let (store, load_report) = load_store_resilient(dir, 1, &opts).expect("batch load");
    let pristine = input == "pristine";
    assert_eq!(
        load_report.quality.quarantined.is_empty(),
        pristine,
        "{input}: batch quarantine"
    );
    let saved = GeneratedWorld::load_with_store(dir, store).expect("load metadata");
    let db = DeviceDb::standard();
    let catalog = AppCatalog::standard();
    let batch_ctx = StudyContext::new(&saved.store, &db, &saved.sectors, &catalog, saved.window);
    let batch = CoreAggregates::sequential(&batch_ctx);
    let batch_results = StudyResults::new(&batch_ctx, &saved.summaries, &batch);
    assert!(!batch.owners.is_empty(), "{input}: owners seen");
    assert!(
        batch_results.owner_vs_rest.bytes_ratio > 0.0,
        "{input}: owners transact"
    );

    // Stream side: empty-store context; records arrive through the source.
    let empty = TraceStore::new();
    let stream_ctx = StudyContext::new(&empty, &db, &saved.sectors, &catalog, saved.window);

    for width_secs in [3_600u64, 90_000] {
        let at = format!("{input}, width {width_secs}");
        let spec = WindowSpec::tumbling(SimDuration::from_secs(width_secs)).unwrap();
        let mut config = StreamConfig::new(spec, lateness);
        config.collect_aggregates = true;
        config.max_timestamp = opts.max_timestamp;
        let mut rt = StreamRuntime::new(&stream_ctx, config);
        let mut src = WorldSource::open(dir, false)
            .expect("open source")
            .with_horizon(opts.max_timestamp);
        assert_eq!(
            rt.pump(&mut src, &PumpOptions::default()).expect("pump"),
            PumpOutcome::Finished
        );
        rt.finish();
        let (summary, collected) = rt.into_results();
        let (got_q, want_q) = (&summary.quality, &load_report.quality);
        assert_eq!(
            got_q.records_seen, want_q.records_seen,
            "{at}: records seen"
        );
        assert_eq!(
            got_q.records_kept, want_q.records_kept,
            "{at}: records kept"
        );
        for reason in QuarantineReason::ALL {
            assert_eq!(
                got_q.quarantined.get(reason),
                want_q.quarantined.get(reason),
                "{at}: {reason} quarantined"
            );
        }
        assert_eq!(summary.late_merged, 0, "{at}: sorted input");
        assert_eq!(summary.windows.len(), collected.len(), "{at}");
        // Emitted indices are gapless and ascending.
        for (i, pair) in collected.windows(2).enumerate() {
            assert_eq!(pair[1].0, pair[0].0 + 1, "{at}: gap after window {i}");
        }

        // Merge every window's partials in index order and finish with the
        // stream's context — the exact contract of `wearscope_core::merge`.
        let mut merged = CorePartials::default();
        for (_, partials) in collected {
            merged.merge(partials);
        }
        let got = merged.finish(&stream_ctx);

        assert_eq!(got.activity, batch.activity, "{at}");
        assert_eq!(got.traffic, batch.traffic, "{at}");
        assert_eq!(got.mobility, batch.mobility, "{at}");
        assert_eq!(got.attributed, batch.attributed, "{at}");
        assert_eq!(got.popularity, batch.popularity, "{at}");
        assert_eq!(got.hourly, batch.hourly, "{at}");
        assert_eq!(got.tx_stats, batch.tx_stats, "{at}");
        // Float series compared through their bit patterns as well —
        // `PartialEq` would accept 0.0 == -0.0.
        assert_eq!(
            bits(got.tx_stats.size.samples()),
            bits(batch.tx_stats.size.samples()),
            "{at}: transaction-size sample bits"
        );
        assert_eq!(
            bits(got.tx_stats.hourly_tx_per_user.samples()),
            bits(batch.tx_stats.hourly_tx_per_user.samples()),
            "{at}: hourly-tx sample bits"
        );
        assert_eq!(
            got.tx_stats.median_bytes.to_bits(),
            batch.tx_stats.median_bytes.to_bits(),
            "{at}: median bits"
        );

        // The figures folded from the same partials.
        assert_eq!(got.weekly, batch.weekly, "{at}");
        assert_eq!(got.domains, batch.domains, "{at}");
        assert_eq!(got.devices, batch.devices, "{at}");
        assert_eq!(got.through_device, batch.through_device, "{at}");
        assert_eq!(got.quality, batch.quality, "{at}");
        assert_eq!(got.owners, batch.owners, "{at}");
        assert!(batch.devices.total_users > 0, "{at}: wearables seen");
        assert!(
            !batch.through_device.users.is_empty(),
            "{at}: fingerprints seen"
        );
        let (w, bw) = (&got.weekly, &batch.weekly);
        for (a, b) in [
            (
                &w.wearable_tx_by_weekday[..],
                &bw.wearable_tx_by_weekday[..],
            ),
            (&w.total_tx_by_weekday, &bw.total_tx_by_weekday),
            (&w.daily_user_share, &bw.daily_user_share),
            (&got.domains.users, &batch.domains.users),
            (&got.domains.frequency, &batch.domains.frequency),
            (&got.domains.data, &batch.domains.data),
        ] {
            assert_eq!(bits(a), bits(b), "{at}: weekly and domain share bits");
        }
        let (t, bt) = (&got.through_device, &batch.through_device);
        assert_eq!(
            [
                w.weekend_relative_usage.to_bits(),
                w.evening_relative_usage.to_bits(),
                t.displacement_mean_km.to_bits(),
                t.sim_owner_displacement_mean_km.to_bits(),
                got.quality.day_coverage.to_bits(),
            ],
            [
                bw.weekend_relative_usage.to_bits(),
                bw.evening_relative_usage.to_bits(),
                bt.displacement_mean_km.to_bits(),
                bt.sim_owner_displacement_mean_km.to_bits(),
                batch.quality.day_coverage.to_bits(),
            ],
            "{at}: scalar bits"
        );
        assert_eq!(
            bits(t.displacement.samples()),
            bits(bt.displacement.samples()),
            "{at}: Through-Device displacement bits"
        );

        // The owner-split figures of the study results, on the stream's
        // context: owners come from the fold, not from a store index.
        let results = StudyResults::new(&stream_ctx, &saved.summaries, &got);
        for ((name, a), (_, b)) in owner_split_bits(&results)
            .into_iter()
            .zip(owner_split_bits(&batch_results))
        {
            assert_eq!(a, b, "{at}: {name} bits");
        }

        // Fig. 4(d)'s single-location share joins the two logs; the join
        // is fold state, so merged windows give batch's share exactly.
        assert_eq!(got.transaction_sectors, batch.transaction_sectors, "{at}");
        let (share, batch_share) = (
            results.mobility_activity.single_location_share,
            batch_results.mobility_activity.single_location_share,
        );
        assert!(batch_share > 0.0, "{at}: transactions located");
        assert_eq!(
            share.to_bits(),
            batch_share.to_bits(),
            "{at}: single-location share bits"
        );
    }
}
