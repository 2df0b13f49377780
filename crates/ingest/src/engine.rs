//! The sharded aggregate engine: sharded fold → ordered merge → single
//! finish.
//!
//! The crate's worker pool (`pool`) folds every partial aggregate
//! over one user-disjoint shard per task, in one pass; the main thread
//! merges partials in ascending shard index and runs the single-threaded
//! finish step. Determinism therefore does not depend on scheduling: thread
//! interleaving only changes *who* folds a shard, never the shard contents,
//! the merge order, or any float reduction (all deferred to finish — see
//! `wearscope_core::merge`).

use std::time::Instant;

use wearscope_core::merge::{
    ActivityPartial, AppPopularityPartial, HourlyProfilePartial, Mergeable, MobilityPartial,
    TrafficPartial, TransactionStatsPartial,
};
use wearscope_core::sessions::{attribute_records, AttributedTx};
use wearscope_core::{CoreAggregates, StudyContext};
use wearscope_obs::Registry;
use wearscope_report::{DataQuality, IngestReport, ShardProgress, ShardSource};
use wearscope_trace::{MmeRecord, ProxyRecord};

use crate::error::IngestError;
use crate::pool::run_indexed;
use crate::sharder::shard_store;

/// Shards per worker: enough queue granularity that work stealing evens
/// out skewed shards, without drowning the progress report.
pub(crate) const SHARDS_PER_WORKER: usize = 4;

/// One shard's partial aggregates — everything a worker folds in a single
/// pass over its user set.
struct ShardAggregates {
    activity: ActivityPartial,
    hourly: HourlyProfilePartial,
    tx_stats: TransactionStatsPartial,
    traffic: TrafficPartial,
    mobility: MobilityPartial,
    attributed: Vec<AttributedTx>,
    popularity: AppPopularityPartial,
}

impl ShardAggregates {
    fn identity() -> ShardAggregates {
        ShardAggregates {
            activity: ActivityPartial::identity(),
            hourly: HourlyProfilePartial::identity(),
            tx_stats: TransactionStatsPartial::identity(),
            traffic: TrafficPartial::identity(),
            mobility: MobilityPartial::identity(),
            attributed: Vec::new(),
            popularity: AppPopularityPartial::identity(),
        }
    }

    /// The worker body: folds one user-disjoint shard.
    fn fold(ctx: &StudyContext<'_>, proxy: &[&ProxyRecord], mme: &[&MmeRecord]) -> ShardAggregates {
        let mut agg = ShardAggregates::identity();
        for &r in proxy {
            agg.activity.absorb(ctx, r);
            agg.hourly.absorb(ctx, r);
            agg.tx_stats.absorb(ctx, r);
            agg.traffic.absorb(ctx, r);
        }
        for &r in mme {
            agg.mobility.absorb(ctx, r);
        }
        // Attribution is user-local and this shard holds whole users, so
        // the shard result equals the sequential result restricted to them.
        agg.attributed = attribute_records(ctx, proxy.iter().copied());
        for tx in &agg.attributed {
            agg.popularity.absorb(ctx, tx);
        }
        agg
    }

    fn merge(&mut self, other: ShardAggregates) {
        self.activity.merge(other.activity);
        self.hourly.merge(other.hourly);
        self.tx_stats.merge(other.tx_stats);
        self.traffic.merge(other.traffic);
        self.mobility.merge(other.mobility);
        self.attributed.extend(other.attributed);
        self.popularity.merge(other.popularity);
    }

    fn finish(self, ctx: &StudyContext<'_>) -> CoreAggregates {
        let mut attributed = self.attributed;
        // Same final order as the sequential path: shards are user-disjoint
        // and user-locally ordered, so this stable sort is a bijection onto
        // `sessions::attribute_transactions`' output.
        attributed.sort_by_key(|t| (t.user, t.timestamp));
        CoreAggregates {
            activity: self.activity.finish(ctx),
            hourly: self.hourly.finish(ctx),
            tx_stats: self.tx_stats.finish(ctx),
            traffic: self.traffic.finish(ctx),
            mobility: self.mobility.finish(ctx),
            popularity: self.popularity.finish(ctx),
            attributed,
        }
    }
}

/// The parallel aggregate engine.
#[derive(Clone, Copy, Debug)]
pub struct IngestEngine {
    workers: usize,
}

impl IngestEngine {
    /// An engine with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> IngestEngine {
        IngestEngine {
            workers: workers.max(1),
        }
    }

    /// The worker count this engine runs with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// [`IngestEngine::compute`] that also records the pool's fold timings
    /// into `metrics`.
    ///
    /// Everything lands in the **timing** section: the engine only runs on
    /// the multi-worker path (`--workers 1` folds sequentially and never
    /// constructs it), so even its record counts would differ between
    /// worker counts and poison a determinism diff.
    ///
    /// # Errors
    /// Exactly [`IngestEngine::compute`]'s.
    pub fn compute_with_metrics(
        &self,
        ctx: &StudyContext<'_>,
        metrics: &Registry,
    ) -> Result<(CoreAggregates, IngestReport), IngestError> {
        let out = self.compute(ctx)?;
        let report = &out.1;
        metrics
            .timing_gauge("ingest.fold.workers")
            .set(report.workers as i64);
        metrics
            .timing_counter("ingest.fold.shards")
            .add(report.shards.len() as u64);
        metrics
            .timing_counter("ingest.fold.records")
            .add(report.records());
        let fold_us = metrics.timing_histogram(
            "ingest.fold.shard_fold_us",
            &[100, 1_000, 10_000, 100_000, 1_000_000],
        );
        for shard in &report.shards {
            fold_us.observe(shard.wall.as_micros() as u64);
        }
        metrics
            .timing_gauge("ingest.fold.wall_us")
            .set(report.wall.as_micros() as i64);
        Ok(out)
    }

    /// Computes every hot aggregate over `ctx`'s store with the worker
    /// pool. The result is bit-identical to
    /// [`CoreAggregates::sequential`] for any worker count.
    ///
    /// # Errors
    /// [`IngestError::ShardFailed`] when a worker panicked while folding a
    /// shard. The remaining shards still complete — the failure is caught
    /// per shard, not per pool — but the partial result is discarded
    /// rather than returned as a silently incomplete aggregate.
    pub fn compute(
        &self,
        ctx: &StudyContext<'_>,
    ) -> Result<(CoreAggregates, IngestReport), IngestError> {
        let start = Instant::now();
        let shards = shard_store(ctx.store, self.workers * SHARDS_PER_WORKER);
        let tasks: Vec<usize> = (0..shards.len())
            .filter(|&i| !shards.shard_is_empty(i))
            .collect();
        let results = run_indexed(self.workers, &tasks, |&i| {
            let t0 = Instant::now();
            #[cfg(test)]
            test_hooks::maybe_panic(ctx.store, i);
            let agg = ShardAggregates::fold(ctx, &shards.proxy[i], &shards.mme[i]);
            (agg, t0.elapsed())
        });

        // Tasks ascend by shard index, so merging in result order is the
        // deterministic merge order the Mergeable contract asks for, and the
        // first failure is the lowest failed shard.
        let mut merged = ShardAggregates::identity();
        let mut progress = Vec::with_capacity(tasks.len());
        for (i, result) in tasks.into_iter().zip(results) {
            let (agg, wall) = result.map_err(|detail| IngestError::ShardFailed {
                source: ShardSource::Memory,
                shard: i,
                panicked: true,
                detail,
            })?;
            merged.merge(agg);
            progress.push(ShardProgress {
                shard: i,
                source: ShardSource::Memory,
                records: (shards.proxy[i].len() + shards.mme[i].len()) as u64,
                bytes: 0,
                parse_errors: 0,
                wall,
            });
        }
        let aggregates = merged.finish(ctx);
        let records = (ctx.store.proxy().len() + ctx.store.mme().len()) as u64;
        let report = IngestReport {
            workers: self.workers,
            shards: progress,
            quality: DataQuality {
                // The compute phase starts from already-validated records;
                // it sees and keeps all of them or fails above.
                records_seen: records,
                records_kept: records,
                ..DataQuality::default()
            },
            wall: start.elapsed(),
        };
        Ok((aggregates, report))
    }
}

#[cfg(test)]
pub(crate) mod test_hooks {
    //! Fault injection for the pool tests: panic while folding a specific
    //! shard of a specific store. Keyed by the store's address so tests
    //! running concurrently in this binary never trip each other's hook.
    use std::sync::Mutex;

    use wearscope_trace::TraceStore;

    pub(crate) static PANIC_ON: Mutex<Option<(usize, usize)>> = Mutex::new(None);

    pub(super) fn maybe_panic(store: &TraceStore, shard: usize) {
        // Copy and release the lock before panicking so the unwind does
        // not poison the hook for the other tests in this binary.
        let hook = *PANIC_ON
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((addr, i)) = hook {
            if std::ptr::from_ref(store) as usize == addr && shard == i {
                panic!("injected fold fault");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::DeviceDb;
    use wearscope_geo::{GeoPoint, SectorDirectory};
    use wearscope_simtime::{Calendar, ObservationWindow, SimTime};
    use wearscope_trace::{MmeEvent, Scheme, TraceStore, UserId};

    fn world() -> (TraceStore, DeviceDb, SectorDirectory, AppCatalog) {
        let db = DeviceDb::standard();
        let mut sectors = SectorDirectory::new();
        for i in 0..4 {
            sectors.push(GeoPoint::new(40.0 + 0.1 * f64::from(i), -3.0), None);
        }
        let hosts = [
            "api.weather.com",
            "maps.googleapis.com",
            "ssl.google-analytics.com",
            "media.akamaized.net",
        ];
        let mut proxy = Vec::new();
        let mut mme = Vec::new();
        for i in 0..400u64 {
            let user = i % 23;
            let imei = db
                .example_imei(
                    db.wearable_tacs()[(user % 2) as usize % db.wearable_tacs().len()],
                    user as u32,
                )
                .as_u64();
            proxy.push(ProxyRecord {
                timestamp: SimTime::from_secs(i * 977),
                user: UserId(user),
                imei,
                host: hosts[(i % 4) as usize].into(),
                scheme: Scheme::Https,
                bytes_down: 100 + i * 7,
                bytes_up: 40,
            });
            if i % 3 == 0 {
                mme.push(MmeRecord {
                    timestamp: SimTime::from_secs(i * 700),
                    user: UserId(user),
                    imei,
                    event: if i % 9 == 6 {
                        MmeEvent::Detach
                    } else {
                        MmeEvent::Attach
                    },
                    sector: (i % 4) as u32,
                });
            }
        }
        (
            TraceStore::from_records(proxy, mme),
            db,
            sectors,
            AppCatalog::standard(),
        )
    }

    #[test]
    fn parallel_equals_sequential_for_various_worker_counts() {
        let (store, db, sectors, catalog) = world();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let sequential = CoreAggregates::sequential(&ctx);
        for workers in [1, 2, 3, 8] {
            let (parallel, report) = IngestEngine::new(workers).compute(&ctx).unwrap();
            assert_eq!(parallel.activity, sequential.activity, "workers={workers}");
            assert_eq!(parallel.hourly, sequential.hourly, "workers={workers}");
            assert_eq!(parallel.tx_stats, sequential.tx_stats, "workers={workers}");
            assert_eq!(parallel.traffic, sequential.traffic, "workers={workers}");
            assert_eq!(parallel.mobility, sequential.mobility, "workers={workers}");
            assert_eq!(
                parallel.attributed, sequential.attributed,
                "workers={workers}"
            );
            assert_eq!(
                parallel.popularity, sequential.popularity,
                "workers={workers}"
            );
            assert_eq!(report.workers, workers);
            assert_eq!(
                report.records(),
                (store.proxy().len() + store.mme().len()) as u64
            );
            assert_eq!(report.parse_errors(), 0);
        }
    }

    #[test]
    fn compute_with_metrics_reports_fold_timings() {
        let (store, db, sectors, catalog) = world();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let reg = Registry::new();
        let (_, report) = IngestEngine::new(3)
            .compute_with_metrics(&ctx, &reg)
            .unwrap();
        let snap = reg.snapshot();
        // All fold metrics live in the timing section — the engine never
        // runs on the single-worker path, so none of them may appear in
        // the deterministic maps.
        assert!(snap.counters.is_empty());
        assert_eq!(snap.timing.gauges["ingest.fold.workers"], 3);
        assert_eq!(
            snap.timing.counters["ingest.fold.shards"],
            report.shards.len() as u64
        );
        assert_eq!(
            snap.timing.counters["ingest.fold.records"],
            report.records()
        );
        assert_eq!(
            snap.timing.histograms["ingest.fold.shard_fold_us"].count,
            report.shards.len() as u64
        );
    }

    #[test]
    fn empty_store_produces_empty_aggregates() {
        let db = DeviceDb::standard();
        let sectors = SectorDirectory::new();
        let catalog = AppCatalog::standard();
        let store = TraceStore::new();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::compact(),
        );
        let (aggs, report) = IngestEngine::new(4).compute(&ctx).unwrap();
        assert!(aggs.activity.is_empty());
        assert!(aggs.attributed.is_empty());
        assert_eq!(report.records(), 0);
        assert!(report.shards.is_empty());
    }

    #[test]
    fn panicking_fold_shard_is_reported_not_fatal() {
        let (store, db, sectors, catalog) = world();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        // Poison the first non-empty shard of *this* store only.
        let engine = IngestEngine::new(4);
        let shards = shard_store(&store, engine.workers() * SHARDS_PER_WORKER);
        let victim = (0..shards.len())
            .find(|&i| !shards.shard_is_empty(i))
            .expect("sample world has records");
        *test_hooks::PANIC_ON.lock().unwrap() = Some((std::ptr::from_ref(&store) as usize, victim));
        let result = engine.compute(&ctx);
        *test_hooks::PANIC_ON.lock().unwrap() = None;
        match result {
            Err(IngestError::ShardFailed {
                source,
                shard,
                panicked,
                ..
            }) => {
                assert_eq!(source, ShardSource::Memory);
                assert_eq!(shard, victim);
                assert!(panicked);
            }
            other => panic!("expected ShardFailed, got {:?}", other.map(|_| ())),
        }
        // Clean run right after — the engine carries no poisoned state.
        let (aggs, _) = engine.compute(&ctx).unwrap();
        assert_eq!(aggs.attributed, CoreAggregates::sequential(&ctx).attributed);
    }
}
