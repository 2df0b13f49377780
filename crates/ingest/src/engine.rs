//! [`IngestEngine`]: a delegation to [`CoreAggregates::sequential`], kept
//! under its old name because the `perfbench` helper calls it. `analyze`
//! calls the fold directly.

use std::time::Instant;

use wearscope_core::{CoreAggregates, StudyContext};
use wearscope_obs::Registry;
use wearscope_report::{DataQuality, IngestReport};

use crate::error::IngestError;

/// The aggregate fold as one pass on the calling thread, whatever worker
/// count it was built with.
#[derive(Clone, Copy, Debug)]
pub struct IngestEngine;

impl IngestEngine {
    /// The engine. `workers` is accepted for compatibility and ignored:
    /// the fold runs on the calling thread.
    pub fn new(_workers: usize) -> IngestEngine {
        IngestEngine
    }

    /// The number of threads the fold runs on: always 1.
    pub fn workers(&self) -> usize {
        1
    }

    /// [`IngestEngine::compute`] that also records the fold's record count
    /// and wall time into `metrics`, in the **timing** section, so the
    /// deterministic maps stay the same as `analyze --metrics` writes them.
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
            .timing_counter("ingest.fold.records")
            .add(report.quality.records_seen);
        metrics
            .timing_gauge("ingest.fold.wall_us")
            .set(report.wall.as_micros() as i64);
        Ok(out)
    }

    /// Computes every hot aggregate with [`CoreAggregates::sequential`].
    /// The report names one worker and no shards, which is what ran.
    ///
    /// # Errors
    /// None: the fold runs over already-validated records. The `Result`
    /// keeps the signature its callers were written against.
    pub fn compute(
        &self,
        ctx: &StudyContext<'_>,
    ) -> Result<(CoreAggregates, IngestReport), IngestError> {
        let start = Instant::now();
        let aggregates = CoreAggregates::sequential(ctx);
        let records = (ctx.store.proxy().len() + ctx.store.mme().len()) as u64;
        let report = IngestReport {
            workers: 1,
            shards: 0,
            quality: DataQuality {
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
mod tests {
    use super::*;
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::DeviceDb;
    use wearscope_geo::SectorDirectory;
    use wearscope_simtime::{ObservationWindow, SimTime};
    use wearscope_trace::{HostId, ProxyRecord, Scheme, TraceStore, UserId};

    #[test]
    fn compute_delegates_to_the_one_fold_and_reports_one_thread() {
        let db = DeviceDb::standard();
        let imei = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
        let proxy = (0..50u64)
            .map(|i| ProxyRecord {
                timestamp: SimTime::from_secs(i * 600),
                user: UserId(1 + i % 3),
                imei,
                host: HostId::intern("api.weather.com"),
                scheme: Scheme::Https,
                bytes_down: 100 + i,
                bytes_up: 10,
            })
            .collect();
        let store = TraceStore::from_records(proxy, vec![]);
        let sectors = SectorDirectory::new();
        let catalog = AppCatalog::standard();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::compact(),
        );
        let reg = Registry::new();
        let engine = IngestEngine::new(8);
        let (aggs, report) = engine.compute_with_metrics(&ctx, &reg).unwrap();
        let expected = CoreAggregates::sequential(&ctx);
        assert_eq!(aggs.activity, expected.activity);
        assert_eq!(aggs.attributed, expected.attributed);
        assert_eq!(engine.workers(), 1);
        assert_eq!(report.workers, 1);
        assert_eq!(report.shards, 0);
        assert_eq!(report.quality.records_kept, 50);
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert_eq!(snap.timing.counters["ingest.fold.records"], 50);
    }
}
