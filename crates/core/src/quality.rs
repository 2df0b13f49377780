//! Data-quality assessment: the analyst's QA pass before trusting the logs.
//!
//! Sec. 3.4 of the paper scopes what its vantage points can and cannot see;
//! any real deployment of this pipeline starts by quantifying that. This
//! module reports coverage gaps, identification misses, and internal
//! inconsistencies of a trace — the checks that catch a broken collection
//! day before it silently skews every figure.

use wearscope_trace::UserId;

use crate::compare::UserTraffic;
use crate::context::StudyContext;
use crate::hash::HashMap;
use crate::merge::{CoreAggregates, QualityPartial};
use crate::thirdparty::DomainBreakdown;

/// The data-quality report for one trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DataQualityReport {
    /// Total proxy records.
    pub proxy_records: u64,
    /// Total MME records.
    pub mme_records: u64,
    /// Proxy records whose IMEI the device DB cannot resolve (grey devices
    /// roaming in, corrupted IMEIs, models missing from the DB).
    pub unresolved_device_records: u64,
    /// Wearable proxy records whose host matches no signature.
    pub unclassified_wearable_records: u64,
    /// Days inside the detailed window with **no proxy records at all** —
    /// collection outages.
    pub silent_days: Vec<u64>,
    /// Fraction of expected detailed-window days with data.
    pub day_coverage: f64,
    /// Proxy records timestamped outside the detailed window (retention
    /// violations).
    pub out_of_window_records: u64,
}

impl DataQualityReport {
    /// Runs all checks.
    pub fn compute(ctx: &StudyContext<'_>) -> DataQualityReport {
        CoreAggregates::sequential(ctx).quality
    }

    /// The finish step: the QA counters plus what the other aggregates
    /// already hold — proxy records from `traffic`, unclassified wearable
    /// hosts from the domain breakdown.
    pub(crate) fn from_parts(
        ctx: &StudyContext<'_>,
        partial: QualityPartial,
        traffic: &HashMap<UserId, UserTraffic>,
        domains: &DomainBreakdown,
    ) -> DataQualityReport {
        let expected: Vec<u64> = ctx.window.detailed().days().collect();
        let silent_days: Vec<u64> = expected
            .iter()
            .copied()
            .filter(|d| !partial.proxy_days.contains(d))
            .collect();
        let day_coverage = if expected.is_empty() {
            0.0
        } else {
            1.0 - silent_days.len() as f64 / expected.len() as f64
        };
        DataQualityReport {
            proxy_records: traffic.values().map(|t| t.tx_total).sum(),
            mme_records: partial.mme_records,
            unresolved_device_records: partial.unresolved_device_records,
            unclassified_wearable_records: domains.unclassified_transactions,
            silent_days,
            day_coverage,
            out_of_window_records: partial.out_of_window_records,
        }
    }

    /// `true` when the trace is fit for the full analysis: no silent days,
    /// no retention violations, and the unresolved devices, the
    /// unclassified wearable hosts and `ingest_loss` each at most
    /// `tolerance`. `ingest_loss` is the fraction of the run's log lines
    /// that ingest quarantined (the ledgers' quarantine rate; 0 for a
    /// trace that was never read from disk): the part of the trace these
    /// figures cannot describe.
    pub fn is_healthy(&self, tolerance: f64, ingest_loss: f64) -> bool {
        if !self.silent_days.is_empty() || self.out_of_window_records > 0 {
            return false;
        }
        let total = self.proxy_records.max(1) as f64;
        (self.unresolved_device_records as f64 / total) <= tolerance
            && (self.unclassified_wearable_records as f64 / total) <= tolerance
            && ingest_loss <= tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::DeviceDb;
    use wearscope_geo::SectorDirectory;
    use wearscope_simtime::{Calendar, ObservationWindow, SimDuration, SimTime};
    use wearscope_trace::{HostId, MmeEvent, MmeRecord, ProxyRecord, Scheme, TraceStore};

    fn window() -> ObservationWindow {
        ObservationWindow::new(7, 7, Calendar::PAPER)
    }

    fn rec(db: &DeviceDb, user: u64, day: u64, host: &str) -> ProxyRecord {
        ProxyRecord {
            timestamp: SimTime::from_days(day) + SimDuration::from_hours(10),
            user: UserId(user),
            imei: db.example_imei(db.wearable_tacs()[0], user as u32).as_u64(),
            host: HostId::intern(host),
            scheme: Scheme::Https,
            bytes_down: 1000,
            bytes_up: 100,
        }
    }

    #[test]
    fn healthy_trace_reports_clean() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let mut proxy = Vec::new();
        let mut mme = Vec::new();
        for day in 0..7 {
            proxy.push(rec(&db, 1, day, "api.weather.com"));
            mme.push(MmeRecord {
                timestamp: SimTime::from_days(day),
                user: UserId(1),
                imei: proxy[0].imei,
                event: MmeEvent::Attach,
                sector: 0,
            });
        }
        let store = TraceStore::from_records(proxy, mme);
        let ctx = StudyContext::new(&store, &db, &sectors, &catalog, window());
        let q = DataQualityReport::compute(&ctx);
        assert!(q.silent_days.is_empty());
        assert_eq!(q.day_coverage, 1.0);
        assert_eq!(q.unresolved_device_records, 0);
        assert_eq!(q.unclassified_wearable_records, 0);
        assert_eq!(q.out_of_window_records, 0);
        assert!(q.is_healthy(0.01, 0.0));
    }

    #[test]
    fn ingest_losses_count_against_health() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let proxy: Vec<ProxyRecord> = (0..7).map(|d| rec(&db, 1, d, "api.weather.com")).collect();
        let store = TraceStore::from_records(proxy, vec![]);
        let ctx = StudyContext::new(&store, &db, &sectors, &catalog, window());
        let q = DataQualityReport::compute(&ctx);
        assert!(q.is_healthy(0.05, 0.0));
        assert!(
            !q.is_healthy(0.05, 0.1),
            "10% quarantined must fail 5% tolerance"
        );
        assert!(q.is_healthy(0.05, 0.05), "the tolerance is inclusive");
        assert!(q.is_healthy(0.2, 0.1));
    }

    #[test]
    fn detects_silent_days_and_unknown_devices() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        // Data only on days 0 and 2; day 1 and 3..7 silent. One foreign IMEI,
        // one unclassifiable wearable host.
        let mut proxy = vec![
            rec(&db, 1, 0, "api.weather.com"),
            rec(&db, 2, 2, "mystery.unsigned.example"),
        ];
        proxy.push(ProxyRecord {
            imei: 999_999_999_999_999 / 10 * 10 + 5, // syntactically odd IMEI
            ..rec(&db, 3, 2, "api.weather.com")
        });
        let store = TraceStore::from_records(proxy, vec![]);
        let ctx = StudyContext::new(&store, &db, &sectors, &catalog, window());
        let q = DataQualityReport::compute(&ctx);
        assert_eq!(q.silent_days, vec![1, 3, 4, 5, 6]);
        assert!((q.day_coverage - 2.0 / 7.0).abs() < 1e-9);
        assert_eq!(q.unresolved_device_records, 1);
        assert_eq!(q.unclassified_wearable_records, 1);
        assert!(!q.is_healthy(0.5, 0.0));
    }

    #[test]
    fn detects_out_of_window_records() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        // Window covers days 7..14 in detail; inject a record on day 2.
        let w = ObservationWindow::new(14, 7, Calendar::PAPER);
        let mut proxy: Vec<ProxyRecord> =
            (7..14).map(|d| rec(&db, 1, d, "api.weather.com")).collect();
        proxy.push(rec(&db, 1, 2, "api.weather.com"));
        let store = TraceStore::from_records(proxy, vec![]);
        let ctx = StudyContext::new(&store, &db, &sectors, &catalog, w);
        let q = DataQualityReport::compute(&ctx);
        assert_eq!(q.out_of_window_records, 1);
        assert!(!q.is_healthy(1.0, 0.0));
    }

    #[test]
    fn empty_trace() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let store = TraceStore::new();
        let ctx = StudyContext::new(&store, &db, &sectors, &catalog, window());
        let q = DataQualityReport::compute(&ctx);
        assert_eq!(q.proxy_records, 0);
        assert_eq!(q.silent_days.len(), 7);
        assert_eq!(q.day_coverage, 0.0);
        assert!(!q.is_healthy(1.0, 0.0));
    }
}
