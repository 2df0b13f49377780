//! The study context: logs plus lookup services.

use std::sync::{PoisonError, RwLock};

use wearscope_appdb::{
    fingerprint_host, AppCatalog, Classification, SniClassifier, ThroughDeviceKind,
};
use wearscope_devicedb::{DeviceClass, DeviceDb, Imei};
use wearscope_geo::SectorDirectory;
use wearscope_simtime::ObservationWindow;
use wearscope_trace::{HostId, ProxyRecord, TraceStore};

/// What the study's signatures say about one destination host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostClass {
    /// First-party app or third-party domain class (Figs. 5, 7, 8);
    /// `None` when no signature matches.
    pub classification: Option<Classification>,
    /// The Through-Device wearable the host fingerprints (Sec. 6).
    pub through_device: Option<ThroughDeviceKind>,
}

/// Everything an analysis needs, bundled: the detailed-window logs, the
/// three lookup services of Fig. 1 (device DB, cell plan, app signatures),
/// and the observation window. Mirrors exactly the inputs the paper's
/// authors had — no generator ground truth.
///
/// Building a context reads no log, so batch and stream build the same
/// one; every per-record fact (the owners, the device mix, …) comes from
/// the fold over the logs.
pub struct StudyContext<'a> {
    /// Detailed-window logs.
    pub store: &'a TraceStore,
    /// Device database (IMEI → model/class).
    pub db: &'a DeviceDb,
    /// Sector directory (sector id → coordinates).
    pub sectors: &'a SectorDirectory,
    /// App catalog.
    pub catalog: &'a AppCatalog,
    /// SNI/host classifier built over `catalog` plus third-party signatures.
    pub classifier: SniClassifier,
    /// Observation window.
    pub window: ObservationWindow,
    /// Each distinct host's class by [`HostId::index`], worked out the
    /// first time a record asks.
    hosts: RwLock<Vec<Option<HostClass>>>,
}

impl<'a> StudyContext<'a> {
    /// Builds the context; the store is only handed through.
    pub fn new(
        store: &'a TraceStore,
        db: &'a DeviceDb,
        sectors: &'a SectorDirectory,
        catalog: &'a AppCatalog,
        window: ObservationWindow,
    ) -> StudyContext<'a> {
        StudyContext {
            store,
            db,
            sectors,
            catalog,
            classifier: SniClassifier::build(catalog),
            window,
            hosts: RwLock::default(),
        }
    }

    /// The class of a record's host. Each distinct host goes through the
    /// classifier and the Through-Device fingerprints once; later calls
    /// are a table lookup.
    pub fn host_class(&self, host: HostId) -> HostClass {
        let known = self.hosts.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(&Some(class)) = known.get(host.index()) {
            return class;
        }
        drop(known);
        let name = host.name();
        let class = HostClass {
            classification: self.classifier.classify(name),
            through_device: fingerprint_host(name),
        };
        let mut known = self.hosts.write().unwrap_or_else(PoisonError::into_inner);
        if known.len() <= host.index() {
            known.resize(host.index() + 1, None);
        }
        known[host.index()] = Some(class);
        class
    }

    /// The device class behind an IMEI, if it is valid and the device DB
    /// knows it.
    pub fn device_class(&self, imei: u64) -> Option<DeviceClass> {
        Imei::from_u64(imei)
            .ok()
            .and_then(|i| self.device_class_of(i))
    }

    /// The device class behind an IMEI already checked, such as the one
    /// the record validator hands on with a kept record: the device-DB
    /// lookup alone.
    pub fn device_class_of(&self, imei: Imei) -> Option<DeviceClass> {
        self.db.lookup(imei).map(|r| r.class)
    }

    /// `true` if this proxy record was issued by a SIM-enabled wearable.
    pub fn is_wearable_record(&self, r: &ProxyRecord) -> bool {
        self.device_class(r.imei) == Some(DeviceClass::CellularWearable)
    }

    /// Proxy records issued by SIM-enabled wearables.
    pub fn wearable_proxy(&self) -> impl Iterator<Item = &'a ProxyRecord> + '_ {
        self.store
            .proxy()
            .iter()
            .filter(move |r| self.is_wearable_record(r))
    }

    /// Number of whole weeks in the detailed window (averaging denominator).
    pub fn detail_weeks(&self) -> f64 {
        (self.window.detailed().num_whole_weeks() as f64).max(1.0)
    }

    /// Number of days in the detailed window.
    pub fn detail_days(&self) -> f64 {
        (self.window.detailed().num_days() as f64).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_simtime::SimTime;
    use wearscope_trace::{Scheme, UserId};

    fn proxy(user: u64, imei: u64, host: &str, t: u64) -> ProxyRecord {
        ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei,
            host: HostId::intern(host),
            scheme: Scheme::Https,
            bytes_down: 1000,
            bytes_up: 100,
        }
    }

    #[test]
    fn classifies_devices_from_the_db() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let w_imei = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
        let p_tac = db.tacs_of_class(DeviceClass::Smartphone)[0];
        let p_imei = db.example_imei(p_tac, 2).as_u64();
        let store = TraceStore::from_records(
            vec![
                proxy(1, w_imei, "api.weather.com", 10),
                proxy(1, p_imei, "m.popular-video.example", 20),
                proxy(2, p_imei, "m.popular-video.example", 30),
            ],
            vec![],
        );
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::compact(),
        );
        assert_eq!(
            ctx.device_class(w_imei),
            Some(DeviceClass::CellularWearable)
        );
        assert_eq!(ctx.device_class(p_imei), Some(DeviceClass::Smartphone));
        assert_eq!(ctx.device_class(42), None); // invalid IMEI stays unknown
        assert_eq!(ctx.wearable_proxy().count(), 1);
    }

    #[test]
    fn empty_store_is_fine() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let store = TraceStore::new();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::compact(),
        );
        assert_eq!(ctx.wearable_proxy().count(), 0);
    }

    #[test]
    fn host_class_matches_the_signatures() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let store = TraceStore::new();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::compact(),
        );
        for name in [
            "api.weather.com",
            "stats.g.doubleclick.net",
            "android-api.fitbit.com",
            "unknown.example.org",
        ] {
            let expected = HostClass {
                classification: ctx.classifier.classify(name),
                through_device: fingerprint_host(name),
            };
            let host = HostId::intern(name);
            assert_eq!(ctx.host_class(host), expected, "{name}");
            assert_eq!(ctx.host_class(host), expected, "{name}, memoized");
        }
        assert_eq!(
            ctx.host_class(HostId::intern("android-api.fitbit.com"))
                .through_device,
            Some(ThroughDeviceKind::Fitbit)
        );
    }
}
