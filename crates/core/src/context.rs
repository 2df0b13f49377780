//! The study context: logs plus lookup services.

use std::sync::OnceLock;

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
    hosts: HostTable,
}

/// Ids in the table's first segment; segment `k` holds `FIRST << k`.
const FIRST: usize = 64;

/// Segments enough for every `u32` host id.
const SEGMENTS: usize = 27;

/// An append-only table of host classes by [`HostId::index`], read
/// without a lock: segment `k` covers ids `FIRST·(2^k − 1)` up to
/// `FIRST·(2^(k+1) − 1)`, and both a segment and each of its slots are
/// filled once. A lookup of a known host is two loads and an index.
struct HostTable {
    segments: [OnceLock<Box<[OnceLock<HostClass>]>>; SEGMENTS],
}

impl Default for HostTable {
    fn default() -> HostTable {
        HostTable {
            segments: std::array::from_fn(|_| OnceLock::new()),
        }
    }
}

impl HostTable {
    /// The slot of the host with index `index`.
    fn slot(&self, index: usize) -> &OnceLock<HostClass> {
        let biased = index + FIRST;
        let k = (biased.ilog2() - FIRST.ilog2()) as usize;
        let segment =
            self.segments[k].get_or_init(|| (0..FIRST << k).map(|_| OnceLock::new()).collect());
        &segment[biased - (FIRST << k)]
    }
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
            hosts: HostTable::default(),
        }
    }

    /// The class of a record's host. Each distinct host goes through the
    /// classifier and the Through-Device fingerprints once; later calls
    /// are a table lookup.
    pub fn host_class(&self, host: HostId) -> HostClass {
        *self.hosts.slot(host.index()).get_or_init(|| {
            let name = host.name();
            HostClass {
                classification: self.classifier.classify(name),
                through_device: fingerprint_host(name),
            }
        })
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

    /// Hosts whose ids straddle the first segment boundaries, first asked
    /// for from four threads at once, each walking them from a different
    /// offset, get the classifier's and the fingerprints' answers.
    #[test]
    fn host_table_agrees_across_segments_and_threads() {
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
        let bases = [
            "api.weather.com",
            "stats.g.doubleclick.net",
            "android-api.fitbit.com",
            "unknown.example.org",
        ];
        // Ids are process-wide; intern new names until they pass the
        // fourth boundary.
        let mut hosts = Vec::new();
        while hosts.last().is_none_or(|h: &HostId| h.index() < 1_100) {
            let name = format!("t{}.{}", hosts.len(), bases[hosts.len() % 4]);
            hosts.push(HostId::intern(&name));
        }
        hosts.extend(bases.map(HostId::intern));
        for boundary in [64, 192, 448, 960] {
            let near = |lo: usize, hi: usize| hosts.iter().any(|h| (lo..hi).contains(&h.index()));
            assert!(near(boundary - 8, boundary) && near(boundary, boundary + 8));
        }
        let start = std::sync::Barrier::new(4);
        let answers: Vec<Vec<HostClass>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (ctx, hosts, start) = (&ctx, &hosts, &start);
                    s.spawn(move || {
                        start.wait();
                        let mut got = vec![None; hosts.len()];
                        for k in 0..hosts.len() {
                            let i = (k + t * hosts.len() / 4) % hosts.len();
                            got[i] = Some(ctx.host_class(hosts[i]));
                        }
                        got.into_iter().map(Option::unwrap).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, host) in hosts.iter().enumerate() {
            let name = host.name();
            let expected = HostClass {
                classification: ctx.classifier.classify(name),
                through_device: fingerprint_host(name),
            };
            for got in &answers {
                assert_eq!(got[i], expected, "{name}");
            }
        }
    }

    /// Every id up to past the fifth segment has a slot of its own, and
    /// segment `k` starts at `64·(2^k − 1)`.
    #[test]
    fn host_table_slots_are_distinct() {
        let table = HostTable::default();
        let slots: std::collections::HashSet<*const OnceLock<HostClass>> = (0..3_000)
            .map(|i| std::ptr::from_ref(table.slot(i)))
            .collect();
        assert_eq!(slots.len(), 3_000);
        for (k, start) in [0, 64, 192, 448, 960, 1984].into_iter().enumerate() {
            let segment = table.segments[k].get().expect("segment in use");
            assert!(std::ptr::eq(table.slot(start), &segment[0]), "segment {k}");
            assert_eq!(segment.len(), FIRST << k);
        }
    }
}
