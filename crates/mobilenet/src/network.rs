//! The composed network: MME + proxy over a sector deployment.

use wearscope_devicedb::DeviceDb;
use wearscope_geo::SectorDirectory;
use wearscope_simtime::{ObservationWindow, SimTime};
use wearscope_trace::TraceStore;

use crate::event::NetworkEvent;
use crate::mme::{Mme, MmeSummary, SectorCensus};
use crate::proxy::{ProxyCounters, TransparentProxy, WearableTrafficSummary};

/// Aggregate health/throughput statistics of a simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Total events processed.
    pub events: u64,
    /// Events that arrived with a timestamp earlier than a previous event
    /// (tolerated — the logs are re-sorted — but indicative of a generator
    /// bug, so counted).
    pub time_regressions: u64,
    /// MME protocol anomalies (see [`Mme::anomalies`]).
    pub mme_anomalies: u64,
    /// Proxy counters.
    pub proxy: ProxyCounters,
}

/// The long-horizon summary statistics of both logging vantage points.
#[derive(Clone, Debug, Default)]
pub struct NetworkSummaries {
    /// Daily wearable registration summary from the MME.
    pub mme: MmeSummary,
    /// Daily wearable traffic summary from the proxy.
    pub wearable_traffic: WearableTrafficSummary,
    /// Per-sector attachment census (not persisted; derived live by the MME).
    pub census: SectorCensus,
}

impl NetworkSummaries {
    /// Persists both summaries as `summary_mme.tsv` and
    /// `summary_traffic.tsv` under `dir`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mme = std::fs::File::create(dir.join("summary_mme.tsv"))?;
        self.mme.write_tsv(std::io::BufWriter::new(mme))?;
        let traffic = std::fs::File::create(dir.join("summary_traffic.tsv"))?;
        self.wearable_traffic
            .write_tsv(std::io::BufWriter::new(traffic))?;
        Ok(())
    }

    /// Loads summaries written by [`NetworkSummaries::save`].
    ///
    /// # Errors
    /// Fails on filesystem errors or malformed files.
    pub fn load(dir: &std::path::Path) -> std::io::Result<NetworkSummaries> {
        let mme = std::fs::File::open(dir.join("summary_mme.tsv"))?;
        let wearable = std::fs::File::open(dir.join("summary_traffic.tsv"))?;
        Ok(NetworkSummaries {
            mme: MmeSummary::read_tsv(std::io::BufReader::new(mme))?,
            wearable_traffic: WearableTrafficSummary::read_tsv(std::io::BufReader::new(wearable))?,
            census: SectorCensus::default(),
        })
    }
}

/// The simulated mobile network: feeds a time-ordered [`NetworkEvent`]
/// stream through the MME and the transparent proxy and collects their logs.
/// The generator drives it from one thread, one time-sorted day at a time.
///
/// # Examples
/// ```
/// use wearscope_devicedb::DeviceDb;
/// use wearscope_geo::{GeoPoint, SectorDirectory, SectorId};
/// use wearscope_mobilenet::{MobileNetwork, NetworkEvent};
/// use wearscope_simtime::SimTime;
/// use wearscope_trace::{Scheme, UserId};
///
/// let db = DeviceDb::standard();
/// let mut sectors = SectorDirectory::new();
/// sectors.push(GeoPoint::new(40.0, -3.0), None);
/// let mut net = MobileNetwork::new(db.clone(), sectors);
/// let imei = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
/// net.handle(NetworkEvent::Attach {
///     t: SimTime::from_secs(1), user: UserId(1), imei, sector: SectorId(0),
/// });
/// net.handle(NetworkEvent::Transaction {
///     t: SimTime::from_secs(2), user: UserId(1), imei,
///     host: "api.weather.com", scheme: Scheme::Https,
///     bytes_down: 2500, bytes_up: 300,
/// });
/// let (store, summaries, stats) = net.finish();
/// assert_eq!(store.proxy().len(), 1);
/// assert_eq!(store.mme().len(), 1);
/// assert_eq!(summaries.mme.users_on_day(0), 1);
/// assert_eq!(summaries.wearable_traffic.users_on_day(0), 1);
/// assert_eq!(stats.events, 2);
/// ```
#[derive(Debug)]
pub struct MobileNetwork {
    sectors: SectorDirectory,
    window: Option<ObservationWindow>,
    mme: Mme,
    proxy: TransparentProxy,
    last_time: SimTime,
    events: u64,
    time_regressions: u64,
}

impl MobileNetwork {
    /// A network over the given device database and sector deployment,
    /// retaining raw logs for the whole run.
    pub fn new(db: DeviceDb, sectors: SectorDirectory) -> MobileNetwork {
        Self::build(db, sectors, None)
    }

    /// A network that retains raw logs only inside `window.detailed()`,
    /// while summaries cover the whole observation — the paper's retention
    /// regime (five months of summary statistics, seven weeks of full logs).
    pub fn with_window(
        db: DeviceDb,
        sectors: SectorDirectory,
        window: ObservationWindow,
    ) -> MobileNetwork {
        Self::build(db, sectors, Some(window))
    }

    fn build(
        db: DeviceDb,
        sectors: SectorDirectory,
        window: Option<ObservationWindow>,
    ) -> MobileNetwork {
        let mme = match window {
            Some(w) => Mme::with_window(&db, w),
            None => Mme::new(&db),
        };
        MobileNetwork {
            sectors,
            window,
            mme,
            proxy: TransparentProxy::new(),
            last_time: SimTime::EPOCH,
            events: 0,
            time_regressions: 0,
        }
    }

    /// The sector deployment this network serves.
    pub fn sectors(&self) -> &SectorDirectory {
        &self.sectors
    }

    /// Processes one event.
    pub fn handle(&mut self, event: NetworkEvent) {
        let t = event.time();
        if t < self.last_time {
            self.time_regressions += 1;
        } else {
            self.last_time = t;
        }
        self.events += 1;
        match event {
            NetworkEvent::Attach {
                t,
                user,
                imei,
                sector,
            } => {
                self.mme.attach(t, user, imei, sector);
            }
            NetworkEvent::Detach { t, user, imei } => {
                self.mme.detach(t, user, imei);
            }
            NetworkEvent::Move {
                t,
                user,
                imei,
                sector,
            } => {
                self.mme.sector_update(t, user, imei, sector);
            }
            NetworkEvent::Transaction {
                t,
                user,
                imei,
                host,
                scheme,
                bytes_down,
                bytes_up,
            } => {
                let is_wearable = self.mme.is_wearable(imei);
                let retain = self.window.is_none_or(|w| w.in_detail(t));
                self.proxy.observe(
                    t,
                    user,
                    imei,
                    host,
                    scheme,
                    bytes_down,
                    bytes_up,
                    is_wearable,
                    retain,
                );
            }
        }
    }

    /// Processes a batch of events.
    pub fn handle_all<I: IntoIterator<Item = NetworkEvent>>(&mut self, events: I) {
        for e in events {
            self.handle(e);
        }
    }

    /// Finishes the run: returns the time-sorted trace store, the vantage
    /// point summaries, and run statistics.
    pub fn finish(mut self) -> (TraceStore, NetworkSummaries, NetworkStats) {
        let stats = NetworkStats {
            events: self.events,
            time_regressions: self.time_regressions,
            mme_anomalies: self.mme.anomalies(),
            proxy: self.proxy.counters(),
        };
        let store = TraceStore::from_records(self.proxy.take_log(), self.mme.take_log());
        let summaries = NetworkSummaries {
            mme: self.mme.summary().clone(),
            wearable_traffic: self.proxy.wearable_summary().clone(),
            census: self.mme.census().clone(),
        };
        (store, summaries, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_geo::{GeoPoint, SectorId};
    use wearscope_trace::{Scheme, UserId};

    fn setup() -> (DeviceDb, MobileNetwork, u64) {
        let db = DeviceDb::standard();
        let mut sectors = SectorDirectory::new();
        sectors.push(GeoPoint::new(40.0, -3.0), None);
        sectors.push(GeoPoint::new(40.2, -3.1), None);
        let imei = db.example_imei(db.wearable_tacs()[0], 7).as_u64();
        let net = MobileNetwork::new(db.clone(), sectors);
        (db, net, imei)
    }

    #[test]
    fn event_stream_produces_sorted_store() {
        let (_, mut net, imei) = setup();
        let u = UserId(1);
        net.handle_all(vec![
            NetworkEvent::Attach {
                t: SimTime::from_secs(10),
                user: u,
                imei,
                sector: SectorId(0),
            },
            NetworkEvent::Transaction {
                t: SimTime::from_secs(20),
                user: u,
                imei,
                host: "h",
                scheme: Scheme::Https,
                bytes_down: 1,
                bytes_up: 2,
            },
            NetworkEvent::Move {
                t: SimTime::from_secs(30),
                user: u,
                imei,
                sector: SectorId(1),
            },
            NetworkEvent::Detach {
                t: SimTime::from_secs(40),
                user: u,
                imei,
            },
        ]);
        let (store, _, stats) = net.finish();
        assert!(store.proxy().is_sorted_by_key(|r| r.timestamp));
        assert!(store.mme().is_sorted_by_key(|r| r.timestamp));
        assert_eq!(store.mme().len(), 3);
        assert_eq!(store.proxy().len(), 1);
        assert_eq!(stats.events, 4);
        assert_eq!(stats.time_regressions, 0);
        assert_eq!(stats.mme_anomalies, 0);
    }

    #[test]
    fn a_wearable_tac_with_a_bad_check_digit_is_never_wearable() {
        let (_, mut net, imei) = setup();
        let bad = imei - imei % 10 + (imei % 10 + 1) % 10;
        assert!(wearscope_devicedb::Imei::from_u64(bad).is_err());
        // User 1's bad IMEI on day 0 (first sight) and day 1 (a repeat):
        // attached, moving and transacting, on neither summary.
        let user = UserId(1);
        for day in 0..2 {
            let at = |s: u64| SimTime::from_secs(day * 86_400 + s);
            net.handle(NetworkEvent::Attach {
                t: at(10),
                user,
                imei: bad,
                sector: SectorId(0),
            });
            net.handle(NetworkEvent::Move {
                t: at(20),
                user,
                imei: bad,
                sector: SectorId(1),
            });
            net.handle(NetworkEvent::Transaction {
                t: at(30),
                user,
                imei: bad,
                host: "h",
                scheme: Scheme::Https,
                bytes_down: 1,
                bytes_up: 2,
            });
            net.handle(NetworkEvent::Detach {
                t: at(40),
                user,
                imei: bad,
            });
        }
        // The valid IMEI of the same TAC is a wearable on both.
        let t = SimTime::from_secs(86_400 + 50);
        net.handle(NetworkEvent::Attach {
            t,
            user: UserId(2),
            imei,
            sector: SectorId(0),
        });
        net.handle(NetworkEvent::Transaction {
            t,
            user: UserId(2),
            imei,
            host: "h",
            scheme: Scheme::Https,
            bytes_down: 1,
            bytes_up: 2,
        });
        let (store, summaries, _) = net.finish();
        assert_eq!((store.mme().len(), store.proxy().len()), (7, 3));
        let only_user_2 = std::collections::HashSet::from([UserId(2)]);
        assert_eq!(summaries.mme.users_on_day(0), 0);
        assert_eq!(summaries.mme.users_in_days(0, 2), only_user_2);
        assert_eq!(summaries.wearable_traffic.users_on_day(0), 0);
        assert_eq!(summaries.wearable_traffic.users_in_days(0, 2), only_user_2);
    }

    #[test]
    fn time_regressions_counted_but_sorted_away() {
        let (_, mut net, imei) = setup();
        let u = UserId(1);
        net.handle(NetworkEvent::Attach {
            t: SimTime::from_secs(100),
            user: u,
            imei,
            sector: SectorId(0),
        });
        net.handle(NetworkEvent::Move {
            t: SimTime::from_secs(50),
            user: u,
            imei,
            sector: SectorId(1),
        });
        let (store, _, stats) = net.finish();
        assert_eq!(stats.time_regressions, 1);
        assert!(store.proxy().is_sorted_by_key(|r| r.timestamp));
        assert!(store.mme().is_sorted_by_key(|r| r.timestamp));
    }
}
