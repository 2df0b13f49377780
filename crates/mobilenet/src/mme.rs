//! The Mobility Management Entity.

use std::collections::{BTreeMap, HashMap, HashSet};

use wearscope_devicedb::{DeviceDb, Imei};
use wearscope_geo::SectorId;
use wearscope_simtime::{ObservationWindow, SimTime};
use wearscope_trace::{MmeEvent, MmeRecord, UserId};

/// Per-device registration state tracked by the MME.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Registration {
    sector: SectorId,
    since: SimTime,
}

/// The MME: keeps track of which sector every registered subscriber is in
/// (Sec. 3.1, vantage point ii), emits the MME log, and accumulates the
/// daily-registration summary used for the five-month adoption trend.
///
/// Lenient by design: real MMEs see protocol weirdness constantly, so a move
/// or detach for an unknown device is logged (with an implicit attach where
/// needed) and counted in [`Mme::anomalies`], never dropped silently.
#[derive(Debug)]
pub struct Mme {
    /// (user, imei) → registration.
    registered: HashMap<(UserId, u64), Registration>,
    log: Vec<MmeRecord>,
    /// Daily distinct *wearable* registered users (the Fig. 2(a) series).
    summary: MmeSummary,
    /// TACs of SIM-enabled wearable models, sorted.
    wearable_tacs: Vec<u32>,
    /// When set, raw records are only retained inside the detailed window;
    /// the summary always updates (the paper's retention regime).
    window: Option<ObservationWindow>,
    census: SectorCensus,
    anomalies: u64,
}

/// Per-sector attachment census: how many devices each antenna sector is
/// carrying, and the highest simultaneous load it ever saw. The network-
/// planning view of the same MME state the mobility analysis uses.
#[derive(Clone, Debug, Default)]
pub struct SectorCensus {
    current: HashMap<u32, u32>,
    peak: HashMap<u32, u32>,
    attaches: HashMap<u32, u64>,
}

impl SectorCensus {
    fn inc(&mut self, sector: u32) {
        let c = self.current.entry(sector).or_default();
        *c += 1;
        let p = self.peak.entry(sector).or_default();
        if *c > *p {
            *p = *c;
        }
        *self.attaches.entry(sector).or_default() += 1;
    }

    fn dec(&mut self, sector: u32) {
        if let Some(c) = self.current.get_mut(&sector) {
            *c = c.saturating_sub(1);
        }
    }

    /// Devices currently attached at `sector`.
    pub fn attached(&self, sector: u32) -> u32 {
        self.current.get(&sector).copied().unwrap_or(0)
    }

    /// Peak simultaneous attachment ever observed at `sector`.
    pub fn peak(&self, sector: u32) -> u32 {
        self.peak.get(&sector).copied().unwrap_or(0)
    }

    /// Total attach/handover arrivals at `sector`.
    pub fn arrivals(&self, sector: u32) -> u64 {
        self.attaches.get(&sector).copied().unwrap_or(0)
    }

    /// Sectors ranked by peak attachment, descending.
    pub fn busiest(&self, n: usize) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> = self.peak.iter().map(|(s, p)| (*s, *p)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }
}

/// Daily registration summary for SIM-enabled wearable users.
///
/// This mirrors the paper's long-horizon "summary statistics" collection:
/// full logs are only retained for the detailed window, but the count (and
/// membership) of wearable users registered each day is kept for the whole
/// observation.
#[derive(Clone, Debug, Default)]
pub struct MmeSummary {
    /// day index → set of wearable users registered at least once that day.
    daily_users: BTreeMap<u64, HashSet<UserId>>,
}

impl MmeSummary {
    /// Writes the summary as TSV lines `day\tuser`.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_tsv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        for (day, users) in &self.daily_users {
            let mut sorted: Vec<u64> = users.iter().map(|u| u.raw()).collect();
            sorted.sort_unstable();
            for user in sorted {
                writeln!(w, "{day}\t{user}")?;
            }
        }
        Ok(())
    }

    /// Reads a summary written by [`MmeSummary::write_tsv`].
    ///
    /// # Errors
    /// Fails on I/O errors or malformed lines.
    pub fn read_tsv<R: std::io::BufRead>(r: R) -> std::io::Result<MmeSummary> {
        let mut out = MmeSummary::default();
        for (line_no, line) in r.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let bad = || {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("mme summary line {}: malformed", line_no + 1),
                )
            };
            let (day, user) = line.split_once('\t').ok_or_else(bad)?;
            let day: u64 = day.parse().map_err(|_| bad())?;
            let user: u64 = user.parse().map_err(|_| bad())?;
            out.note(day, UserId(user));
        }
        Ok(out)
    }

    /// Days with at least one registered wearable user, ascending.
    pub fn days(&self) -> impl Iterator<Item = u64> + '_ {
        self.daily_users.keys().copied()
    }

    /// Number of distinct wearable users registered on `day`.
    pub fn users_on_day(&self, day: u64) -> usize {
        self.daily_users.get(&day).map_or(0, HashSet::len)
    }

    /// Distinct users registered on any day in `[from, to)`.
    pub fn users_in_days(&self, from: u64, to: u64) -> HashSet<UserId> {
        let mut out = HashSet::new();
        for (_, set) in self.daily_users.range(from..to) {
            out.extend(set.iter().copied());
        }
        out
    }

    fn note(&mut self, day: u64, user: UserId) {
        self.daily_users.entry(day).or_default().insert(user);
    }
}

impl Mme {
    /// An MME that summarizes registrations of devices whose TAC belongs to
    /// a SIM-enabled wearable model in `db`.
    pub fn new(db: &DeviceDb) -> Mme {
        let mut wearable_tacs: Vec<u32> = db.wearable_tacs().iter().map(|t| t.value()).collect();
        wearable_tacs.sort_unstable();
        Mme {
            registered: HashMap::new(),
            log: Vec::new(),
            summary: MmeSummary::default(),
            wearable_tacs,
            window: None,
            census: SectorCensus::default(),
            anomalies: 0,
        }
    }

    /// Restricts raw-log retention to `window.detailed()`; the daily summary
    /// still covers the full observation.
    pub fn with_window(db: &DeviceDb, window: ObservationWindow) -> Mme {
        let mut mme = Mme::new(db);
        mme.window = Some(window);
        mme
    }

    /// `true` if `imei` is a valid IMEI with a SIM-enabled wearable's TAC:
    /// the one wearable test of the MME summary and the proxy's. The TAC
    /// is tested first, so a phone's IMEI pays for neither a hash nor the
    /// Luhn check; a wearable TAC with a bad check digit is no wearable.
    pub(crate) fn is_wearable(&self, imei: u64) -> bool {
        imei < 1_000_000_000_000_000
            && self
                .wearable_tacs
                .binary_search(&((imei / 10_000_000) as u32))
                .is_ok()
            && Imei::from_u64(imei).is_ok()
    }

    fn emit(&mut self, t: SimTime, user: UserId, imei: u64, event: MmeEvent, sector: SectorId) {
        if self.window.is_none_or(|w| w.in_detail(t)) {
            self.log.push(MmeRecord {
                timestamp: t,
                user,
                imei,
                event,
                sector: sector.raw(),
            });
        }
        if self.is_wearable(imei) {
            self.summary.note(t.day_index(), user);
        }
    }

    /// Handles a device attach.
    pub fn attach(&mut self, t: SimTime, user: UserId, imei: u64, sector: SectorId) {
        if let Some(prev) = self
            .registered
            .insert((user, imei), Registration { sector, since: t })
        {
            self.anomalies += 1; // re-attach without detach
            self.census.dec(prev.sector.raw());
        }
        self.census.inc(sector.raw());
        self.emit(t, user, imei, MmeEvent::Attach, sector);
    }

    /// Handles a detach; tolerates unknown devices.
    pub fn detach(&mut self, t: SimTime, user: UserId, imei: u64) {
        let sector = match self.registered.remove(&(user, imei)) {
            Some(reg) => {
                self.census.dec(reg.sector.raw());
                reg.sector
            }
            None => {
                self.anomalies += 1;
                SectorId(0)
            }
        };
        self.emit(t, user, imei, MmeEvent::Detach, sector);
    }

    /// Handles a sector move; implicitly attaches unknown devices.
    pub fn sector_update(&mut self, t: SimTime, user: UserId, imei: u64, sector: SectorId) {
        match self.registered.get_mut(&(user, imei)) {
            Some(reg) => {
                let prev = reg.sector;
                reg.sector = sector;
                reg.since = t;
                if prev != sector {
                    self.census.dec(prev.raw());
                    self.census.inc(sector.raw());
                }
            }
            None => {
                self.anomalies += 1;
                self.registered
                    .insert((user, imei), Registration { sector, since: t });
                self.census.inc(sector.raw());
            }
        }
        self.emit(t, user, imei, MmeEvent::SectorUpdate, sector);
    }

    /// The per-sector attachment census.
    pub fn census(&self) -> &SectorCensus {
        &self.census
    }

    /// Count of tolerated protocol anomalies.
    pub fn anomalies(&self) -> u64 {
        self.anomalies
    }

    /// The daily wearable registration summary.
    pub fn summary(&self) -> &MmeSummary {
        &self.summary
    }

    /// Drains the accumulated MME log.
    pub fn take_log(&mut self) -> Vec<MmeRecord> {
        std::mem::take(&mut self.log)
    }

    /// The accumulated MME log.
    pub fn log(&self) -> &[MmeRecord] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sector a device is registered at.
    fn current_sector(mme: &Mme, user: UserId, imei: u64) -> Option<SectorId> {
        mme.registered.get(&(user, imei)).map(|r| r.sector)
    }

    proptest! {
        /// A device is registered at its last attach or move's sector, and
        /// not at all after a detach.
        #[test]
        fn current_sector_is_last_write(
            ops in prop::collection::vec((0u64..8, 0u8..3, 0u32..5), 0..100),
        ) {
            let db = DeviceDb::standard();
            let imei = db.example_imei(db.wearable_tacs()[0], 2).as_u64();
            let mut mme = Mme::new(&db);
            let mut shadow = HashMap::new();
            for (i, &(user, kind, sector)) in ops.iter().enumerate() {
                let (t, u) = (SimTime::from_secs(i as u64), UserId(user));
                match kind {
                    0 => mme.attach(t, u, imei, SectorId(sector)),
                    1 => mme.sector_update(t, u, imei, SectorId(sector)),
                    _ => {
                        mme.detach(t, u, imei);
                        shadow.remove(&user);
                        continue;
                    }
                }
                shadow.insert(user, sector);
            }
            for user in 0..8u64 {
                let got = current_sector(&mme, UserId(user), imei).map(|s| s.raw());
                prop_assert_eq!(got, shadow.get(&user).copied());
            }
        }
    }

    fn wearable_imei(db: &DeviceDb) -> u64 {
        db.example_imei(db.wearable_tacs()[0], 1).as_u64()
    }

    fn phone_imei(db: &DeviceDb) -> u64 {
        let tacs = db.tacs_of_class(wearscope_devicedb::DeviceClass::Smartphone);
        db.example_imei(tacs[0], 1).as_u64()
    }

    #[test]
    fn attach_move_detach_lifecycle() {
        let db = DeviceDb::standard();
        let mut mme = Mme::new(&db);
        let (u, i) = (UserId(1), wearable_imei(&db));
        mme.attach(SimTime::from_secs(10), u, i, SectorId(5));
        assert_eq!(current_sector(&mme, u, i), Some(SectorId(5)));
        mme.sector_update(SimTime::from_secs(20), u, i, SectorId(6));
        assert_eq!(current_sector(&mme, u, i), Some(SectorId(6)));
        mme.detach(SimTime::from_secs(30), u, i);
        assert_eq!(current_sector(&mme, u, i), None);
        assert_eq!(mme.anomalies(), 0);
        assert_eq!(mme.log().len(), 3);
        assert_eq!(mme.log()[0].event, MmeEvent::Attach);
        assert_eq!(mme.log()[2].event, MmeEvent::Detach);
    }

    #[test]
    fn anomalies_are_tolerated_and_counted() {
        let db = DeviceDb::standard();
        let mut mme = Mme::new(&db);
        let (u, i) = (UserId(1), wearable_imei(&db));
        // Move before attach: implicit attach.
        mme.sector_update(SimTime::from_secs(1), u, i, SectorId(2));
        assert_eq!(mme.anomalies(), 1);
        assert_eq!(current_sector(&mme, u, i), Some(SectorId(2)));
        // Double attach.
        mme.attach(SimTime::from_secs(2), u, i, SectorId(3));
        assert_eq!(mme.anomalies(), 2);
        // Detach of unknown device.
        mme.detach(SimTime::from_secs(3), UserId(9), i);
        assert_eq!(mme.anomalies(), 3);
        // All three events still logged.
        assert_eq!(mme.log().len(), 3);
    }

    #[test]
    fn summary_counts_only_wearables() {
        let db = DeviceDb::standard();
        let mut mme = Mme::new(&db);
        let wi = wearable_imei(&db);
        let pi = phone_imei(&db);
        mme.attach(SimTime::from_days(0), UserId(1), wi, SectorId(0));
        mme.attach(SimTime::from_days(0), UserId(2), pi, SectorId(0));
        mme.attach(SimTime::from_days(1), UserId(1), wi, SectorId(0));
        assert_eq!(mme.summary().users_on_day(0), 1);
        assert_eq!(mme.summary().users_on_day(1), 1);
        assert_eq!(mme.summary().users_on_day(2), 0);
        let both = mme.summary().users_in_days(0, 2);
        assert_eq!(both.len(), 1);
        assert!(both.contains(&UserId(1)));
    }

    #[test]
    fn summary_daily_distinct() {
        let db = DeviceDb::standard();
        let mut mme = Mme::new(&db);
        let wi = wearable_imei(&db);
        for hour in 0..5 {
            mme.sector_update(
                SimTime::from_hours(hour),
                UserId(3),
                wi,
                SectorId(hour as u32),
            );
        }
        // Five events, one day, one user.
        assert_eq!(mme.summary().users_on_day(0), 1);
        assert_eq!(mme.log().len(), 5);
    }

    #[test]
    fn census_tracks_load_and_peak() {
        let db = DeviceDb::standard();
        let mut mme = Mme::new(&db);
        let i1 = wearable_imei(&db);
        let i2 = db.example_imei(db.wearable_tacs()[0], 2).as_u64();
        mme.attach(SimTime::from_secs(1), UserId(1), i1, SectorId(5));
        mme.attach(SimTime::from_secs(2), UserId(2), i2, SectorId(5));
        assert_eq!(mme.census().attached(5), 2);
        assert_eq!(mme.census().peak(5), 2);
        // User 1 moves away: load drops, peak stays.
        mme.sector_update(SimTime::from_secs(3), UserId(1), i1, SectorId(6));
        assert_eq!(mme.census().attached(5), 1);
        assert_eq!(mme.census().peak(5), 2);
        assert_eq!(mme.census().attached(6), 1);
        // Re-confirming the same sector does not double count.
        mme.sector_update(SimTime::from_secs(4), UserId(1), i1, SectorId(6));
        assert_eq!(mme.census().attached(6), 1);
        // Detach empties the sector.
        mme.detach(SimTime::from_secs(5), UserId(2), i2);
        assert_eq!(mme.census().attached(5), 0);
        assert_eq!(mme.census().arrivals(5), 2);
        let busiest = mme.census().busiest(10);
        assert_eq!(busiest[0], (5, 2));
    }

    #[test]
    fn summary_tsv_roundtrip() {
        let db = DeviceDb::standard();
        let mut mme = Mme::new(&db);
        let wi = wearable_imei(&db);
        for (day, user) in [(0u64, 1u64), (0, 2), (3, 1), (7, 9)] {
            mme.attach(SimTime::from_days(day), UserId(user), wi, SectorId(0));
        }
        let mut buf = Vec::new();
        mme.summary().write_tsv(&mut buf).unwrap();
        let back = MmeSummary::read_tsv(buf.as_slice()).unwrap();
        assert_eq!(back.users_on_day(0), 2);
        assert_eq!(back.users_on_day(3), 1);
        assert_eq!(
            back.users_in_days(0, 10),
            mme.summary().users_in_days(0, 10)
        );
        assert!(MmeSummary::read_tsv("garbage".as_bytes()).is_err());
    }

    #[test]
    fn take_log_drains() {
        let db = DeviceDb::standard();
        let mut mme = Mme::new(&db);
        mme.attach(SimTime::EPOCH, UserId(1), wearable_imei(&db), SectorId(0));
        let log = mme.take_log();
        assert_eq!(log.len(), 1);
        assert!(mme.log().is_empty());
    }

    #[test]
    fn window_limits_log_but_not_summary() {
        let db = DeviceDb::standard();
        let window = ObservationWindow::new(30, 10, wearscope_simtime::Calendar::PAPER);
        let mut mme = Mme::with_window(&db, window);
        let (u, i) = (UserId(1), wearable_imei(&db));
        // Day 5: before the detailed window.
        mme.attach(SimTime::from_days(5), u, i, SectorId(0));
        // Day 25: inside the detailed window.
        mme.sector_update(SimTime::from_days(25), u, i, SectorId(1));
        assert_eq!(mme.log().len(), 1);
        assert_eq!(mme.log()[0].timestamp.day_index(), 25);
        assert_eq!(mme.summary().users_on_day(5), 1);
        assert_eq!(mme.summary().users_on_day(25), 1);
    }

    #[test]
    fn invalid_imei_not_summarized() {
        let db = DeviceDb::standard();
        let mut mme = Mme::new(&db);
        // 42 is not a valid IMEI (bad check digit) — logged but not counted.
        mme.attach(SimTime::EPOCH, UserId(1), 42, SectorId(0));
        assert_eq!(mme.log().len(), 1);
        assert_eq!(mme.summary().users_on_day(0), 0);
    }
}
