//! User mobility analysis (Sec. 4.4, Fig. 4(c,d)).

use wearscope_trace::UserId;

use crate::activity::UserActivity;
use crate::context::StudyContext;
use crate::hash::{HashMap, HashSet};
use crate::stats::{self, Ecdf};

/// Per-user mobility aggregates derived from the MME log.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UserMobility {
    /// Max displacement (km) per observed day.
    pub daily_max_displacement_km: Vec<f64>,
    /// Total attached dwell time (s) per sector over the whole window.
    pub dwell_by_sector: HashMap<u32, u64>,
}

impl UserMobility {
    /// Mean daily max displacement (km) over observed days.
    pub fn mean_daily_displacement(&self) -> f64 {
        if self.daily_max_displacement_km.is_empty() {
            0.0
        } else {
            self.daily_max_displacement_km.iter().sum::<f64>()
                / self.daily_max_displacement_km.len() as f64
        }
    }

    /// Time-weighted Shannon entropy (nats) of visited sectors — the paper's
    /// "entropy of visited location normalized by the time a user stays in a
    /// single location".
    pub fn location_entropy(&self) -> f64 {
        let weights: Vec<f64> = self.dwell_by_sector.values().map(|&d| d as f64).collect();
        stats::shannon_entropy(&weights)
    }
}

/// The mobility index: one pass over the MME log producing per-user
/// aggregates. Dwell times are accumulated between consecutive events of the
/// same device; a detach closes the current dwell; a still-attached device
/// is closed at the end of the detailed window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MobilityIndex {
    /// Per-user aggregates.
    pub per_user: HashMap<UserId, UserMobility>,
}

impl MobilityIndex {
    /// Builds the index from the study context's MME log.
    ///
    /// Absorbs into the same [`crate::merge::MobilityPartial`] as
    /// [`crate::CoreAggregates::sequential`].
    pub fn build(ctx: &StudyContext<'_>) -> MobilityIndex {
        let mut partial = crate::merge::MobilityPartial::default();
        for r in ctx.store.mme() {
            partial.absorb(r);
        }
        partial.finish(ctx)
    }
}

/// Fig. 4(c): max-displacement comparison between wearable users and the
/// remaining customers, plus the entropy takeaway.
#[derive(Clone, Debug)]
pub struct Displacement {
    /// Per-owner mean daily max displacement (km).
    pub owners: Ecdf,
    /// Per-user mean daily max displacement for the remaining customers.
    pub rest: Ecdf,
    /// All customers together (the paper's "all users" curve).
    pub all: Ecdf,
    /// Mean for owners (paper: ≈ 31 km vs 16; ≈ 20 km/day overall text).
    pub owner_mean_km: f64,
    /// Mean for the remaining customers.
    pub rest_mean_km: f64,
    /// Fraction of owners moving less than 30 km (paper: 90 %).
    pub owners_under_30km: f64,
    /// Mean over owners excluding fully stationary ones.
    pub owner_nonstationary_mean_km: f64,
    /// Mean over the rest excluding fully stationary ones.
    pub rest_nonstationary_mean_km: f64,
}

impl Displacement {
    /// Computes displacement statistics from the mobility index.
    pub fn compute(owners: &HashSet<UserId>, index: &MobilityIndex) -> Displacement {
        // Sorted by user id: the non-stationary means below sum these Vecs
        // directly, so hash order would leak into the float reductions.
        let mut entries: Vec<(&UserId, &UserMobility)> = index.per_user.iter().collect();
        entries.sort_by_key(|(u, _)| **u);
        let mut owner_km = Vec::new();
        let mut rest_km = Vec::new();
        for (user, m) in entries {
            let v = m.mean_daily_displacement();
            if owners.contains(user) {
                owner_km.push(v);
            } else {
                rest_km.push(v);
            }
        }
        let all = Ecdf::from_samples(owner_km.iter().chain(&rest_km).copied().collect());
        let nonstationary_mean = |xs: &[f64]| {
            let nz: Vec<f64> = xs.iter().copied().filter(|&x| x > 0.0).collect();
            if nz.is_empty() {
                0.0
            } else {
                nz.iter().sum::<f64>() / nz.len() as f64
            }
        };
        let owners_e = Ecdf::from_samples(owner_km.clone());
        let rest_e = Ecdf::from_samples(rest_km.clone());
        Displacement {
            owner_mean_km: owners_e.mean(),
            rest_mean_km: rest_e.mean(),
            owners_under_30km: owners_e.fraction_below(30.0),
            owner_nonstationary_mean_km: nonstationary_mean(&owner_km),
            rest_nonstationary_mean_km: nonstationary_mean(&rest_km),
            owners: owners_e,
            rest: rest_e,
            all,
        }
    }
}

/// The Sec. 4.4 location-entropy comparison (paper: owners ≈ 70 % higher).
#[derive(Clone, Debug)]
pub struct LocationEntropy {
    /// Per-owner entropy (nats).
    pub owners: Ecdf,
    /// Per-user entropy for the remaining customers.
    pub rest: Ecdf,
    /// `mean(owners) / mean(rest)` (paper: ≈ 1.7).
    pub ratio: f64,
}

impl LocationEntropy {
    /// Computes entropy statistics from the mobility index.
    pub fn compute(owners: &HashSet<UserId>, index: &MobilityIndex) -> LocationEntropy {
        let mut owner_h = Vec::new();
        let mut rest_h = Vec::new();
        for (user, m) in &index.per_user {
            let h = m.location_entropy();
            if owners.contains(user) {
                owner_h.push(h);
            } else {
                rest_h.push(h);
            }
        }
        let owners = Ecdf::from_samples(owner_h);
        let rest = Ecdf::from_samples(rest_h);
        let ratio = if rest.mean() > 0.0 {
            owners.mean() / rest.mean()
        } else {
            0.0
        };
        LocationEntropy {
            owners,
            rest,
            ratio,
        }
    }
}

/// Fig. 4(d): displacement vs hourly activity, plus the single-location
/// takeaway (60 % of data-active users transact from one location).
#[derive(Clone, Debug)]
pub struct MobilityActivity {
    /// `(mean daily max displacement km, tx per active hour)` per owner.
    pub points: Vec<(f64, f64)>,
    /// Pearson correlation (paper: clearly positive).
    pub pearson: f64,
    /// Spearman rank correlation.
    pub spearman: f64,
    /// Share of data-active owners whose wearable transactions all come
    /// from a single sector (paper: 60 %).
    pub single_location_share: f64,
}

impl MobilityActivity {
    /// Joins mobility with activity; the single-location share counts the
    /// sectors each user's wearable transactions came from (the sector
    /// join of [`crate::merge::WearablePartial`]).
    pub fn compute(
        index: &MobilityIndex,
        activity: &HashMap<UserId, UserActivity>,
        transaction_sectors: &HashMap<UserId, HashSet<u32>>,
    ) -> MobilityActivity {
        // Sorted by user id so float reductions are run-to-run stable.
        let mut entries: Vec<(&UserId, &UserActivity)> = activity.iter().collect();
        entries.sort_by_key(|(u, _)| **u);
        let points: Vec<(f64, f64)> = entries
            .iter()
            .filter_map(|(user, a)| {
                let m = index.per_user.get(user)?;
                Some((m.mean_daily_displacement(), a.tx_per_active_hour()))
            })
            .collect();
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        let sectors = transaction_sectors.values();
        let with_sectors = sectors.clone().filter(|s| !s.is_empty()).count();
        let single = sectors.filter(|s| s.len() == 1).count();
        MobilityActivity {
            pearson: stats::pearson(&xs, &ys),
            spearman: stats::spearman(&xs, &ys),
            points,
            single_location_share: if with_sectors == 0 {
                0.0
            } else {
                single as f64 / with_sectors as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::{DeviceClass, DeviceDb};
    use wearscope_geo::{GeoPoint, SectorDirectory};
    use wearscope_simtime::{Calendar, ObservationWindow, SimTime, SECS_PER_DAY};
    use wearscope_trace::{HostId, MmeEvent, MmeRecord, ProxyRecord, Scheme, TraceStore};

    /// Three sectors: 0 and 1 are ~11 km apart; 2 is ~100 km away.
    fn sectors() -> SectorDirectory {
        let mut d = SectorDirectory::new();
        d.push(GeoPoint::new(40.0, -3.0), None);
        d.push(GeoPoint::new(40.1, -3.0), None);
        d.push(GeoPoint::new(40.9, -3.0), None);
        d
    }

    fn mme(user: u64, imei: u64, t: u64, event: MmeEvent, sector: u32) -> MmeRecord {
        MmeRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei,
            event,
            sector,
        }
    }

    fn ptx(user: u64, imei: u64, t: u64) -> ProxyRecord {
        ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei,
            host: HostId::intern("api.weather.com"),
            scheme: Scheme::Https,
            bytes_down: 1000,
            bytes_up: 0,
        }
    }

    fn window() -> ObservationWindow {
        ObservationWindow::new(14, 14, Calendar::PAPER)
    }

    #[test]
    fn displacement_from_day_sectors() {
        let db = DeviceDb::standard();
        let w = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
        let p = db
            .example_imei(db.tacs_of_class(DeviceClass::Smartphone)[0], 2)
            .as_u64();
        let h = 3600;
        let store = TraceStore::from_records(
            vec![],
            vec![
                // Owner commutes 0 → 1 (≈ 11 km).
                mme(1, w, 6 * h, MmeEvent::Attach, 0),
                mme(1, w, 8 * h, MmeEvent::SectorUpdate, 1),
                mme(1, w, 18 * h, MmeEvent::SectorUpdate, 0),
                mme(1, w, 23 * h, MmeEvent::Detach, 0),
                // Rest user stays put.
                mme(2, p, 6 * h, MmeEvent::Attach, 2),
                mme(2, p, 23 * h, MmeEvent::Detach, 2),
            ],
        );
        let sectors = sectors();
        let (dbr, catalog) = (db, AppCatalog::standard());
        let ctx = StudyContext::new(&store, &dbr, &sectors, &catalog, window());
        let aggs = crate::CoreAggregates::sequential(&ctx);
        let disp = Displacement::compute(&aggs.owners, &aggs.mobility);
        assert_eq!(disp.owners.len(), 1);
        assert_eq!(disp.rest.len(), 1);
        assert!(
            (disp.owner_mean_km - 11.1).abs() < 0.3,
            "{}",
            disp.owner_mean_km
        );
        assert_eq!(disp.rest_mean_km, 0.0);
        assert_eq!(disp.rest_nonstationary_mean_km, 0.0);
        assert!(disp.owner_nonstationary_mean_km > 10.0);
    }

    #[test]
    fn entropy_time_weighted() {
        let db = DeviceDb::standard();
        let w = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
        let p = db
            .example_imei(db.tacs_of_class(DeviceClass::Smartphone)[0], 2)
            .as_u64();
        let h = 3600;
        let store = TraceStore::from_records(
            vec![],
            vec![
                // Owner: 6 h in sector 0, 6 h in sector 1 → H = ln 2.
                mme(1, w, 0, MmeEvent::Attach, 0),
                mme(1, w, 6 * h, MmeEvent::SectorUpdate, 1),
                mme(1, w, 12 * h, MmeEvent::Detach, 1),
                // Rest: all day in one sector → H = 0.
                mme(2, p, 0, MmeEvent::Attach, 2),
                mme(2, p, 12 * h, MmeEvent::Detach, 2),
            ],
        );
        let sectors = sectors();
        let catalog = AppCatalog::standard();
        let ctx = StudyContext::new(&store, &db, &sectors, &catalog, window());
        let index = MobilityIndex::build(&ctx);
        let owner = &index.per_user[&UserId(1)];
        assert!((owner.location_entropy() - std::f64::consts::LN_2).abs() < 1e-9);
        let rest = &index.per_user[&UserId(2)];
        assert_eq!(rest.location_entropy(), 0.0);
        let owners = crate::CoreAggregates::sequential(&ctx).owners;
        let ent = LocationEntropy::compute(&owners, &index);
        assert_eq!(ent.ratio, 0.0); // rest mean is zero → ratio degenerate
        assert_eq!(ent.owners.len(), 1);
    }

    #[test]
    fn attached_at_window_end_is_closed() {
        let db = DeviceDb::standard();
        let w = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
        let store = TraceStore::from_records(vec![], vec![mme(1, w, 0, MmeEvent::Attach, 0)]);
        let sectors = sectors();
        let catalog = AppCatalog::standard();
        let ctx = StudyContext::new(&store, &db, &sectors, &catalog, window());
        let index = MobilityIndex::build(&ctx);
        let dwell: u64 = index.per_user[&UserId(1)].dwell_by_sector.values().sum();
        assert_eq!(dwell, 14 * SECS_PER_DAY);
    }

    #[test]
    fn single_location_share_and_attribution() {
        let db = DeviceDb::standard();
        let w1 = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
        let w2 = db.example_imei(db.wearable_tacs()[0], 2).as_u64();
        let h = 3600;
        let store = TraceStore::from_records(
            vec![
                // User 1 transacts at 7h (sector 0) and 12h (sector 1).
                ptx(1, w1, 7 * h),
                ptx(1, w1, 12 * h),
                // User 2 transacts twice, both at sector 2.
                ptx(2, w2, 7 * h),
                ptx(2, w2, 20 * h),
            ],
            vec![
                mme(1, w1, 6 * h, MmeEvent::Attach, 0),
                mme(1, w1, 9 * h, MmeEvent::SectorUpdate, 1),
                mme(2, w2, 6 * h, MmeEvent::Attach, 2),
            ],
        );
        let sectors = sectors();
        let catalog = AppCatalog::standard();
        let ctx = StudyContext::new(&store, &db, &sectors, &catalog, window());
        let aggs = crate::CoreAggregates::sequential(&ctx);
        let ma =
            MobilityActivity::compute(&aggs.mobility, &aggs.activity, &aggs.transaction_sectors);
        assert!((ma.single_location_share - 0.5).abs() < 1e-9);
        assert_eq!(ma.points.len(), 2);
    }

    #[test]
    fn attribution_does_not_leak_across_days() {
        let db = DeviceDb::standard();
        let w = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
        // MME sighting on day 0, transaction on day 1 → unattributed.
        let store = TraceStore::from_records(
            vec![ptx(1, w, SECS_PER_DAY + 3600)],
            vec![mme(1, w, 3600, MmeEvent::Attach, 0)],
        );
        let sectors = sectors();
        let catalog = AppCatalog::standard();
        let ctx = StudyContext::new(&store, &db, &sectors, &catalog, window());
        let aggs = crate::CoreAggregates::sequential(&ctx);
        assert!(aggs.transaction_sectors.is_empty());
        let ma =
            MobilityActivity::compute(&aggs.mobility, &aggs.activity, &aggs.transaction_sectors);
        assert_eq!(ma.single_location_share, 0.0);
    }
}
