//! Through-Device wearable fingerprinting (Sec. 6 / conclusion).
//!
//! Most wearables relay via a paired smartphone and never appear in MME
//! logs under their own IMEI. The paper fingerprints them from smartphone
//! proxy traffic: Fitbit/Xiaomi sync endpoints attribute directly, and
//! wearable-specific endpoints of AccuWeather/Strava/Runtastic identify
//! generic Android/Apple wearables. The identified sample (~16 % of
//! Through-Device users, estimated from market reports) is then compared
//! against SIM-enabled users on macroscopic behaviour and mobility.

use wearscope_appdb::ThroughDeviceKind;
use wearscope_trace::UserId;

use crate::context::StudyContext;
use crate::hash::{HashMap, HashSet};
use crate::merge::CorePartials;
use crate::mobility::MobilityIndex;
use crate::stats::Ecdf;

/// The Sec. 6 analysis output.
#[derive(Clone, Debug, PartialEq)]
pub struct ThroughDeviceReport {
    /// Identified Through-Device users per tracker kind.
    pub identified: HashMap<ThroughDeviceKind, HashSet<UserId>>,
    /// All identified users.
    pub users: HashSet<UserId>,
    /// Estimated total Through-Device population, extrapolating the
    /// identified sample with the market-report coverage estimate.
    pub estimated_total: usize,
    /// The coverage fraction used for the extrapolation.
    pub assumed_coverage: f64,
    /// Mean daily max displacement of identified users (km).
    pub displacement_mean_km: f64,
    /// Mean daily max displacement of SIM-wearable owners (km), for the
    /// "similar macroscopic behaviour" comparison.
    pub sim_owner_displacement_mean_km: f64,
    /// Per-identified-user displacement distribution.
    pub displacement: Ecdf,
}

impl ThroughDeviceReport {
    /// The paper's coverage estimate: the fingerprintable sample covers
    /// ~16 % of Through-Device users.
    pub const MARKET_COVERAGE: f64 = 0.16;

    /// Runs the fingerprinting over smartphone proxy traffic and joins with
    /// mobility.
    pub fn compute(ctx: &StudyContext<'_>, mobility: &MobilityIndex) -> ThroughDeviceReport {
        let mut partials = CorePartials::fold(ctx);
        let pairs = std::mem::take(&mut partials.through_device);
        ThroughDeviceReport::join(pairs, mobility, &partials.finish(ctx).owners)
    }

    /// The finish step: groups the identified `(kind, user)` pairs and
    /// joins the users with their mobility, and with the mobility of the
    /// SIM-wearable `owners`.
    pub(crate) fn join(
        pairs: HashSet<(ThroughDeviceKind, UserId)>,
        mobility: &MobilityIndex,
        owners: &HashSet<UserId>,
    ) -> ThroughDeviceReport {
        let mut identified: HashMap<ThroughDeviceKind, HashSet<UserId>> = HashMap::default();
        let mut users = HashSet::default();
        for (kind, user) in pairs {
            identified.entry(kind).or_default().insert(user);
            users.insert(user);
        }

        let displacement_samples: Vec<f64> = users
            .iter()
            .filter_map(|u| mobility.per_user.get(u))
            .map(|m| m.mean_daily_displacement())
            .collect();
        let displacement = Ecdf::from_samples(displacement_samples);

        let owner_samples: Vec<f64> = mobility
            .per_user
            .iter()
            .filter(|(u, _)| owners.contains(*u))
            .map(|(_, m)| m.mean_daily_displacement())
            .collect();
        let owners = Ecdf::from_samples(owner_samples);

        ThroughDeviceReport {
            estimated_total: (users.len() as f64 / Self::MARKET_COVERAGE).round() as usize,
            assumed_coverage: Self::MARKET_COVERAGE,
            displacement_mean_km: displacement.mean(),
            sim_owner_displacement_mean_km: owners.mean(),
            displacement,
            identified,
            users,
        }
    }

    /// `true` when identified Through-Device users' mean displacement is
    /// within `tolerance` (relative) of SIM-wearable owners' — the paper's
    /// "similar macroscopic behaviour and mobility patterns".
    pub fn mobility_similar_to_sim_users(&self, tolerance: f64) -> bool {
        if self.sim_owner_displacement_mean_km <= 0.0 {
            return false;
        }
        let rel = (self.displacement_mean_km - self.sim_owner_displacement_mean_km).abs()
            / self.sim_owner_displacement_mean_km;
        rel <= tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::{DeviceClass, DeviceDb};
    use wearscope_geo::{GeoPoint, SectorDirectory};
    use wearscope_simtime::{Calendar, ObservationWindow, SimTime};
    use wearscope_trace::{HostId, MmeEvent, MmeRecord, ProxyRecord, Scheme, TraceStore};

    fn rec(user: u64, imei: u64, t: u64, host: &str) -> ProxyRecord {
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
    fn fingerprints_identify_and_extrapolate() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let mut sectors = SectorDirectory::new();
        sectors.push(GeoPoint::new(40.0, -3.0), None);
        let p_tac = db.tacs_of_class(DeviceClass::Smartphone)[0];
        let p1 = db.example_imei(p_tac, 1).as_u64();
        let p2 = db.example_imei(p_tac, 2).as_u64();
        let p3 = db.example_imei(p_tac, 3).as_u64();
        let store = TraceStore::from_records(
            vec![
                rec(1, p1, 10, "android-api.fitbit.com"),
                rec(1, p1, 20, "m.popular-video.example"),
                rec(2, p2, 30, "wear.accuweather.com"),
                rec(3, p3, 40, "m.popular-video.example"), // no fingerprint
            ],
            vec![MmeRecord {
                timestamp: SimTime::from_secs(5),
                user: UserId(1),
                imei: p1,
                event: MmeEvent::Attach,
                sector: 0,
            }],
        );
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let mobility = MobilityIndex::build(&ctx);
        let report = ThroughDeviceReport::compute(&ctx, &mobility);
        assert_eq!(report.users.len(), 2);
        assert!(report.identified[&ThroughDeviceKind::Fitbit].contains(&UserId(1)));
        assert!(report.identified[&ThroughDeviceKind::GenericAndroid].contains(&UserId(2)));
        assert_eq!(report.estimated_total, (2.0 / 0.16_f64).round() as usize);
        // No SIM owners in this trace → similarity check degenerates.
        assert!(!report.mobility_similar_to_sim_users(0.5));
    }

    #[test]
    fn empty_trace() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let store = TraceStore::new();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let mobility = MobilityIndex::build(&ctx);
        let report = ThroughDeviceReport::compute(&ctx, &mobility);
        assert!(report.users.is_empty());
        assert_eq!(report.estimated_total, 0);
    }
}
