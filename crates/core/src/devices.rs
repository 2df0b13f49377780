//! Device-population analysis (Sec. 4.1's device observations).
//!
//! The paper notes that "most users are using LG and Samsung SIM-enabled
//! watches" and that the operator does not yet carry the Apple Watch 3.
//! This analysis recovers the wearable model/manufacturer/OS mix from the
//! logs via the device-database join — the same IMEI → TAC → model pipeline
//! used for identification.

use wearscope_devicedb::Imei;
use wearscope_trace::UserId;

use crate::context::StudyContext;
use crate::hash::{HashMap, HashSet};
use crate::merge::CoreAggregates;

/// The observed wearable device mix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeviceMix {
    /// Distinct users per wearable model name.
    pub users_by_model: HashMap<&'static str, usize>,
    /// Distinct users per manufacturer.
    pub users_by_manufacturer: HashMap<&'static str, usize>,
    /// Distinct users per OS family name.
    pub users_by_os: HashMap<&'static str, usize>,
    /// Total distinct wearable users observed.
    pub total_users: usize,
}

impl DeviceMix {
    /// Computes the mix over every wearable device seen in either log.
    pub fn compute(ctx: &StudyContext<'_>) -> DeviceMix {
        CoreAggregates::sequential(ctx).devices
    }

    /// The finish step: the mix over distinct wearable `(user, imei)`
    /// pairs, each looked up in the device DB.
    pub(crate) fn from_devices(
        ctx: &StudyContext<'_>,
        devices: &HashSet<(UserId, u64)>,
    ) -> DeviceMix {
        let mut users_by_model: HashMap<&'static str, HashSet<UserId>> = HashMap::default();
        let mut users_by_manufacturer: HashMap<&'static str, HashSet<UserId>> = HashMap::default();
        let mut users_by_os: HashMap<&'static str, HashSet<UserId>> = HashMap::default();
        let mut all_users: HashSet<UserId> = HashSet::default();
        for &(user, imei) in devices {
            let Some(rec) = Imei::from_u64(imei).ok().and_then(|i| ctx.db.lookup(i)) else {
                continue;
            };
            users_by_model.entry(rec.model).or_default().insert(user);
            users_by_manufacturer
                .entry(rec.manufacturer)
                .or_default()
                .insert(user);
            users_by_os.entry(rec.os.name()).or_default().insert(user);
            all_users.insert(user);
        }

        let collapse = |m: HashMap<&'static str, HashSet<UserId>>| {
            m.into_iter().map(|(k, v)| (k, v.len())).collect()
        };
        DeviceMix {
            users_by_model: collapse(users_by_model),
            users_by_manufacturer: collapse(users_by_manufacturer),
            users_by_os: collapse(users_by_os),
            total_users: all_users.len(),
        }
    }

    /// Combined share of the given manufacturers (0 when no users).
    pub fn manufacturer_share(&self, names: &[&str]) -> f64 {
        if self.total_users == 0 {
            return 0.0;
        }
        let n: usize = names
            .iter()
            .map(|m| self.users_by_manufacturer.get(m).copied().unwrap_or(0))
            .sum();
        n as f64 / self.total_users as f64
    }

    /// Models ranked by user count, descending.
    pub fn ranked_models(&self) -> Vec<(&'static str, usize)> {
        let mut v: Vec<(&'static str, usize)> =
            self.users_by_model.iter().map(|(k, n)| (*k, *n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::DeviceDb;
    use wearscope_geo::SectorDirectory;
    use wearscope_simtime::{ObservationWindow, SimTime};
    use wearscope_trace::{HostId, MmeEvent, MmeRecord, ProxyRecord, Scheme, TraceStore};

    #[test]
    fn mix_counts_distinct_users_per_model() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let tacs = db.wearable_tacs();
        // Two users on TAC 0's model (one via proxy, one via MME), one user
        // on another model.
        let imei_a1 = db.example_imei(tacs[0], 1).as_u64();
        let imei_a2 = db.example_imei(tacs[0], 2).as_u64();
        let imei_b = db.example_imei(*tacs.last().unwrap(), 3).as_u64();
        let store = TraceStore::from_records(
            vec![ProxyRecord {
                timestamp: SimTime::from_secs(10),
                user: UserId(1),
                imei: imei_a1,
                host: HostId::intern("api.weather.com"),
                scheme: Scheme::Https,
                bytes_down: 100,
                bytes_up: 10,
            }],
            vec![
                MmeRecord {
                    timestamp: SimTime::from_secs(20),
                    user: UserId(2),
                    imei: imei_a2,
                    event: MmeEvent::Attach,
                    sector: 0,
                },
                MmeRecord {
                    timestamp: SimTime::from_secs(30),
                    user: UserId(3),
                    imei: imei_b,
                    event: MmeEvent::Attach,
                    sector: 0,
                },
            ],
        );
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::compact(),
        );
        let mix = DeviceMix::compute(&ctx);
        assert_eq!(mix.total_users, 3);
        let ranked = mix.ranked_models();
        assert_eq!(ranked[0].1, 2);
        let sum: usize = mix.users_by_model.values().sum();
        assert_eq!(sum, 3);
        // Manufacturer shares sum to 1 for this disjoint assignment.
        let all: f64 = mix
            .users_by_manufacturer
            .keys()
            .map(|m| mix.manufacturer_share(&[m]))
            .sum();
        assert!((all - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_logs() {
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
        let mix = DeviceMix::compute(&ctx);
        assert_eq!(mix.total_users, 0);
        assert_eq!(mix.manufacturer_share(&["Samsung"]), 0.0);
        assert!(mix.ranked_models().is_empty());
    }
}
