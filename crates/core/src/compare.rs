//! Owner-vs-rest traffic comparison (Sec. 4.3, Fig. 4(a,b)).
//!
//! "Users that have wearable devices" are identified from the logs alone:
//! any subscriber observed with a SIM-enabled-wearable IMEI. Their *total*
//! traffic (all devices — the wearable plus their smartphone) is compared
//! against the remaining customers. Both the owner set and the per-user
//! totals come from the one fold ([`crate::CoreAggregates`]).

use wearscope_trace::UserId;

use crate::hash::{HashMap, HashSet};
use crate::stats::Ecdf;

/// Per-user traffic totals over the detailed window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UserTraffic {
    /// Bytes over all devices.
    pub bytes_total: u64,
    /// Transactions over all devices.
    pub tx_total: u64,
    /// Bytes from the wearable alone.
    pub bytes_wearable: u64,
    /// Transactions from the wearable alone.
    pub tx_wearable: u64,
}

/// Fig. 4(a) (plus the +26 % / +48 % takeaways): the distribution of
/// per-user traffic for wearable owners vs the remaining customers.
#[derive(Clone, Debug, PartialEq)]
pub struct OwnerVsRest {
    /// Per-user total bytes, owners.
    pub owner_bytes: Ecdf,
    /// Per-user total bytes, remaining customers.
    pub rest_bytes: Ecdf,
    /// Per-user transactions, owners.
    pub owner_tx: Ecdf,
    /// Per-user transactions, remaining customers.
    pub rest_tx: Ecdf,
    /// `mean(owner bytes) / mean(rest bytes)` (paper: ≈ 1.26).
    pub bytes_ratio: f64,
    /// `mean(owner tx) / mean(rest tx)` (paper: ≈ 1.48).
    pub tx_ratio: f64,
}

impl OwnerVsRest {
    /// Computes the comparison over all data-active users.
    pub fn compute(
        owners: &HashSet<UserId>,
        traffic: &HashMap<UserId, UserTraffic>,
    ) -> OwnerVsRest {
        let mut ob = Vec::new();
        let mut rb = Vec::new();
        let mut ot = Vec::new();
        let mut rt = Vec::new();
        for (user, t) in traffic {
            if t.tx_total == 0 {
                continue;
            }
            if owners.contains(user) {
                ob.push(t.bytes_total as f64);
                ot.push(t.tx_total as f64);
            } else {
                rb.push(t.bytes_total as f64);
                rt.push(t.tx_total as f64);
            }
        }
        let owner_bytes = Ecdf::from_samples(ob);
        let rest_bytes = Ecdf::from_samples(rb);
        let owner_tx = Ecdf::from_samples(ot);
        let rest_tx = Ecdf::from_samples(rt);
        let ratio = |a: &Ecdf, b: &Ecdf| {
            if b.mean() > 0.0 {
                a.mean() / b.mean()
            } else {
                0.0
            }
        };
        OwnerVsRest {
            bytes_ratio: ratio(&owner_bytes, &rest_bytes),
            tx_ratio: ratio(&owner_tx, &rest_tx),
            owner_bytes,
            rest_bytes,
            owner_tx,
            rest_tx,
        }
    }
}

/// Fig. 4(b): the share of an owner's traffic that comes from the wearable
/// itself.
#[derive(Clone, Debug)]
pub struct WearableShare {
    /// Per-owner `wearable bytes / total bytes`.
    pub ratio: Ecdf,
    /// Mean ratio (paper: ~10⁻³, "three magnitudes smaller").
    pub mean_ratio: f64,
    /// Fraction of owners with at least 3 % of their traffic from the
    /// wearable (paper: 10 %).
    pub frac_over_3pct: f64,
}

impl WearableShare {
    /// Computes the share over wearable owners with any traffic.
    pub fn compute(
        owners: &HashSet<UserId>,
        traffic: &HashMap<UserId, UserTraffic>,
    ) -> WearableShare {
        let ratios: Vec<f64> = traffic
            .iter()
            .filter(|(user, t)| owners.contains(user) && t.bytes_total > 0)
            .map(|(_, t)| t.bytes_wearable as f64 / t.bytes_total as f64)
            .collect();
        let ratio = Ecdf::from_samples(ratios);
        WearableShare {
            mean_ratio: ratio.mean(),
            frac_over_3pct: 1.0 - ratio.fraction_below(0.03),
            ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreAggregates, StudyContext};
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::{DeviceClass, DeviceDb};
    use wearscope_geo::SectorDirectory;
    use wearscope_simtime::{ObservationWindow, SimTime};
    use wearscope_trace::{HostId, ProxyRecord, Scheme, TraceStore};

    fn rec(user: u64, imei: u64, bytes: u64, t: u64) -> ProxyRecord {
        ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei,
            host: HostId::intern("h.example.com"),
            scheme: Scheme::Https,
            bytes_down: bytes,
            bytes_up: 0,
        }
    }

    fn setup(records: Vec<ProxyRecord>) -> (TraceStore, DeviceDb, SectorDirectory, AppCatalog) {
        (
            TraceStore::from_records(records, vec![]),
            DeviceDb::standard(),
            SectorDirectory::new(),
            AppCatalog::standard(),
        )
    }

    #[test]
    fn owner_identified_and_ratios_computed() {
        let db = DeviceDb::standard();
        let w = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
        let p1 = db
            .example_imei(db.tacs_of_class(DeviceClass::Smartphone)[0], 1)
            .as_u64();
        let p2 = db
            .example_imei(db.tacs_of_class(DeviceClass::Smartphone)[0], 2)
            .as_u64();
        // User 1 (owner): wearable 100 B + phone 10 000 B, 3 tx total.
        // User 2 (rest): phone 8 000 B, 2 tx.
        let records = vec![
            rec(1, w, 100, 10),
            rec(1, p1, 4000, 20),
            rec(1, p1, 6000, 30),
            rec(2, p2, 3000, 40),
            rec(2, p2, 5000, 50),
        ];
        let (store, db, sectors, catalog) = setup(records);
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::compact(),
        );
        let CoreAggregates {
            owners, traffic, ..
        } = CoreAggregates::sequential(&ctx);
        assert_eq!(traffic[&UserId(1)].bytes_total, 10_100);
        assert_eq!(traffic[&UserId(1)].bytes_wearable, 100);
        assert_eq!(traffic[&UserId(1)].tx_wearable, 1);
        assert_eq!(traffic[&UserId(2)].bytes_wearable, 0);

        let cmp = OwnerVsRest::compute(&owners, &traffic);
        assert_eq!(cmp.owner_bytes.len(), 1);
        assert_eq!(cmp.rest_bytes.len(), 1);
        assert!((cmp.bytes_ratio - 10_100.0 / 8_000.0).abs() < 1e-9);
        assert!((cmp.tx_ratio - 3.0 / 2.0).abs() < 1e-9);

        let share = WearableShare::compute(&owners, &traffic);
        assert_eq!(share.ratio.len(), 1);
        assert!((share.mean_ratio - 100.0 / 10_100.0).abs() < 1e-9);
        assert_eq!(share.frac_over_3pct, 0.0);
    }

    #[test]
    fn owners_with_heavy_wearable_use_show_in_tail() {
        let db = DeviceDb::standard();
        let w1 = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
        let w2 = db.example_imei(db.wearable_tacs()[0], 2).as_u64();
        let p = db.tacs_of_class(DeviceClass::Smartphone)[0];
        let p1 = db.example_imei(p, 1).as_u64();
        let p2 = db.example_imei(p, 2).as_u64();
        // Owner 1: 1% wearable. Owner 2: 50% wearable.
        let records = vec![
            rec(1, w1, 100, 1),
            rec(1, p1, 9900, 2),
            rec(2, w2, 5000, 3),
            rec(2, p2, 5000, 4),
        ];
        let (store, db, sectors, catalog) = setup(records);
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::compact(),
        );
        let aggs = CoreAggregates::sequential(&ctx);
        let share = WearableShare::compute(&aggs.owners, &aggs.traffic);
        assert_eq!(share.ratio.len(), 2);
        assert!((share.frac_over_3pct - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_logs_no_panics() {
        let (store, db, sectors, catalog) = setup(vec![]);
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::compact(),
        );
        let aggs = CoreAggregates::sequential(&ctx);
        assert!(aggs.owners.is_empty());
        let cmp = OwnerVsRest::compute(&aggs.owners, &aggs.traffic);
        assert_eq!(cmp.bytes_ratio, 0.0);
        let share = WearableShare::compute(&aggs.owners, &aggs.traffic);
        assert!(share.ratio.is_empty());
    }
}
