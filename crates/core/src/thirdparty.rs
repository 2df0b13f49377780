//! Third-party transaction analysis (Sec. 5.2, Fig. 8).

use wearscope_appdb::DomainClass;
use wearscope_trace::UserId;

use crate::context::StudyContext;
use crate::hash::HashSet;
use crate::sessions::{self, AttributedTx};

/// Fig. 8: per domain class (Application / Utilities / Advertising /
/// Analytics), the share of daily users, transaction frequency, and data.
#[derive(Clone, Debug, PartialEq)]
pub struct DomainBreakdown {
    /// Share of (day, user) pairs touching each class.
    pub users: [f64; 4],
    /// Share of transactions per class.
    pub frequency: [f64; 4],
    /// Share of bytes per class.
    pub data: [f64; 4],
    /// Transactions that matched no signature at all (diagnostic; excluded
    /// from the shares, mirroring the paper's signature-based method).
    pub unclassified_transactions: u64,
}

impl DomainBreakdown {
    /// Computes the breakdown over the wearable proxy log.
    pub fn compute(ctx: &StudyContext<'_>) -> DomainBreakdown {
        DomainBreakdown::from_attributed(&sessions::attribute_transactions(ctx))
    }

    /// The breakdown over attributed wearable transactions (one per
    /// wearable proxy record), by each destination's classification.
    pub(crate) fn from_attributed(attributed: &[AttributedTx]) -> DomainBreakdown {
        let mut day_users: [HashSet<(u64, UserId)>; 4] = Default::default();
        let mut tx = [0u64; 4];
        let mut bytes = [0u64; 4];
        let mut unclassified = 0u64;
        for t in attributed {
            match t.class {
                Some(c) => {
                    let i = c.domain_class().index();
                    day_users[i].insert((t.timestamp.day_index(), t.user));
                    tx[i] += 1;
                    bytes[i] += t.bytes;
                }
                None => unclassified += 1,
            }
        }
        let share = |xs: [f64; 4]| -> [f64; 4] {
            let total: f64 = xs.iter().sum::<f64>().max(1e-12);
            [xs[0] / total, xs[1] / total, xs[2] / total, xs[3] / total]
        };
        DomainBreakdown {
            users: share([
                day_users[0].len() as f64,
                day_users[1].len() as f64,
                day_users[2].len() as f64,
                day_users[3].len() as f64,
            ]),
            frequency: share([tx[0] as f64, tx[1] as f64, tx[2] as f64, tx[3] as f64]),
            data: share([
                bytes[0] as f64,
                bytes[1] as f64,
                bytes[2] as f64,
                bytes[3] as f64,
            ]),
            unclassified_transactions: unclassified,
        }
    }

    /// Value for one class of one metric.
    pub fn metric(&self, metric: &[f64; 4], class: DomainClass) -> f64 {
        metric[class.index()]
    }

    /// The paper's headline check: third-party (ads + analytics) data volume
    /// within one order of magnitude of first-party volume.
    pub fn thirdparty_within_order_of_magnitude(&self) -> bool {
        let app = self.data[DomainClass::Application.index()].max(1e-12);
        let ads = self.data[DomainClass::Advertising.index()];
        let analytics = self.data[DomainClass::Analytics.index()];
        let third = ads + analytics;
        third > 0.0 && app / third < 10.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::DeviceDb;
    use wearscope_geo::SectorDirectory;
    use wearscope_simtime::{Calendar, ObservationWindow, SimTime};
    use wearscope_trace::{HostId, ProxyRecord, Scheme, TraceStore};

    fn rec(db: &DeviceDb, user: u64, t: u64, host: &str, bytes: u64) -> ProxyRecord {
        ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei: db.example_imei(db.wearable_tacs()[0], user as u32).as_u64(),
            host: HostId::intern(host),
            scheme: Scheme::Https,
            bytes_down: bytes,
            bytes_up: 0,
        }
    }

    #[test]
    fn breakdown_shares() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let store = TraceStore::from_records(
            vec![
                rec(&db, 1, 10, "api.weather.com", 6000),     // Application
                rec(&db, 1, 20, "media.akamaized.net", 2000), // Utilities
                rec(&db, 1, 30, "ads.doubleclick.net", 1000), // Advertising
                rec(&db, 2, 40, "ssl.google-analytics.com", 1000), // Analytics
                rec(&db, 2, 50, "unknown.nowhere.example", 500), // unclassified
            ],
            vec![],
        );
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let b = DomainBreakdown::compute(&ctx);
        assert_eq!(b.unclassified_transactions, 1);
        assert!((b.frequency.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((b.data[0] - 0.6).abs() < 1e-9);
        assert!((b.data[1] - 0.2).abs() < 1e-9);
        assert!((b.data[2] - 0.1).abs() < 1e-9);
        assert!((b.data[3] - 0.1).abs() < 1e-9);
        // Third-party (0.2) within one order of magnitude of first (0.6).
        assert!(b.thirdparty_within_order_of_magnitude());
        assert_eq!(b.metric(&b.data, DomainClass::Application), b.data[0]);
    }

    #[test]
    fn empty_is_all_zero_but_normalized_safely() {
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
        let b = DomainBreakdown::compute(&ctx);
        assert_eq!(b.unclassified_transactions, 0);
        assert!(!b.thirdparty_within_order_of_magnitude());
    }
}
