//! Property-based tests: the MME's registration state and census stay
//! consistent under arbitrary event sequences.

use proptest::prelude::*;

use wearscope_devicedb::DeviceDb;
use wearscope_geo::SectorId;
use wearscope_mobilenet::Mme;
use wearscope_simtime::SimTime;
use wearscope_trace::UserId;

#[derive(Clone, Debug)]
enum Op {
    Attach { user: u64, sector: u32 },
    Move { user: u64, sector: u32 },
    Detach { user: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..8, 0u32..5).prop_map(|(user, sector)| Op::Attach { user, sector }),
        (0u64..8, 0u32..5).prop_map(|(user, sector)| Op::Move { user, sector }),
        (0u64..8).prop_map(|user| Op::Detach { user }),
    ]
}

proptest! {
    /// Under any event sequence: the census per-sector attachment counts sum
    /// to the number of registered devices, every count stays within the
    /// peak, and the log grows by exactly one record per event.
    #[test]
    fn mme_state_consistent(ops in prop::collection::vec(arb_op(), 0..200)) {
        let db = DeviceDb::standard();
        let imei = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
        let mut mme = Mme::new(&db);
        let mut shadow: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            let t = SimTime::from_secs(i as u64);
            match *op {
                Op::Attach { user, sector } => {
                    mme.attach(t, UserId(user), imei, SectorId(sector));
                    shadow.insert(user, sector);
                }
                Op::Move { user, sector } => {
                    mme.sector_update(t, UserId(user), imei, SectorId(sector));
                    shadow.insert(user, sector);
                }
                Op::Detach { user } => {
                    mme.detach(t, UserId(user), imei);
                    shadow.remove(&user);
                }
            }
            // Census totals match: sum of per-sector current == registered.
            let census_total: u32 = (0..5).map(|s| mme.census().attached(s)).sum();
            prop_assert_eq!(census_total as usize, shadow.len());
            // Per-sector counts match the shadow model exactly.
            for s in 0..5u32 {
                let want = shadow.values().filter(|&&v| v == s).count() as u32;
                prop_assert_eq!(mme.census().attached(s), want);
                prop_assert!(mme.census().peak(s) >= mme.census().attached(s));
            }
        }
        // One log record per event.
        prop_assert_eq!(mme.log().len(), ops.len());
        // Log is time-ordered (events arrived in order).
        for w in mme.log().windows(2) {
            prop_assert!(w[0].timestamp <= w[1].timestamp);
        }
    }
}
