//! The device database: TAC ranges, IMEI allocation, and model lookup.

use rand::Rng;

use crate::catalog::{DeviceClass, DeviceModel, DeviceOs};
use crate::imei::{Imei, Tac};

/// Index of a model within a [`DeviceDb`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ModelId(pub u16);

/// What a device-database lookup returns for an IMEI: the binding of
/// deviceID to model, OS, and manufacturer described in Sec. 3.1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceRecord {
    /// The model's id in this database.
    pub model_id: ModelId,
    /// Marketing name.
    pub model: &'static str,
    /// Manufacturer name.
    pub manufacturer: &'static str,
    /// OS family.
    pub os: DeviceOs,
    /// Device class.
    pub class: DeviceClass,
}

/// The operator's device database.
///
/// Each model owns one or more TACs (real models often span several TACs for
/// regional variants; we allocate `TACS_PER_MODEL` each). Lookup strips the
/// serial and check digit and resolves the TAC. The TACs are consecutive
/// from `TAC_BASE`, so the model id is arithmetic on the TAC: no map.
///
/// # Examples
/// ```
/// use wearscope_devicedb::{standard_catalog, DeviceDb, DeviceClass};
/// let db = DeviceDb::with_catalog(standard_catalog());
/// let tac = db.wearable_tacs()[0];
/// let imei = db.example_imei(tac, 42);
/// let rec = db.lookup(imei).unwrap();
/// assert_eq!(rec.class, DeviceClass::CellularWearable);
/// assert!(db.is_sim_wearable(imei));
/// ```
#[derive(Clone, Debug)]
pub struct DeviceDb {
    models: Vec<DeviceModel>,
    tacs_by_model: Vec<Vec<Tac>>,
}

/// First TAC handed out by [`DeviceDb::with_catalog`]. Chosen inside the
/// `35xxxxxx` reporting-body range most real European devices use.
const TAC_BASE: u32 = 35_200_000;
/// TACs allocated per model.
const TACS_PER_MODEL: u32 = 2;

impl DeviceDb {
    /// Builds a database assigning consecutive TACs to each catalog model:
    /// model `i` gets `TAC_BASE + i·TACS_PER_MODEL + k` for each `k` below
    /// `TACS_PER_MODEL`.
    pub fn with_catalog(models: Vec<DeviceModel>) -> DeviceDb {
        let mut tacs_by_model = Vec::with_capacity(models.len());
        for (i, _) in models.iter().enumerate() {
            let mut tacs = Vec::with_capacity(TACS_PER_MODEL as usize);
            for k in 0..TACS_PER_MODEL {
                let tac = Tac::new(TAC_BASE + (i as u32) * TACS_PER_MODEL + k)
                    .expect("TAC_BASE keeps allocations in range");
                tacs.push(tac);
            }
            tacs_by_model.push(tacs);
        }
        DeviceDb {
            models,
            tacs_by_model,
        }
    }

    /// The standard database over [`crate::standard_catalog`].
    pub fn standard() -> DeviceDb {
        DeviceDb::with_catalog(crate::catalog::standard_catalog())
    }

    /// The model with id `id`.
    pub fn model(&self, id: ModelId) -> Option<&DeviceModel> {
        self.models.get(id.0 as usize)
    }

    /// Resolves an IMEI to its device record via the TAC, or `None` for
    /// devices from other operators/regions not in this database.
    pub fn lookup(&self, imei: Imei) -> Option<DeviceRecord> {
        let index = imei.tac().value().checked_sub(TAC_BASE)? / TACS_PER_MODEL;
        let m = self.models.get(index as usize)?;
        Some(DeviceRecord {
            model_id: ModelId(index as u16),
            model: m.name,
            manufacturer: m.manufacturer,
            os: m.os,
            class: m.class,
        })
    }

    /// `true` if the IMEI belongs to a SIM-enabled (cellular) wearable —
    /// the identification predicate of Sec. 3.2.
    pub fn is_sim_wearable(&self, imei: Imei) -> bool {
        self.lookup(imei)
            .is_some_and(|r| r.class == DeviceClass::CellularWearable)
    }

    /// All TACs belonging to SIM-enabled wearable models — the "list of
    /// wearable IMEI ranges" the paper searches the logs for.
    pub fn wearable_tacs(&self) -> Vec<Tac> {
        self.tacs_of_class(DeviceClass::CellularWearable)
    }

    /// All TACs belonging to models of the given class.
    pub fn tacs_of_class(&self, class: DeviceClass) -> Vec<Tac> {
        let mut out = Vec::new();
        for (i, m) in self.models.iter().enumerate() {
            if m.class == class {
                out.extend(self.tacs_by_model[i].iter().copied());
            }
        }
        out
    }

    /// Picks a model of `class` with probability proportional to market
    /// share; `None` if the class has no models.
    pub fn sample_model<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        class: DeviceClass,
    ) -> Option<ModelId> {
        let candidates: Vec<(usize, f64)> = self
            .models
            .iter()
            .enumerate()
            .filter(|(_, m)| m.class == class)
            .map(|(i, m)| (i, m.market_share))
            .collect();
        let total: f64 = candidates.iter().map(|(_, w)| w).sum();
        if total <= 0.0 {
            return None;
        }
        let mut x = rng.random::<f64>() * total;
        for (i, w) in &candidates {
            if x < *w {
                return Some(ModelId(*i as u16));
            }
            x -= w;
        }
        candidates.last().map(|(i, _)| ModelId(*i as u16))
    }

    /// Allocates a fresh IMEI for model `id` using `serial` as the per-unit
    /// number (callers keep serials unique per TAC).
    ///
    /// # Panics
    /// Panics if `id` is out of range or `serial >= 10^6 · tacs_per_model`.
    pub fn allocate_imei(&self, id: ModelId, serial: u32) -> Imei {
        let tacs = &self.tacs_by_model[id.0 as usize];
        let tac = tacs[(serial / 1_000_000) as usize % tacs.len()];
        Imei::from_parts(tac, serial % 1_000_000).expect("serial bounded above")
    }

    /// A valid IMEI under `tac` with the given serial (for tests/examples).
    pub fn example_imei(&self, tac: Tac, serial: u32) -> Imei {
        Imei::from_parts(tac, serial % 1_000_000).expect("serial reduced into range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::standard_catalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn lookup_roundtrip_for_every_model() {
        let db = DeviceDb::standard();
        for i in 0..db.models.len() {
            let id = ModelId(i as u16);
            let imei = db.allocate_imei(id, 123);
            let rec = db.lookup(imei).expect("allocated IMEI must resolve");
            assert_eq!(rec.model_id, id);
            assert_eq!(rec.model, db.model(id).unwrap().name);
        }
    }

    /// The TAC-to-model map `lookup` used to build, as the oracle for the
    /// arithmetic: every planned TAC, the ones just outside the plan, and
    /// the ends of the TAC range resolve as the map resolved them.
    #[test]
    fn lookup_by_arithmetic_matches_the_tac_map() {
        for db in [DeviceDb::standard(), DeviceDb::with_catalog(vec![])] {
            let mut map = HashMap::new();
            for i in 0..db.models.len() {
                for k in 0..TACS_PER_MODEL {
                    let tac = Tac::new(TAC_BASE + i as u32 * TACS_PER_MODEL + k).unwrap();
                    map.insert(tac, ModelId(i as u16));
                }
            }
            let planned_end = TAC_BASE + db.models.len() as u32 * TACS_PER_MODEL;
            let tacs = (TAC_BASE - 5..planned_end + 5).chain([0, 1, 99_999_999]);
            for tac in tacs.map(|t| Tac::new(t).unwrap()) {
                let imei = Imei::from_parts(tac, 4242).unwrap();
                let got = db.lookup(imei);
                assert_eq!(got.as_ref().map(|r| r.model_id), map.get(&tac).copied());
                if let Some(rec) = got {
                    let m = db.model(rec.model_id).unwrap();
                    assert_eq!((rec.model, rec.manufacturer), (m.name, m.manufacturer));
                    assert_eq!((rec.os, rec.class), (m.os, m.class));
                }
            }
        }
    }

    #[test]
    fn unknown_tac_is_none() {
        let db = DeviceDb::standard();
        let foreign = Imei::from_parts(Tac::new(99_000_000).unwrap(), 1).unwrap();
        assert!(db.lookup(foreign).is_none());
        assert!(!db.is_sim_wearable(foreign));
    }

    #[test]
    fn wearable_tacs_match_class() {
        let db = DeviceDb::standard();
        let tacs = db.wearable_tacs();
        let n_wearable_models = standard_catalog()
            .iter()
            .filter(|m| m.class == DeviceClass::CellularWearable)
            .count();
        assert_eq!(tacs.len(), n_wearable_models * TACS_PER_MODEL as usize);
        for tac in tacs {
            let imei = db.example_imei(tac, 5);
            assert!(db.is_sim_wearable(imei));
        }
    }

    #[test]
    fn tacs_are_disjoint_across_models() {
        let db = DeviceDb::standard();
        let mut all: Vec<Tac> = db.tacs_by_model.concat();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), before);
    }

    #[test]
    fn sampling_respects_market_share() {
        let db = DeviceDb::standard();
        let mut rng = StdRng::seed_from_u64(17);
        let mut counts: HashMap<ModelId, usize> = HashMap::new();
        let n = 30_000;
        for _ in 0..n {
            let id = db
                .sample_model(&mut rng, DeviceClass::CellularWearable)
                .unwrap();
            *counts.entry(id).or_default() += 1;
        }
        for (id, count) in counts {
            let share = db.model(id).unwrap().market_share;
            let observed = count as f64 / n as f64;
            assert!(
                (observed - share).abs() < 0.02,
                "{:?}: observed {observed}, share {share}",
                db.model(id).unwrap().name
            );
        }
    }

    #[test]
    fn allocate_spreads_over_model_tacs() {
        let db = DeviceDb::standard();
        let id = ModelId(0);
        let a = db.allocate_imei(id, 10);
        let b = db.allocate_imei(id, 1_000_010);
        assert_ne!(a.tac(), b.tac());
        assert_eq!(a.serial(), b.serial());
        assert_eq!(db.lookup(a).unwrap().model_id, id);
        assert_eq!(db.lookup(b).unwrap().model_id, id);
    }

    #[test]
    fn sample_missing_class_is_none() {
        let db = DeviceDb::with_catalog(vec![]);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(db.sample_model(&mut rng, DeviceClass::M2m).is_none());
    }
}
