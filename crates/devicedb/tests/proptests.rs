//! Property-based tests for IMEI structure and device-DB lookup.

use proptest::prelude::*;
use wearscope_devicedb::{DeviceDb, Imei, ImeiError, ModelId, Tac};

proptest! {
    /// from_parts → field extraction → re-validation round-trips.
    #[test]
    fn imei_roundtrip(tac in 0u32..100_000_000, serial in 0u32..1_000_000) {
        let tac = Tac::new(tac).unwrap();
        let imei = Imei::from_parts(tac, serial).unwrap();
        prop_assert_eq!(imei.tac(), tac);
        prop_assert_eq!(imei.serial(), serial);
        prop_assert_eq!(Imei::from_u64(imei.as_u64()).unwrap(), imei);
        // String round-trip.
        let s = imei.to_string();
        prop_assert_eq!(s.len(), 15);
        prop_assert_eq!(s.parse::<Imei>().unwrap(), imei);
    }

    /// Exactly one of the ten candidate check digits validates.
    #[test]
    fn unique_check_digit(body in 0u64..100_000_000_000_000u64) {
        let valid: Vec<u64> = (0..10)
            .map(|d| body * 10 + d)
            .filter(|&v| Imei::from_u64(v).is_ok())
            .collect();
        prop_assert_eq!(valid.len(), 1);
    }

    /// Transposing two adjacent distinct, non-equal-mod-9 digits breaks the
    /// check (the classic Luhn guarantee, minus its known 09/90 blind spot).
    #[test]
    fn adjacent_transposition_detected(
        tac in 0u32..100_000_000,
        serial in 0u32..1_000_000,
        pos in 0usize..13,
    ) {
        let imei = Imei::from_parts(Tac::new(tac).unwrap(), serial).unwrap();
        let s = imei.to_string();
        let b = s.as_bytes();
        let (x, y) = (b[pos], b[pos + 1]);
        prop_assume!(x != y);
        let (dx, dy) = ((x - b'0') as i32, (y - b'0') as i32);
        prop_assume!(!((dx == 0 && dy == 9) || (dx == 9 && dy == 0)));
        let mut t = s.into_bytes();
        t.swap(pos, pos + 1);
        let mutated = String::from_utf8(t).unwrap();
        prop_assert!(mutated.parse::<Imei>().is_err());
    }

    /// Every IMEI allocated by the DB resolves to the model it was allocated
    /// for, across arbitrary serials.
    #[test]
    fn db_allocation_resolves(model in 0u16..22, serial in 0u32..2_000_000) {
        let db = DeviceDb::standard();
        prop_assume!(db.model(ModelId(model)).is_some());
        let id = ModelId(model);
        let imei = db.allocate_imei(id, serial);
        let rec = db.lookup(imei).unwrap();
        prop_assert_eq!(rec.model_id, id);
        prop_assert_eq!(rec.class, db.model(id).unwrap().class);
    }

    /// Parsing garbage never panics and classifies the error sensibly.
    #[test]
    fn parse_never_panics(s in "\\PC{0,20}") {
        match s.parse::<Imei>() {
            Ok(imei) => prop_assert_eq!(imei.to_string(), s),
            Err(e) => prop_assert!(matches!(
                e,
                ImeiError::Malformed | ImeiError::BadCheckDigit | ImeiError::OutOfRange
            )),
        }
    }
}
