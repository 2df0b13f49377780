//! The device model catalog.
//!
//! Mirrors the paper's setting: the SIM-enabled wearables in the studied
//! network are "primarily Android and Tizen-based wearables (mostly Samsung
//! and LG)"; the operator "does not yet support the SIM-enabled Apple
//! Watch 3". The comparison population is "mostly equipped with a
//! smartphone", and the Through-Device analysis fingerprints Fitbit/Xiaomi
//! trackers paired to phones.

use core::fmt;

/// Broad device class, the primary split of every analysis in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeviceClass {
    /// A wearable with its own SIM and direct cellular connectivity.
    CellularWearable,
    /// A wearable without a SIM that relays via a paired smartphone
    /// (kept in the catalog for the Through-Device analysis; it never
    /// appears in MME logs itself).
    ThroughDeviceWearable,
    /// A smartphone.
    Smartphone,
    /// A cellular tablet.
    Tablet,
    /// A machine-to-machine module (metering, telematics, …).
    M2m,
}

impl DeviceClass {
    /// `true` for either wearable class.
    pub const fn is_wearable(self) -> bool {
        matches!(
            self,
            DeviceClass::CellularWearable | DeviceClass::ThroughDeviceWearable
        )
    }
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceClass::CellularWearable => "cellular-wearable",
            DeviceClass::ThroughDeviceWearable => "through-device-wearable",
            DeviceClass::Smartphone => "smartphone",
            DeviceClass::Tablet => "tablet",
            DeviceClass::M2m => "m2m",
        };
        f.write_str(s)
    }
}

/// Operating system family.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum DeviceOs {
    AndroidWear,
    Tizen,
    Android,
    Ios,
    WatchOs,
    Rtos,
}

impl DeviceOs {
    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            DeviceOs::AndroidWear => "AndroidWear",
            DeviceOs::Tizen => "Tizen",
            DeviceOs::Android => "Android",
            DeviceOs::Ios => "iOS",
            DeviceOs::WatchOs => "watchOS",
            DeviceOs::Rtos => "RTOS",
        }
    }
}

impl fmt::Display for DeviceOs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One device model as known to the operator's device database.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceModel {
    /// Marketing name, e.g. "Gear S3 Frontier LTE".
    pub name: &'static str,
    /// Manufacturer, e.g. "Samsung".
    pub manufacturer: &'static str,
    /// Operating system family.
    pub os: DeviceOs,
    /// Device class.
    pub class: DeviceClass,
    /// Relative sales share *within its class*; used when assigning devices
    /// to synthetic subscribers. Shares need not sum to 1.
    pub market_share: f64,
}

/// The standard catalog used across examples, tests, and benches.
///
/// SIM-enabled wearables dominate with Samsung (Tizen) and LG (Android Wear)
/// models, matching Sec. 4.1 ("most users are using LG and Samsung
/// SIM-enabled watches").
pub fn standard_catalog() -> Vec<DeviceModel> {
    use DeviceClass::*;
    use DeviceOs::*;
    vec![
        // --- SIM-enabled (cellular) wearables -------------------------------
        DeviceModel {
            name: "Gear S2 Classic 3G",
            manufacturer: "Samsung",
            os: Tizen,
            class: CellularWearable,
            market_share: 0.18,
        },
        DeviceModel {
            name: "Gear S3 Frontier LTE",
            manufacturer: "Samsung",
            os: Tizen,
            class: CellularWearable,
            market_share: 0.34,
        },
        DeviceModel {
            name: "Gear S 3G",
            manufacturer: "Samsung",
            os: Tizen,
            class: CellularWearable,
            market_share: 0.08,
        },
        DeviceModel {
            name: "Watch Urbane 2nd Edition LTE",
            manufacturer: "LG",
            os: AndroidWear,
            class: CellularWearable,
            market_share: 0.22,
        },
        DeviceModel {
            name: "Watch Sport LTE",
            manufacturer: "LG",
            os: AndroidWear,
            class: CellularWearable,
            market_share: 0.10,
        },
        DeviceModel {
            name: "Huawei Watch 2 4G",
            manufacturer: "Huawei",
            os: AndroidWear,
            class: CellularWearable,
            market_share: 0.08,
        },
        // --- Through-device wearables (no SIM; relayed via phone) -----------
        DeviceModel {
            name: "Fitbit Charge 2",
            manufacturer: "Fitbit",
            os: Rtos,
            class: ThroughDeviceWearable,
            market_share: 0.30,
        },
        DeviceModel {
            name: "Mi Band 2",
            manufacturer: "Xiaomi",
            os: Rtos,
            class: ThroughDeviceWearable,
            market_share: 0.28,
        },
        DeviceModel {
            name: "Gear S3 Bluetooth",
            manufacturer: "Samsung",
            os: Tizen,
            class: ThroughDeviceWearable,
            market_share: 0.18,
        },
        DeviceModel {
            name: "Apple Watch Series 2",
            manufacturer: "Apple",
            os: WatchOs,
            class: ThroughDeviceWearable,
            market_share: 0.24,
        },
        // --- Smartphones (the "remaining customers" population) -------------
        DeviceModel {
            name: "Galaxy S8",
            manufacturer: "Samsung",
            os: Android,
            class: Smartphone,
            market_share: 0.16,
        },
        DeviceModel {
            name: "Galaxy S7",
            manufacturer: "Samsung",
            os: Android,
            class: Smartphone,
            market_share: 0.14,
        },
        DeviceModel {
            name: "Galaxy J5",
            manufacturer: "Samsung",
            os: Android,
            class: Smartphone,
            market_share: 0.12,
        },
        DeviceModel {
            name: "iPhone 7",
            manufacturer: "Apple",
            os: Ios,
            class: Smartphone,
            market_share: 0.15,
        },
        DeviceModel {
            name: "iPhone 6s",
            manufacturer: "Apple",
            os: Ios,
            class: Smartphone,
            market_share: 0.11,
        },
        DeviceModel {
            name: "P10 Lite",
            manufacturer: "Huawei",
            os: Android,
            class: Smartphone,
            market_share: 0.10,
        },
        DeviceModel {
            name: "Moto G5",
            manufacturer: "Motorola",
            os: Android,
            class: Smartphone,
            market_share: 0.08,
        },
        DeviceModel {
            name: "Xperia XA1",
            manufacturer: "Sony",
            os: Android,
            class: Smartphone,
            market_share: 0.06,
        },
        DeviceModel {
            name: "Redmi Note 4",
            manufacturer: "Xiaomi",
            os: Android,
            class: Smartphone,
            market_share: 0.08,
        },
        // --- Other SIM device classes present in a real network --------------
        DeviceModel {
            name: "Galaxy Tab A LTE",
            manufacturer: "Samsung",
            os: Android,
            class: Tablet,
            market_share: 0.6,
        },
        DeviceModel {
            name: "iPad Air 2 Cellular",
            manufacturer: "Apple",
            os: Ios,
            class: Tablet,
            market_share: 0.4,
        },
        DeviceModel {
            name: "Telemetry Module TM-200",
            manufacturer: "Telit",
            os: Rtos,
            class: M2m,
            market_share: 1.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_every_class() {
        let cat = standard_catalog();
        for class in [
            DeviceClass::CellularWearable,
            DeviceClass::ThroughDeviceWearable,
            DeviceClass::Smartphone,
            DeviceClass::Tablet,
            DeviceClass::M2m,
        ] {
            assert!(cat.iter().any(|m| m.class == class), "missing {class}");
        }
    }

    #[test]
    fn cellular_wearables_are_samsung_lg_dominated() {
        // Sec 4.1: "most users are using LG and Samsung SIM-enabled watches".
        let cat = standard_catalog();
        let share_of = |manufacturer: &str| -> f64 {
            cat.iter()
                .filter(|m| m.class == DeviceClass::CellularWearable)
                .filter(|m| m.manufacturer == manufacturer)
                .map(|m| m.market_share)
                .sum()
        };
        assert!(share_of("Samsung") + share_of("LG") > 0.8);
    }

    #[test]
    fn no_cellular_apple_watch() {
        // The operator in the paper does not support the Apple Watch 3.
        let cat = standard_catalog();
        assert!(!cat
            .iter()
            .any(|m| m.class == DeviceClass::CellularWearable && m.manufacturer == "Apple"));
    }

    #[test]
    fn wearable_shares_sum_to_one() {
        let cat = standard_catalog();
        let s: f64 = cat
            .iter()
            .filter(|m| m.class == DeviceClass::CellularWearable)
            .map(|m| m.market_share)
            .sum();
        assert!(
            (s - 1.0).abs() < 1e-9,
            "cellular wearable shares sum to {s}"
        );
        let s: f64 = cat
            .iter()
            .filter(|m| m.class == DeviceClass::ThroughDeviceWearable)
            .map(|m| m.market_share)
            .sum();
        assert!((s - 1.0).abs() < 1e-9, "through-device shares sum to {s}");
    }

    #[test]
    fn is_wearable_helper() {
        assert!(DeviceClass::CellularWearable.is_wearable());
        assert!(DeviceClass::ThroughDeviceWearable.is_wearable());
        assert!(!DeviceClass::Smartphone.is_wearable());
        assert!(!DeviceClass::M2m.is_wearable());
    }

    #[test]
    fn model_names_unique() {
        let cat = standard_catalog();
        let mut names: Vec<_> = cat.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len());
    }
}
