//! Through-Device wearable fingerprinting (Sec. 6).
//!
//! Most wearables on the market relay traffic through a paired smartphone,
//! so they never appear in MME logs under their own IMEI. The paper's
//! conclusion fingerprints them from the *smartphone's* proxy log instead:
//! * Fitbit and Xiaomi (Mi Fit) sync traffic is attributable to a wearable
//!   outright — those vendors' trackers have no other reason to phone home;
//! * for generic Android/Apple wearables, the wearable-specific endpoints of
//!   three popular apps (AccuWeather, Strava, Runtastic) "can safely indicate
//!   that the user has an active wearable device".

use core::fmt;

use crate::classify::normalize_host;

/// What kind of Through-Device wearable a fingerprint indicates.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ThroughDeviceKind {
    /// Fitbit tracker sync traffic.
    Fitbit,
    /// Xiaomi (Mi Fit) tracker sync traffic.
    Xiaomi,
    /// A generic Android Wear device inferred from companion-app endpoints.
    GenericAndroid,
    /// A generic Apple Watch inferred from companion-app endpoints.
    GenericApple,
}

impl ThroughDeviceKind {
    /// All kinds.
    pub const ALL: [ThroughDeviceKind; 4] = [
        ThroughDeviceKind::Fitbit,
        ThroughDeviceKind::Xiaomi,
        ThroughDeviceKind::GenericAndroid,
        ThroughDeviceKind::GenericApple,
    ];

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            ThroughDeviceKind::Fitbit => "Fitbit",
            ThroughDeviceKind::Xiaomi => "Xiaomi",
            ThroughDeviceKind::GenericAndroid => "Generic-Android",
            ThroughDeviceKind::GenericApple => "Generic-Apple",
        }
    }
}

impl fmt::Display for ThroughDeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The fingerprint signature table: `(host suffix, kind)`.
///
/// Hosts are matched by domain-label suffix, like the SNI classifier.
pub const SIGNATURES: &[(&str, ThroughDeviceKind)] = &[
    // Vendor sync endpoints — direct attribution.
    ("android-api.fitbit.com", ThroughDeviceKind::Fitbit),
    ("sync.fitbit.com", ThroughDeviceKind::Fitbit),
    ("api.mi-fit.huami.com", ThroughDeviceKind::Xiaomi),
    ("band.xiaomi.com", ThroughDeviceKind::Xiaomi),
    // Companion-app wearable endpoints — generic attribution.
    ("wear.accuweather.com", ThroughDeviceKind::GenericAndroid),
    (
        "wearable-gateway.strava.com",
        ThroughDeviceKind::GenericAndroid,
    ),
    ("watch.runtastic.com", ThroughDeviceKind::GenericAndroid),
    ("watch-api.accuweather.com", ThroughDeviceKind::GenericApple),
    ("applewatch.strava.com", ThroughDeviceKind::GenericApple),
    ("watchos.runtastic.com", ThroughDeviceKind::GenericApple),
];

/// Fingerprints a proxy-log host; `None` if it carries no wearable signal.
/// The host is normalized as [`crate::SniClassifier::classify`] normalizes
/// it, so a port, scheme, path or case does not hide a signature.
///
/// # Examples
/// ```
/// use wearscope_appdb::{fingerprint_host, ThroughDeviceKind};
/// assert_eq!(
///     fingerprint_host("eu.sync.fitbit.com"),
///     Some(ThroughDeviceKind::Fitbit)
/// );
/// assert_eq!(
///     fingerprint_host("https://eu.sync.fitbit.com:443/v1"),
///     Some(ThroughDeviceKind::Fitbit)
/// );
/// assert_eq!(fingerprint_host("www.fitbit.com"), None); // storefront ≠ tracker
/// ```
pub fn fingerprint_host(host: &str) -> Option<ThroughDeviceKind> {
    let host = normalize_host(host);
    for (sig, kind) in SIGNATURES {
        if suffix_matches(&host, sig) {
            return Some(*kind);
        }
    }
    None
}

/// `true` if `host` equals `sig` or ends with `".{sig}"` on a label boundary.
fn suffix_matches(host: &str, sig: &str) -> bool {
    host == sig
        || (host.len() > sig.len()
            && host.ends_with(sig)
            && host.as_bytes()[host.len() - sig.len() - 1] == b'.')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendor_endpoints_fingerprint() {
        assert_eq!(
            fingerprint_host("android-api.fitbit.com"),
            Some(ThroughDeviceKind::Fitbit)
        );
        assert_eq!(
            fingerprint_host("api.mi-fit.huami.com"),
            Some(ThroughDeviceKind::Xiaomi)
        );
    }

    #[test]
    fn companion_endpoints_fingerprint() {
        assert_eq!(
            fingerprint_host("wear.accuweather.com"),
            Some(ThroughDeviceKind::GenericAndroid)
        );
        assert_eq!(
            fingerprint_host("applewatch.strava.com"),
            Some(ThroughDeviceKind::GenericApple)
        );
    }

    #[test]
    fn non_wearable_hosts_do_not_fingerprint() {
        for host in [
            "www.fitbit.com",
            "api.accuweather.com",
            "strava.com",
            "graph.facebook.com",
            "",
        ] {
            assert_eq!(fingerprint_host(host), None, "false positive on {host}");
        }
    }

    #[test]
    fn suffix_respects_label_boundary() {
        assert_eq!(fingerprint_host("notsync.fitbit.com"), None);
        assert_eq!(
            fingerprint_host("x.sync.fitbit.com"),
            Some(ThroughDeviceKind::Fitbit)
        );
    }

    #[test]
    fn normalized_like_the_classifier() {
        for host in [
            "SYNC.FITBIT.COM.",
            "eu.sync.fitbit.com:443",
            "https://eu.sync.fitbit.com/v1",
            "user@eu.sync.fitbit.com",
        ] {
            assert_eq!(
                fingerprint_host(host),
                Some(ThroughDeviceKind::Fitbit),
                "failed for {host:?}"
            );
        }
    }

    #[test]
    fn all_kinds_reachable() {
        let mut seen: Vec<ThroughDeviceKind> = SIGNATURES.iter().map(|(_, k)| *k).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), ThroughDeviceKind::ALL.len());
    }
}
