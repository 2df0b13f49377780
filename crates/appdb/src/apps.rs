//! Per-app profile types.

use core::fmt;

use crate::category::AppCategory;

/// Identifier of an app within an [`crate::AppCatalog`]; dense, in Fig. 5(a)
/// popularity-rank order (0 = most popular).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u16);

impl AppId {
    /// The raw index.
    #[inline]
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Debug for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app#{}", self.0)
    }
}

/// Fractions of an app's transactions addressed to each third-party domain
/// class; the remainder goes to the app's first-party (*Application*) domain.
///
/// Section 5.2 observes that third-party advertising + analytics volume is of
/// the same order of magnitude as first-party volume, so realistic mixes
/// matter for Fig. 8.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DomainMix {
    /// Share of transactions to generic CDNs / utility domains.
    pub utilities: f64,
    /// Share of transactions to advertisement networks.
    pub advertising: f64,
    /// Share of transactions to analytics services.
    pub analytics: f64,
}

impl DomainMix {
    /// A mix with no third-party traffic at all.
    pub const FIRST_PARTY_ONLY: DomainMix = DomainMix {
        utilities: 0.0,
        advertising: 0.0,
        analytics: 0.0,
    };

    /// The first-party remainder share.
    pub fn application(&self) -> f64 {
        1.0 - self.utilities - self.advertising - self.analytics
    }
}

/// How an app talks to the network when it is used — the generator-facing
/// half of an [`AppProfile`]. All parameters are per *usage session* (the
/// paper's unit in Figs. 5(b) and 7: consecutive transactions less than one
/// minute apart).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrafficProfile {
    /// Mean usage sessions per day on days the app is used at all.
    pub usages_per_active_day: f64,
    /// Mean transactions per usage session (geometrically distributed).
    pub tx_per_usage: f64,
    /// Median bytes of one transaction (log-normal body).
    pub median_tx_bytes: f64,
    /// Log-normal sigma of the per-transaction byte size.
    pub sigma_tx_bytes: f64,
    /// Third-party transaction mix.
    pub mix: DomainMix,
}

/// Everything the study knows about one wearable app.
#[derive(Clone, Debug, PartialEq)]
pub struct AppProfile {
    /// Display name as in Fig. 5 (some names are anonymized, e.g.
    /// "News-App-1", exactly as the paper did for confidentiality).
    pub name: &'static str,
    /// Google Play category.
    pub category: AppCategory,
    /// Popularity weight; the catalog normalizes these into install/usage
    /// probabilities. Decreasing in Fig. 5(a) rank.
    pub popularity: f64,
    /// First-party domains whose SNI identifies this app.
    pub domains: &'static [&'static str],
    /// Network behaviour.
    pub traffic: TrafficProfile,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn application_share_is_the_remainder() {
        assert_eq!(DomainMix::FIRST_PARTY_ONLY.application(), 1.0);
        let m = DomainMix {
            utilities: 0.2,
            advertising: 0.1,
            analytics: 0.1,
        };
        assert!((m.application() - 0.6).abs() < 1e-12);
    }
}
