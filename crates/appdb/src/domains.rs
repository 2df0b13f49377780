//! Third-party domain classes and the third-party domain catalog.
//!
//! Section 5.2 categorizes wearable transactions, following Seneviratne et
//! al.'s smartphone-app taxonomy, into:
//! * **Applications** — first-party domains (the app developer's servers);
//! * **Utilities** — generic domains such as CDNs;
//! * **Analytics** — audience/engagement/revenue analytics services;
//! * **Advertising** — ad networks.

use core::fmt;
use std::sync::OnceLock;

/// The transaction category of a destination domain (Fig. 8's x-axis).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DomainClass {
    /// First-party app servers.
    Application,
    /// Generic infrastructure: CDNs, object storage, font/asset hosts.
    Utilities,
    /// Advertisement networks.
    Advertising,
    /// Analytics and telemetry services.
    Analytics,
}

impl DomainClass {
    /// All classes in Fig. 8 display order.
    pub const ALL: [DomainClass; 4] = [
        DomainClass::Application,
        DomainClass::Utilities,
        DomainClass::Advertising,
        DomainClass::Analytics,
    ];

    /// Dense index in [`DomainClass::ALL`].
    pub fn index(self) -> usize {
        match self {
            DomainClass::Application => 0,
            DomainClass::Utilities => 1,
            DomainClass::Advertising => 2,
            DomainClass::Analytics => 3,
        }
    }

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            DomainClass::Application => "Application",
            DomainClass::Utilities => "Utilities",
            DomainClass::Advertising => "Advertising",
            DomainClass::Analytics => "Analytics",
        }
    }
}

impl fmt::Display for DomainClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One third-party domain known to the classifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThirdPartyDomain {
    /// The domain suffix (matching covers all subdomains).
    pub domain: &'static str,
    /// Its class — never [`DomainClass::Application`].
    pub class: DomainClass,
}

/// The third-party domain catalog: the CDN, advertising, and analytics
/// endpoints wearable apps contact directly (Sec. 5.2).
pub fn third_party_domains() -> &'static [ThirdPartyDomain] {
    use DomainClass::*;
    const DOMAINS: &[ThirdPartyDomain] = &[
        // --- Utilities: CDNs and generic asset hosts -------------------------
        ThirdPartyDomain {
            domain: "akamaized.net",
            class: Utilities,
        },
        ThirdPartyDomain {
            domain: "akamaiedge.net",
            class: Utilities,
        },
        ThirdPartyDomain {
            domain: "cloudfront.net",
            class: Utilities,
        },
        ThirdPartyDomain {
            domain: "fastly.net",
            class: Utilities,
        },
        ThirdPartyDomain {
            domain: "gstatic.com",
            class: Utilities,
        },
        ThirdPartyDomain {
            domain: "googleusercontent.com",
            class: Utilities,
        },
        ThirdPartyDomain {
            domain: "cdn77.org",
            class: Utilities,
        },
        ThirdPartyDomain {
            domain: "edgecastcdn.net",
            class: Utilities,
        },
        ThirdPartyDomain {
            domain: "llnwd.net",
            class: Utilities,
        },
        ThirdPartyDomain {
            domain: "azureedge.net",
            class: Utilities,
        },
        // --- Advertising ------------------------------------------------------
        ThirdPartyDomain {
            domain: "doubleclick.net",
            class: Advertising,
        },
        ThirdPartyDomain {
            domain: "googlesyndication.com",
            class: Advertising,
        },
        ThirdPartyDomain {
            domain: "adcolony.com",
            class: Advertising,
        },
        ThirdPartyDomain {
            domain: "mopub.com",
            class: Advertising,
        },
        ThirdPartyDomain {
            domain: "inmobi.com",
            class: Advertising,
        },
        ThirdPartyDomain {
            domain: "adnxs.com",
            class: Advertising,
        },
        ThirdPartyDomain {
            domain: "unityads.unity3d.com",
            class: Advertising,
        },
        ThirdPartyDomain {
            domain: "applovin.com",
            class: Advertising,
        },
        // --- Analytics --------------------------------------------------------
        ThirdPartyDomain {
            domain: "google-analytics.com",
            class: Analytics,
        },
        ThirdPartyDomain {
            domain: "crashlytics.com",
            class: Analytics,
        },
        ThirdPartyDomain {
            domain: "flurry.com",
            class: Analytics,
        },
        ThirdPartyDomain {
            domain: "mixpanel.com",
            class: Analytics,
        },
        ThirdPartyDomain {
            domain: "segment.io",
            class: Analytics,
        },
        ThirdPartyDomain {
            domain: "appsflyer.com",
            class: Analytics,
        },
        ThirdPartyDomain {
            domain: "adjust.com",
            class: Analytics,
        },
        ThirdPartyDomain {
            domain: "branch.io",
            class: Analytics,
        },
    ];
    DOMAINS
}

/// The third-party domains of one class, in catalog order. Each class's
/// list is built once per process.
pub fn domains_of_class(class: DomainClass) -> &'static [&'static str] {
    static POOLS: OnceLock<[Vec<&'static str>; 4]> = OnceLock::new();
    let pools = POOLS.get_or_init(|| {
        DomainClass::ALL.map(|c| {
            third_party_domains()
                .iter()
                .filter(|d| d.class == c)
                .map(|d| d.domain)
                .collect()
        })
    });
    &pools[class.index()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_classes() {
        assert_eq!(DomainClass::ALL.len(), 4);
        for (i, c) in DomainClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn catalog_covers_all_third_party_classes() {
        for class in [
            DomainClass::Utilities,
            DomainClass::Advertising,
            DomainClass::Analytics,
        ] {
            assert!(
                domains_of_class(class).len() >= 5,
                "thin coverage for {class}"
            );
        }
    }

    #[test]
    fn no_application_entries() {
        assert!(third_party_domains()
            .iter()
            .all(|d| d.class != DomainClass::Application));
    }

    #[test]
    fn domains_unique() {
        let mut all: Vec<&str> = third_party_domains().iter().map(|d| d.domain).collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before);
    }
}
