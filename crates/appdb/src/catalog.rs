//! The 50-app catalog of Fig. 5.
//!
//! Apps appear in Fig. 5(a) *associated-users* rank order. Names are exactly
//! the paper's, including the anonymized ones ("News-App-1", "Bank-App-2" …)
//! the authors used for confidentiality. Category assignments follow Google
//! Play, with one documented deviation: the tap-and-go payment apps
//! (Samsung-Pay, Android-Pay) are counted under *Shopping*, which is the only
//! assignment consistent with Fig. 6(a) ranking Shopping second while Finance
//! (the bank apps) ranks near the bottom.

use crate::apps::{AppId, AppProfile, DomainMix, TrafficProfile};
use crate::category::AppCategory;

/// Builds a [`TrafficProfile`] from an archetype with per-app overrides.
macro_rules! profile {
    ($arch:ident) => {
        $arch
    };
    ($arch:ident, $($field:ident : $value:expr),+ $(,)?) => {
        TrafficProfile { $($field: $value,)+ ..$arch }
    };
}

// --- Behaviour archetypes ---------------------------------------------------
// Calibrated so the all-app transaction-size distribution is sharply centred
// around 3 KB with 80 % of transactions under 10 KB (Fig. 3(c)).

/// Notification-driven apps: many small pushes (weather, mail, messengers).
const NOTIFY: TrafficProfile = TrafficProfile {
    usages_per_active_day: 6.0,
    tx_per_usage: 4.0,
    median_tx_bytes: 2_200.0,
    sigma_tx_bytes: 1.0,
    mix: DomainMix {
        utilities: 0.14,
        advertising: 0.08,
        analytics: 0.13,
    },
};

/// Rich messaging / media exchange: fewer sessions, heavier payloads.
const MEDIA_MSG: TrafficProfile = TrafficProfile {
    usages_per_active_day: 4.0,
    tx_per_usage: 6.0,
    median_tx_bytes: 9_000.0,
    sigma_tx_bytes: 1.6,
    mix: DomainMix {
        utilities: 0.18,
        advertising: 0.06,
        analytics: 0.10,
    },
};

/// Audio/video streaming: long sessions, large transfers.
const STREAM: TrafficProfile = TrafficProfile {
    usages_per_active_day: 1.5,
    tx_per_usage: 8.0,
    median_tx_bytes: 32_000.0,
    sigma_tx_bytes: 1.5,
    mix: DomainMix {
        utilities: 0.25,
        advertising: 0.09,
        analytics: 0.09,
    },
};

/// Micro-interaction payments: a couple of tiny exchanges per use.
const PAYMENT: TrafficProfile = TrafficProfile {
    usages_per_active_day: 2.5,
    tx_per_usage: 2.0,
    median_tx_bytes: 1_400.0,
    sigma_tx_bytes: 0.7,
    mix: DomainMix {
        utilities: 0.08,
        advertising: 0.0,
        analytics: 0.10,
    },
};

/// Background sync (cloud drives, health data).
const SYNC: TrafficProfile = TrafficProfile {
    usages_per_active_day: 1.2,
    tx_per_usage: 3.0,
    median_tx_bytes: 6_000.0,
    sigma_tx_bytes: 1.4,
    mix: DomainMix {
        utilities: 0.15,
        advertising: 0.0,
        analytics: 0.08,
    },
};

/// Feed browsing (news, social, shopping).
const BROWSE: TrafficProfile = TrafficProfile {
    usages_per_active_day: 3.0,
    tx_per_usage: 5.0,
    median_tx_bytes: 3_200.0,
    sigma_tx_bytes: 1.3,
    mix: DomainMix {
        utilities: 0.20,
        advertising: 0.16,
        analytics: 0.14,
    },
};

/// Maps and navigation: tile fetches in bursts.
const MAPS: TrafficProfile = TrafficProfile {
    usages_per_active_day: 2.0,
    tx_per_usage: 6.0,
    median_tx_bytes: 5_500.0,
    sigma_tx_bytes: 1.2,
    mix: DomainMix {
        utilities: 0.22,
        advertising: 0.02,
        analytics: 0.06,
    },
};

/// Voice assistants and other micro-interaction tools.
const MICRO: TrafficProfile = TrafficProfile {
    usages_per_active_day: 3.0,
    tx_per_usage: 3.0,
    median_tx_bytes: 3_200.0,
    sigma_tx_bytes: 0.9,
    mix: DomainMix {
        utilities: 0.12,
        advertising: 0.05,
        analytics: 0.12,
    },
};

/// The catalog of all apps observed generating wearable cellular traffic.
///
/// # Examples
/// ```
/// use wearscope_appdb::{AppCatalog, AppCategory};
/// let cat = AppCatalog::standard();
/// assert_eq!(cat.len(), 50);
/// assert_eq!(cat.get(wearscope_appdb::AppId(0)).unwrap().name, "Weather");
/// assert!(cat.apps_in_category(AppCategory::Weather).count() >= 2);
/// ```
#[derive(Clone, Debug)]
pub struct AppCatalog {
    apps: Vec<AppProfile>,
}

impl AppCatalog {
    /// The paper's 50-app catalog.
    pub fn standard() -> AppCatalog {
        AppCatalog {
            apps: standard_apps(),
        }
    }

    /// A catalog from explicit profiles (for tests).
    pub fn from_apps(apps: Vec<AppProfile>) -> AppCatalog {
        AppCatalog { apps }
    }

    /// Number of apps.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// `true` if the catalog has no apps.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// The profile of `id`.
    pub fn get(&self, id: AppId) -> Option<&AppProfile> {
        self.apps.get(id.0 as usize)
    }

    /// Looks an app up by display name.
    pub fn by_name(&self, name: &str) -> Option<(AppId, &AppProfile)> {
        self.apps
            .iter()
            .enumerate()
            .find(|(_, a)| a.name == name)
            .map(|(i, a)| (AppId(i as u16), a))
    }

    /// Iterates `(AppId, profile)` in rank order.
    pub fn iter(&self) -> impl Iterator<Item = (AppId, &AppProfile)> {
        self.apps
            .iter()
            .enumerate()
            .map(|(i, a)| (AppId(i as u16), a))
    }

    /// All apps in `category`.
    pub fn apps_in_category(
        &self,
        category: AppCategory,
    ) -> impl Iterator<Item = (AppId, &AppProfile)> {
        self.iter().filter(move |(_, a)| a.category == category)
    }

    /// Popularity weights normalized to sum to 1, indexed by `AppId`.
    pub fn install_weights(&self) -> Vec<f64> {
        let total: f64 = self.apps.iter().map(|a| a.popularity).sum();
        self.apps.iter().map(|a| a.popularity / total).collect()
    }
}

/// Popularity weight for Fig. 5(a) rank `r` (0-based): exponential decay
/// spanning ~4 decades over 50 apps, matching the log-scale span of the
/// figure.
fn rank_weight(r: usize) -> f64 {
    0.829_f64.powi(r as i32)
}

fn standard_apps() -> Vec<AppProfile> {
    use AppCategory::*;
    let mut rank = 0usize;
    let mut app = |name: &'static str,
                   category: AppCategory,
                   domains: &'static [&'static str],
                   traffic: TrafficProfile| {
        let a = AppProfile {
            name,
            category,
            popularity: rank_weight(rank),
            domains,
            traffic,
        };
        rank += 1;
        a
    };

    vec![
        app(
            "Weather",
            Weather,
            &["wearable.weather.com", "api.weather.com"],
            NOTIFY,
        ),
        app(
            "Google-Maps",
            MapsNavigation,
            &["maps.googleapis.com", "maps.gstatic.com"],
            MAPS,
        ),
        app(
            "Accuweather",
            Weather,
            &["api.accuweather.com", "wear.accuweather.com"],
            NOTIFY,
        ),
        app(
            "Flipboard",
            NewsMagazines,
            &["fbprod.flipboard.com"],
            BROWSE,
        ),
        app(
            "YouTube",
            Entertainment,
            &["youtubei.googleapis.com", "yt3.ggpht.com"],
            STREAM,
        ),
        app(
            "Messenger",
            Communication,
            &["edge-chat.facebook.com", "api.messenger.com"],
            profile!(NOTIFY, usages_per_active_day: 8.0, tx_per_usage: 6.0, median_tx_bytes: 1_800.0),
        ),
        app(
            "Google-App",
            Tools,
            &["app.google.com", "assistant.google.com"],
            MICRO,
        ),
        app(
            "Facebook",
            Social,
            &["graph.facebook.com", "star.c10r.facebook.com"],
            BROWSE,
        ),
        app(
            "Samsung-Pay",
            Shopping,
            &["pay.samsung.com", "spay-api.samsung.com"],
            PAYMENT,
        ),
        app(
            "Android-Pay",
            Shopping,
            &["pay.google.com", "androidpay.googleapis.com"],
            PAYMENT,
        ),
        app(
            "Roaming-App",
            TravelLocal,
            &["roaming.operator-selfcare.com"],
            MICRO,
        ),
        app(
            "WhatsApp",
            Communication,
            &["g.whatsapp.net", "mmg.whatsapp.net"],
            profile!(MEDIA_MSG, usages_per_active_day: 6.0, median_tx_bytes: 12_000.0),
        ),
        app(
            "Outlook",
            Productivity,
            &["outlook.office365.com", "substrate.office.com"],
            profile!(NOTIFY, usages_per_active_day: 7.0, tx_per_usage: 5.0, median_tx_bytes: 1_600.0),
        ),
        app(
            "Street-View",
            TravelLocal,
            &["streetviewpixels-pa.googleapis.com"],
            MAPS,
        ),
        app(
            "MMS",
            Communication,
            &["mms.operator.com"],
            profile!(MICRO, median_tx_bytes: 16_000.0, sigma_tx_bytes: 1.1),
        ),
        app(
            "Twitter",
            Social,
            &["api.twitter.com", "pbs.twimg.com"],
            BROWSE,
        ),
        app(
            "Skype",
            Communication,
            &["api.skype.com", "edge.skype.com"],
            MEDIA_MSG,
        ),
        app("S-Voice", Tools, &["svoice.samsungsvc.com"], MICRO),
        app("Ebay", Shopping, &["api.ebay.com", "i.ebayimg.com"], BROWSE),
        app(
            "Spotify",
            MusicAudio,
            &["spclient.wg.spotify.com", "audio-fa.scdn.co"],
            STREAM,
        ),
        app(
            "News-App-1",
            NewsMagazines,
            &["feed.news-app-one.com"],
            BROWSE,
        ),
        app(
            "Opera-Mini",
            Communication,
            &["mini5-1.opera-mini.net"],
            BROWSE,
        ),
        app(
            "Dropbox",
            Productivity,
            &["api.dropboxapi.com", "content.dropboxapi.com"],
            SYNC,
        ),
        app(
            "News-App-3",
            NewsMagazines,
            &["cdn.news-app-three.com"],
            BROWSE,
        ),
        app(
            "Snapchat",
            Social,
            &["app.snapchat.com", "sc-cdn.net"],
            profile!(MEDIA_MSG, median_tx_bytes: 14_000.0),
        ),
        app("OneDrive", Productivity, &["api.onedrive.com"], SYNC),
        app(
            "Amazon",
            Shopping,
            &["api.amazon.com", "images-amazon.com"],
            BROWSE,
        ),
        app("PayPal", Finance, &["api.paypal.com"], PAYMENT),
        app("Metro", MapsNavigation, &["api.metro-transit.app"], MICRO),
        app("Tools-App-2", Tools, &["sync.tools-app-two.io"], MICRO),
        app("Bank-App-1", Finance, &["mobile.bank-one.com"], PAYMENT),
        app(
            "S-Health",
            HealthFitness,
            &["shealth.samsunghealth.com"],
            SYNC,
        ),
        app(
            "Deezer",
            MusicAudio,
            &["api.deezer.com", "cdns-files.dzcdn.net"],
            profile!(STREAM, median_tx_bytes: 42_000.0),
        ),
        app("Viber", Communication, &["api.viber.com"], MEDIA_MSG),
        app(
            "Netflix",
            Entertainment,
            &["api-global.netflix.com", "nflxvideo.net"],
            STREAM,
        ),
        app("Tools-App-1", Tools, &["api.tools-app-one.io"], MICRO),
        app(
            "Travel-App",
            TravelLocal,
            &["api.travel-app.example"],
            profile!(BROWSE, median_tx_bytes: 8_000.0),
        ),
        app(
            "News-App-2",
            NewsMagazines,
            &["wire.news-app-two.com"],
            BROWSE,
        ),
        app(
            "Golf-NAVI",
            Sports,
            &["api.golf-navi.app"],
            profile!(MAPS, usages_per_active_day: 3.0),
        ),
        app(
            "Navigation-App",
            MapsNavigation,
            &["route.navigation-app.example"],
            profile!(MAPS, median_tx_bytes: 7_000.0),
        ),
        app("TrueCaller", Communication, &["api4.truecaller.com"], MICRO),
        app("Reddit", Social, &["oauth.reddit.com", "i.redd.it"], BROWSE),
        app("Uber", TravelLocal, &["cn-geo1.uber.com"], MICRO),
        app(
            "Bank-App-2",
            Finance,
            &["wear.bank-two.com"],
            profile!(PAYMENT, median_tx_bytes: 2_600.0, sigma_tx_bytes: 1.2),
        ),
        app("Nike-Running", Sports, &["api.nike.com"], SYNC),
        app(
            "Sweatcoin",
            Sports,
            &["api.sweatco.in"],
            profile!(SYNC, usages_per_active_day: 2.0, median_tx_bytes: 3_000.0),
        ),
        app(
            "Daily-Star",
            NewsMagazines,
            &["cdn.dailystar.example"],
            BROWSE,
        ),
        app("Badoo", Lifestyle, &["api.badoo.com"], BROWSE),
        app("Bank-App-3", Finance, &["app.bank-three.com"], PAYMENT),
        app("TV-Guide", Entertainment, &["epg.tv-guide.example"], NOTIFY),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifty_apps_in_rank_order() {
        let cat = AppCatalog::standard();
        assert_eq!(cat.len(), 50);
        // Popularity strictly decreasing with rank, spanning ~4 decades.
        let mut prev = f64::INFINITY;
        for (_, a) in cat.iter() {
            assert!(a.popularity < prev);
            prev = a.popularity;
        }
        let first = cat.get(AppId(0)).unwrap().popularity;
        let last = cat.get(AppId(49)).unwrap().popularity;
        let decades = (first / last).log10();
        assert!((3.5..4.5).contains(&decades), "span {decades} decades");
    }

    #[test]
    fn top_three_match_paper() {
        let cat = AppCatalog::standard();
        let names: Vec<&str> = (0..3).map(|i| cat.get(AppId(i)).unwrap().name).collect();
        assert_eq!(names, ["Weather", "Google-Maps", "Accuweather"]);
    }

    #[test]
    fn names_unique_and_lookup_works() {
        let cat = AppCatalog::standard();
        let mut names: Vec<&str> = cat.iter().map(|(_, a)| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 50);
        let (id, app) = cat.by_name("WhatsApp").unwrap();
        assert_eq!(cat.get(id).unwrap().name, app.name);
        assert!(cat.by_name("NoSuchApp").is_none());
    }

    #[test]
    fn every_category_is_populated() {
        let cat = AppCatalog::standard();
        for c in AppCategory::ALL {
            assert!(
                cat.apps_in_category(c).count() >= 1,
                "category {c} has no apps"
            );
        }
    }

    #[test]
    fn payment_apps_counted_as_shopping() {
        let cat = AppCatalog::standard();
        for name in ["Samsung-Pay", "Android-Pay"] {
            assert_eq!(cat.by_name(name).unwrap().1.category, AppCategory::Shopping);
        }
        for name in ["Bank-App-1", "Bank-App-2", "Bank-App-3", "PayPal"] {
            assert_eq!(cat.by_name(name).unwrap().1.category, AppCategory::Finance);
        }
    }

    #[test]
    fn all_domain_mixes_valid() {
        let cat = AppCatalog::standard();
        for (_, a) in cat.iter() {
            let mix = a.traffic.mix;
            let shares = [mix.utilities, mix.advertising, mix.analytics];
            assert!(
                shares.iter().all(|x| (0.0..=1.0).contains(x)) && mix.application() >= -1e-9,
                "{} has invalid mix",
                a.name
            );
            assert!(!a.domains.is_empty(), "{} has no domains", a.name);
            assert!(a.traffic.median_tx_bytes > 0.0);
            assert!(a.traffic.usages_per_active_day > 0.0);
        }
    }

    #[test]
    fn install_weights_normalized() {
        let cat = AppCatalog::standard();
        let w = cat.install_weights();
        assert_eq!(w.len(), 50);
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Rank order preserved.
        assert!(w[0] > w[1] && w[1] > w[10] && w[10] > w[49]);
    }

    #[test]
    fn domains_unique_across_apps() {
        let cat = AppCatalog::standard();
        let mut all: Vec<&str> = cat
            .iter()
            .flat_map(|(_, a)| a.domains.iter().copied())
            .collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            before,
            "a first-party domain is shared by two apps"
        );
    }

    #[test]
    fn heavy_apps_are_heavier_per_usage_than_payments() {
        // Shape check backing Fig. 7: WhatsApp/Deezer/Snapchat per-usage bytes
        // dominate the payment apps by orders of magnitude.
        let cat = AppCatalog::standard();
        let per_usage = |name: &str| {
            let t = cat.by_name(name).unwrap().1.traffic;
            // Log-normal mean: median · exp(σ²/2).
            t.tx_per_usage * t.median_tx_bytes * (t.sigma_tx_bytes.powi(2) / 2.0).exp()
        };
        for heavy in ["WhatsApp", "Deezer", "Snapchat"] {
            for light in ["Samsung-Pay", "TrueCaller", "Bank-App-3"] {
                assert!(
                    per_usage(heavy) > 12.0 * per_usage(light),
                    "{heavy} vs {light}"
                );
            }
        }
    }
}
