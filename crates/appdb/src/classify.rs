//! SNI/URL-host classification: the Sec. 3.3 app-identification pipeline.
//!
//! The transparent proxy logs the SNI for HTTPS and the full URL for HTTP;
//! classification maps the host to either a first-party app or a third-party
//! domain class by **longest-suffix matching** on domain labels, implemented
//! as a trie keyed on reversed labels (`com` → `facebook` → `graph`). This
//! matches how real SNI signature sets behave: a signature for
//! `facebook.com` covers `graph.facebook.com` unless a more specific
//! signature exists.

use std::collections::HashMap;

use crate::apps::AppId;
use crate::catalog::AppCatalog;
use crate::domains::{third_party_domains, DomainClass};

/// The result of classifying one destination host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Classification {
    /// Traffic to an identified app's first-party servers.
    FirstParty(AppId),
    /// Traffic to a known third-party service of the given class.
    ThirdParty(DomainClass),
}

impl Classification {
    /// The Fig. 8 domain class of this classification.
    pub fn domain_class(self) -> DomainClass {
        match self {
            Classification::FirstParty(_) => DomainClass::Application,
            Classification::ThirdParty(c) => c,
        }
    }

    /// The app, when first-party.
    pub fn app(self) -> Option<AppId> {
        match self {
            Classification::FirstParty(a) => Some(a),
            Classification::ThirdParty(_) => None,
        }
    }
}

#[derive(Debug, Default)]
struct Node {
    children: HashMap<Box<str>, Node>,
    /// Classification for the suffix ending at this node.
    leaf: Option<Classification>,
}

/// Longest-suffix host classifier.
///
/// # Examples
/// ```
/// use wearscope_appdb::{AppCatalog, SniClassifier, Classification, DomainClass};
/// let cat = AppCatalog::standard();
/// let clf = SniClassifier::build(&cat);
/// let facebook = cat.by_name("Facebook").unwrap().0;
/// assert_eq!(
///     clf.classify("graph.facebook.com"),
///     Some(Classification::FirstParty(facebook))
/// );
/// assert_eq!(
///     clf.classify("stats.g.doubleclick.net").unwrap().domain_class(),
///     DomainClass::Advertising
/// );
/// assert_eq!(clf.classify("unknown.example.org"), None);
/// ```
#[derive(Debug)]
pub struct SniClassifier {
    root: Node,
    num_signatures: usize,
}

impl SniClassifier {
    /// Builds a classifier over a catalog's first-party domains plus the
    /// built-in third-party catalog.
    pub fn build(catalog: &AppCatalog) -> SniClassifier {
        let mut clf = SniClassifier {
            root: Node::default(),
            num_signatures: 0,
        };
        for (id, app) in catalog.iter() {
            for domain in app.domains {
                clf.insert(domain, Classification::FirstParty(id));
            }
        }
        for tp in third_party_domains() {
            clf.insert(tp.domain, Classification::ThirdParty(tp.class));
        }
        clf
    }

    /// Builds a classifier with only the third-party catalog (no apps).
    pub fn third_party_only() -> SniClassifier {
        SniClassifier::build(&AppCatalog::from_apps(Vec::new()))
    }

    /// Number of signatures inserted.
    pub fn num_signatures(&self) -> usize {
        self.num_signatures
    }

    /// Adds a signature: `domain` and every subdomain classify as `class`,
    /// unless a longer signature overrides. Later insertions of the same
    /// suffix replace earlier ones.
    pub fn insert(&mut self, domain: &str, class: Classification) {
        let normalized = normalize_host(domain);
        let mut node = &mut self.root;
        for label in normalized.rsplit('.') {
            node = node.children.entry(label.into()).or_default();
        }
        if node.leaf.replace(class).is_none() {
            self.num_signatures += 1;
        }
    }

    /// Classifies a host (SNI or URL host); `None` if no signature matches.
    pub fn classify(&self, host: &str) -> Option<Classification> {
        let normalized = normalize_host(host);
        let mut node = &self.root;
        let mut best = node.leaf;
        // An empty label is a label like any other: `facebook..com` is
        // not `facebook.com`, while `cdn..facebook.com` is under it.
        for label in normalized.rsplit('.') {
            match node.children.get(label) {
                Some(next) => {
                    node = next;
                    if node.leaf.is_some() {
                        best = node.leaf;
                    }
                }
                None => break,
            }
        }
        best
    }
}

/// Lowercases and strips port, scheme, path, userinfo, and leading and
/// trailing dots — tolerant of being handed a full URL instead of a bare
/// host. Both the classifier and [`crate::fingerprint_host`] match on this
/// form.
pub fn normalize_host(raw: &str) -> String {
    let s = raw.trim();
    let s = s.split_once("://").map_or(s, |(_, rest)| rest);
    let s = s.split(['/', '?', '#']).next().unwrap_or(s);
    let s = s.rsplit('@').next().unwrap_or(s);
    let s = s.split(':').next().unwrap_or(s);
    s.trim_matches('.').to_ascii_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{AppProfile, DomainMix, TrafficProfile};
    use crate::category::AppCategory;

    fn tiny_catalog() -> AppCatalog {
        let traffic = TrafficProfile {
            usages_per_active_day: 1.0,
            tx_per_usage: 1.0,
            median_tx_bytes: 1000.0,
            sigma_tx_bytes: 1.0,
            mix: DomainMix::FIRST_PARTY_ONLY,
        };
        AppCatalog::from_apps(vec![
            AppProfile {
                name: "A",
                category: AppCategory::Weather,
                popularity: 1.0,
                domains: &["a.example.com"],
                traffic,
            },
            AppProfile {
                name: "B",
                category: AppCategory::Social,
                popularity: 0.5,
                domains: &["b.example.com", "example.com"],
                traffic,
            },
        ])
    }

    #[test]
    fn longest_suffix_wins() {
        let clf = SniClassifier::build(&tiny_catalog());
        // a.example.com → app A even though example.com → app B.
        assert_eq!(
            clf.classify("cdn.a.example.com"),
            Some(Classification::FirstParty(AppId(0)))
        );
        assert_eq!(
            clf.classify("x.example.com"),
            Some(Classification::FirstParty(AppId(1)))
        );
        assert_eq!(
            clf.classify("example.com"),
            Some(Classification::FirstParty(AppId(1)))
        );
    }

    #[test]
    fn partial_label_is_not_a_match() {
        let clf = SniClassifier::build(&tiny_catalog());
        // "notexample.com" must not match "example.com".
        assert_eq!(clf.classify("notexample.com"), None);
        assert_eq!(clf.classify("com"), None);
    }

    #[test]
    fn an_empty_label_is_not_skipped() {
        let clf = SniClassifier::build(&tiny_catalog());
        assert_eq!(clf.classify("example..com"), None);
        assert_eq!(
            clf.classify("cdn..example.com"),
            Some(Classification::FirstParty(AppId(1)))
        );
    }

    #[test]
    fn normalization_tolerates_urls_ports_case() {
        let clf = SniClassifier::build(&tiny_catalog());
        for host in [
            "HTTPS://A.EXAMPLE.COM/path?q=1",
            "a.example.com:443",
            "a.example.com.",
            "  a.example.com  ",
            "user@a.example.com",
        ] {
            assert_eq!(
                clf.classify(host),
                Some(Classification::FirstParty(AppId(0))),
                "failed for {host:?}"
            );
        }
    }

    #[test]
    fn standard_catalog_apps_all_classify() {
        let cat = AppCatalog::standard();
        let clf = SniClassifier::build(&cat);
        for (id, app) in cat.iter() {
            for domain in app.domains {
                let sub = format!("edge7.{domain}");
                assert_eq!(
                    clf.classify(&sub),
                    Some(Classification::FirstParty(id)),
                    "{domain} misclassified"
                );
            }
        }
    }

    #[test]
    fn third_party_classes() {
        let clf = SniClassifier::build(&AppCatalog::standard());
        assert_eq!(
            clf.classify("ads.doubleclick.net").unwrap().domain_class(),
            DomainClass::Advertising
        );
        assert_eq!(
            clf.classify("ssl.google-analytics.com")
                .unwrap()
                .domain_class(),
            DomainClass::Analytics
        );
        assert_eq!(
            clf.classify("media.akamaized.net").unwrap().domain_class(),
            DomainClass::Utilities
        );
        assert!(clf.classify("ads.doubleclick.net").unwrap().app().is_none());
    }

    #[test]
    fn replacement_keeps_signature_count() {
        let mut clf = SniClassifier::third_party_only();
        let before = clf.num_signatures();
        clf.insert(
            "doubleclick.net",
            Classification::ThirdParty(DomainClass::Utilities),
        );
        assert_eq!(clf.num_signatures(), before);
        assert_eq!(
            clf.classify("doubleclick.net").unwrap().domain_class(),
            DomainClass::Utilities
        );
    }

    #[test]
    fn empty_host_is_none() {
        let clf = SniClassifier::build(&tiny_catalog());
        assert_eq!(clf.classify(""), None);
        assert_eq!(clf.classify("..."), None);
    }
}
