//! Property-based tests for the SNI classifier.

use proptest::prelude::*;
use wearscope_appdb::classify::normalize_host;
use wearscope_appdb::fingerprints::SIGNATURES;
use wearscope_appdb::{
    fingerprint_host, third_party_domains, AppCatalog, AppId, Classification, SignatureLearner,
    SniClassifier,
};

fn label() -> impl Strategy<Value = String> {
    "[a-z0-9][a-z0-9-]{0,8}".prop_map(|s| s)
}

/// Every signature the classifier is built from, in insertion order:
/// the catalog's first-party domains, then the third-party catalog.
fn signatures(catalog: &AppCatalog) -> Vec<(&'static str, Classification)> {
    let mut sigs = Vec::new();
    for (id, app) in catalog.iter() {
        for domain in app.domains {
            sigs.push((*domain, Classification::FirstParty(id)));
        }
    }
    for tp in third_party_domains() {
        sigs.push((tp.domain, Classification::ThirdParty(tp.class)));
    }
    sigs
}

/// The linear scan the trie replaced, as the oracle: the longest
/// signature that is the normalised host, or ends it at a label boundary.
fn linear_classify(longest_first: &[(&str, Classification)], host: &str) -> Option<Classification> {
    let host = normalize_host(host);
    longest_first
        .iter()
        .find(|(sig, _)| {
            host == *sig
                || (host.len() > sig.len()
                    && host.ends_with(sig)
                    && host.as_bytes()[host.len() - sig.len() - 1] == b'.')
        })
        .map(|&(_, class)| class)
}

proptest! {
    /// Prepending arbitrary labels to a signed domain never changes the
    /// classification (unless it forms a longer signature, which random
    /// labels will not).
    #[test]
    fn subdomains_inherit_classification(
        app_idx in 0usize..50,
        subs in prop::collection::vec(label(), 0..4),
    ) {
        let cat = AppCatalog::standard();
        let clf = SniClassifier::build(&cat);
        let (id, app) = cat.iter().nth(app_idx).unwrap();
        let base = app.domains[0];
        let host = if subs.is_empty() {
            base.to_string()
        } else {
            format!("{}.{}", subs.join("."), base)
        };
        prop_assert_eq!(clf.classify(&host), Some(Classification::FirstParty(id)));
    }

    /// Random hosts that do not end in any signature never classify, and
    /// classification never panics on arbitrary junk.
    #[test]
    fn random_hosts_do_not_false_positive(labels in prop::collection::vec(label(), 1..5)) {
        let cat = AppCatalog::standard();
        let clf = SniClassifier::build(&cat);
        let host = format!("{}.zz-unsigned-tld", labels.join("."));
        prop_assert_eq!(clf.classify(&host), None);
        let _ = fingerprint_host(&host);
    }

    /// classify is invariant under case, trailing dots, ports, and paths.
    #[test]
    fn classify_normalization_invariance(
        app_idx in 0usize..50,
        port in 1u16..u16::MAX,
        path in "[a-z]{0,6}",
    ) {
        let cat = AppCatalog::standard();
        let clf = SniClassifier::build(&cat);
        let (_, app) = cat.iter().nth(app_idx).unwrap();
        let base = app.domains[0];
        let plain = clf.classify(base);
        prop_assert_eq!(clf.classify(&base.to_ascii_uppercase()), plain);
        prop_assert_eq!(clf.classify(&format!("{base}:{port}")), plain);
        prop_assert_eq!(clf.classify(&format!("https://{base}/{path}")), plain);
        prop_assert_eq!(clf.classify(&format!("{base}.")), plain);
    }

    /// fingerprint_host normalizes exactly as classify does: case, trailing
    /// dots, ports, and schemes with paths never hide a signature.
    #[test]
    fn fingerprint_normalization_invariance(
        sig_idx in 0usize..SIGNATURES.len(),
        sub in prop::option::of(label()),
        port in 1u16..u16::MAX,
        path in "[a-z]{0,6}",
    ) {
        let (sig, kind) = SIGNATURES[sig_idx];
        let base = match sub {
            Some(sub) => format!("{sub}.{sig}"),
            None => sig.to_string(),
        };
        prop_assert_eq!(fingerprint_host(&base), Some(kind));
        prop_assert_eq!(fingerprint_host(&base.to_ascii_uppercase()), Some(kind));
        prop_assert_eq!(fingerprint_host(&format!("{base}:{port}")), Some(kind));
        prop_assert_eq!(fingerprint_host(&format!("https://{base}/{path}")), Some(kind));
        prop_assert_eq!(fingerprint_host(&format!("{base}.")), Some(kind));
    }

    /// The trie agrees with the linear longest-suffix scan on every signed
    /// domain dressed the same way: random subdomain labels (empty ones
    /// too), mixed case, a run of printable junk spliced in anywhere, and
    /// one of the URL forms the normalisation strips.
    #[test]
    fn trie_matches_the_linear_scan(
        subs in prop::collection::vec("[a-zA-Z0-9-]{0,6}", 0..4),
        upper in any::<u64>(),
        junk in "[ -~]{0,4}",
        junk_at in 0usize..64,
        form in 0usize..5,
    ) {
        let catalog = AppCatalog::standard();
        let clf = SniClassifier::build(&catalog);
        let sigs = signatures(&catalog);
        let mut longest_first = sigs.clone();
        longest_first.sort_by_key(|(sig, _)| std::cmp::Reverse(sig.len()));
        for (sig, _) in sigs {
            let plain: String = subs.iter().map(|s| format!("{s}.")).collect::<String>() + sig;
            let mut host: String = plain
                .chars()
                .enumerate()
                .map(|(i, c)| if upper >> (i % 64) & 1 == 1 { c.to_ascii_uppercase() } else { c })
                .collect();
            host.insert_str(junk_at % (host.len() + 1), &junk);
            let host = match form {
                0 => format!("https://{host}/path"),
                1 => format!("{host}:443"),
                2 => format!("{host}."),
                3 => format!("user@{host}"),
                _ => host,
            };
            let (trie, linear) = (clf.classify(&host), linear_classify(&longest_first, &host));
            prop_assert!(trie == linear, "{host:?}: trie {trie:?}, linear scan {linear:?}");
        }
    }

    /// Arbitrary junk input never panics the classifier.
    #[test]
    fn classify_total_on_junk(s in "\\PC{0,40}") {
        let clf = SniClassifier::build(&AppCatalog::standard());
        let _ = clf.classify(&s);
        let _ = fingerprint_host(&s);
    }

    /// The signature learner never produces a classifier that contradicts
    /// its own training data: a training host either classifies to its
    /// label or (when shared) to nothing — never to a different app.
    #[test]
    fn learner_never_contradicts_training(
        observations in prop::collection::vec(
            ("[a-d]{1,4}\\.[a-f]{1,5}\\.(com|net|org)", 0u16..6),
            1..40,
        ),
    ) {
        let mut learner = SignatureLearner::new();
        for (host, label) in &observations {
            learner.observe(host, AppId(*label));
        }
        let clf = learner.into_classifier();
        // Collect the (host → label set) truth.
        let mut truth: std::collections::HashMap<String, std::collections::HashSet<u16>> =
            std::collections::HashMap::new();
        for (host, label) in &observations {
            truth.entry(host.to_ascii_lowercase()).or_default().insert(*label);
        }
        for (host, labels) in &truth {
            if let Some(Classification::FirstParty(app)) = clf.classify(host) {
                prop_assert!(
                    labels.contains(&app.raw()),
                    "host {host} labelled {labels:?} classified to wrong app {app:?}"
                );
                // Unambiguous hosts must classify to exactly their label.
                if labels.len() == 1 {
                    prop_assert!(labels.contains(&app.raw()));
                }
            }
        }
        // Unambiguous training hosts are never silently lost when alone in
        // their suffix tree: every single-label host either classifies to
        // its label or shares a suffix with a differently-labelled host.
        for (host, labels) in &truth {
            if labels.len() == 1 && clf.classify(host).is_none() {
                let label = *labels.iter().next().unwrap();
                let conflicts = truth.iter().any(|(other, other_labels)| {
                    other != host && other_labels.iter().any(|l| *l != label) && {
                        // Shared non-TLD suffix?
                        let suffix_of = |h: &str| -> Vec<String> {
                            let mut out = vec![h.to_string()];
                            let mut rest = h;
                            while let Some((_, tail)) = rest.split_once('.') {
                                out.push(tail.to_string());
                                rest = tail;
                            }
                            out
                        };
                        suffix_of(host)
                            .iter()
                            .filter(|s| s.contains('.'))
                            .any(|s| suffix_of(other).contains(s))
                    }
                });
                prop_assert!(conflicts, "host {host} lost without any conflict");
            }
        }
    }
}
