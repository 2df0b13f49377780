//! Property-based tests for the SNI classifier.

use proptest::prelude::*;
use wearscope_appdb::fingerprints::SIGNATURES;
use wearscope_appdb::{
    fingerprint_host, AppCatalog, AppId, Classification, SignatureLearner, SniClassifier,
};

fn label() -> impl Strategy<Value = String> {
    "[a-z0-9][a-z0-9-]{0,8}".prop_map(|s| s)
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
