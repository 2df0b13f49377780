//! `wearscope-core`: the measurement-analysis pipeline of *A First Look at
//! SIM-Enabled Wearables in the Wild* (IMC 2018).
//!
//! Every figure and takeaway in the paper is a fold over the two vantage
//! point logs (transparent-proxy transactions and MME mobility records)
//! joined against two lookup databases (device DB for IMEI → model,
//! app/signature DB for SNI → app/domain class). This crate implements each
//! of those folds as a separate, documented analysis:
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`adoption`] | Fig. 2(a,b), Sec. 4.1 takeaways |
//! | [`activity`] | Fig. 3(a–d), Sec. 4.2–4.3 |
//! | [`compare`] | Fig. 4(a,b) owner-vs-rest traffic |
//! | [`mobility`] | Fig. 4(c,d), location entropy, Sec. 4.4 |
//! | [`apps`] | Fig. 5(a,b), Fig. 6(a–d), install stats |
//! | [`devices`] | Sec. 4.1 device mix (LG/Samsung dominance) |
//! | [`weekly`] | Sec. 4.2 weekly pattern & relative weekend usage |
//! | [`sessions`] | Fig. 7 (1-minute-gap sessionization) |
//! | [`thirdparty`] | Fig. 8 domain classes |
//! | [`through_device`] | Sec. 6 Through-Device fingerprinting |
//! | [`results`] | every derived analysis of one study, computed once |
//! | [`takeaways`] | the headline scalars, gathered in one struct |
//! | [`merge`] | partial aggregates and the one fold behind `CoreAggregates` |
//! | [`hash`] | the fixed fast hasher behind the per-record maps |
//! | [`snapshot`] | deterministic text snapshots of partials (stream checkpoints) |
//! | [`quality`] | data-quality QA: coverage gaps, identification misses |
//!
//! The pipeline deliberately consumes **only** what the paper's authors had:
//! logs and lookup services. Ground truth from the generator never enters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod activity;
pub mod adoption;
pub mod apps;
pub mod compare;
pub mod context;
pub mod devices;
pub mod hash;
pub mod merge;
pub mod mobility;
pub mod quality;
pub mod results;
pub mod sessions;
pub mod snapshot;
pub mod stats;
pub mod takeaways;
pub mod thirdparty;
pub mod through_device;
pub mod weekly;

pub use context::{HostClass, StudyContext};
pub use merge::{CoreAggregates, CorePartials};
pub use results::StudyResults;
pub use snapshot::{Snapshot, SnapshotError, SnapshotReader};
pub use stats::Ecdf;
