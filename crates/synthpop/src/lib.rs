//! Calibrated synthetic subscriber population and behaviour generators.
//!
//! The paper's dataset — seven weeks of detailed proxy/MME logs plus five
//! months of summary statistics from a large European mobile ISP — is not
//! public and cannot be: this crate is the substitution. It generates a
//! synthetic subscriber population whose *every behavioural parameter is
//! pinned to a number the paper reports* (the [`config::Calibration`] table),
//! drives it day by day through the simulated network elements of
//! `wearscope-mobilenet`, and hands the resulting logs to the analysis
//! pipeline, which must then re-derive the paper's findings from raw records.
//!
//! Generation is deterministic: the world is a pure function of the scenario
//! seed, with per-(user, day) split seeds so any slice regenerates in
//! isolation — which is also what makes multi-threaded generation
//! reproducible regardless of worker count.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
mod day_sort;
pub mod dist;
pub mod diurnal;
pub mod manifest;
pub mod mobility;
pub mod population;
pub mod scenario;
pub mod subscriber;
pub mod traffic;

pub use config::{Calibration, ScenarioConfig};
pub use population::{build_population, cohort_sizes, Population};
pub use scenario::{generate, generate_instrumented, GeneratedWorld, SavedWorld};
pub use subscriber::{InactivityReason, Subscriber, SubscriberKind};
