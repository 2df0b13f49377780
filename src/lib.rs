//! # wearscope
//!
//! A full-system Rust reproduction of **“A First Look at SIM-Enabled
//! Wearables in the Wild”** (Kolamunna et al., IMC 2018): a simulated
//! mobile-ISP measurement infrastructure, a calibrated synthetic subscriber
//! population, and the complete analysis pipeline that regenerates every
//! figure and takeaway of the paper from raw vantage-point logs.
//!
//! ## Quickstart
//!
//! ```
//! use wearscope::core::{CoreAggregates, StudyResults};
//! use wearscope::prelude::*;
//!
//! // Generate a small world (deterministic in the seed).
//! let mut config = ScenarioConfig::compact(42);
//! config.wearable_users = 80;
//! config.comparison_users = 100;
//! config.through_device_users = 30;
//! let world = generate(&config);
//!
//! // Run the full analysis pipeline on the logs.
//! let ctx = StudyContext::new(
//!     &world.store, &world.db, &world.sectors, &world.apps, world.config.window,
//! );
//! // Fold the logs once; every table, report and CSV renders from `results`.
//! let aggs = CoreAggregates::sequential(&ctx);
//! let results = StudyResults::new(&ctx, &world.summaries, &aggs);
//! let takeaways = Takeaways::from_results(&results);
//! assert!(takeaways.data_active_share > 0.0);
//! ```
//!
//! ## Crates
//!
//! | Crate | Role |
//! |---|---|
//! | [`obs`] | zero-dependency pipeline metrics & stage tracing |
//! | [`simtime`] | simulation clock & calendar |
//! | [`geo`] | sectors, distances, country layout |
//! | [`devicedb`] | IMEI/TAC and the device database |
//! | [`appdb`] | app catalog, SNI signatures, domain classes |
//! | [`trace`] | log schemas, codecs, stores |
//! | [`mobilenet`] | MME + transparent proxy simulator |
//! | [`synthpop`] | calibrated population & behaviour generators |
//! | [`core`] | the analysis pipeline (the paper's contribution) |
//! | [`ingest`] | parallel, quarantining log loading |
//! | [`stream`] | incremental event-time windowing, watermarks, checkpoint/resume |
//! | [`faults`] | deterministic log-fault injection for resilience drills |
//! | [`report`] | tables, CSV export, paper-vs-measured comparison |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use wearscope_appdb as appdb;
pub use wearscope_core as core;
pub use wearscope_devicedb as devicedb;
pub use wearscope_faults as faults;
pub use wearscope_geo as geo;
pub use wearscope_ingest as ingest;
pub use wearscope_mobilenet as mobilenet;
pub use wearscope_obs as obs;
pub use wearscope_report as report;
pub use wearscope_simtime as simtime;
pub use wearscope_stream as stream;
pub use wearscope_synthpop as synthpop;
pub use wearscope_trace as trace;

/// The most common imports for working with `wearscope`.
pub mod prelude {
    pub use wearscope_appdb::{AppCatalog, AppCategory, DomainClass, SniClassifier};
    pub use wearscope_core::takeaways::Takeaways;
    pub use wearscope_core::StudyContext;
    pub use wearscope_devicedb::{DeviceClass, DeviceDb, Imei};
    pub use wearscope_geo::{CountryLayout, SectorDirectory};
    pub use wearscope_mobilenet::{MobileNetwork, NetworkEvent};
    pub use wearscope_simtime::{ObservationWindow, SimDuration, SimTime, TimeRange};
    pub use wearscope_stream::{StreamConfig, StreamRuntime, WindowSpec, WorldSource};
    pub use wearscope_synthpop::{generate, Calibration, GeneratedWorld, ScenarioConfig};
    pub use wearscope_trace::{HostId, MmeRecord, ProxyRecord, TraceStore, UserId};
}
