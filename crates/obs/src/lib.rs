//! Pipeline observability for `wearscope`.
//!
//! The paper's measurement infrastructure could only characterize wearable
//! traffic because every vantage point (MME, transparent proxy) exported
//! counters alongside its logs. This crate gives our own pipeline the same
//! property: a zero-dependency metrics layer that every stage — synthpop
//! generation, sharded ingest, the stream runtime, trace I/O — reports into,
//! and that the CLI can snapshot to a deterministic JSON file.
//!
//! ## Model
//!
//! A [`Registry`] hands out named [`Counter`], [`Gauge`], and [`Histogram`]
//! handles. Handles are cheap clones around atomics: registering the same
//! name twice returns a handle to the same underlying cell, so shards on
//! different threads can increment the same counter without coordination.
//!
//! Metrics live in one of two sections:
//!
//! * **deterministic** — values that must be bit-identical across worker
//!   counts and across runs with the same seed (records seen, kept,
//!   quarantined per reason, bytes read, windows emitted, ...). Registered
//!   via [`Registry::counter`] / [`Registry::gauge`] / [`Registry::histogram`].
//! * **timing** — wall-clock durations, per-shard breakdowns, and anything
//!   else that legitimately varies run-to-run. Registered via
//!   [`Registry::timing_counter`] / [`Registry::timing_gauge`] /
//!   [`Registry::timing_histogram`], and recorded by [`Span`]s.
//!
//! [`Registry::snapshot`] freezes everything into a [`Snapshot`] whose JSON
//! form ([`Snapshot::to_json`]) has sorted keys and the `timing` section
//! *last*, so determinism gates can strip it with a one-line filter and
//! byte-compare the rest.
//!
//! ## Stage tracing
//!
//! [`Registry::stage`] opens a wall-clock [`Span`]; [`Span::child`] nests.
//! Spans record into the timing section on drop, keyed by their
//! slash-separated path (`"analyze/load"`), preserving first-seen order so
//! reports can render the stage tree in execution order.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod metrics;
pub mod registry;
pub mod snapshot;

pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{Registry, Span};
pub use snapshot::{HistogramSnapshot, Snapshot, StageSnapshot, TimingSnapshot};
