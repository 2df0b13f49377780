//! `wearscope-ingest`: sharded parallel log ingestion and the
//! mergeable-aggregate engine.
//!
//! The analysis pipeline is embarrassingly parallel once two facts are
//! pinned down:
//!
//! 1. every hot aggregate is a [`Mergeable`](wearscope_core::Mergeable)
//!    fold — absorb records per shard, merge partials, finish once — whose
//!    sharded result is *bit-identical* to the sequential fold (see
//!    `wearscope_core::merge` for the determinism contract);
//! 2. the only stateful folds (mobility dwell tracking, third-party
//!    attribution) are user-local, so sharding by **user-ID hash** keeps
//!    every stream they care about whole.
//!
//! This crate supplies the layers on top of that substrate:
//!
//! * `sharder` (crate-private) — partitions an in-memory
//!   [`TraceStore`](wearscope_trace::TraceStore) into user-hash shards
//!   (byte-range shard *planning* for persisted logs lives in
//!   [`wearscope_trace::shard`]);
//! * [`load`] — [`load_store_resilient`], parallel loading of persisted
//!   `proxy.log`/`mme.log` files by byte-range shards, quarantining
//!   per-record faults (malformed lines, duplicates, timestamp regressions,
//!   clock skew, invalid IMEIs) up to an error budget;
//! * [`quarantine`] — the per-record validation pass and the typed
//!   [`QuarantineReason`](wearscope_report::QuarantineReason) ledger
//!   written to `quarantine.log`;
//! * [`engine`] — folds the user-hash shards into a
//!   [`CoreAggregates`](wearscope_core::CoreAggregates) plus an
//!   [`IngestReport`](wearscope_report::IngestReport) of per-shard progress.
//!
//! Shard reads and shard folds run on one worker pool: scoped `std`
//! threads claiming task indices from an atomic counter, each task under
//! `catch_unwind`, results in task order. A poisoned shard surfaces as a
//! typed [`IngestError::ShardFailed`] after the remaining shards complete,
//! and shard reads retry transient I/O errors with backoff. Quarantine
//! decisions depend only on file content and file order — never shard
//! layout — so resilient loads are bit-identical for every worker count,
//! corrupted input included.
//!
//! `wearscope analyze --workers N` wires these together; the engine is
//! proven byte-identical to the sequential path by the
//! `ingest_determinism` property tests, clean and corrupted worlds alike.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod error;
pub mod load;
mod pool;
pub mod quarantine;
mod sharder;

pub use engine::IngestEngine;
pub use error::IngestError;
pub use load::load_store_resilient;
pub use quarantine::{reason_for_codec, IngestOptions, DEFAULT_MAX_ERROR_RATE};

/// The number of available CPUs — the default for `--workers`.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
