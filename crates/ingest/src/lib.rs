//! `wearscope-ingest`: parallel, quarantining log ingestion.
//!
//! * [`load`] — [`load_store_resilient`], parallel loading of persisted
//!   `proxy.log`/`mme.log` files by record-aligned byte-range shards
//!   (planned by [`wearscope_trace::shard`]), quarantining per-record
//!   faults (malformed lines, duplicates, timestamp regressions, clock
//!   skew, invalid IMEIs) up to an error budget;
//! * [`quarantine`] — [`RecordValidator`], the per-record content checks
//!   the loader and the streaming runtime share, and the typed
//!   [`QuarantineReason`](wearscope_report::QuarantineReason) ledger
//!   written to `quarantine.log`;
//! * [`engine`] — [`IngestEngine`], a delegation to the one aggregate fold,
//!   [`CoreAggregates::sequential`](wearscope_core::CoreAggregates::sequential).
//!
//! Shard reads run on one worker pool: scoped `std` threads claiming task
//! indices from an atomic counter, each task under `catch_unwind`, results
//! in task order. A poisoned shard surfaces as a typed
//! [`IngestError::ShardFailed`] after the remaining shards complete, and
//! shard reads retry transient I/O errors with backoff. Quarantine
//! decisions depend only on file content and file order — never shard
//! layout — so resilient loads are bit-identical for every worker count,
//! corrupted input included.
//!
//! The aggregate fold is not parallel: one fused pass on the calling
//! thread beat the former user-hash sharded fold at every worker count
//! measured, in time and in memory. `wearscope analyze --workers N` sets
//! only the loader's pool size.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod error;
pub mod load;
mod pool;
pub mod quarantine;

pub use engine::IngestEngine;
pub use error::IngestError;
pub use load::load_store_resilient;
pub use quarantine::{
    reason_for_codec, IngestOptions, LogRecord, RecordValidator, Rejection, DEFAULT_MAX_ERROR_RATE,
};

/// The most loader workers a run may ask for. Each worker is a thread, so
/// an unbounded count can exhaust the process's thread resources.
pub const MAX_WORKERS: usize = 1024;

/// The number of available CPUs — the default for `--workers`.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
