//! `wearscope-ingest`: the batch pipeline over persisted logs, with
//! quarantining validation.
//!
//! * [`load`] — [`fold_logs_resilient`], which folds `proxy.log` and
//!   `mme.log` into the aggregates as shard workers parse fixed-size,
//!   newline-aligned chunks (planned by [`wearscope_trace::shard`]), and
//!   [`load_store_resilient`], the same pipeline collecting a store. Both
//!   quarantine per-record faults (malformed lines, duplicates, timestamp
//!   regressions, clock skew, invalid IMEIs, sectors outside the cell
//!   plan) up to an error budget;
//! * [`quarantine`] — [`LogLedger`], the one per-log ledger the pipeline
//!   and the streaming runtime share: its [`RecordValidator`] (the
//!   per-record content checks), its counts, and the typed
//!   [`QuarantineReason`](wearscope_report::QuarantineReason) ledger
//!   written to `quarantine.log`;
//! * [`engine`] — [`IngestEngine`], a delegation to the one aggregate fold,
//!   [`CoreAggregates::sequential`](wearscope_core::CoreAggregates::sequential).
//!
//! `wearscope analyze --workers N` runs N parse threads. Each claims the
//! next 64 KiB chunk and parses it under `catch_unwind`, with transient
//! I/O errors retried, while at most three chunks per thread are claimed
//! ahead of the calling thread. The calling thread
//! takes the chunks in file order, validates them and folds the kept
//! records on its own: the fold is one pass, never parallel. A poisoned
//! chunk surfaces as a typed [`IngestError::ShardFailed`]. Quarantine
//! decisions depend only on file content and file order — never on the
//! worker count — so runs are bit-identical for every worker count,
//! corrupted input included.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod error;
pub mod load;
pub mod quarantine;

pub use engine::IngestEngine;
pub use error::IngestError;
pub use load::{fold_logs_resilient, load_store_resilient, panic_message};
pub use quarantine::{
    reason_for_codec, IngestOptions, LogLedger, LogRecord, RecordValidator, Rejection,
    DEFAULT_MAX_ERROR_RATE,
};

/// The most parse workers a run may ask for. Each worker is a thread, so
/// an unbounded count can exhaust the process's thread resources.
pub const MAX_WORKERS: usize = 1024;

/// The number of available CPUs — the default for `--workers`.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
