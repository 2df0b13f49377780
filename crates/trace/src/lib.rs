//! Vantage-point log records for the `wearscope` study.
//!
//! The measurement infrastructure (paper Fig. 1) taps the mobile network at
//! two logging vantage points, plus one lookup service:
//!
//! * the **transparent Web proxy** logs one record per HTTP/HTTPS
//!   transaction: timestamp, subscriber, device IMEI, destination host (SNI
//!   for HTTPS, URL host for HTTP), and byte counts — [`ProxyRecord`];
//! * the **MME** logs subscriber mobility: attach/detach and the sector a
//!   subscriber is attached to at any time — [`MmeRecord`];
//! * the **device database** binds IMEIs to models (crate
//!   `wearscope-devicedb`).
//!
//! This crate defines the record schemas, the process-wide [`HostId`]
//! interner that keeps a record free of heap strings, a line-oriented TSV
//! codec with escaping (so logs can be shipped between the simulator and
//! the analysis as plain files), the log writer, the one log reader
//! ([`Lines`]) behind the chunk reader and the stream's log reader, which
//! decodes each well-formed line in one pass where it lies in its read
//! buffer and hands any other line to the one line decoder
//! ([`decode_log_line`]), byte-range shard planning for parallel loads,
//! and [`TraceStore`], the in-memory time-ordered store the analysis
//! pipelines fold over.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod host;
pub mod ids;
pub mod io;
pub mod mme;
pub mod proxy;
pub mod shard;
pub mod store;

pub use codec::{CodecError, FieldReader, TsvRecord};
pub use host::HostId;
pub use ids::UserId;
pub use io::{decode_log_line, Lines, LogWriter};
pub use mme::{MmeEvent, MmeRecord};
pub use proxy::{ProxyRecord, Scheme};
pub use shard::{plan_tsv_shards, read_tsv_shard, ByteRange, ShardReader, TsvShard};
pub use store::TraceStore;
