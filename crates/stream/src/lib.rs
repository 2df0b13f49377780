//! wearscope-stream: incremental event-time streaming over wearable
//! traffic logs.
//!
//! The batch pipeline ([`wearscope_ingest`]) loads a full world, sorts it,
//! and computes [`wearscope_core::CoreAggregates`] in one pass. This crate
//! computes the *same* aggregates incrementally: records arrive as an
//! ordered-ish event stream (a persisted world directory, a growing log
//! being tailed, or an in-process channel), are validated by the batch
//! loader's [`RecordValidator`](wearscope_ingest::RecordValidator), and are
//! folded into per-window partial aggregates the moment they arrive.
//!
//! The moving pieces:
//!
//! * [`window`] — index-addressed tumbling/sliding window geometry;
//! * [`source`] — pull-based [`EventSource`]s merging the proxy and MME
//!   logs by event time;
//! * [`runtime`] — the watermark machinery: lateness, in-order emission
//!   with explicit empty windows, bounded open windows with backpressure;
//! * [`checkpoint`] — kill-and-resume snapshots; a resumed run's final
//!   reports are byte-identical to an uninterrupted one;
//! * [`aggregates`] — per-window [`CorePartials`](wearscope_core::CorePartials)
//!   whose merged-then-finished result matches the batch aggregates
//!   bit-for-bit (the golden equivalence pinned by the integration tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregates;
pub mod checkpoint;
pub mod runtime;
pub mod source;
pub mod window;

pub use aggregates::{WindowAggregates, WindowCounters};
pub use runtime::{
    Backpressure, PumpOptions, PumpOutcome, StreamConfig, StreamError, StreamRuntime,
};
pub use source::{
    ChannelSource, EventSource, Polled, ReadAhead, SourceItem, SourceKind, SourcePosition,
    StreamEvent, WorldSource,
};
pub use window::WindowSpec;
