//! wearscope-stream: incremental event-time streaming over wearable
//! traffic logs.
//!
//! The batch pipeline ([`wearscope_ingest`]) folds each log's records into
//! [`wearscope_core::CoreAggregates`] as its parse workers hand them over,
//! in file order. This crate computes the *same* aggregates per event-time
//! window: records arrive as an ordered-ish event stream (a persisted
//! world directory, a growing log being tailed, or any other
//! [`EventSource`]),
//! are validated by the batch loader's
//! [`RecordValidator`](wearscope_ingest::RecordValidator), and are folded
//! into each window's [`CorePartials`](wearscope_core::CorePartials) the
//! moment they arrive.
//!
//! The moving pieces:
//!
//! * [`window`] — index-addressed tumbling/sliding window geometry;
//! * [`source`] — pull-based [`EventSource`]s merging the proxy and MME
//!   logs by event time;
//! * [`runtime`] — the watermark machinery: lateness, in-order emission
//!   with explicit empty windows, bounded open windows with backpressure;
//!   a window is its partials and its late-merge count, and merging the
//!   tumbling windows' partials then finishing matches the batch
//!   aggregates bit-for-bit (pinned by the integration tests);
//! * [`checkpoint`] — kill-and-resume snapshots; a resumed run's final
//!   reports are byte-identical to an uninterrupted one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod runtime;
pub mod source;
pub mod window;

pub use runtime::{
    Backpressure, PumpOptions, PumpOutcome, StreamConfig, StreamError, StreamRuntime,
};
pub use source::{EventSource, Polled, SourcePosition, StreamEvent, WorldSource};
pub use window::WindowSpec;
