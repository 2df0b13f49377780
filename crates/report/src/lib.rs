//! Reporting: ASCII tables and plots, CSV export, and the paper-vs-measured
//! experiment comparator that backs `EXPERIMENTS.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod csv;
pub mod experiments;
pub mod figures;
pub mod ingest;
pub mod obs;
pub mod plot;
pub mod quality;
pub mod stream;
pub mod summary;
pub mod table;

pub use csv::CsvWriter;
pub use experiments::{Band, ExperimentReport, ExperimentRow};
pub use figures::{export_figures, FigureCsvExporter};
pub use ingest::{IngestReport, ShardSource};
pub use obs::{render_metrics, render_stage_table};
pub use plot::{bar_chart_log, ecdf_plot, sparkline};
pub use quality::{DataQuality, QuarantineCounts, QuarantineReason};
pub use stream::{StreamSummary, WindowReport};
pub use summary::{render_full, render_full_report};
pub use table::Table;
