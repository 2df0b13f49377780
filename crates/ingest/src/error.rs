//! Typed errors for the resilient ingestion path.

use core::fmt;
use std::io;

use wearscope_report::ShardSource;

/// Why a resilient load or compute run failed.
///
/// Per-record problems never surface here — they are quarantined and
/// reported in the [`DataQuality`](wearscope_report::DataQuality) section.
/// This type covers the failures that make the run's output untrustworthy:
/// a whole chunk lost, or corruption past the error budget.
#[derive(Debug)]
pub enum IngestError {
    /// A filesystem error outside any chunk (opening the logs, planning
    /// chunks, writing `quarantine.log`).
    Io(io::Error),
    /// The quarantined fraction of a log exceeded `--max-error-rate`.
    /// Names the log's first `quarantine.log` entry, which depends only on
    /// the file's content.
    ErrorBudget {
        /// Which log blew the budget.
        source: ShardSource,
        /// The log's first quarantined record: its source, position and
        /// reason, e.g. `proxy record:0 skewed`.
        first: String,
        /// Records quarantined across the log.
        quarantined: u64,
        /// Records seen across the log.
        seen: u64,
        /// The configured budget (fraction).
        budget: f64,
    },
    /// A chunk failed outright — a worker panic or an I/O error that
    /// survived the retry budget. The run stops at the first failed chunk
    /// in file order (proxy, then MME), which this names.
    ShardFailed {
        /// Which log the chunk belonged to.
        source: ShardSource,
        /// The failed chunk's index within its log.
        shard: usize,
        /// `true` for a panic, `false` for a persistent I/O error.
        panicked: bool,
        /// Failure detail (panic payload or I/O message).
        detail: String,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "I/O error: {e}"),
            IngestError::ErrorBudget {
                source,
                first,
                quarantined,
                seen,
                budget,
            } => write!(
                f,
                "{} log: {quarantined}/{seen} records quarantined ({:.3}%), over the \
                 --max-error-rate budget of {:.3}% (first: {first})",
                source.name(),
                *quarantined as f64 / (*seen).max(1) as f64 * 100.0,
                budget * 100.0,
            ),
            IngestError::ShardFailed {
                source,
                shard,
                panicked,
                detail,
            } => write!(
                f,
                "{} shard {shard} {}: {detail}",
                source.name(),
                if *panicked { "panicked" } else { "failed" },
            ),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> IngestError {
        IngestError::Io(e)
    }
}

/// Retries `f` with exponential backoff on transient I/O errors
/// (`Interrupted`, `WouldBlock`, `TimedOut`) — the kinds a loaded NFS mount
/// or signal-heavy host throws at long shard reads. Non-transient errors
/// and the final attempt's error propagate unchanged.
/// `retries`, when present, is incremented once per retried attempt (not
/// per call), so a clean run contributes zero.
pub(crate) fn with_io_retry<T>(
    mut f: impl FnMut() -> io::Result<T>,
    retries: Option<&wearscope_obs::Counter>,
) -> io::Result<T> {
    const ATTEMPTS: u32 = 3;
    let mut delay = std::time::Duration::from_millis(5);
    for attempt in 0..ATTEMPTS {
        match f() {
            Ok(v) => return Ok(v),
            Err(e)
                if attempt + 1 < ATTEMPTS
                    && matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted
                            | io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                    ) =>
            {
                if let Some(c) = retries {
                    c.inc();
                }
                std::thread::sleep(delay);
                delay *= 2;
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("loop returns on the last attempt")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_recovers_from_transient_errors() {
        let mut failures = 2;
        let reg = wearscope_obs::Registry::new();
        let retries = reg.counter("ingest.io_retries");
        let out = with_io_retry(
            || {
                if failures > 0 {
                    failures -= 1;
                    Err(io::Error::new(io::ErrorKind::Interrupted, "signal"))
                } else {
                    Ok(42)
                }
            },
            Some(&retries),
        )
        .unwrap();
        assert_eq!(out, 42);
        // One increment per retried attempt; a clean call adds nothing.
        assert_eq!(retries.get(), 2);
        with_io_retry(|| Ok(1), Some(&retries)).unwrap();
        assert_eq!(retries.get(), 2);
    }

    #[test]
    fn retry_gives_up_after_budget() {
        let err = with_io_retry::<()>(
            || Err(io::Error::new(io::ErrorKind::TimedOut, "slow")),
            None,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn retry_does_not_mask_real_errors() {
        let mut calls = 0;
        let err = with_io_retry::<()>(
            || {
                calls += 1;
                Err(io::Error::new(io::ErrorKind::NotFound, "gone"))
            },
            None,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert_eq!(calls, 1);
    }

    #[test]
    fn error_display_names_the_first_entry_and_the_failed_shard() {
        let e = IngestError::ErrorBudget {
            source: ShardSource::Proxy,
            first: "proxy record:0 skewed".into(),
            quarantined: 30,
            seen: 1000,
            budget: 0.01,
        };
        let s = e.to_string();
        assert!(s.contains("(first: proxy record:0 skewed)"), "{s}");
        assert!(s.contains("30/1000"), "{s}");
        let e = IngestError::ShardFailed {
            source: ShardSource::Mme,
            shard: 2,
            panicked: true,
            detail: "poisoned".into(),
        };
        assert!(e.to_string().contains("mme shard 2 panicked"));
    }
}
