//! The transparent Web proxy.

use std::collections::{BTreeMap, HashSet};

use wearscope_simtime::SimTime;
use wearscope_trace::{HostId, ProxyRecord, Scheme, UserId};

/// Aggregate transaction counters the proxy maintains (the ISP uses the
/// proxy for traffic optimization; we keep the performance-metric side).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProxyCounters {
    /// Total transactions observed.
    pub transactions: u64,
    /// HTTPS transactions (SNI-logged).
    pub https_transactions: u64,
    /// Total downlink bytes.
    pub bytes_down: u64,
    /// Total uplink bytes.
    pub bytes_up: u64,
}

impl ProxyCounters {
    /// Total bytes in both directions.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_down + self.bytes_up
    }
}

/// Long-horizon summary of *wearable-device* transactions, kept even outside
/// the detailed log-retention window.
///
/// The paper computes "only 34 % of SIM-enabled users actually generate any
/// network transaction" over the full five months from proxy *summary
/// statistics*, while raw logs are only retained for the last seven weeks.
#[derive(Clone, Debug, Default)]
pub struct WearableTrafficSummary {
    users_by_day: BTreeMap<u64, HashSet<UserId>>,
    transactions_by_day: BTreeMap<u64, u64>,
    bytes_by_day: BTreeMap<u64, u64>,
}

impl WearableTrafficSummary {
    /// Writes the summary: `U\tday\tuser` lines for per-day user sets and
    /// `D\tday\ttransactions\tbytes` lines for per-day totals.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_tsv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        for (day, users) in &self.users_by_day {
            let mut sorted: Vec<u64> = users.iter().map(|u| u.raw()).collect();
            sorted.sort_unstable();
            for user in sorted {
                writeln!(w, "U\t{day}\t{user}")?;
            }
        }
        for (day, tx) in &self.transactions_by_day {
            let bytes = self.bytes_by_day.get(day).copied().unwrap_or(0);
            writeln!(w, "D\t{day}\t{tx}\t{bytes}")?;
        }
        Ok(())
    }

    /// Reads a summary written by [`WearableTrafficSummary::write_tsv`].
    ///
    /// # Errors
    /// Fails on I/O errors or malformed lines.
    pub fn read_tsv<R: std::io::BufRead>(r: R) -> std::io::Result<WearableTrafficSummary> {
        let mut out = WearableTrafficSummary::default();
        for (line_no, line) in r.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let bad = || {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("traffic summary line {}: malformed", line_no + 1),
                )
            };
            let mut fields = line.split('\t');
            match fields.next().ok_or_else(bad)? {
                "U" => {
                    let day: u64 = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                    let user: u64 = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                    out.users_by_day
                        .entry(day)
                        .or_default()
                        .insert(UserId(user));
                }
                "D" => {
                    let day: u64 = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                    let tx: u64 = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                    let bytes: u64 = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                    *out.transactions_by_day.entry(day).or_default() += tx;
                    *out.bytes_by_day.entry(day).or_default() += bytes;
                }
                _ => return Err(bad()),
            }
        }
        Ok(out)
    }

    fn note(&mut self, t: SimTime, user: UserId, bytes: u64) {
        let day = t.day_index();
        self.users_by_day.entry(day).or_default().insert(user);
        *self.transactions_by_day.entry(day).or_default() += 1;
        *self.bytes_by_day.entry(day).or_default() += bytes;
    }

    /// Users with at least one wearable transaction on any day in `[from, to)`.
    pub fn users_in_days(&self, from: u64, to: u64) -> HashSet<UserId> {
        let mut out = HashSet::new();
        for (_, set) in self.users_by_day.range(from..to) {
            out.extend(set.iter().copied());
        }
        out
    }

    /// Distinct wearable-transacting users on `day`.
    pub fn users_on_day(&self, day: u64) -> usize {
        self.users_by_day.get(&day).map_or(0, HashSet::len)
    }
}

/// The transparent HTTP/HTTPS proxy: logs one record per transaction with
/// the SNI (HTTPS) or URL host (HTTP), per Sec. 3.1 vantage point i.
#[derive(Debug, Default)]
pub struct TransparentProxy {
    log: Vec<ProxyRecord>,
    counters: ProxyCounters,
    wearable_summary: WearableTrafficSummary,
}

impl TransparentProxy {
    /// A proxy with empty logs.
    pub fn new() -> TransparentProxy {
        TransparentProxy::default()
    }

    /// Observes one transaction.
    ///
    /// `is_wearable` marks transactions from SIM-enabled wearable devices for
    /// the long-horizon summary; `retain_log` is false outside the detailed
    /// retention window (counters and summaries still update, the raw record
    /// is discarded — exactly the paper's data-retention regime).
    #[allow(clippy::too_many_arguments)]
    pub fn observe(
        &mut self,
        t: SimTime,
        user: UserId,
        imei: u64,
        host: &str,
        scheme: Scheme,
        bytes_down: u64,
        bytes_up: u64,
        is_wearable: bool,
        retain_log: bool,
    ) {
        self.counters.transactions += 1;
        if scheme == Scheme::Https {
            self.counters.https_transactions += 1;
        }
        self.counters.bytes_down += bytes_down;
        self.counters.bytes_up += bytes_up;
        if is_wearable {
            self.wearable_summary.note(t, user, bytes_down + bytes_up);
        }
        if retain_log {
            self.log.push(ProxyRecord {
                timestamp: t,
                user,
                imei,
                host: HostId::intern(host),
                scheme,
                bytes_down,
                bytes_up,
            });
        }
    }

    /// The long-horizon wearable traffic summary.
    pub fn wearable_summary(&self) -> &WearableTrafficSummary {
        &self.wearable_summary
    }

    /// The aggregate counters.
    pub fn counters(&self) -> ProxyCounters {
        self.counters
    }

    /// The accumulated log.
    pub fn log(&self) -> &[ProxyRecord] {
        &self.log
    }

    /// Drains the accumulated log (counters are retained).
    pub fn take_log(&mut self) -> Vec<ProxyRecord> {
        std::mem::take(&mut self.log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_accumulates() {
        let mut p = TransparentProxy::new();
        p.observe(
            SimTime::from_secs(1),
            UserId(1),
            10,
            "a.com",
            Scheme::Https,
            100,
            20,
            true,
            true,
        );
        p.observe(
            SimTime::from_secs(2),
            UserId(2),
            11,
            "b.com",
            Scheme::Http,
            50,
            5,
            false,
            true,
        );
        let c = p.counters();
        assert_eq!(c.transactions, 2);
        assert_eq!(c.https_transactions, 1);
        assert_eq!(c.bytes_total(), 175);
        assert_eq!(p.log().len(), 2);
        assert_eq!(p.log()[0].host.name(), "a.com");
    }

    #[test]
    fn take_log_keeps_counters() {
        let mut p = TransparentProxy::new();
        p.observe(
            SimTime::from_secs(1),
            UserId(1),
            10,
            "a.com",
            Scheme::Https,
            100,
            20,
            true,
            true,
        );
        let log = p.take_log();
        assert_eq!(log.len(), 1);
        assert!(p.log().is_empty());
        assert_eq!(p.counters().transactions, 1);
    }

    #[test]
    fn unretained_transactions_still_counted_and_summarized() {
        let mut p = TransparentProxy::new();
        p.observe(
            SimTime::from_days(3),
            UserId(7),
            10,
            "a.com",
            Scheme::Https,
            100,
            20,
            true,
            false,
        );
        assert!(p.log().is_empty());
        assert_eq!(p.counters().transactions, 1);
        let summary = p.wearable_summary();
        assert_eq!(summary.users_on_day(3), 1);
        assert_eq!(summary.transactions_by_day[&3], 1);
        assert_eq!(summary.bytes_by_day[&3], 120);
        assert!(summary.users_in_days(0, u64::MAX).contains(&UserId(7)));
    }

    #[test]
    fn traffic_summary_tsv_roundtrip() {
        let mut p = TransparentProxy::new();
        p.observe(
            SimTime::from_days(0),
            UserId(1),
            1,
            "a",
            Scheme::Https,
            100,
            20,
            true,
            false,
        );
        p.observe(
            SimTime::from_days(0),
            UserId(2),
            1,
            "a",
            Scheme::Https,
            50,
            0,
            true,
            false,
        );
        p.observe(
            SimTime::from_days(4),
            UserId(1),
            1,
            "a",
            Scheme::Https,
            10,
            0,
            true,
            false,
        );
        let mut buf = Vec::new();
        p.wearable_summary().write_tsv(&mut buf).unwrap();
        let back = WearableTrafficSummary::read_tsv(buf.as_slice()).unwrap();
        assert_eq!(back.users_on_day(0), 2);
        assert_eq!(back.transactions_by_day[&0], 2);
        assert_eq!(back.bytes_by_day[&0], 170);
        assert_eq!(
            back.users_in_days(0, u64::MAX),
            p.wearable_summary().users_in_days(0, u64::MAX)
        );
        assert!(WearableTrafficSummary::read_tsv("X\t1".as_bytes()).is_err());
    }

    #[test]
    fn non_wearable_not_summarized() {
        let mut p = TransparentProxy::new();
        p.observe(
            SimTime::from_days(0),
            UserId(1),
            10,
            "a.com",
            Scheme::Http,
            5,
            5,
            false,
            true,
        );
        assert_eq!(p.wearable_summary().users_on_day(0), 0);
        assert_eq!(p.wearable_summary().users_in_days(0, 10).len(), 0);
    }
}
