//! In-memory trace store.

use std::fs::File;
use std::io;
use std::path::Path;

use crate::codec::TsvRecord;
use crate::io::LogWriter;
use crate::mme::MmeRecord;
use crate::proxy::ProxyRecord;

/// The two detailed log streams of one observation, held in memory and
/// time-sorted — what the analysis pipelines fold over.
///
/// Records are kept in separate vectors per vantage point (the paper's logs
/// are separate systems joined on the pseudonymized user id).
#[derive(Clone, Debug, Default)]
pub struct TraceStore {
    proxy: Vec<ProxyRecord>,
    mme: Vec<MmeRecord>,
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    /// A store from pre-collected records, each log stably sorted by time.
    pub fn from_records(mut proxy: Vec<ProxyRecord>, mut mme: Vec<MmeRecord>) -> TraceStore {
        proxy.sort_by_key(|r| r.timestamp);
        mme.sort_by_key(|r| r.timestamp);
        TraceStore { proxy, mme }
    }

    /// All proxy records, time-sorted.
    pub fn proxy(&self) -> &[ProxyRecord] {
        &self.proxy
    }

    /// All MME records, time-sorted.
    pub fn mme(&self) -> &[MmeRecord] {
        &self.mme
    }

    /// Number of proxy + MME records.
    pub fn len(&self) -> usize {
        self.proxy.len() + self.mme.len()
    }

    /// `true` when both logs are empty.
    pub fn is_empty(&self) -> bool {
        self.proxy.is_empty() && self.mme.is_empty()
    }

    /// Persists both logs as `proxy.log` and `mme.log` under `dir`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        write_log(&dir.join("proxy.log"), &self.proxy)?;
        write_log(&dir.join("mme.log"), &self.mme)
    }
}

/// Writes `records` to a new log at `path`, one encoded line each: what
/// [`TraceStore::save`] does for each of its logs.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_log<R: TsvRecord>(path: &Path, records: &[R]) -> io::Result<()> {
    let mut writer = LogWriter::new(File::create(path)?);
    for r in records {
        writer.write(r)?;
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostId;
    use crate::ids::UserId;
    use crate::mme::MmeEvent;
    use crate::proxy::Scheme;
    use crate::shard::read_whole_log;
    use wearscope_simtime::SimTime;

    fn proxy_at(t: u64) -> ProxyRecord {
        ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(1),
            imei: 352000011234564,
            host: HostId::intern("x.example.com"),
            scheme: Scheme::Https,
            bytes_down: 100,
            bytes_up: 10,
        }
    }

    fn mme_at(t: u64) -> MmeRecord {
        MmeRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(1),
            imei: 352000011234564,
            event: MmeEvent::SectorUpdate,
            sector: 3,
        }
    }

    #[test]
    fn from_records_sorts() {
        let s = TraceStore::from_records(
            vec![proxy_at(5), proxy_at(1), proxy_at(3)],
            vec![mme_at(9), mme_at(2)],
        );
        assert!(s.proxy().is_sorted_by_key(|r| r.timestamp));
        assert!(s.mme().is_sorted_by_key(|r| r.timestamp));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn save_read_roundtrip() {
        let s = TraceStore::from_records(
            (0..100).map(proxy_at).collect(),
            (0..50).map(mme_at).collect(),
        );
        let dir = std::env::temp_dir().join(format!("wearscope-store-{}", std::process::id()));
        s.save(&dir).unwrap();
        let proxy: Vec<ProxyRecord> = read_whole_log(&dir.join("proxy.log"));
        let mme: Vec<MmeRecord> = read_whole_log(&dir.join("mme.log"));
        assert_eq!(proxy, s.proxy());
        assert_eq!(mme, s.mme());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store() {
        let s = TraceStore::new();
        assert!(s.is_empty());
    }
}
