//! Transparent Web-proxy transaction records.

use core::fmt;

use wearscope_simtime::SimTime;

use crate::codec::{CodecError, FieldReader, LineBuf, TsvRecord};
use crate::host::HostId;
use crate::ids::UserId;

/// Transaction scheme as seen by the proxy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scheme {
    /// Plain HTTP: the proxy logs the full URL; we retain the host.
    Http,
    /// HTTPS: the proxy logs the TLS SNI.
    Https,
}

impl Scheme {
    fn code(self) -> u64 {
        match self {
            Scheme::Http => 0,
            Scheme::Https => 1,
        }
    }

    fn from_code(c: u64) -> Option<Scheme> {
        match c {
            0 => Some(Scheme::Http),
            1 => Some(Scheme::Https),
            _ => None,
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scheme::Http => f.write_str("http"),
            Scheme::Https => f.write_str("https"),
        }
    }
}

/// One HTTP/HTTPS transaction logged by the transparent proxy.
///
/// This is the unit of every traffic analysis in the paper: Fig. 3(c)'s
/// transaction sizes, Fig. 5's app usage, Fig. 7's sessions, and Fig. 8's
/// domain classes are all folds over these records.
///
/// A record owns no heap memory: the host is an interned [`HostId`], so a
/// record is a 48-byte `Copy` value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProxyRecord {
    /// Transaction start time.
    pub timestamp: SimTime,
    /// Pseudonymized subscriber.
    pub user: UserId,
    /// Raw 15-digit IMEI of the device that issued the transaction
    /// (joined against the device DB to identify wearables).
    pub imei: u64,
    /// Destination host: SNI for HTTPS, URL host for HTTP.
    pub host: HostId,
    /// Scheme.
    pub scheme: Scheme,
    /// Downlink payload bytes.
    pub bytes_down: u64,
    /// Uplink payload bytes.
    pub bytes_up: u64,
}

// A field that brings back a heap pointer (a `String` host, say) fails
// the build here.
const _: () = assert!(std::mem::size_of::<ProxyRecord>() == 48);

impl ProxyRecord {
    /// Total bytes moved by this transaction.
    #[inline]
    pub fn bytes_total(&self) -> u64 {
        self.bytes_down + self.bytes_up
    }
}

impl TsvRecord for ProxyRecord {
    const FIELDS: usize = 7;

    fn encode_into(&self, out: &mut Vec<u8>) {
        LineBuf::new()
            .u64(self.timestamp.as_secs())
            .tab()
            .u64(self.user.raw())
            .tab()
            .u64(self.imei)
            .tab()
            .raw(self.host.encoded(), out)
            .tab()
            .u64(self.scheme.code())
            .tab()
            .u64(self.bytes_down)
            .tab()
            .u64(self.bytes_up)
            .append_to(out);
    }

    #[inline]
    fn read_fields(r: &mut FieldReader<'_>) -> Result<ProxyRecord, CodecError> {
        let timestamp = SimTime::from_secs(r.u64()?);
        let user = UserId(r.u64()?);
        let imei = r.u64()?;
        let host = r.host()?;
        let scheme = Scheme::from_code(r.u64()?).ok_or(CodecError::BadField {
            index: 4,
            expected: "scheme code 0|1",
        })?;
        let bytes_down = r.u64()?;
        let bytes_up = r.u64()?;
        Ok(ProxyRecord {
            timestamp,
            user,
            imei,
            host,
            scheme,
            bytes_down,
            bytes_up,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::read_whole_log;
    use crate::TraceStore;

    fn sample() -> ProxyRecord {
        ProxyRecord {
            timestamp: SimTime::from_secs(12345),
            user: UserId(77),
            imei: 352000011234564,
            host: HostId::intern("graph.facebook.com"),
            scheme: Scheme::Https,
            bytes_down: 2800,
            bytes_up: 400,
        }
    }

    #[test]
    fn line_roundtrip() {
        let rec = sample();
        let line = rec.to_line();
        assert_eq!(ProxyRecord::from_line(&line).unwrap(), rec);
    }

    #[test]
    fn odd_hosts_survive_save_load_save() {
        let hosts = [
            "evil\thost\nname",
            "back\\slash\\",
            "carriage\rreturn",
            "ünïcodé.example",
            "",
        ];
        let records: Vec<ProxyRecord> = hosts
            .iter()
            .enumerate()
            .map(|(i, host)| ProxyRecord {
                timestamp: SimTime::from_secs(i as u64),
                host: HostId::intern(host),
                ..sample()
            })
            .collect();
        for r in &records {
            assert!(!r.to_line().contains('\n'));
        }
        let dir = std::env::temp_dir().join(format!("wearscope-odd-hosts-{}", std::process::id()));
        let store = TraceStore::from_records(records.clone(), Vec::new());
        store.save(&dir).unwrap();
        let first = std::fs::read(dir.join("proxy.log")).unwrap();
        let loaded: Vec<ProxyRecord> = read_whole_log(&dir.join("proxy.log"));
        assert_eq!(loaded, records);
        for (r, host) in loaded.iter().zip(hosts) {
            assert_eq!(r.host.name(), host);
        }
        TraceStore::from_records(loaded, Vec::new())
            .save(&dir)
            .unwrap();
        assert_eq!(std::fs::read(dir.join("proxy.log")).unwrap(), first);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bytes_total() {
        assert_eq!(sample().bytes_total(), 3200);
    }

    #[test]
    fn bad_scheme_rejected() {
        let mut rec = sample();
        rec.scheme = Scheme::Http;
        let line = rec.to_line().replace("\t0\t", "\t9\t");
        assert!(ProxyRecord::from_line(&line).is_err());
    }

    #[test]
    fn truncated_line_rejected() {
        let line = sample().to_line();
        let cut = &line[..line.rfind('\t').unwrap()];
        assert!(matches!(
            ProxyRecord::from_line(cut),
            Err(CodecError::MissingField { .. })
        ));
    }

    #[test]
    fn scheme_display() {
        assert_eq!(Scheme::Http.to_string(), "http");
        assert_eq!(Scheme::Https.to_string(), "https");
    }
}
