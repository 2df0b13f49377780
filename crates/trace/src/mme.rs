//! MME (Mobility Management Entity) records.

use core::fmt;

use wearscope_simtime::SimTime;

use crate::codec::{CodecError, FieldReader, LineBuf, TsvRecord};
use crate::ids::UserId;

/// The MME events the study uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MmeEvent {
    /// Device registered with the network (powered on / entered coverage).
    Attach,
    /// Device deregistered.
    Detach,
    /// Device moved to (or re-confirmed) a sector: tracking-area updates,
    /// handovers, and periodic location updates all collapse to this.
    SectorUpdate,
}

impl MmeEvent {
    fn code(self) -> u64 {
        match self {
            MmeEvent::Attach => 0,
            MmeEvent::Detach => 1,
            MmeEvent::SectorUpdate => 2,
        }
    }

    fn from_code(c: u64) -> Option<MmeEvent> {
        match c {
            0 => Some(MmeEvent::Attach),
            1 => Some(MmeEvent::Detach),
            2 => Some(MmeEvent::SectorUpdate),
            _ => None,
        }
    }
}

impl fmt::Display for MmeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MmeEvent::Attach => "attach",
            MmeEvent::Detach => "detach",
            MmeEvent::SectorUpdate => "sector-update",
        };
        f.write_str(s)
    }
}

/// One MME log record: which sector a subscriber's device is at, when.
///
/// Fig. 2(a)'s daily registered-user counts and all of Sec. 4.4's mobility
/// metrics (max displacement, location entropy, single-location users) fold
/// over these records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MmeRecord {
    /// Event time.
    pub timestamp: SimTime,
    /// Pseudonymized subscriber.
    pub user: UserId,
    /// Raw 15-digit IMEI of the registered device.
    pub imei: u64,
    /// Event kind.
    pub event: MmeEvent,
    /// The sector involved (the raw numeric sector id from the cell plan).
    pub sector: u32,
}

impl TsvRecord for MmeRecord {
    const FIELDS: usize = 5;

    fn encode_into(&self, out: &mut Vec<u8>) {
        LineBuf::new()
            .u64(self.timestamp.as_secs())
            .tab()
            .u64(self.user.raw())
            .tab()
            .u64(self.imei)
            .tab()
            .u64(self.event.code())
            .tab()
            .u64(u64::from(self.sector))
            .append_to(out);
    }

    #[inline]
    fn read_fields(r: &mut FieldReader<'_>) -> Result<MmeRecord, CodecError> {
        let timestamp = SimTime::from_secs(r.u64()?);
        let user = UserId(r.u64()?);
        let imei = r.u64()?;
        let event = MmeEvent::from_code(r.u64()?).ok_or(CodecError::BadField {
            index: 3,
            expected: "mme event code 0|1|2",
        })?;
        let sector_raw = r.u64()?;
        let sector = u32::try_from(sector_raw).map_err(|_| CodecError::BadField {
            index: 4,
            expected: "u32 sector id",
        })?;
        Ok(MmeRecord {
            timestamp,
            user,
            imei,
            event,
            sector,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MmeRecord {
        MmeRecord {
            timestamp: SimTime::from_secs(999),
            user: UserId(5),
            imei: 352000011234564,
            event: MmeEvent::SectorUpdate,
            sector: 42,
        }
    }

    #[test]
    fn line_roundtrip() {
        for event in [MmeEvent::Attach, MmeEvent::Detach, MmeEvent::SectorUpdate] {
            let rec = MmeRecord { event, ..sample() };
            assert_eq!(MmeRecord::from_line(&rec.to_line()).unwrap(), rec);
        }
    }

    #[test]
    fn bad_event_code_rejected() {
        let line = "999\t5\t352000011234564\t7\t42";
        assert!(matches!(
            MmeRecord::from_line(line),
            Err(CodecError::BadField { index: 3, .. })
        ));
    }

    #[test]
    fn oversized_sector_rejected() {
        let line = format!("999\t5\t352000011234564\t2\t{}", u64::from(u32::MAX) + 1);
        assert!(matches!(
            MmeRecord::from_line(&line),
            Err(CodecError::BadField { index: 4, .. })
        ));
    }

    #[test]
    fn event_display() {
        assert_eq!(MmeEvent::Attach.to_string(), "attach");
        assert_eq!(MmeEvent::SectorUpdate.to_string(), "sector-update");
    }
}
