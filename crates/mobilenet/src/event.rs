//! The behaviour-stream event vocabulary.

use wearscope_geo::SectorId;
use wearscope_simtime::SimTime;
use wearscope_trace::{Scheme, UserId};

/// One event on the simulated radio/core network, as emitted by the
/// subscriber-behaviour generators and observed by the network elements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetworkEvent {
    /// A device registered with the network at `sector`.
    Attach {
        /// Event time.
        t: SimTime,
        /// Subscriber.
        user: UserId,
        /// Device IMEI (raw 15-digit value).
        imei: u64,
        /// Serving sector.
        sector: SectorId,
    },
    /// A device deregistered.
    Detach {
        /// Event time.
        t: SimTime,
        /// Subscriber.
        user: UserId,
        /// Device IMEI.
        imei: u64,
    },
    /// A registered device moved to (or re-confirmed) a sector.
    Move {
        /// Event time.
        t: SimTime,
        /// Subscriber.
        user: UserId,
        /// Device IMEI.
        imei: u64,
        /// New serving sector.
        sector: SectorId,
    },
    /// An HTTP/HTTPS transaction traversed the core network.
    Transaction {
        /// Transaction start time.
        t: SimTime,
        /// Subscriber.
        user: UserId,
        /// Device IMEI.
        imei: u64,
        /// Destination host (SNI for HTTPS, URL host for HTTP).
        host: &'static str,
        /// Scheme.
        scheme: Scheme,
        /// Downlink bytes.
        bytes_down: u64,
        /// Uplink bytes.
        bytes_up: u64,
    },
}

impl NetworkEvent {
    /// The event's timestamp.
    pub fn time(&self) -> SimTime {
        match self {
            NetworkEvent::Attach { t, .. }
            | NetworkEvent::Detach { t, .. }
            | NetworkEvent::Move { t, .. }
            | NetworkEvent::Transaction { t, .. } => *t,
        }
    }

    /// The subscriber the event belongs to.
    pub fn user(&self) -> UserId {
        match self {
            NetworkEvent::Attach { user, .. }
            | NetworkEvent::Detach { user, .. }
            | NetworkEvent::Move { user, .. }
            | NetworkEvent::Transaction { user, .. } => *user,
        }
    }

    /// The device the event belongs to.
    pub fn imei(&self) -> u64 {
        match self {
            NetworkEvent::Attach { imei, .. }
            | NetworkEvent::Detach { imei, .. }
            | NetworkEvent::Move { imei, .. }
            | NetworkEvent::Transaction { imei, .. } => *imei,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let e = NetworkEvent::Attach {
            t: SimTime::from_secs(5),
            user: UserId(1),
            imei: 42,
            sector: SectorId(3),
        };
        assert_eq!(e.time(), SimTime::from_secs(5));
        assert_eq!(e.user(), UserId(1));
        assert_eq!(e.imei(), 42);

        let tx = NetworkEvent::Transaction {
            t: SimTime::from_secs(9),
            user: UserId(2),
            imei: 7,
            host: "h",
            scheme: Scheme::Https,
            bytes_down: 1,
            bytes_up: 2,
        };
        assert_eq!(tx.time(), SimTime::from_secs(9));
        assert_eq!(tx.user(), UserId(2));
        assert_eq!(tx.imei(), 7);
    }
}
