//! TCP segments as `netsim` payloads.
//!
//! Sequence numbers count packets (not bytes), matching the NS2 TCP model
//! the paper evaluates on. Every data packet carries a timestamp that the
//! receiver echoes, giving the sender per-ACK RTT samples (needed by
//! TCP-TRIM's delay-based control and by DCTCP-style accounting).

use netsim::time::SimTime;
use netsim::Payload;

/// The transport header of a simulated packet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Kind-specific header fields.
    pub kind: SegKind,
    /// ECN-Capable Transport: eligible for CE marking at switches.
    pub ect: bool,
    /// Congestion Experienced: set by a switch queue above its marking
    /// threshold.
    pub ce: bool,
}

/// Data or acknowledgment header.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SegKind {
    /// A data packet.
    Data {
        /// Packet sequence number (0-based, counts packets).
        seq: u64,
        /// Set on TCP-TRIM probe packets (Algorithm 1); echoed by the
        /// receiver so the sender recognizes probe ACKs.
        is_probe: bool,
        /// Set on retransmissions; the echo is then ignored for RTT
        /// sampling (Karn's rule).
        is_rtx: bool,
        /// Sender timestamp, echoed in the ACK.
        ts: SimTime,
    },
    /// A cumulative acknowledgment.
    Ack {
        /// The next packet sequence number the receiver expects.
        ack_seq: u64,
        /// Echo of the triggering data packet's `ts`.
        echo_ts: SimTime,
        /// Echo of the triggering data packet's `is_probe`.
        echo_probe: bool,
        /// Echo of the triggering data packet's `is_rtx`.
        echo_rtx: bool,
        /// ECN Echo: the triggering data packet arrived CE-marked.
        ece: bool,
    },
}

impl Segment {
    /// Creates a data segment.
    pub fn data(seq: u64, is_probe: bool, is_rtx: bool, ts: SimTime, ect: bool) -> Self {
        Segment {
            kind: SegKind::Data {
                seq,
                is_probe,
                is_rtx,
                ts,
            },
            ect,
            ce: false,
        }
    }

    /// Creates an ACK segment echoing the fields of a received data
    /// segment.
    pub fn ack(
        ack_seq: u64,
        echo_ts: SimTime,
        echo_probe: bool,
        echo_rtx: bool,
        ece: bool,
    ) -> Self {
        Segment {
            kind: SegKind::Ack {
                ack_seq,
                echo_ts,
                echo_probe,
                echo_rtx,
                ece,
            },
            ect: false,
            ce: false,
        }
    }

    /// Whether this is a data segment.
    pub fn is_data(&self) -> bool {
        matches!(self.kind, SegKind::Data { .. })
    }
}

impl Payload for Segment {
    fn ecn_capable(&self) -> bool {
        self.ect && self.is_data()
    }

    fn mark_ce(&mut self) {
        self.ce = true;
    }

    fn is_ce(&self) -> bool {
        self.ce
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A packet is moved by value at every hop: header plus segment must
    /// stay within one cache line.
    #[test]
    fn packet_of_segment_is_one_cache_line() {
        assert!(std::mem::size_of::<Segment>() <= 32);
        assert!(std::mem::size_of::<netsim::Packet<Segment>>() <= 64);
    }

    #[test]
    fn data_is_ecn_capable_only_when_ect() {
        let d = Segment::data(0, false, false, SimTime::ZERO, true);
        assert!(d.ecn_capable());
        let d2 = Segment::data(0, false, false, SimTime::ZERO, false);
        assert!(!d2.ecn_capable());
    }

    #[test]
    fn acks_are_never_marked() {
        let a = Segment::ack(5, SimTime::ZERO, false, false, false);
        assert!(!a.ecn_capable());
        assert!(!a.is_data());
    }

    #[test]
    fn ce_marking_round_trip() {
        let mut d = Segment::data(3, true, false, SimTime::from_secs(1), true);
        assert!(!d.is_ce());
        d.mark_ce();
        assert!(d.is_ce());
    }
}
