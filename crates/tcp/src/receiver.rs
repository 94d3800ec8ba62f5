//! The TCP receiver: reassembly and one cumulative ACK per arriving data
//! packet (as in NS2's default sink), echoing the packet's timestamp,
//! probe flag, retransmission flag and CE mark, plus delivery accounting
//! for goodput metrics. It owns no timer.

use std::collections::BTreeSet;

use netsim::monitor::interest;
use netsim::prelude::*;

use crate::config::TcpConfig;
use crate::segment::{SegKind, Segment};

/// ACK wire size in bytes.
const ACK_BYTES: u32 = 40;

/// Delivery counters for one receiving flow.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReceiverStats {
    /// Data packets received (including duplicates).
    pub pkts_received: u64,
    /// Duplicate data packets (already delivered).
    pub dup_pkts: u64,
    /// Packets delivered in order to the application.
    pub delivered_pkts: u64,
    /// ACK segments transmitted.
    pub acks_sent: u64,
}

/// Receiving side of one flow, owned by a `TcpHost`.
#[derive(Debug)]
pub struct Receiver {
    flow: FlowId,
    rcv_next: u64,
    out_of_order: BTreeSet<u64>,
    stats: ReceiverStats,
    mss_bytes: u32,
}

impl Receiver {
    /// Creates a receiver for `flow` with the connection's configuration
    /// (its MSS scales goodput).
    pub fn new(flow: FlowId, cfg: TcpConfig) -> Self {
        Receiver {
            flow,
            rcv_next: 0,
            out_of_order: BTreeSet::new(),
            stats: ReceiverStats::default(),
            mss_bytes: cfg.mss_bytes,
        }
    }

    /// The flow this receiver serves.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Delivery counters.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// In-order bytes delivered to the application so far.
    pub fn goodput_bytes(&self) -> u64 {
        self.stats.delivered_pkts * self.mss_bytes as u64
    }

    /// Handles an arriving data packet and sends the cumulative ACK. Data
    /// delivered in order is reported to the monitors as `Goodput`
    /// (`ThroughputRecorder` bins it into the goodput time series).
    ///
    /// # Panics
    ///
    /// Panics if the packet is not a data segment.
    pub fn on_data(&mut self, ctx: &mut Ctx<'_, Segment>, pkt: Packet<Segment>) {
        #[expect(
            clippy::panic,
            reason = "the sender only ever addresses the receiver with data; anything else is corruption"
        )]
        let SegKind::Data {
            seq,
            is_probe,
            is_rtx,
            ts,
        } = pkt.payload.kind
        else {
            panic!("receiver got a non-data segment");
        };
        self.stats.pkts_received += 1;
        if seq < self.rcv_next || self.out_of_order.contains(&seq) {
            self.stats.dup_pkts += 1;
        } else if seq == self.rcv_next {
            self.rcv_next += 1;
            let mut delivered = 1;
            while self.out_of_order.remove(&self.rcv_next) {
                self.rcv_next += 1;
                delivered += 1;
            }
            self.stats.delivered_pkts += delivered;
            let (flow, bytes) = (self.flow, delivered * self.mss_bytes as u64);
            ctx.emit_monitor_with(interest::GOODPUT, || MonitorEvent::Goodput { flow, bytes });
        } else {
            self.out_of_order.insert(seq);
        }
        let ack = Segment::ack(self.rcv_next, ts, is_probe, is_rtx, pkt.payload.is_ce());
        let reply = Packet::new(ctx.node(), pkt.src, self.flow, ACK_BYTES, ack);
        ctx.send(reply);
        self.stats.acks_sent += 1;
    }
}
