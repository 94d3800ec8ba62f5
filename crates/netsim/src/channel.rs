//! Unidirectional channels: a drop-tail queue feeding a transmitter and a
//! fixed-latency wire.
//!
//! A duplex link between two nodes is modelled as two independent
//! [`Channel`]s, one per direction, each with its own queue — the same
//! structure as an NS2 duplex link.

use crate::packet::NodeId;
use crate::queue::{DropTailQueue, QueueConfig};
use crate::time::Dur;
use crate::units::Bandwidth;

/// One direction of a link: FIFO queue, serializing transmitter, and a wire
/// with fixed propagation delay.
#[derive(Debug)]
pub struct Channel<P> {
    /// Node at the receiving end.
    pub(crate) to: NodeId,
    /// Transmission rate.
    pub(crate) bandwidth: Bandwidth,
    /// Propagation delay of the wire.
    pub(crate) delay: Dur,
    /// Packets waiting for the transmitter.
    pub(crate) queue: DropTailQueue<P>,
    /// Whether a packet is currently being serialized.
    pub(crate) busy: bool,
}

impl<P: crate::packet::Payload> Channel<P> {
    pub(crate) fn new(to: NodeId, bandwidth: Bandwidth, delay: Dur, config: QueueConfig) -> Self {
        Channel {
            to,
            bandwidth,
            delay,
            queue: DropTailQueue::new(config),
            busy: false,
        }
    }

    /// The node this channel delivers to.
    pub fn destination(&self) -> NodeId {
        self.to
    }

    /// The channel's transmission rate.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }
}
