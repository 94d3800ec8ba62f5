//! Unidirectional channels: a drop-tail queue feeding a transmitter and a
//! fixed-latency wire.
//!
//! A duplex link between two nodes is modelled as two independent
//! [`Channel`]s, one per direction, each with its own queue — the same
//! structure as an NS2 duplex link.
//!
//! The transmitter has no busy flag. A channel records the `(time, seq)`
//! key of the wake-up that ends its current transmission, and it is
//! busy exactly while that key is still ahead of the engine's dispatch
//! frontier. The wake-up itself becomes an event only when a packet is
//! waiting for it; see `Core::transmit` in [`crate::sim`].

use crate::packet::NodeId;
use crate::queue::{DropTailQueue, QueueConfig};
use crate::time::{Dur, SimTime};
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
    /// When the transmitter finishes the packet it is serializing (or
    /// finished its last one).
    pub(crate) free_at: SimTime,
    /// The sequence number drawn for that transmission's wake-up:
    /// `(free_at, free_seq)` is where the wake-up sorts among all events,
    /// whether or not it was ever pushed.
    pub(crate) free_seq: u64,
    /// Whether that wake-up is in the event queue. It is whenever a
    /// packet waits behind the transmission in progress.
    pub(crate) tx_armed: bool,
}

impl<P: crate::packet::Payload> Channel<P> {
    pub(crate) fn new(to: NodeId, bandwidth: Bandwidth, delay: Dur, config: QueueConfig) -> Self {
        Channel {
            to,
            bandwidth,
            delay,
            queue: DropTailQueue::new(config),
            free_at: SimTime::ZERO,
            free_seq: 0,
            tx_armed: false,
        }
    }
}
