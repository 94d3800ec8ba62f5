//! Packets and the payload abstraction.
//!
//! The simulator moves [`Packet`]s between nodes. The transport protocol
//! defines the payload type `P`; the simulator itself only needs the fields
//! on [`Packet`] (routing addresses, size, flow label) plus the small
//! [`Payload`] trait so switches can apply ECN marking without knowing the
//! payload's structure.

use core::fmt;

/// Identifies a node (host or switch) in the simulated network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index of this node, usable for array-indexed lookups.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a unidirectional channel (queue + transmitter + wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub(crate) u32);

impl ChannelId {
    /// The raw index of this channel.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// A flow label carried by every packet.
///
/// Switches hash it for equal-cost multi-path selection and per-flow
/// accounting; the transport layer uses it as the connection id.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Behaviour the simulator needs from a transport payload.
///
/// The default implementations describe a payload that is not ECN-capable,
/// which is correct for plain TCP; DCTCP-style payloads override all three
/// methods.
pub trait Payload: Clone + fmt::Debug + 'static {
    /// Whether the packet is ECN-capable transport (ECT); only such packets
    /// are marked rather than dropped... marked *in addition to* normal
    /// drop-tail behaviour: marking never replaces a drop in this model.
    fn ecn_capable(&self) -> bool {
        false
    }

    /// Sets the Congestion Experienced codepoint.
    fn mark_ce(&mut self) {}

    /// Whether Congestion Experienced is set.
    fn is_ce(&self) -> bool {
        false
    }
}

/// A packet in flight.
#[derive(Clone, Debug)]
pub struct Packet<P> {
    /// Source host.
    pub src: NodeId,
    /// Destination host; switches forward on this field.
    pub dst: NodeId,
    /// Flow label for ECMP hashing and accounting.
    pub flow: FlowId,
    /// Total wire size in bytes (headers + data).
    pub size: u32,
    /// Engine-unique packet id, assigned by the simulator at injection
    /// (`0` until then). Invariant monitors use it to track individual
    /// packets — e.g. per-port FIFO order — across hops, which the
    /// `(src, dst, flow, size)` tuple cannot do unambiguously.
    pub uid: u64,
    /// Transport payload.
    pub payload: P,
}

impl<P: Payload> Packet<P> {
    /// Creates a packet. `uid` is assigned by the simulator on send.
    pub fn new(src: NodeId, dst: NodeId, flow: FlowId, size: u32, payload: P) -> Self {
        Packet {
            src,
            dst,
            flow,
            size,
            uid: 0,
            payload,
        }
    }
}

/// A minimal payload for tests and examples: an opaque tag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TagPayload(pub u64);

impl Payload for TagPayload {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_payload_is_not_ecn_capable() {
        let mut p = TagPayload(7);
        assert!(!p.ecn_capable());
        assert!(!p.is_ce());
        p.mark_ce(); // no-op
        assert!(!p.is_ce());
    }

    #[test]
    fn ids_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(ChannelId(9).to_string(), "ch9");
        assert_eq!(FlowId(2).to_string(), "f2");
    }

    /// Every queued and in-flight packet carries these bytes; a field
    /// added here is paid for 10^5 times over in an incast.
    #[test]
    fn packet_header_is_32_bytes() {
        let header = std::mem::size_of::<Packet<TagPayload>>() - std::mem::size_of::<TagPayload>();
        assert_eq!(header, 32);
    }

    #[test]
    fn packet_new_leaves_uid_unassigned() {
        let p = Packet::new(NodeId(0), NodeId(1), FlowId(5), 1460, TagPayload(1));
        assert_eq!(p.uid, 0);
        assert_eq!(p.size, 1460);
        assert_eq!(p.flow, FlowId(5));
    }
}
