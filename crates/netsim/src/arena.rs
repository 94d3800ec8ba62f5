//! Packet arena: slab + freelist storage for in-flight packets.
//!
//! Every packet on the wire — dequeued into a transmitter and awaiting
//! its scheduled `Arrival` — lives in one [`PacketArena`]. Events then
//! carry a 4-byte [`PacketRef`] instead of the packet itself, which
//! keeps event-queue entries small and `Copy`, and means steady-state
//! simulation performs zero per-packet heap allocation: freed slots are
//! recycled through a freelist, so after warm-up the slab stops
//! growing. (Packets waiting in a channel queue live in that queue's
//! ring buffer, which likewise reuses its storage.)
//!
//! The arena also doubles as a leak detector. [`PacketArena::live`]
//! counts slots currently allocated; it must equal the engine's count
//! of pending `Arrival` events at every instant, and after a drained
//! run it must be zero. The packet-conservation monitor in
//! `crates/check` asserts exactly that via
//! [`AuditStats::arena_live`](crate::monitor::AuditStats).

use crate::packet::Packet;

/// Index of a live packet in a [`PacketArena`].
///
/// Refs are move-once tickets: the engine allocates one per injected or
/// enqueued packet and consumes it exactly once via
/// [`PacketArena::free`]. Holding a ref past its `free` is a logic bug
/// — the slot may be recycled for an unrelated packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PacketRef(u32);

/// Slab of in-flight packets with freelist recycling.
#[derive(Clone, Debug)]
pub struct PacketArena<P> {
    slots: Vec<Option<Packet<P>>>,
    free: Vec<u32>,
    live: usize,
    high_water: usize,
}

impl<P> Default for PacketArena<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> PacketArena<P> {
    /// Creates an empty arena.
    pub const fn new() -> Self {
        PacketArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            high_water: 0,
        }
    }

    /// Stores `pkt`, recycling a freed slot when one is available.
    #[inline]
    pub fn alloc(&mut self, pkt: Packet<P>) -> PacketRef {
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.slots[idx as usize].is_none());
                self.slots[idx as usize] = Some(pkt);
                PacketRef(idx)
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("arena exceeds u32 slots"); // trim-lint: allow(no-panic-in-library, reason = "4G live packets exhausts memory long before this fires")
                self.slots.push(Some(pkt));
                PacketRef(idx)
            }
        }
    }

    /// Removes and returns the packet behind `r`, releasing its slot.
    ///
    /// Panics if `r` was already freed — a double-free here would mean
    /// the engine duplicated or lost a packet.
    #[inline]
    pub fn free(&mut self, r: PacketRef) -> Packet<P> {
        let pkt = self.slots[r.0 as usize]
            .take()
            .expect("PacketRef freed twice or never allocated"); // trim-lint: allow(no-panic-in-library, reason = "documented panic: a double-free means the engine duplicated a packet")
        self.live -= 1;
        self.free.push(r.0);
        pkt
    }

    /// Number of packets currently allocated.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Peak concurrent allocation over the arena's lifetime.
    #[inline]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total slots ever created (live + recyclable).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, Packet, TagPayload};

    fn pkt(uid: u64) -> Packet<TagPayload> {
        Packet {
            src: NodeId(0),
            dst: NodeId(1),
            flow: FlowId(9),
            size: 1500,
            uid,
            payload: TagPayload(7),
        }
    }

    #[test]
    fn alloc_free_round_trips_packets() {
        let mut a = PacketArena::new();
        let r1 = a.alloc(pkt(1));
        let r2 = a.alloc(pkt(2));
        assert_eq!(a.live(), 2);
        assert_eq!(a.free(r1).uid, 1);
        assert_eq!(a.free(r2).uid, 2);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn freed_slots_are_recycled_not_grown() {
        let mut a = PacketArena::new();
        let refs: Vec<_> = (0..64).map(|i| a.alloc(pkt(i))).collect();
        assert_eq!(a.capacity(), 64);
        for r in refs {
            a.free(r);
        }
        // Steady state: churn through many more packets than peak
        // concurrency without growing the slab.
        for round in 0..100u64 {
            let refs: Vec<_> = (0..64).map(|i| a.alloc(pkt(round * 64 + i))).collect();
            for r in refs {
                a.free(r);
            }
        }
        assert_eq!(a.capacity(), 64, "freelist must recycle slots");
        assert_eq!(a.high_water(), 64);
        assert_eq!(a.live(), 0);
    }

    #[test]
    #[should_panic(expected = "freed twice")]
    fn double_free_panics() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(1));
        a.free(r);
        a.free(r);
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let mut a = PacketArena::new();
        let r1 = a.alloc(pkt(1));
        let r2 = a.alloc(pkt(2));
        a.free(r1);
        a.free(r2);
        assert_eq!(a.live(), 0);
        assert_eq!(a.high_water(), 2);
        a.alloc(pkt(3));
        assert_eq!(a.high_water(), 2);
    }
}
