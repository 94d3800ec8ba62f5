//! The flow slab: the sender state of every connection on a host, keyed
//! by dense flow id.
//!
//! Each slot holds one `Conn` inline: the whole sender state of the
//! flow, one load from the table. An event borrows its flow's
//! connection in place (`get_mut`); there is no second copy of it
//! anywhere, so a reader between events sees exactly the state the next
//! event will act on.
//!
//! Slots are recycled through a freelist with generation counters and
//! allocated/freed accounting, so teardown at scale reuses ids instead
//! of growing the table, and [`leak_check`](FlowSlab::leak_check)
//! catches any slot that is neither live nor free.

use crate::conn::Conn;

/// Lifecycle accounting for a [`FlowSlab`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlabAudit {
    /// Flows ever inserted.
    pub allocated: u64,
    /// Flows removed (including leaked removals).
    pub freed: u64,
    /// Currently live flows (`allocated - freed`).
    pub live: u64,
    /// Peak concurrent live flows.
    pub high_water: u64,
}

/// Slab of sender state, keyed by dense flow id.
#[derive(Debug, Default)]
pub struct FlowSlab {
    /// One connection per slot; `None` marks a vacant (or leaked) slot.
    conns: Vec<Option<Conn>>,
    /// Slot birth count: bumped on every removal, so tests can observe
    /// id reuse.
    generation: Vec<u32>,
    /// Vacant slot ids available for reuse.
    freelist: Vec<usize>,

    allocated: u64,
    freed: u64,
    high_water: u64,
    /// Fault injection: leak the next removed slot (drop the connection
    /// but never return the id to the freelist).
    leak_next_remove: bool,
}

impl FlowSlab {
    /// Creates an empty slab.
    pub fn new() -> Self {
        FlowSlab::default()
    }

    /// Creates an empty slab with capacity for `n` flows.
    pub fn with_capacity(n: usize) -> Self {
        FlowSlab {
            conns: Vec::with_capacity(n),
            generation: Vec::with_capacity(n),
            ..FlowSlab::default()
        }
    }

    /// Live flows.
    pub fn len(&self) -> usize {
        (self.allocated - self.freed) as usize
    }

    /// Whether no flows are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots ever created (live + vacant + leaked).
    pub fn capacity(&self) -> usize {
        self.conns.len()
    }

    /// Whether `id` names a live flow.
    pub fn contains(&self, id: usize) -> bool {
        self.conns.get(id).is_some_and(Option::is_some)
    }

    /// The slot's birth count: 0 for a first occupant, +1 per removal.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never allocated.
    pub fn generation(&self, id: usize) -> u32 {
        self.generation[id]
    }

    /// Lifecycle accounting so far.
    pub fn audit(&self) -> SlabAudit {
        SlabAudit {
            allocated: self.allocated,
            freed: self.freed,
            live: self.allocated - self.freed,
            high_water: self.high_water,
        }
    }

    /// Inserts a connection; returns its dense flow id and stamps it
    /// into the connection's `local_idx` (timer tokens embed it). Vacated
    /// ids are reused before the table grows.
    pub(crate) fn insert(&mut self, mut conn: Conn) -> usize {
        self.allocated += 1;
        self.high_water = self.high_water.max(self.allocated - self.freed);
        if let Some(id) = self.freelist.pop() {
            conn.local_idx = id as u64;
            self.conns[id] = Some(conn);
            id
        } else {
            let id = self.conns.len();
            conn.local_idx = id as u64;
            self.conns.push(Some(conn));
            self.generation.push(0);
            id
        }
    }

    /// Removes a live flow, returning its connection. The caller must
    /// have cancelled the flow's timers first (`Conn::cancel_timers`)
    /// so a recycled id cannot receive stale fires.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub(crate) fn remove(&mut self, id: usize) -> Conn {
        #[expect(
            clippy::expect_used,
            reason = "double-free of a flow id is a host bug, not a recoverable state"
        )]
        let conn = self.conns[id].take().expect("removed a vacant flow slot");
        self.freed += 1;
        self.generation[id] += 1;
        if self.leak_next_remove {
            // Fault: forget the slot instead of freeing it. leak_check()
            // must notice the id is neither live nor on the freelist.
            self.leak_next_remove = false;
        } else {
            self.freelist.push(id);
        }
        conn
    }

    /// Fault injection: the next [`Self::remove`] drops the connection
    /// but never returns the id to the freelist, simulating a lifecycle
    /// bug. Exists to prove [`Self::leak_check`] catches it.
    pub fn inject_slot_leak(&mut self) {
        self.leak_next_remove = true;
    }

    /// Verifies the lifecycle books balance: occupied slots match
    /// `allocated - freed`, and every slot is either live or on the
    /// freelist (exactly once).
    pub fn leak_check(&self) -> Result<(), String> {
        let occupied = self.conns.iter().filter(|c| c.is_some()).count() as u64;
        let live = self.allocated - self.freed;
        if occupied != live {
            return Err(format!(
                "slab books disagree: {occupied} occupied slots vs {} allocated - {} freed",
                self.allocated, self.freed
            ));
        }
        let mut seen = vec![false; self.conns.len()];
        for &id in &self.freelist {
            if self.conns[id].is_some() {
                return Err(format!("freelist holds live flow id {id}"));
            }
            if seen[id] {
                return Err(format!("freelist holds flow id {id} twice"));
            }
            seen[id] = true;
        }
        let reachable = occupied as usize + self.freelist.len();
        if reachable != self.conns.len() {
            return Err(format!(
                "{} slab slot(s) leaked: {} total, {occupied} live, {} free",
                self.conns.len() - reachable,
                self.conns.len(),
                self.freelist.len()
            ));
        }
        Ok(())
    }

    /// Borrows the connection of live flow `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    #[expect(clippy::expect_used, reason = "reading a freed flow id is a host bug")]
    pub(crate) fn get(&self, id: usize) -> &Conn {
        self.conns[id].as_ref().expect("vacant flow slot")
    }

    /// Mutably borrows the connection of live flow `id`, in place.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    #[expect(clippy::expect_used, reason = "reading a freed flow id is a host bug")]
    pub(crate) fn get_mut(&mut self, id: usize) -> &mut Conn {
        self.conns[id].as_mut().expect("vacant flow slot")
    }

    /// Ids of live flows, ascending.
    pub fn live_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.conns
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|_| i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CcKind;
    use crate::config::TcpConfig;
    use crate::conn::new_conn;
    use crate::segment::Segment;
    use netsim::prelude::FlowId;
    use netsim::sim::Simulator;

    /// Any valid `NodeId` works as a destination; borrow one from a
    /// throwaway simulator.
    fn dst() -> netsim::packet::NodeId {
        let mut sim: Simulator<Segment> = Simulator::new();
        sim.add_switch()
    }

    fn entry(flow: u64, cfg: TcpConfig) -> Conn {
        new_conn(FlowId(flow), dst(), cfg, CcKind::Reno.build())
    }

    fn filled(n: u64) -> FlowSlab {
        let mut s = FlowSlab::new();
        for f in 0..n {
            s.insert(entry(f, TcpConfig::default()));
        }
        s
    }

    #[test]
    fn insert_assigns_dense_ids_and_counts() {
        let mut s = FlowSlab::with_capacity(4);
        for f in 0..3u64 {
            assert_eq!(s.insert(entry(f, TcpConfig::default())), f as usize);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.capacity(), 3);
        assert!(s.contains(2) && !s.contains(3));
        assert_eq!(s.get(1).flow(), FlowId(1));
        assert_eq!(s.get(1).local_idx, 1);
        assert_eq!(
            s.audit(),
            SlabAudit {
                allocated: 3,
                freed: 0,
                live: 3,
                high_water: 3,
            }
        );
        assert_eq!(s.live_ids().collect::<Vec<_>>(), vec![0, 1, 2]);
        s.leak_check().unwrap();
    }

    #[test]
    fn removed_id_is_reused_with_bumped_generation() {
        let mut s = filled(2);
        assert_eq!(s.generation(0), 0);
        let conn = s.remove(0);
        assert_eq!(conn.flow(), FlowId(0));
        assert!(!s.contains(0));
        assert_eq!(s.generation(0), 1);
        s.leak_check().unwrap();

        // The vacated id is reused before the table grows, and the new
        // occupant's local_idx is restamped.
        assert_eq!(s.insert(entry(9, TcpConfig::default())), 0);
        assert_eq!(s.get(0).flow(), FlowId(9));
        assert_eq!(s.get(0).local_idx, 0);
        assert_eq!(s.capacity(), 2, "reuse must not grow the table");
        assert_eq!(
            s.audit(),
            SlabAudit {
                allocated: 3,
                freed: 1,
                live: 2,
                high_water: 2,
            }
        );
        s.leak_check().unwrap();
    }

    #[test]
    fn injected_slot_leak_is_caught() {
        let mut s = filled(3);
        s.inject_slot_leak();
        let _ = s.remove(1);
        // The books still count the free, but the id is gone: neither
        // live nor on the freelist.
        assert_eq!(s.audit().freed, 1);
        let err = s.leak_check().unwrap_err();
        assert!(err.contains("leaked"), "unexpected message: {err}");

        // The leaked id must never be handed out again: the next insert
        // grows the table instead.
        assert_eq!(s.insert(entry(9, TcpConfig::default())), 3);
        // The fault is one-shot: a later remove frees normally.
        let _ = s.remove(2);
        assert_eq!(s.insert(entry(10, TcpConfig::default())), 2);
    }

    #[test]
    fn leak_check_flags_corrupt_freelists() {
        // White-box: corrupt the freelist directly to prove the checks
        // are live (a live id on the freelist, then a duplicate entry).
        let mut s = filled(2);
        s.freelist.push(1);
        let err = s.leak_check().unwrap_err();
        assert!(err.contains("live flow id 1"), "unexpected message: {err}");

        let mut s = filled(2);
        let _ = s.remove(0);
        s.freelist.push(0);
        let err = s.leak_check().unwrap_err();
        assert!(err.contains("twice"), "unexpected message: {err}");
    }

    #[test]
    #[should_panic(expected = "vacant")]
    fn double_remove_panics() {
        let mut s = filled(1);
        let _ = s.remove(0);
        let _ = s.remove(0);
    }
}
