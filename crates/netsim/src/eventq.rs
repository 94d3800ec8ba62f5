//! The engine's event queue: an indexed 4-ary min-heap.
//!
//! The discrete-event hot path is dominated by `push`/`pop` of
//! near-future events. `std::collections::BinaryHeap` works, but a
//! 4-ary heap laid out in one flat `Vec` halves the tree depth, keeps
//! four children in adjacent entries, and avoids the max-heap
//! key inversion dance ([`std::cmp::Reverse`] wrappers or reversed
//! `Ord`). Entries are stored by value — no per-event boxing — and
//! sifts move small `(key, value)` pairs.
//!
//! Every ordering decision is a single `u128` comparison of one integer
//! key, `(time << 64) | seq`. The engine runs two of these queues:
//! packet events and timers. The packet queue is small (tens to a few
//! hundred entries) and lives in cache; what a pop costs there is the
//! branch on each child comparison, which a two-word `(time, seq)` tuple
//! compare doubles and a one-word compare lets `sift_down` replace with
//! selects. The timer queue holds one entry per armed timer, 10³–10⁶ of
//! them, and is bound by memory instead: an entry stores the key as two
//! `u64` words, so it is 8-aligned and a timer entry is 24 bytes (32
//! under a 16-aligned `u128`).
//!
//! Ordering contract (identical to the `BinaryHeap<EvEntry>` it
//! replaced): events pop in ascending `(time, seq)` order, where `seq`
//! is the queue's own insertion counter. Two events scheduled for the
//! same instant therefore pop in insertion order, which is what makes
//! simulations a pure function of their inputs. The property tests in
//! `tests/eventq_props.rs` pin this equivalence against a
//! `BinaryHeap` reference model.

use crate::time::SimTime;

const ARITY: usize = 4;

#[derive(Clone, Debug)]
struct Entry<T> {
    at: u64,
    seq: u64,
    value: T,
}

impl<T> Entry<T> {
    /// `(time << 64) | seq`: ascending key order is ascending
    /// `(time, seq)` order.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.at) << 64) | u128::from(self.seq)
    }
}

/// A stable priority queue of timestamped events.
///
/// ```
/// use netsim::eventq::EventQueue;
/// use netsim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// q.push(SimTime::from_nanos(10), "early-second");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue<T> {
    heap: Vec<Entry<T>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub const fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            seq: 0,
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `value` at `at`. Amortized O(1) when `at` sorts after
    /// most pending events (the common append-to-the-future case costs
    /// one comparison per tree level actually climbed, usually zero);
    /// O(log₄ n) worst case.
    #[inline]
    pub fn push(&mut self, at: SimTime, value: T) {
        self.seq += 1;
        self.push_with_seq(at, self.seq, value);
    }

    /// Schedules `value` at `at` under a caller-supplied sequence
    /// number instead of the queue's own counter. The engine uses this
    /// to merge its packet and timer queues deterministically: both
    /// draw from one global sequence, so `(at, seq)` totally orders
    /// events across the two. Caller-supplied sequences must be unique;
    /// they do not advance the queue's own counter.
    #[inline]
    pub fn push_with_seq(&mut self, at: SimTime, seq: u64, value: T) {
        self.heap.push(Entry {
            at: at.as_nanos(),
            seq,
            value,
        });
        self.sift_up(self.heap.len() - 1);
    }

    /// `(time, seq)` key and value of the earliest pending event, which
    /// stays queued — what [`Self::pop_with_seq`] would return next.
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, u64, &T)> {
        self.heap
            .first()
            .map(|e| (SimTime::from_nanos(e.at), e.seq, &e.value))
    }

    /// Removes and returns the earliest event (ties in insertion
    /// order).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_with_seq().map(|(at, _, value)| (at, value))
    }

    /// [`Self::pop`], also handing back the sequence number the event
    /// was pushed under (the counterpart of [`Self::push_with_seq`]).
    pub fn pop_with_seq(&mut self) -> Option<(SimTime, u64, T)> {
        let last = self.heap.len().checked_sub(1)?;
        let entry = self.heap.swap_remove(0);
        if last > 0 {
            self.sift_down(0);
        }
        Some((SimTime::from_nanos(entry.at), entry.seq, entry.value))
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() <= self.heap[i].key() {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let first = i * ARITY + 1;
            let best = if first + ARITY <= n {
                // A full group of four children: two pairwise winners,
                // then the final. Each winner is an index computed from
                // a comparison's result, not a branch taken on it —
                // which child is smallest is close to a coin flip per
                // level, the worst case for a branch predictor.
                let key = |j: usize| self.heap[first + j].key();
                let lo = usize::from(key(1) < key(0));
                let hi = 2 + usize::from(key(3) < key(2));
                first + if key(hi) < key(lo) { hi } else { lo }
            } else {
                // The heap's last, partial group — or no child at all.
                match (first..n).min_by_key(|&c| self.heap[c].key()) {
                    Some(c) => c,
                    None => break,
                }
            };
            if self.heap[i].key() <= self.heap[best].key() {
                break;
            }
            self.heap.swap(i, best);
            i = best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// The key is stored as two words, so a timer entry needs no 16-byte
    /// alignment: 24 bytes, where a `u128` field would make it 32.
    #[test]
    fn timer_entry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Entry<crate::sim::TimerId>>(), 24);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &ns in &[50u64, 10, 40, 20, 30, 0, 60] {
            q.push(t(ns), ns);
        }
        let mut out = Vec::new();
        while let Some((at, v)) = q.pop() {
            assert_eq!(at.as_nanos(), v);
            out.push(v);
        }
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60]);
    }

    #[test]
    fn same_timestamp_pops_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(t(7), i);
        }
        for i in 0..100u64 {
            assert_eq!(q.pop(), Some((t(7), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(t(5), 5u64);
        q.push(t(1), 1);
        assert_eq!(q.pop(), Some((t(1), 1)));
        q.push(t(3), 3);
        q.push(t(2), 2);
        assert_eq!(q.pop(), Some((t(2), 2)));
        assert_eq!(q.pop(), Some((t(3), 3)));
        assert_eq!(q.pop(), Some((t(5), 5)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek(), None);
        q.push(t(9), 'b');
        q.push(t(4), 'a');
        assert_eq!(q.peek(), Some((t(4), 2, &'a')));
        q.pop();
        assert_eq!(q.peek(), Some((t(9), 1, &'b')));
    }

    #[test]
    fn len_tracks_operations() {
        let mut q = EventQueue::new();
        q.push(t(1), ());
        q.push(t(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn push_with_seq_orders_by_caller_sequence() {
        let mut q = EventQueue::new();
        q.push_with_seq(t(7), 10, "b");
        q.push_with_seq(t(7), 3, "a");
        q.push_with_seq(t(2), 99, "first");
        assert_eq!(q.peek(), Some((t(2), 99, &"first")));
        assert_eq!(q.pop(), Some((t(2), "first")));
        assert_eq!(q.pop(), Some((t(7), "a")));
        assert_eq!(q.pop(), Some((t(7), "b")));
    }

    #[test]
    fn pop_with_seq_hands_back_the_pushed_sequence() {
        let mut q = EventQueue::new();
        q.push_with_seq(t(7), 10, "b");
        q.push_with_seq(SimTime::MAX, u64::MAX, "last");
        q.push_with_seq(t(7), 3, "a");
        assert_eq!(q.pop_with_seq(), Some((t(7), 3, "a")));
        assert_eq!(q.pop_with_seq(), Some((t(7), 10, "b")));
        assert_eq!(q.pop_with_seq(), Some((SimTime::MAX, u64::MAX, "last")));
        assert_eq!(q.pop_with_seq(), None);
    }
}
