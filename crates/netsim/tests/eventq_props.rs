//! Property tests pinning [`netsim::EventQueue`] to the `BinaryHeap`
//! reference model it replaced.
//!
//! The engine's byte-identical reproducibility rests on one contract:
//! events pop in `(time, insertion-sequence)` order, exactly as the old
//! `BinaryHeap<EvEntry>` implementation popped them. These tests drive
//! randomized push/pop and schedule/cancel/reschedule workloads through
//! both implementations and require identical observable behavior.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use proptest::prelude::*;

use netsim::time::SimTime;
use netsim::EventQueue;

/// The reference model: the exact structure `sim.rs` used before the
/// indexed 4-ary heap — a `BinaryHeap` of `Reverse<(time, seq, value)>`
/// with an external monotonically increasing sequence counter. `seq` is
/// unique, so `value` never participates in the ordering.
#[derive(Default)]
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    seq: u64,
}

impl ReferenceQueue {
    fn push(&mut self, at: SimTime, value: u64) {
        self.heap.push(Reverse((at, self.seq, value)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|Reverse((at, _, v))| (at, v))
    }
}

proptest! {
    /// Interleaved pushes and pops agree with the reference model at
    /// every step, and both drain to the same tail.
    #[test]
    fn matches_binary_heap_reference(
        ops in proptest::collection::vec((any::<bool>(), 0u64..1_000), 1..400),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model = ReferenceQueue::default();
        let mut next_value = 0u64;
        for (is_push, t) in ops {
            if is_push {
                q.push(SimTime::from_nanos(t), next_value);
                model.push(SimTime::from_nanos(t), next_value);
                next_value += 1;
            } else {
                prop_assert_eq!(q.pop(), model.pop());
            }
            prop_assert_eq!(q.len(), model.heap.len());
            prop_assert_eq!(
                q.peek().map(|(at, _, &v)| (at, v)),
                model.heap.peek().map(|&Reverse((at, _, v))| (at, v))
            );
        }
        loop {
            let (got, want) = (q.pop(), model.pop());
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }

    /// Ties on the timestamp break by insertion order, whatever the
    /// surrounding mix of earlier/later events looks like.
    #[test]
    fn same_timestamp_events_pop_in_insertion_order(
        t in 0u64..1_000,
        n in 1usize..200,
        noise in proptest::collection::vec(0u64..2_000, 0..50),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        for (i, &nt) in noise.iter().enumerate() {
            q.push(SimTime::from_nanos(nt), 1_000_000 + i as u64);
        }
        for v in 0..n as u64 {
            q.push(SimTime::from_nanos(t), v);
        }
        let mut tied: Vec<u64> = Vec::new();
        while let Some((at, v)) = q.pop() {
            if at == SimTime::from_nanos(t) && v < 1_000_000 {
                tied.push(v);
            }
        }
        prop_assert_eq!(tied, (0..n as u64).collect::<Vec<_>>());
    }

    /// Timer-style schedule/cancel/reschedule (lazy deletion: a cancelled
    /// entry stays queued and is skipped when it pops, as in the engine's
    /// timer queue) yields the same delivered-timer stream on both
    /// implementations.
    #[test]
    fn schedule_cancel_reschedule_matches_reference(
        ops in proptest::collection::vec((0u8..3, 0u64..500), 1..300),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model = ReferenceQueue::default();
        let mut cancelled: BTreeSet<u64> = BTreeSet::new();
        let mut live: VecDeque<u64> = VecDeque::new();
        let mut next_id = 0u64;
        let mut schedule = |q: &mut EventQueue<u64>,
                            model: &mut ReferenceQueue,
                            live: &mut VecDeque<u64>,
                            t: u64| {
            let id = next_id;
            next_id += 1;
            q.push(SimTime::from_nanos(t), id);
            model.push(SimTime::from_nanos(t), id);
            live.push_back(id);
        };
        for (op, t) in ops {
            match op {
                0 => schedule(&mut q, &mut model, &mut live, t),
                1 => {
                    if let Some(id) = live.pop_front() {
                        cancelled.insert(id);
                    }
                }
                _ => {
                    // Reschedule = cancel + schedule under a fresh id,
                    // what the engine's `rearm_timer` is observably.
                    if let Some(id) = live.pop_front() {
                        cancelled.insert(id);
                    }
                    schedule(&mut q, &mut model, &mut live, t);
                }
            }
        }
        let drain = |pop: &mut dyn FnMut() -> Option<(SimTime, u64)>| {
            let mut fired = Vec::new();
            while let Some((at, id)) = pop() {
                if !cancelled.contains(&id) {
                    fired.push((at, id));
                }
            }
            fired
        };
        let fired_q = drain(&mut || q.pop());
        let fired_model = drain(&mut || model.pop());
        prop_assert_eq!(fired_q, fired_model);
        // Every live timer fired exactly once, in schedule-consistent order.
        prop_assert_eq!(q.len(), 0);
    }
}
