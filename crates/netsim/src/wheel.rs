//! Hierarchical timing wheel for timer events.
//!
//! The engine schedules two very different event populations: packet and
//! link events, which are dense in time and short-lived, and per-flow
//! timers (RTO, probe deadlines), which at the million-flow
//! scale dominate the event count and are overwhelmingly *cancelled*
//! before they fire (every ACK re-arms the RTO). A comparison-based heap
//! pays `O(log n)` per schedule and cannot cancel in place; the wheel
//! pays `O(1)` for schedule and cancel on the hot near-horizon levels and
//! amortized `O(1)` per fired timer.
//!
//! Layout: [`LEVELS`] levels of [`SLOTS`] slots each. Level `l` has slot
//! width `2^(BASE_SHIFT + LEVEL_BITS * l)` nanoseconds, so level 0 covers
//! ~268 µs at ~4 µs resolution and the top level covers ~3.3 days. A
//! timer is placed at the lowest level whose window (64 slots ahead of
//! the cursor) contains its deadline; deadlines beyond the top window go
//! to a small overflow list. When the cursor crosses a slot boundary at
//! level `l ≥ 1`, the slot it enters is drained and its timers re-placed
//! at lower levels (the cascade). Because the engine never advances time
//! past a pending timer without popping it, a cascade only ever touches
//! the slot the cursor is entering, which keeps advancement cheap.
//!
//! Determinism: every timer carries the engine's global insertion
//! sequence number, and [`TimerWheel::peek_key`]/[`TimerWheel::pop`]
//! order strictly by `(deadline, seq)` — the exact total order the
//! [`EventQueue`](crate::EventQueue) provides — so the two sources merge
//! into one deterministic stream. Two live timers with equal deadlines
//! always occupy the same slot (placement depends only on the deadline
//! and the cursor), so the FIFO tie-break is a local scan of one slot.
//!
//! Cancellation is O(1) and *generational*: [`TimerWheel::cancel`] frees
//! the entry immediately and bumps its generation, so a stale handle —
//! one whose timer already fired, or whose slot was recycled for a newer
//! timer — can never cancel the wrong timer (the "ghost cancel" edge) and
//! a fired timer can never fire twice (refs to freed entries are skipped
//! and compacted lazily).

use std::fmt;

use crate::time::SimTime;

/// Number of wheel levels.
const LEVELS: usize = 6;
/// Slots per level; also the per-level fan-out (2^LEVEL_BITS).
const SLOTS: usize = 64;
/// log2 of the level-0 slot width in nanoseconds (~4.1 µs).
const BASE_SHIFT: u32 = 12;
/// log2 of SLOTS.
const LEVEL_BITS: u32 = 6;

/// log2 of the slot width at `level`.
#[inline]
const fn shift(level: usize) -> u32 {
    BASE_SHIFT + LEVEL_BITS * level as u32
}

/// A handle into the entry slab: index plus the generation it was issued
/// under. Slot vectors store these; a ref whose generation no longer
/// matches its entry is dead (cancelled or fired) and is dropped on
/// contact.
#[derive(Clone, Copy, Debug)]
struct SlotRef {
    idx: u32,
    gen: u32,
}

/// One timer in the entry slab.
#[derive(Clone, Copy, Debug)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    gen: u32,
    value: T,
}

/// Where the cached minimum currently lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loc {
    Slot { level: u8, slot: u8 },
    Overflow,
}

/// Cached minimum pending timer, kept coherent across schedule/cancel
/// so repeated peeks in the merge loop are O(1).
#[derive(Clone, Copy, Debug)]
struct Cached {
    at: SimTime,
    seq: u64,
    idx: u32,
    loc: Loc,
}

/// Hierarchical timing wheel ordered by `(deadline, sequence)`.
///
/// `T` is the timer payload, returned by value on [`TimerWheel::pop`].
pub struct TimerWheel<T: Copy> {
    /// Entry slab; freed entries are recycled through `free`.
    entries: Vec<Entry<T>>,
    /// Free list of slab indices.
    free: Vec<u32>,
    /// `LEVELS * SLOTS` buckets of refs into the slab.
    slots: Vec<Vec<SlotRef>>,
    /// Per-level occupancy bitmask (bit `s` = slot `s` non-empty). May
    /// overstate occupancy (stale refs); never understates it.
    occ: [u64; LEVELS],
    /// Deadlines beyond the top level's window.
    overflow: Vec<SlotRef>,
    /// Current wheel time in nanoseconds. Invariant: no live entry has a
    /// deadline below this.
    cur: u64,
    /// Live (scheduled, not yet fired or cancelled) timer count.
    live: usize,
    /// Cached `(deadline, seq)` minimum, if known.
    cached: Option<Cached>,
}

impl<T: Copy> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> TimerWheel<T> {
    /// Creates an empty wheel at time zero.
    pub fn new() -> Self {
        TimerWheel {
            entries: Vec::new(),
            free: Vec::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            overflow: Vec::new(),
            cur: 0,
            live: 0,
            cached: None,
        }
    }

    /// Number of live timers.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Current wheel time in nanoseconds.
    pub fn now_nanos(&self) -> u64 {
        self.cur
    }

    /// Schedules a timer at `at` with the caller-supplied insertion
    /// sequence number and returns an opaque handle for [`Self::cancel`].
    ///
    /// `seq` must be unique and monotonically increasing across all
    /// schedules (the engine's global event sequence); `at` must not be
    /// in the wheel's past.
    pub fn schedule(&mut self, at: SimTime, seq: u64, value: T) -> u64 {
        debug_assert!(
            at.as_nanos() >= self.cur,
            "timer scheduled into the wheel's past"
        );
        let idx = match self.free.pop() {
            Some(i) => {
                let e = &mut self.entries[i as usize];
                e.at = at;
                e.seq = seq;
                e.value = value;
                i
            }
            None => {
                self.entries.push(Entry {
                    at,
                    seq,
                    gen: 0,
                    value,
                });
                (self.entries.len() - 1) as u32
            }
        };
        let gen = self.entries[idx as usize].gen;
        let loc = self.place(SlotRef { idx, gen }, at);
        self.live += 1;
        // A known minimum can only be improved on; an unknown minimum
        // (cache invalidated by a cancel) stays unknown — the new timer
        // is not necessarily the smallest pending one. The sole timer of
        // a previously empty wheel is trivially the minimum.
        if self.live == 1 {
            self.cached = Some(Cached { at, seq, idx, loc });
        } else if let Some(c) = self.cached {
            if (at, seq) < (c.at, c.seq) {
                self.cached = Some(Cached { at, seq, idx, loc });
            }
        }
        (u64::from(gen) << 32) | u64::from(idx)
    }

    /// Cancels the timer behind `handle`. Returns its deadline if it was
    /// still live, `None` if it already fired or was already cancelled
    /// (including when its slab slot has since been recycled — the
    /// generation check makes a stale handle a no-op).
    pub fn cancel(&mut self, handle: u64) -> Option<SimTime> {
        let idx = (handle & 0xFFFF_FFFF) as usize;
        let gen = (handle >> 32) as u32;
        let e = self.entries.get(idx)?;
        if e.gen != gen {
            return None;
        }
        let at = e.at;
        self.entries[idx].gen = self.entries[idx].gen.wrapping_add(1);
        self.free.push(idx as u32);
        self.live -= 1;
        if let Some(c) = self.cached {
            if c.idx == idx as u32 {
                self.cached = None;
            }
        }
        Some(at)
    }

    /// The `(deadline, seq)` key of the next timer to fire, if any.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if self.cached.is_none() {
            self.cached = self.scan();
        }
        self.cached.map(|c| (c.at, c.seq))
    }

    /// Removes and returns the next timer in `(deadline, seq)` order,
    /// advancing the wheel to its deadline.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let c = match self.cached {
            Some(c) => c,
            None => {
                self.cached = self.scan();
                self.cached?
            }
        };
        let value = self.remove_ref(c);
        self.cached = None;
        self.advance_to(c.at);
        Some((c.at, c.seq, value))
    }

    /// Advances the wheel's notion of time to `t`, cascading any slot the
    /// cursor enters at levels ≥ 1. Safe to call with `t` in the past
    /// (no-op). The engine calls this whenever it processes a non-timer
    /// event, so placement windows track simulation time.
    pub fn advance_to(&mut self, t: SimTime) {
        let t = t.as_nanos();
        if t <= self.cur {
            return;
        }
        let old = self.cur;
        self.cur = t;
        // Top-down so an entry cascading out of level l can land in — and
        // then be drained from — the freshly entered slot of level l-1.
        for l in (1..LEVELS).rev() {
            let s = shift(l);
            let tick = t >> s;
            if tick == old >> s {
                continue;
            }
            // Only the tick being entered can hold live entries: every
            // live deadline is >= t (the engine pops timers before
            // advancing past them), so ticks in (old, tick) are empty of
            // live refs, and ticks beyond `tick` stay put.
            let slot = (tick & (SLOTS as u64 - 1)) as usize;
            let cell = l * SLOTS + slot;
            if self.slots[cell].is_empty() {
                self.occ[l] &= !(1u64 << slot);
                continue;
            }
            let refs = std::mem::take(&mut self.slots[cell]);
            self.occ[l] &= !(1u64 << slot);
            for r in refs {
                let e = &self.entries[r.idx as usize];
                if e.gen != r.gen {
                    continue; // cancelled or fired: drop the stale ref
                }
                if e.at.as_nanos() >> s == tick {
                    let at = e.at;
                    let loc = self.place(r, at);
                    if let Some(c) = &mut self.cached {
                        if c.idx == r.idx {
                            c.loc = loc;
                        }
                    }
                } else {
                    // Aliased future tick (defensive; placement windows
                    // make this unreachable): keep it where it was.
                    self.slots[cell].push(r);
                    self.occ[l] |= 1u64 << slot;
                }
            }
        }
    }

    /// Places a ref at the lowest level whose window contains `at`.
    fn place(&mut self, r: SlotRef, at: SimTime) -> Loc {
        let t = at.as_nanos();
        for l in 0..LEVELS {
            let s = shift(l);
            if (t >> s).saturating_sub(self.cur >> s) < SLOTS as u64 {
                let slot = ((t >> s) & (SLOTS as u64 - 1)) as usize;
                self.slots[l * SLOTS + slot].push(r);
                self.occ[l] |= 1u64 << slot;
                return Loc::Slot {
                    level: l as u8,
                    slot: slot as u8,
                };
            }
        }
        self.overflow.push(r);
        Loc::Overflow
    }

    /// Removes the ref described by a (valid) cached minimum, frees its
    /// entry, and returns the payload. Compacts stale refs it walks over.
    fn remove_ref(&mut self, c: Cached) -> T {
        let bucket = match c.loc {
            Loc::Slot { level, slot } => {
                &mut self.slots[usize::from(level) * SLOTS + usize::from(slot)]
            }
            Loc::Overflow => &mut self.overflow,
        };
        let mut i = 0;
        let mut found = false;
        while i < bucket.len() {
            let r = bucket[i];
            if r.idx == c.idx && self.entries[r.idx as usize].gen == r.gen {
                bucket.swap_remove(i);
                found = true;
                break;
            }
            if self.entries[r.idx as usize].gen != r.gen {
                bucket.swap_remove(i);
                continue;
            }
            i += 1;
        }
        debug_assert!(found, "cached minimum not found in its bucket");
        if bucket.is_empty() {
            if let Loc::Slot { level, slot } = c.loc {
                self.occ[usize::from(level)] &= !(1u64 << slot);
            }
        }
        let e = &mut self.entries[c.idx as usize];
        let value = e.value;
        e.gen = e.gen.wrapping_add(1);
        self.free.push(c.idx);
        self.live -= 1;
        value
    }

    /// Full minimum scan: per level, walk occupied slots in circular tick
    /// order from the cursor and take the first non-stale bucket's
    /// `(at, seq)` minimum; prune higher levels once the best key beats
    /// their lower bound; always fold in the overflow list.
    fn scan(&mut self) -> Option<Cached> {
        let mut best: Option<Cached> = None;
        for l in 0..LEVELS {
            if l > 0 {
                if let Some(b) = &best {
                    // Every level-l live entry's tick is strictly ahead of
                    // the cursor's, so its deadline is at least the start
                    // of the next level-l tick.
                    let bound = ((self.cur >> shift(l)) + 1) << shift(l);
                    if b.at.as_nanos() < bound {
                        break;
                    }
                }
            }
            let p = ((self.cur >> shift(l)) & (SLOTS as u64 - 1)) as u32;
            let mut mask = self.occ[l];
            while mask != 0 {
                let k = mask.rotate_right(p).trailing_zeros();
                let slot = ((p + k) & (SLOTS as u32 - 1)) as usize;
                match self.bucket_min(
                    l * SLOTS + slot,
                    Loc::Slot {
                        level: l as u8,
                        slot: slot as u8,
                    },
                ) {
                    Some(c) => {
                        if best.is_none_or(|b| (c.at, c.seq) < (b.at, b.seq)) {
                            best = Some(c);
                        }
                        break;
                    }
                    None => {
                        self.occ[l] &= !(1u64 << slot);
                        mask &= !(1u64 << slot);
                    }
                }
            }
        }
        if !self.overflow.is_empty() {
            if let Some(c) = self.bucket_min_overflow() {
                if best.is_none_or(|b| (c.at, c.seq) < (b.at, b.seq)) {
                    best = Some(c);
                }
            }
        }
        best
    }

    /// Minimum live entry in a slot bucket, compacting stale refs.
    fn bucket_min(&mut self, cell: usize, loc: Loc) -> Option<Cached> {
        let bucket = &mut self.slots[cell];
        let mut best: Option<Cached> = None;
        let mut i = 0;
        while i < bucket.len() {
            let r = bucket[i];
            let e = &self.entries[r.idx as usize];
            if e.gen != r.gen {
                bucket.swap_remove(i);
                continue;
            }
            if best.is_none_or(|b| (e.at, e.seq) < (b.at, b.seq)) {
                best = Some(Cached {
                    at: e.at,
                    seq: e.seq,
                    idx: r.idx,
                    loc,
                });
            }
            i += 1;
        }
        best
    }

    /// Minimum live entry in the overflow list, compacting stale refs.
    fn bucket_min_overflow(&mut self) -> Option<Cached> {
        let mut best: Option<Cached> = None;
        let mut i = 0;
        while i < self.overflow.len() {
            let r = self.overflow[i];
            let e = &self.entries[r.idx as usize];
            if e.gen != r.gen {
                self.overflow.swap_remove(i);
                continue;
            }
            if best.is_none_or(|b| (e.at, e.seq) < (b.at, b.seq)) {
                best = Some(Cached {
                    at: e.at,
                    seq: e.seq,
                    idx: r.idx,
                    loc: Loc::Overflow,
                });
            }
            i += 1;
        }
        best
    }
}

impl<T: Copy> fmt::Debug for TimerWheel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimerWheel")
            .field("live", &self.live)
            .field("cur", &self.cur)
            .field("entries", &self.entries.len())
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, seq, v)) = w.pop() {
            out.push((at.as_nanos(), seq, v));
        }
        out
    }

    #[test]
    fn pops_in_deadline_then_seq_order() {
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_nanos(500), 1, 10);
        w.schedule(SimTime::from_nanos(100), 2, 20);
        w.schedule(SimTime::from_nanos(500), 3, 30);
        w.schedule(SimTime::from_nanos(1 << 20), 4, 40); // level 1+
        assert_eq!(
            drain(&mut w),
            vec![(100, 2, 20), (500, 1, 10), (500, 3, 30), (1 << 20, 4, 40)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn cancel_is_o1_and_returns_deadline() {
        let mut w = TimerWheel::new();
        let a = w.schedule(SimTime::from_nanos(100), 1, 1);
        let b = w.schedule(SimTime::from_nanos(200), 2, 2);
        assert_eq!(w.cancel(a), Some(SimTime::from_nanos(100)));
        assert_eq!(w.cancel(a), None, "double cancel is a no-op");
        assert_eq!(w.len(), 1);
        assert_eq!(drain(&mut w), vec![(200, 2, 2)]);
        assert_eq!(w.cancel(b), None, "cancelling a fired timer is a no-op");
    }

    #[test]
    fn stale_handle_cannot_cancel_recycled_slot() {
        let mut w = TimerWheel::new();
        let a = w.schedule(SimTime::from_nanos(100), 1, 1);
        assert!(w.pop().is_some()); // `a` fires; its slab slot is freed
        let b = w.schedule(SimTime::from_nanos(200), 2, 2);
        // `b` recycles the slot behind `a`'s handle; the generation
        // check must make the stale cancel a no-op.
        assert_eq!(w.cancel(a), None);
        assert_eq!(w.len(), 1);
        assert_eq!(w.cancel(b), Some(SimTime::from_nanos(200)));
    }

    #[test]
    fn far_future_timer_cascades_down() {
        let mut w = TimerWheel::new();
        // Deadline far beyond level 0's window, plus near timers around it.
        let far = (1u64 << 30) + 12_345;
        w.schedule(SimTime::from_nanos(far), 1, 1);
        w.schedule(SimTime::from_nanos(64), 2, 2);
        assert_eq!(w.pop().map(|(at, ..)| at.as_nanos()), Some(64));
        // Advance across several cascade boundaries below the deadline.
        w.advance_to(SimTime::from_nanos(far - 1));
        assert_eq!(w.peek_key(), Some((SimTime::from_nanos(far), 1)));
        assert_eq!(w.pop().map(|(at, ..)| at.as_nanos()), Some(far));
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_deadlines_beyond_top_window_fire_in_order() {
        let mut w = TimerWheel::new();
        let huge = 1u64 << 52; // beyond the 2^48 ns top window
        w.schedule(SimTime::from_nanos(huge + 5), 1, 1);
        w.schedule(SimTime::from_nanos(huge), 2, 2);
        w.schedule(SimTime::from_nanos(10), 3, 3);
        assert_eq!(
            drain(&mut w),
            vec![(10, 3, 3), (huge, 2, 2), (huge + 5, 1, 1)]
        );
    }

    #[test]
    fn same_deadline_fifo_across_cascade() {
        let mut w = TimerWheel::new();
        let t = (1u64 << 25) + 7;
        // First scheduled while the deadline sits at a high level...
        w.schedule(SimTime::from_nanos(t), 1, 1);
        // ...advance so the deadline now lies in level 0's window, then
        // schedule a second timer at the exact same deadline.
        w.advance_to(SimTime::from_nanos(t - 100));
        w.schedule(SimTime::from_nanos(t), 2, 2);
        assert_eq!(drain(&mut w), vec![(t, 1, 1), (t, 2, 2)]);
    }

    #[test]
    fn peek_matches_pop_under_churn() {
        let mut w = TimerWheel::new();
        let mut seq = 0u64;
        let mut handles = Vec::new();
        for i in 0..1000u64 {
            seq += 1;
            // Spread deadlines across all levels.
            let at = (i * 7919) % (1 << 40);
            handles.push(w.schedule(SimTime::from_nanos(at), seq, i as u32));
        }
        for h in handles.iter().step_by(3) {
            w.cancel(*h);
        }
        let mut prev = None;
        while let Some(k) = w.peek_key() {
            let (at, s, _) = w.pop().unwrap();
            assert_eq!((at, s), k);
            if let Some(p) = prev {
                assert!(k > p, "pop order not strictly increasing: {p:?} -> {k:?}");
            }
            prev = Some(k);
        }
        assert!(w.is_empty());
    }

    #[test]
    fn zero_delay_timer_fires_at_current_time() {
        let mut w = TimerWheel::new();
        w.advance_to(SimTime::from_nanos(123_456_789));
        w.schedule(SimTime::from_nanos(123_456_789), 1, 9);
        assert_eq!(w.pop(), Some((SimTime::from_nanos(123_456_789), 1, 9)));
    }
}
