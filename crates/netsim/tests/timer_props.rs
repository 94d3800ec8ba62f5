//! Differential property tests pinning the engine's timers to a
//! `BinaryHeap` reference scheduler.
//!
//! Timers wait in a queue of their own beside the packet queue, with
//! cancellation by generation and re-arming that moves a pending timer
//! instead of replacing it. None of that may be observable: timers must
//! fire in exactly the order of one heap keyed by `(deadline, sequence)`
//! in which a cancel is a tombstone and a re-arm is cancel + set, and
//! each fire must count as one event. These tests drive one agent's
//! `set_timer` / `cancel_timer` / `rearm_timer` calls and the reference
//! with identical operation streams, and require identical fire order,
//! fire times and event counts.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use proptest::prelude::*;

use netsim::prelude::*;

/// What the scripts need of a timer service: the engine's `Ctx` or the
/// reference model.
trait Timers {
    type Id: Copy;
    fn set(&mut self, delay: u64, token: u64) -> Self::Id;
    fn cancel(&mut self, id: Self::Id);
    fn rearm(&mut self, id: Self::Id, delay: u64, token: u64) -> Self::Id;
}

impl Timers for Ctx<'_, TagPayload> {
    type Id = TimerId;
    fn set(&mut self, delay: u64, token: u64) -> TimerId {
        self.set_timer(Dur::from_nanos(delay), token)
    }
    fn cancel(&mut self, id: TimerId) {
        self.cancel_timer(id);
    }
    fn rearm(&mut self, id: TimerId, delay: u64, token: u64) -> TimerId {
        self.rearm_timer(id, Dur::from_nanos(delay), token)
    }
}

/// Reference model: one heap keyed `(deadline, seq)` with tombstone
/// cancellation, the structure the engine's timers must be
/// indistinguishable from. A timer's id is its token.
#[derive(Default)]
struct ReferenceScheduler {
    now: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    cancelled: BTreeSet<u64>,
}

impl Timers for ReferenceScheduler {
    type Id = u64;
    fn set(&mut self, delay: u64, token: u64) -> u64 {
        self.seq += 1;
        self.heap.push(Reverse((self.now + delay, self.seq, token)));
        token
    }
    fn cancel(&mut self, token: u64) {
        self.cancelled.insert(token);
    }
    fn rearm(&mut self, token: u64, delay: u64, new_token: u64) -> u64 {
        self.cancel(token);
        self.set(delay, new_token)
    }
}

impl ReferenceScheduler {
    /// Next live timer `(deadline, token)`, skipping tombstones.
    fn pop(&mut self) -> Option<(u64, u64)> {
        while let Some(Reverse((at, _, token))) = self.heap.pop() {
            if !self.cancelled.contains(&token) {
                self.now = at;
                return Some((at, token));
            }
        }
        None
    }
}

/// One operation of a randomized timer stream.
#[derive(Clone, Debug)]
enum Op {
    /// Arm a timer `delay` ns from now.
    Set { delay: u64 },
    /// Cancel the k-th live timer.
    Cancel { k: usize },
    /// Cancel a timer that already fired or was already cancelled.
    StaleCancel { k: usize },
    /// Move the k-th live timer to `delay` ns from now.
    Rearm { k: usize, delay: u64 },
    /// Re-arm a fired or cancelled timer's id, which arms a new timer.
    RearmStale { k: usize, delay: u64 },
    /// End this callback's batch; the next fire runs the next one.
    Yield,
}

/// Delays that collide often (same-instant ties, re-arms to the same
/// deadline), spread over microseconds, and reach far past both.
fn delay_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => 0u64..4,
        3 => (0u64..8).prop_map(|d| d * 1_000),
        2 => 0u64..(1 << 20),
        1 => (1u64 << 40)..(1 << 50),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => delay_strategy().prop_map(|delay| Op::Set { delay }),
        2 => (0usize..8).prop_map(|k| Op::Cancel { k }),
        1 => (0usize..8).prop_map(|k| Op::StaleCancel { k }),
        4 => (0usize..8, delay_strategy()).prop_map(|(k, delay)| Op::Rearm { k, delay }),
        1 => (0usize..8, delay_strategy()).prop_map(|(k, delay)| Op::RearmStale { k, delay }),
        3 => Just(Op::Yield),
    ]
}

/// An operation stream and the handles it has made, run batch by batch
/// against either timer service.
#[derive(Debug)]
struct Script<H> {
    ops: Vec<Op>,
    next: usize,
    /// `(id, token)` of the timers still pending, oldest first.
    live: Vec<(H, u64)>,
    /// Ids of timers that fired or were cancelled.
    stale: Vec<H>,
    next_token: u64,
}

impl<H: Copy> Script<H> {
    fn new(ops: Vec<Op>) -> Self {
        Script {
            ops,
            next: 0,
            live: Vec::new(),
            stale: Vec::new(),
            next_token: 0,
        }
    }

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// Runs operations up to the next `Yield`.
    fn run_batch<T: Timers<Id = H>>(&mut self, t: &mut T) {
        while let Some(op) = self.ops.get(self.next).cloned() {
            self.next += 1;
            match op {
                Op::Yield => break,
                Op::Set { delay } => {
                    let token = self.token();
                    self.live.push((t.set(delay, token), token));
                }
                Op::Cancel { k } if !self.live.is_empty() => {
                    let (id, _) = self.live.remove(k % self.live.len());
                    t.cancel(id);
                    self.stale.push(id);
                }
                Op::StaleCancel { k } if !self.stale.is_empty() => {
                    t.cancel(self.stale[k % self.stale.len()]);
                }
                Op::Rearm { k, delay } if !self.live.is_empty() => {
                    // The old id may name the moved timer: it is dropped,
                    // not kept as stale.
                    let (id, _) = self.live.remove(k % self.live.len());
                    let token = self.token();
                    self.live.push((t.rearm(id, delay, token), token));
                }
                Op::RearmStale { k, delay } if !self.stale.is_empty() => {
                    let id = self.stale[k % self.stale.len()];
                    let token = self.token();
                    self.live.push((t.rearm(id, delay, token), token));
                }
                _ => {}
            }
        }
    }

    fn fired(&mut self, token: u64) {
        let i = self.live.iter().position(|&(_, t)| t == token);
        let (id, _) = self.live.remove(i.expect("a fired timer was live"));
        self.stale.push(id);
    }
}

/// Runs a [`Script`] on the engine: one batch at start, one per fire.
#[derive(Debug)]
struct ScriptAgent {
    script: Script<TimerId>,
    fired: Vec<(u64, u64)>,
}

impl Agent<TagPayload> for ScriptAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
        self.script.run_batch(ctx);
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, TagPayload>, token: u64) {
        self.fired.push((ctx.now().as_nanos(), token));
        self.script.fired(token);
        self.script.run_batch(ctx);
    }
}

/// Runs `agent` alone on a one-host network until no timer is left.
fn run_alone<A: Agent<TagPayload>>(agent: A) -> (Simulator<TagPayload>, NodeId) {
    let mut sim: Simulator<TagPayload> = Simulator::new();
    let h = sim.add_host(Box::new(agent));
    sim.run();
    (sim, h)
}

fn run_differential(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut model = ReferenceScheduler::default();
    let mut script = Script::new(ops.clone());
    let mut want = Vec::new();
    script.run_batch(&mut model);
    while let Some((at, token)) = model.pop() {
        want.push((at, token));
        script.fired(token);
        script.run_batch(&mut model);
    }
    let (sim, h) = run_alone(ScriptAgent {
        script: Script::new(ops),
        fired: Vec::new(),
    });
    let got = &sim.host::<ScriptAgent>(h).fired;
    prop_assert_eq!(got, &want);
    prop_assert_eq!(sim.events_processed(), want.len() as u64);
    Ok(())
}

/// Arms `n` timers for one deadline over several instants: a batch at
/// start, then a batch at each fire of a stepper timer halfway between
/// the clock and the deadline. Tokens count up in arm order.
#[derive(Debug)]
struct SameDeadline {
    deadline: u64,
    batches: Vec<u64>,
    next: usize,
    armed: u64,
    fired: Vec<(u64, u64)>,
}

impl SameDeadline {
    const STEP: u64 = u64::MAX;

    fn arm_batch(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
        let now = ctx.now().as_nanos();
        for _ in 0..self.batches[self.next] {
            ctx.set_timer(Dur::from_nanos(self.deadline - now), self.armed);
            self.armed += 1;
        }
        self.next += 1;
        if self.next < self.batches.len() {
            ctx.set_timer(Dur::from_nanos((self.deadline - now) / 2), Self::STEP);
        }
    }
}

impl Agent<TagPayload> for SameDeadline {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
        self.arm_batch(ctx);
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, TagPayload>, token: u64) {
        if token == Self::STEP {
            self.arm_batch(ctx);
        } else {
            self.fired.push((ctx.now().as_nanos(), token));
        }
    }
}

proptest! {
    /// Randomized set/cancel/stale-cancel/rearm/stale-rearm streams,
    /// issued from inside the agent's callbacks, fire exactly as the
    /// tombstone-heap reference fires them, one event each.
    #[test]
    fn matches_binary_heap_reference(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        run_differential(ops)?;
    }

    /// Same-deadline timers fire in arm order (FIFO), however far ahead
    /// of the clock each was armed.
    #[test]
    fn same_deadline_fifo_is_stable(
        deadline in 1u64..(1 << 44),
        batches in proptest::collection::vec(0u64..6, 1..10),
    ) {
        let (sim, h) = run_alone(SameDeadline {
            deadline,
            batches: batches.clone(),
            next: 0,
            armed: 0,
            fired: Vec::new(),
        });
        let n: u64 = batches.iter().sum();
        let want: Vec<(u64, u64)> = (0..n).map(|token| (deadline, token)).collect();
        prop_assert_eq!(&sim.host::<SameDeadline>(h).fired, &want);
    }
}

/// Arms two timers for one deadline; the first to fire cancels the
/// second.
#[derive(Debug)]
struct Racing {
    at: u64,
    victim: Option<TimerId>,
    fired: Vec<u64>,
}

impl Agent<TagPayload> for Racing {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
        ctx.set_timer(Dur::from_nanos(self.at), 1);
        self.victim = Some(ctx.set_timer(Dur::from_nanos(self.at), 2));
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, TagPayload>, token: u64) {
        self.fired.push(token);
        if let Some(v) = self.victim.take() {
            ctx.cancel_timer(v);
        }
    }
}

/// Regression: a cancel racing a same-instant fire. Two timers share a
/// deadline; the first fires and cancels the second, whose entry is
/// already next in the queue. The second must not fire and is not an
/// event, whatever the deadline.
#[test]
fn cancel_racing_same_tick_fire_is_deterministic() {
    for shift in [0u32, 13, 20, 27, 40] {
        let at = 100u64 << shift;
        let (sim, h) = run_alone(Racing {
            at,
            victim: None,
            fired: Vec::new(),
        });
        assert_eq!(sim.host::<Racing>(h).fired, vec![1], "shift {shift}");
        assert_eq!(sim.events_processed(), 1, "shift {shift}");
        assert_eq!(sim.now().as_nanos(), at);
    }
}

/// Cancels the handle of a timer that fired once another timer has
/// taken its slot, and cancels that second timer's handle after it
/// fired too.
#[derive(Debug, Default)]
struct Ghost {
    ghost: Option<TimerId>,
    live: Option<TimerId>,
    fired: Vec<(u64, u64)>,
}

impl Agent<TagPayload> for Ghost {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
        self.ghost = Some(ctx.set_timer(Dur::from_nanos(10), 1));
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, TagPayload>, token: u64) {
        self.fired.push((ctx.now().as_nanos(), token));
        let ghost = self.ghost.expect("armed at start");
        match token {
            1 => {
                // The new timer recycles the fired timer's slot.
                self.live = Some(ctx.set_timer(Dur::from_nanos(10), 2));
                ctx.cancel_timer(ghost);
                ctx.cancel_timer(ghost);
            }
            2 => {
                ctx.cancel_timer(self.live.expect("armed at the first fire"));
                ctx.cancel_timer(ghost);
                ctx.set_timer(Dur::from_nanos(10), 3);
            }
            _ => {}
        }
    }
}

/// Regression: the ghost-cancel / double-fire edge. A handle whose timer
/// already fired stays inert even after its slot is recycled for a new
/// timer, and no fire/cancel sequence makes one timer fire twice.
#[test]
fn fired_handle_stays_inert_after_slot_reuse() {
    let (sim, h) = run_alone(Ghost::default());
    assert_eq!(sim.host::<Ghost>(h).fired, vec![(10, 1), (20, 2), (30, 3)]);
    assert_eq!(sim.events_processed(), 3);
}

/// Arms timers for deadlines spread from nanoseconds to days, out of
/// order; tokens name the fire order expected.
#[derive(Debug, Default)]
struct Spread {
    fired: Vec<u64>,
}

impl Agent<TagPayload> for Spread {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
        let top = 1u64 << 48;
        for (delay, token) in [
            (top - 1, 2),
            (top + 1, 3),
            (5, 1),
            (top + 1, 4),
            (1 << 62, 5),
        ] {
            ctx.set_timer(Dur::from_nanos(delay), token);
        }
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, TagPayload>, token: u64) {
        self.fired.push(token);
    }
}

/// Far deadlines merge with near ones into the one `(deadline, seq)`
/// order, same-deadline ties included.
#[test]
fn max_horizon_deadlines_merge_with_near_timers() {
    let (sim, h) = run_alone(Spread::default());
    assert_eq!(sim.host::<Spread>(h).fired, vec![1, 2, 3, 4, 5]);
    assert_eq!(sim.now().as_nanos(), 1 << 62);
}
