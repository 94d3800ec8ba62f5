//! The discrete-event simulation engine.
//!
//! [`Simulator`] owns the network (nodes, channels, routes), the event
//! queue, and the host agents. Build a network with [`Simulator::add_host`],
//! [`Simulator::add_switch`] and [`Simulator::connect`], then drive it with
//! [`Simulator::run_until`] or [`Simulator::run`].
//!
//! Determinism: events are ordered by `(time, insertion sequence)`, so two
//! runs of the same program produce identical schedules. The run loop
//! dispatches exactly one event per iteration, borrowing the target
//! host's agent in place beside the engine core.
//!
//! Hot-path layout (the engine sustains 100k-flow incasts):
//!
//! - events live in an indexed 4-ary min-heap ([`crate::eventq`]) of small
//!   `Copy` records — packets are *not* stored in the heap;
//! - timers live in a second such heap, of [`TimerId`]s, beside a slab
//!   of timer slots: a cancel bumps the slot's generation and leaves the
//!   dead entry to be dropped when it surfaces, and a re-arm to a later
//!   deadline only moves the slot's key. The run loop pops whichever heap
//!   holds the smaller `(time, seq)` key; both draw `seq` from one
//!   counter, so the merged order is the one a single queue would give;
//! - in-flight packets live in a slab [`crate::arena::PacketArena`] and
//!   events carry a 4-byte [`PacketRef`], so steady-state simulation
//!   allocates zero per-packet heap memory;
//! - a hop through an idle transmitter is one event, the packet's
//!   arrival at the far end. Every transmission draws the `(time, seq)`
//!   key of the wake-up that ends it, and the channel is busy while that
//!   key lies ahead of the event being dispatched; the wake-up is pushed
//!   as an event only once a packet waits behind the transmission (see
//!   `Core::transmit`);
//! - routing is one table read per hop: a host with a single uplink
//!   sends everything up it, every other node indexes a dense
//!   `(node, destination)` table of equal-cost sets built once from a
//!   breadth-first search per switch (`route.rs`);
//! - monitor emission is a single branch on a cached flag when detached
//!   ([`Ctx::emit_monitor_with`] defers event construction entirely).
//!
//! This file is the run loop and nothing else: [`Core`] moves packets
//! between queues, wires and agents. Which channel a packet takes is
//! `route.rs`'s decision, what a queue does with it is
//! [`crate::queue`]'s, and every number read off a packet's life
//! (counters, packet trace, invariant monitors) is kept by
//! `observe.rs`, which `Core` tells about each lifecycle point.

use std::any::Any;

use crate::agent::Agent;
use crate::arena::{PacketArena, PacketRef};
use crate::channel::Channel;
use crate::eventq::EventQueue;
use crate::monitor::{AuditStats, InvariantMonitor, MonitorEvent, Violation};
use crate::observe::{DropCause, Observer, PacketMeta};
use crate::packet::{ChannelId, NodeId, Packet, Payload};
use crate::queue::{EnqueueOutcome, QueueConfig, QueueSample, QueueStats};
use crate::route::{NodeKind, RouteTable};
use crate::time::{Dur, SimTime};
use crate::trace::PacketTrace;
use crate::units::Bandwidth;

/// Handle to a pending timer, for [`Ctx::cancel_timer`] and
/// [`Ctx::rearm_timer`]: `generation << 32 | slot` into the engine's
/// timer slots. A slot's generation moves on when its timer fires or is
/// cancelled, so a stale id (already fired or already cancelled) is
/// always a harmless no-op, even after its slot has been recycled for a
/// newer timer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

impl TimerId {
    fn new(slot: usize, gen: u32) -> Self {
        TimerId((u64::from(gen) << 32) | slot as u64)
    }

    fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One timer: whom it wakes, with which token, and the `(time, seq)` key
/// it fires under. A re-arm to a later key rewrites the key here and
/// leaves the queued entry where it is.
#[derive(Clone, Copy, Debug)]
struct TimerSlot {
    /// Moves on when the timer fires or is cancelled: a [`TimerId`] or
    /// a queued entry of an older generation is dead.
    gen: u32,
    node: NodeId,
    token: u64,
    at: SimTime,
    seq: u64,
}

/// An engine event. Deliberately small and `Copy`: packets referenced by
/// `Arrival` live in the packet arena, not in the event queue, so heap
/// sifts move 24-byte records regardless of the payload type. Timers do
/// not appear here — they have a queue of their own (`Core::timers`)
/// and merge with this one by `(time, seq)` in the run loop.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Packet finishes propagation and arrives at a node.
    Arrival { node: NodeId, pkt: PacketRef },
    /// A channel's transmitter finishes serializing a packet while
    /// another waits in the queue. A transmission that ends with nothing
    /// waiting has no event.
    TxDone { ch: ChannelId },
}

/// Everything the engine owns except the agents. Splitting this out lets an
/// agent hold `&mut self` while the engine hands it a [`Ctx`] borrowing the
/// rest of the simulator.
struct Core<P: Payload> {
    now: SimTime,
    events: EventQueue<Ev>,
    /// Timer fires, keyed by `(deadline, seq)` like `events`, each entry
    /// the id of the timer it was pushed for. A queue of its own because
    /// armed timers (one RTO per flow with data in flight) outnumber
    /// pending packet events by orders of magnitude at high flow counts,
    /// and in `events` every one of them would deepen each packet push
    /// and pop. Not every entry is a fire: see [`Core::next_timer`].
    timers: EventQueue<TimerId>,
    /// The timers themselves, indexed by [`TimerId`]'s slot half.
    timer_slots: Vec<TimerSlot>,
    /// Slots whose timer fired or was cancelled, for reuse.
    free_timers: Vec<u32>,
    /// Global insertion sequence shared by `events` and `timers`; makes
    /// `(time, seq)` a total order across both queues, so the merged
    /// stream is identical to what a single queue would produce.
    seq: u64,
    /// Sequence number of the event being dispatched. With `now` it is
    /// the dispatch frontier: every event whose `(time, seq)` key is at
    /// or below `(now, cur_seq)` has been dispatched, every other one has
    /// not — including transmitter wake-ups that were never pushed.
    /// Outside `run_until` it is the last sequence number drawn before
    /// the `run_until` that reached `now` returned (every event due by
    /// `now` has run; anything scheduled since has not).
    cur_seq: u64,
    arena: PacketArena<P>,
    channels: Vec<Channel<P>>,
    /// Built when the simulation starts; empty until then.
    routes: RouteTable,
    /// Scheduled-but-not-yet-popped `Arrival` events; kept as a counter so
    /// audits are O(1) instead of scanning the event heap.
    pending_arrivals: u64,
    next_uid: u64,
    /// Counters, packet trace and monitors: told about every lifecycle
    /// point of a packet and every dispatched event.
    obs: Observer,
}

impl<P: Payload> Core<P> {
    /// The engine's own packet accounting: injected/delivered/dropped
    /// counters plus the current in-flight population (queued packets and
    /// pending `Arrival` events, i.e. packets on the wire).
    fn audit(&self) -> AuditStats {
        AuditStats {
            injected: self.obs.injected,
            delivered: self.obs.delivered_pkts,
            dropped: self.obs.dropped,
            queued_pkts: self.channels.iter().map(|c| c.queue.len() as u64).sum(),
            pending_arrivals: self.pending_arrivals,
            arena_live: self.arena.live() as u64,
        }
    }

    #[inline]
    fn schedule(&mut self, at: SimTime, ev: Ev) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.seq += 1;
        self.events.push_with_seq(at, self.seq, ev);
    }

    /// Takes a packet off a queue's head and puts it on the wire:
    /// transmitter busy for the serialization time, arrival at the far end
    /// after serialization + propagation. The packet parks in the arena
    /// until its `Arrival` pops.
    ///
    /// The transmitter's wake-up always draws its sequence number, so
    /// every other event keeps the `(time, seq)` key it would have had,
    /// but becomes an event only if a packet is waiting for it — here, or
    /// later in [`Self::channel_send`]. Skipping it otherwise changes
    /// nothing observable: dispatched, it would find the queue empty.
    #[inline]
    fn transmit(&mut self, ch: ChannelId, now: SimTime, pkt: Packet<P>) {
        let c = &mut self.channels[ch.index()];
        let free_at = now + c.bandwidth.serialization_time(pkt.size);
        let arrive_at = free_at + c.delay;
        let to = c.to;
        self.seq += 1;
        c.free_at = free_at;
        c.free_seq = self.seq;
        c.tx_armed = !c.queue.is_empty();
        if c.tx_armed {
            self.events
                .push_with_seq(free_at, self.seq, Ev::TxDone { ch });
        }
        let (flow, uid) = (pkt.flow, pkt.uid);
        let pkt = self.arena.alloc(pkt);
        self.pending_arrivals += 1;
        self.schedule(arrive_at, Ev::Arrival { node: to, pkt });
        self.obs.dequeued(self.now, ch, flow, uid);
    }

    fn set_timer(&mut self, node: NodeId, delay: Dur, token: u64) -> TimerId {
        self.seq += 1;
        let (at, seq) = (self.now + delay, self.seq);
        let timer = |gen| TimerSlot {
            gen,
            node,
            token,
            at,
            seq,
        };
        let id = match self.free_timers.pop() {
            Some(slot) => {
                let s = &mut self.timer_slots[slot as usize];
                *s = timer(s.gen);
                TimerId::new(slot as usize, s.gen)
            }
            None => {
                self.timer_slots.push(timer(0));
                TimerId::new(self.timer_slots.len() - 1, 0)
            }
        };
        self.timers.push_with_seq(at, seq, id);
        id
    }

    fn cancel_timer(&mut self, id: TimerId) {
        if let Some(s) = self.timer_slots.get_mut(id.slot()) {
            if s.gen == id.gen() {
                s.gen = s.gen.wrapping_add(1);
                self.free_timers.push(id.slot() as u32);
            }
        }
    }

    /// [`Ctx::rearm_timer`]. A new key at or after the live timer's
    /// current one sorts after its queued entry too (keys only ever move
    /// later), so only the slot changes; an earlier key, or a stale `id`,
    /// takes the cancel + set it stands for.
    fn rearm_timer(&mut self, id: TimerId, node: NodeId, delay: Dur, token: u64) -> TimerId {
        let at = self.now + delay;
        match self.timer_slots.get_mut(id.slot()) {
            Some(s) if s.gen == id.gen() && at >= s.at => {
                self.seq += 1;
                *s = TimerSlot {
                    node,
                    token,
                    at,
                    seq: self.seq,
                    ..*s
                };
                id
            }
            _ => {
                self.cancel_timer(id);
                self.set_timer(node, delay, token)
            }
        }
    }

    /// `(time, seq)` key of the earliest live timer. Entries on top of
    /// the timer queue that are not a fire go first, uncounted and
    /// without a clock step: a dead one (its timer was cancelled) is
    /// dropped, and one whose timer was re-armed since is pushed again
    /// under the slot's key.
    fn next_timer(&mut self) -> Option<(SimTime, u64)> {
        while let Some((at, seq, &id)) = self.timers.peek() {
            let s = &self.timer_slots[id.slot()];
            let live = s.gen == id.gen();
            if live && s.seq == seq {
                return Some((at, seq));
            }
            self.timers.pop_with_seq();
            if live {
                self.timers.push_with_seq(s.at, s.seq, id);
            }
        }
        None
    }

    /// The per-event bookkeeping the run loop performs before handling
    /// any event: clock emission (observed at the *previous* instant)
    /// and event count, then advance of the dispatch frontier
    /// `(now, cur_seq)`.
    #[inline]
    fn step_clock(&mut self, at: SimTime, seq: u64) {
        self.obs.clock(self.now, at);
        self.now = at;
        self.cur_seq = seq;
    }

    /// Hands a packet to a channel: straight to the transmitter when idle,
    /// into the queue otherwise (dropped when full).
    ///
    /// The transmitter is idle iff the wake-up ending its last
    /// transmission sorts at or before the event being dispatched. At the
    /// very nanosecond it frees, a packet therefore queues iff its own
    /// event sorts before that wake-up.
    fn channel_send(&mut self, ch: ChannelId, now: SimTime, pkt: Packet<P>) {
        let meta = PacketMeta::of(&pkt);
        let c = &mut self.channels[ch.index()];
        // An idle transmitter has nothing queued behind it: a packet it
        // admits leaves at once, counted as an enqueue and a dequeue.
        let admitted = if (c.free_at, c.free_seq) <= (now, self.cur_seq) {
            c.queue.bypass(now, pkt).map(Some)
        } else {
            match c.queue.enqueue(now, pkt) {
                EnqueueOutcome::Accepted => Ok(None),
                dropped => Err(dropped),
            }
        };
        let head = match admitted {
            Ok(head) => head,
            Err(dropped) => {
                let cause = match dropped {
                    EnqueueOutcome::EarlyDropped { avg_queue } => DropCause::Early { avg_queue },
                    _ => DropCause::Tail,
                };
                self.obs.dropped(now, ch, meta, cause);
                return;
            }
        };
        // The queue's configuration is read only for a monitor.
        if self.obs.monitors_enabled() {
            let len = c.queue.len() + usize::from(head.is_some());
            let capacity = c.queue.config().capacity;
            self.obs.enqueued(now, ch, meta, len, capacity);
        }
        if let Some(pkt) = head {
            self.transmit(ch, now, pkt);
        } else if !c.tx_armed {
            // First packet to wait behind the transmission in progress:
            // its wake-up becomes an event, under the key it drew.
            c.tx_armed = true;
            self.events
                .push_with_seq(c.free_at, c.free_seq, Ev::TxDone { ch });
        }
    }

    fn on_tx_done(&mut self, ch: ChannelId) {
        let now = self.now;
        let c = &mut self.channels[ch.index()];
        c.tx_armed = false;
        let head = c.queue.dequeue(now);
        // CoDel may have dropped queued packets during that dequeue;
        // account for them, in queue order, before the survivor's
        // `Dequeued` event.
        if c.queue.has_sojourn_drops() {
            for d in c.queue.take_sojourn_drops() {
                let sojourn_ns = d.sojourn.as_nanos();
                self.obs.dropped(
                    now,
                    ch,
                    PacketMeta::of(&d.pkt),
                    DropCause::Sojourn { sojourn_ns },
                );
            }
        }
        if let Some(pkt) = head {
            self.transmit(ch, now, pkt);
        }
    }

    /// Enters a packet into the network at host `node`: assigns the
    /// engine-unique id and forwards it.
    fn inject(&mut self, node: NodeId, mut pkt: Packet<P>) {
        self.next_uid += 1;
        pkt.uid = self.next_uid;
        self.obs.injected(self.now, node, PacketMeta::of(&pkt));
        self.forward(node, pkt);
    }

    /// Routes a packet out of `node` toward `pkt.dst`.
    ///
    /// # Panics
    ///
    /// Panics if the destination is unreachable from `node`.
    fn forward(&mut self, node: NodeId, pkt: Packet<P>) {
        let ch = self.routes.out(node, pkt.dst, pkt.flow);
        self.channel_send(ch, self.now, pkt);
    }
}

/// The agent's view of the simulator during a callback: clock, packet
/// output, and timers.
pub struct Ctx<'a, P: Payload> {
    core: &'a mut Core<P>,
    node: NodeId,
}

impl<P: Payload> std::fmt::Debug for Ctx<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("node", &self.node)
            .field("now", &self.core.now)
            .finish_non_exhaustive()
    }
}

impl<P: Payload> Ctx<'_, P> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The node this agent is attached to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sends a packet out of this host's uplink and assigns the
    /// packet's engine-unique id.
    ///
    /// # Panics
    ///
    /// Panics if the destination is unreachable.
    pub fn send(&mut self, pkt: Packet<P>) {
        self.core.inject(self.node, pkt);
    }

    /// Reports a protocol-level event (window update, probe transition)
    /// to any attached invariant monitors, constructing it only when a
    /// monitor is attached. When monitoring is detached this is exactly
    /// one branch: the closure is never called, so its captures are
    /// never read and its event is never built.
    #[inline]
    pub fn emit_monitor_with(&mut self, f: impl FnOnce() -> MonitorEvent) {
        self.core.obs.emit_with(self.core.now, f);
    }

    /// Schedules `on_timer(token)` after `delay`. Returns a handle for
    /// [`Ctx::cancel_timer`] and [`Ctx::rearm_timer`].
    pub fn set_timer(&mut self, delay: Dur, token: u64) -> TimerId {
        self.core.set_timer(self.node, delay, token)
    }

    /// Cancels a pending timer. Cancelling an already-fired or
    /// already-cancelled timer is a harmless no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.core.cancel_timer(id);
    }

    /// Moves a timer: observably identical to [`Ctx::cancel_timer`] on
    /// `id` followed by [`Ctx::set_timer`]`(delay, token)`. It draws the
    /// same sequence number, fires under the same `(time, seq)` key and
    /// counts as the same one event; a stale `id` makes it a plain
    /// `set_timer`. Only the returned id is valid afterwards — `id` may
    /// still name the moved timer, so it must not be used again.
    ///
    /// Cheaper than the pair when the new deadline is no earlier than
    /// the pending one, as with an RTO re-armed by each ACK: the timer
    /// keeps its queue entry, which is re-pushed under the new key only
    /// when it surfaces.
    pub fn rearm_timer(&mut self, id: TimerId, delay: Dur, token: u64) -> TimerId {
        self.core.rearm_timer(id, self.node, delay, token)
    }
}

/// A packet-level discrete-event network simulator.
///
/// ```
/// use netsim::prelude::*;
///
/// // Two hosts joined by a switch; the sink counts what arrives.
/// let mut sim: Simulator<TagPayload> = Simulator::new();
/// let a = sim.add_host(Box::new(SinkAgent::default()));
/// let b = sim.add_host(Box::new(SinkAgent::default()));
/// let sw = sim.add_switch();
/// sim.connect(a, sw, Bandwidth::gbps(1), Dur::from_micros(50), QueueConfig::default());
/// sim.connect(b, sw, Bandwidth::gbps(1), Dur::from_micros(50), QueueConfig::default());
/// sim.inject(a, Packet::new(a, b, FlowId(1), 1460, TagPayload(0)));
/// sim.run();
/// let sink: &SinkAgent = sim.host(b);
/// assert_eq!(sink.received, 1);
/// ```
pub struct Simulator<P: Payload> {
    core: Core<P>,
    agents: Vec<Option<Box<dyn Agent<P>>>>,
    /// The topology as built so far: node kinds and outgoing edges per
    /// node. Frozen into `core.routes` when the simulation starts.
    kinds: Vec<NodeKind>,
    adjacency: Vec<Vec<(NodeId, ChannelId)>>,
    started: bool,
}

impl<P: Payload> std::fmt::Debug for Simulator<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.core.now)
            .field("nodes", &self.kinds.len())
            .field("channels", &self.core.channels.len())
            .field("pending_events", &self.core.events.len())
            .finish_non_exhaustive()
    }
}

impl<P: Payload> Default for Simulator<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Payload> Simulator<P> {
    /// Creates an empty network.
    pub fn new() -> Self {
        Simulator {
            core: Core {
                now: SimTime::ZERO,
                events: EventQueue::new(),
                timers: EventQueue::new(),
                timer_slots: Vec::new(),
                free_timers: Vec::new(),
                seq: 0,
                cur_seq: 0,
                arena: PacketArena::new(),
                channels: Vec::new(),
                routes: RouteTable::default(),
                pending_arrivals: 0,
                next_uid: 0,
                obs: Observer::default(),
            },
            agents: Vec::new(),
            kinds: Vec::new(),
            adjacency: Vec::new(),
            started: false,
        }
    }

    /// Adds a host running `agent`. Hosts terminate packets; they are the
    /// only valid packet sources and destinations.
    pub fn add_host(&mut self, agent: Box<dyn Agent<P>>) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(NodeKind::Host);
        self.adjacency.push(Vec::new());
        self.agents.push(Some(agent));
        id
    }

    /// Adds a store-and-forward switch. Forwarding uses shortest paths with
    /// deterministic per-flow ECMP over equal-cost next hops.
    pub fn add_switch(&mut self) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(NodeKind::Switch);
        self.adjacency.push(Vec::new());
        self.agents.push(None);
        id
    }

    /// Connects `a` and `b` with a duplex link: two channels sharing the
    /// same rate, delay, and queue configuration. Returns `(a->b, b->a)`.
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation has started.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth: Bandwidth,
        delay: Dur,
        queue: QueueConfig,
    ) -> (ChannelId, ChannelId) {
        assert!(!self.started, "cannot modify topology after start");
        let ab = ChannelId(self.core.channels.len() as u32);
        self.core
            .channels
            .push(Channel::new(b, bandwidth, delay, queue));
        self.adjacency[a.index()].push((b, ab));
        let ba = ChannelId(self.core.channels.len() as u32);
        self.core
            .channels
            .push(Channel::new(a, bandwidth, delay, queue));
        self.adjacency[b.index()].push((a, ba));
        (ab, ba)
    }

    /// Injects a packet from `src`'s network layer at the current time, as
    /// if its agent had sent it. Useful for tests and simple examples.
    pub fn inject(&mut self, src: NodeId, pkt: Packet<P>) {
        self.ensure_ready();
        self.core.inject(src, pkt);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Total packets delivered to host agents so far.
    pub fn delivered_packets(&self) -> u64 {
        self.core.obs.delivered_pkts
    }

    /// Total bytes delivered to host agents so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.core.obs.delivered_bytes
    }

    /// Events dispatched since the start of the simulation: packet
    /// arrivals, timer fires, and transmitter wake-ups that had a packet
    /// waiting. A transmission that ends with an empty queue and a
    /// cancelled timer are never dispatched, so they are not counted.
    pub fn events_processed(&self) -> u64 {
        self.core.obs.events_processed
    }

    /// Packets currently resident in the packet arena (on the wire or in
    /// a transmitter). Equals `pending_arrivals` at all times and zero
    /// after a drained run; see [`crate::arena::PacketArena`].
    pub fn arena_live(&self) -> usize {
        self.core.arena.live()
    }

    /// Peak concurrent arena population over the run, i.e. the maximum
    /// number of packets simultaneously on the wire.
    pub fn arena_high_water(&self) -> usize {
        self.core.arena.high_water()
    }

    /// Statistics of a channel's queue, with the occupancy integral settled
    /// up to the current time.
    pub fn queue_stats(&mut self, ch: ChannelId) -> QueueStats {
        let now = self.core.now;
        let q = &mut self.core.channels[ch.index()].queue;
        q.settle(now);
        q.stats()
    }

    /// Starts recording (time, length) samples on a channel's queue.
    pub fn enable_queue_recording(&mut self, ch: ChannelId) {
        self.core.channels[ch.index()].queue.enable_recording();
    }

    /// Fault injection: deterministically drop the packets whose 0-based
    /// arrival index at channel `ch` is in `indices`. See
    /// [`crate::queue::DropTailQueue::inject_drops`].
    pub fn inject_channel_drops(&mut self, ch: ChannelId, indices: impl IntoIterator<Item = u64>) {
        self.core.channels[ch.index()].queue.inject_drops(indices);
    }

    /// Fault injection: lets channel `ch`'s queue admit up to `extra`
    /// packets beyond its configured capacity. Exists so the invariant
    /// monitors' queue-bound check can be proven to catch a real
    /// over-admission; see
    /// [`crate::queue::DropTailQueue::inject_overadmit`].
    pub fn inject_queue_overadmit(&mut self, ch: ChannelId, extra: u64) {
        self.core.channels[ch.index()].queue.inject_overadmit(extra);
    }

    /// Attaches a runtime invariant monitor. Monitors observe the event
    /// stream without influencing it, so attaching any number of them
    /// cannot change simulation results.
    pub fn attach_monitor(&mut self, monitor: Box<dyn InvariantMonitor>) {
        self.core.obs.attach_monitor(monitor);
    }

    /// Whether any invariant monitor is attached.
    pub fn monitors_enabled(&self) -> bool {
        self.core.obs.monitors_enabled()
    }

    /// All violations recorded so far, across every attached monitor.
    pub fn violations(&self) -> Vec<&Violation> {
        self.core.obs.violations()
    }

    /// Panics with a full report if any attached monitor recorded a
    /// violation. A no-op when no monitors are attached.
    ///
    /// # Panics
    ///
    /// Panics when at least one violation was recorded, listing every
    /// violation with its simulation time and flow.
    pub fn assert_no_violations(&self) {
        let violations = self.violations();
        assert!(
            violations.is_empty(),
            "{} invariant violation(s):\n{}",
            violations.len(),
            violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// The engine's packet accounting at the current instant; the basis
    /// of the packet-conservation invariant (`injected == delivered +
    /// dropped + in_flight`).
    pub fn audit_stats(&self) -> AuditStats {
        self.core.audit()
    }

    /// Starts recording a packet-event trace (sends, deliveries, drops),
    /// keeping at most `cap` events.
    pub fn enable_packet_trace(&mut self, cap: usize) {
        let trace = || PacketTrace::new(cap);
        self.core.obs.ptrace.get_or_insert_with(trace);
    }

    /// The packet-event trace, if enabled.
    pub fn packet_trace(&self) -> Option<&PacketTrace> {
        self.core.obs.ptrace.as_ref()
    }

    /// The recorded queue-length series of a channel, if enabled.
    pub fn queue_samples(&self, ch: ChannelId) -> Option<&[QueueSample]> {
        self.core.channels[ch.index()].queue.samples()
    }

    /// Borrows the agent at `node`, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `node` is a switch or the agent is not a `T`.
    #[expect(
        clippy::expect_used,
        reason = "documented panic: typed accessor misuse is a caller bug"
    )]
    pub fn host<T: Agent<P>>(&self, node: NodeId) -> &T {
        let agent = self.agents[node.index()]
            .as_ref()
            .expect("node is a switch, not a host");
        (agent.as_ref() as &dyn Any)
            .downcast_ref::<T>()
            .expect("agent has a different concrete type")
    }

    /// Mutably borrows the agent at `node`, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `node` is a switch or the agent is not a `T`.
    #[expect(
        clippy::expect_used,
        reason = "documented panic: typed accessor misuse is a caller bug"
    )]
    pub fn host_mut<T: Agent<P>>(&mut self, node: NodeId) -> &mut T {
        let agent = self.agents[node.index()]
            .as_mut()
            .expect("node is a switch, not a host");
        (agent.as_mut() as &mut dyn Any)
            .downcast_mut::<T>()
            .expect("agent has a different concrete type")
    }

    /// The topology as built so far, for the routing tests.
    #[cfg(test)]
    pub(crate) fn graph(&self) -> (&[NodeKind], &crate::route::Adjacency) {
        (&self.kinds, &self.adjacency)
    }

    fn ensure_ready(&mut self) {
        if !self.started {
            // `connect` refuses to run from here on, so the routes are
            // computed once, before the first agent can send.
            self.started = true;
            self.core.routes = RouteTable::build(&self.kinds, &self.adjacency);
            for (i, agent) in self.agents.iter_mut().enumerate() {
                if let Some(agent) = agent {
                    let mut ctx = Ctx {
                        core: &mut self.core,
                        node: NodeId(i as u32),
                    };
                    agent.on_start(&mut ctx);
                }
            }
        }
    }

    /// Runs until the event queue is exhausted.
    pub fn run(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// Processes every event with timestamp `<= horizon`, then advances the
    /// clock to `horizon` (when finite) so statistics settle consistently.
    ///
    /// Events come from two queues — packets and links in one, timers in
    /// the other — merged by `(time, seq)`. Both draw sequence numbers
    /// from one global counter, so the merge is a total order identical
    /// to the single-queue engine's pop order. Each iteration pops and
    /// dispatches the one event with the smaller key.
    pub fn run_until(&mut self, horizon: SimTime) {
        self.ensure_ready();
        loop {
            let packet = self.core.events.peek().map(|(at, seq, _)| (at, seq));
            let ((at, _), timer_first) = match (packet, self.core.next_timer()) {
                (Some(p), Some(t)) if t < p => (t, true),
                (Some(p), _) => (p, false),
                (None, Some(t)) => (t, true),
                (None, None) => break,
            };
            if at > horizon {
                break;
            }
            if timer_first {
                self.fire_timer();
            } else {
                self.process_event();
            }
        }
        if horizon != SimTime::MAX && horizon > self.core.now {
            self.core.now = horizon;
        }
        // Everything due by `now` has been dispatched, whatever its
        // sequence number; nothing scheduled from here on has. (A horizon
        // in the past dispatched nothing and moves nothing.)
        if horizon >= self.core.now {
            self.core.cur_seq = self.core.seq;
        }
        if self.core.obs.monitors_enabled() {
            let audit = self.core.audit();
            self.core.obs.finalize(self.core.now, &audit);
        }
    }

    /// Pops and dispatches the minimal timer, which
    /// [`Core::next_timer`] has just brought to the top of its queue.
    fn fire_timer(&mut self) {
        let Some((at, seq, id)) = self.core.timers.pop_with_seq() else {
            return;
        };
        let TimerSlot { node, token, .. } = self.core.timer_slots[id.slot()];
        // A fired timer is retired like a cancelled one, before its
        // handler can arm a timer into the slot or cancel its stale id.
        self.core.cancel_timer(id);
        self.core.step_clock(at, seq);
        #[expect(
            clippy::expect_used,
            reason = "timers are only ever set by host agents; a switch timer is engine corruption"
        )]
        let agent = self.agents[node.index()]
            .as_mut()
            .expect("timer delivered to switch");
        let mut ctx = Ctx {
            core: &mut self.core,
            node,
        };
        agent.on_timer(&mut ctx, token);
    }

    /// Pops and handles the minimal packet/link event.
    fn process_event(&mut self) {
        let Some((at, seq, ev)) = self.core.events.pop_with_seq() else {
            return;
        };
        self.core.step_clock(at, seq);
        match ev {
            Ev::TxDone { ch } => self.core.on_tx_done(ch),
            Ev::Arrival { node, pkt } => {
                self.core.pending_arrivals -= 1;
                let pkt = self.core.arena.free(pkt);
                match &mut self.agents[node.index()] {
                    // Switches carry no agent.
                    None => self.core.forward(node, pkt),
                    Some(agent) => {
                        let meta = PacketMeta::of(&pkt);
                        self.core.obs.delivered(self.core.now, node, meta);
                        let mut ctx = Ctx {
                            core: &mut self.core,
                            node,
                        };
                        agent.on_packet(&mut ctx, pkt);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test agents share counters with the test body; no simulator state is shared"
)]
mod tests {
    use super::*;
    use crate::agent::SinkAgent;
    use crate::packet::{FlowId, TagPayload};
    use crate::topology::sink_star;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn star(n_senders: usize) -> (Simulator<TagPayload>, Vec<NodeId>, NodeId, ChannelId) {
        sink_star(n_senders, QueueConfig::default())
    }

    #[test]
    fn single_packet_latency() {
        let (mut sim, senders, dst, _) = star(1);
        sim.inject(
            senders[0],
            Packet::new(senders[0], dst, FlowId(1), 1460, TagPayload(0)),
        );
        sim.run();
        // ser(11.68us) + prop(50us) at each of the 2 hops = 123.36us.
        assert_eq!(sim.now(), SimTime::from_nanos(123_360));
        assert_eq!(sim.host::<SinkAgent>(dst).received, 1);
        assert_eq!(sim.host::<SinkAgent>(dst).received_bytes, 1460);
    }

    #[test]
    fn back_to_back_packets_serialize() {
        let (mut sim, senders, dst, _) = star(1);
        for _ in 0..3 {
            sim.inject(
                senders[0],
                Packet::new(senders[0], dst, FlowId(1), 1460, TagPayload(0)),
            );
        }
        sim.run();
        // Last packet leaves the first link at 3*ser, arrives at the switch
        // at 3*ser + 50us, then 1*ser + 50us more (switch queue drains in
        // lockstep with arrivals because the rates match).
        assert_eq!(sim.host::<SinkAgent>(dst).received, 3);
        assert_eq!(
            sim.now(),
            SimTime::from_nanos(3 * 11_680 + 50_000 + 11_680 + 50_000)
        );
    }

    #[test]
    fn congestion_drops_at_bottleneck() {
        // 5 senders each blast 50 packets at t=0; bottleneck queue is 20.
        let mut sim = Simulator::new();
        let sw = sim.add_switch();
        let dst = sim.add_host(Box::new(SinkAgent::default()));
        let (_, sw_to_dst) = sim.connect(
            dst,
            sw,
            Bandwidth::gbps(1),
            Dur::from_micros(50),
            QueueConfig::drop_tail(20),
        );
        let mut senders = Vec::new();
        for _ in 0..5 {
            let h = sim.add_host(Box::new(SinkAgent::default()));
            sim.connect(
                h,
                sw,
                Bandwidth::gbps(1),
                Dur::from_micros(50),
                QueueConfig::default(),
            );
            senders.push(h);
        }
        for &s in &senders {
            for _ in 0..50 {
                sim.inject(
                    s,
                    Packet::new(s, dst, FlowId(s.index() as u64), 1460, TagPayload(0)),
                );
            }
        }
        sim.run();
        let stats = sim.queue_stats(sw_to_dst);
        assert!(stats.dropped > 0, "bottleneck must overflow");
        assert_eq!(
            sim.host::<SinkAgent>(dst).received,
            250 - stats.dropped,
            "every packet is either delivered or dropped"
        );
        assert!(stats.max_len <= 20);
    }

    #[test]
    fn multi_hop_forwarding() {
        // h0 - sw0 - sw1 - h1
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h0 = sim.add_host(Box::new(SinkAgent::default()));
        let h1 = sim.add_host(Box::new(SinkAgent::default()));
        let sw0 = sim.add_switch();
        let sw1 = sim.add_switch();
        let cfg = QueueConfig::default();
        let bw = Bandwidth::gbps(1);
        let d = Dur::from_micros(10);
        sim.connect(h0, sw0, bw, d, cfg);
        sim.connect(sw0, sw1, bw, d, cfg);
        sim.connect(sw1, h1, bw, d, cfg);
        sim.inject(h0, Packet::new(h0, h1, FlowId(1), 1000, TagPayload(0)));
        sim.run();
        assert_eq!(sim.host::<SinkAgent>(h1).received, 1);
        // 3 hops: 3 * (8us ser + 10us prop).
        assert_eq!(sim.now(), SimTime::from_nanos(3 * 18_000));
    }

    /// An agent that echoes every packet back to its source.
    #[derive(Debug, Default)]
    struct EchoAgent;
    impl Agent<TagPayload> for EchoAgent {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, TagPayload>, pkt: Packet<TagPayload>) {
            let reply = Packet::new(pkt.dst, pkt.src, pkt.flow, 40, pkt.payload);
            ctx.send(reply);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _token: u64) {}
    }

    #[test]
    fn agents_can_reply() {
        let mut sim = Simulator::new();
        let sw = sim.add_switch();
        let client = sim.add_host(Box::new(SinkAgent::default()));
        let server = sim.add_host(Box::new(EchoAgent));
        let cfg = QueueConfig::default();
        sim.connect(client, sw, Bandwidth::gbps(1), Dur::from_micros(50), cfg);
        sim.connect(server, sw, Bandwidth::gbps(1), Dur::from_micros(50), cfg);
        sim.inject(
            client,
            Packet::new(client, server, FlowId(7), 1460, TagPayload(3)),
        );
        sim.run();
        assert_eq!(sim.host::<SinkAgent>(client).received, 1);
        assert_eq!(sim.host::<SinkAgent>(client).received_bytes, 40);
    }

    /// An agent that sets and cancels timers.
    #[derive(Debug, Default)]
    struct TimerAgent {
        fired: Vec<u64>,
    }
    impl Agent<TagPayload> for TimerAgent {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
            ctx.set_timer(Dur::from_millis(1), 1);
            let t2 = ctx.set_timer(Dur::from_millis(2), 2);
            ctx.set_timer(Dur::from_millis(3), 3);
            ctx.cancel_timer(t2);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TagPayload>, token: u64) {
            self.fired.push(token);
        }
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h = sim.add_host(Box::new(TimerAgent::default()));
        let s = sim.add_host(Box::new(SinkAgent::default()));
        sim.connect(
            h,
            s,
            Bandwidth::gbps(1),
            Dur::from_micros(1),
            QueueConfig::default(),
        );
        sim.run();
        assert_eq!(sim.host::<TimerAgent>(h).fired, vec![1, 3]);
        assert_eq!(sim.now(), SimTime::from_nanos(3_000_000));
    }

    #[test]
    fn run_until_stops_and_resumes() {
        let (mut sim, senders, dst, _) = star(1);
        sim.inject(
            senders[0],
            Packet::new(senders[0], dst, FlowId(1), 1460, TagPayload(0)),
        );
        sim.run_until(SimTime::from_nanos(100_000));
        assert_eq!(sim.host::<SinkAgent>(dst).received, 0);
        assert_eq!(sim.now(), SimTime::from_nanos(100_000));
        sim.run();
        assert_eq!(sim.host::<SinkAgent>(dst).received, 1);
    }

    /// A star with a small bottleneck queue and `n` senders blasting
    /// `per_sender` packets each at t=0, so the bottleneck overflows.
    fn congested_star(
        n: usize,
        cap: usize,
        per_sender: usize,
    ) -> (Simulator<TagPayload>, NodeId, ChannelId) {
        let (mut sim, senders, dst, sw_to_dst) = sink_star(n, QueueConfig::drop_tail(cap));
        for &s in &senders {
            for _ in 0..per_sender {
                sim.inject(
                    s,
                    Packet::new(s, dst, FlowId(s.index() as u64), 1460, TagPayload(0)),
                );
            }
        }
        (sim, dst, sw_to_dst)
    }

    #[test]
    fn audit_counts_dropped_packets() {
        let (mut sim, dst, _) = congested_star(5, 10, 20);
        sim.run();
        let audit = sim.audit_stats();
        assert_eq!(audit.injected, 100);
        assert!(audit.dropped > 0);
        assert_eq!(audit.delivered + audit.dropped, 100);
        assert_eq!(audit.in_flight(), 0);
        assert_eq!(audit.delivered, sim.host::<SinkAgent>(dst).received);
    }

    #[test]
    fn arena_is_empty_after_a_drained_run() {
        let (mut sim, dst, _) = congested_star(5, 10, 20);
        sim.run();
        assert_eq!(sim.arena_live(), 0, "every in-flight packet was freed");
        let audit = sim.audit_stats();
        assert_eq!(audit.arena_live, 0);
        assert_eq!(audit.pending_arrivals, 0);
        assert!(sim.arena_high_water() > 0, "packets did traverse the wire");
        assert_eq!(sim.host::<SinkAgent>(dst).received, audit.delivered);
    }

    #[test]
    fn arena_live_equals_pending_arrivals_mid_run() {
        let (mut sim, senders, dst, _) = star(3);
        for (i, &s) in senders.iter().enumerate() {
            for _ in 0..10 {
                sim.inject(
                    s,
                    Packet::new(s, dst, FlowId(i as u64), 1460, TagPayload(0)),
                );
            }
        }
        // Stop mid-flight: packets are on the wire at this instant.
        sim.run_until(SimTime::from_nanos(60_000));
        let audit = sim.audit_stats();
        assert_eq!(audit.arena_live, audit.pending_arrivals);
        assert!(audit.arena_live > 0, "horizon chosen mid-flight");
        sim.run();
        assert_eq!(sim.audit_stats().arena_live, 0);
    }

    #[test]
    fn events_processed_counts_dispatches() {
        let (mut sim, senders, dst, _) = star(1);
        sim.inject(
            senders[0],
            Packet::new(senders[0], dst, FlowId(1), 1460, TagPayload(0)),
        );
        sim.run();
        // One packet over two idle hops: 2 arrivals, no wake-up.
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn overadmit_fault_exceeds_capacity() {
        let (mut sim, dst, sw_to_dst) = congested_star(5, 3, 10);
        sim.inject_queue_overadmit(sw_to_dst, 2);
        sim.run();
        let stats = sim.queue_stats(sw_to_dst);
        assert_eq!(stats.max_len, 5, "3-capacity queue over-admitted by 2");
        assert_eq!(sim.host::<SinkAgent>(dst).received + stats.dropped, 50);
    }

    #[test]
    fn deterministic_event_order() {
        // Two identical runs deliver identical outcomes.
        let run = || {
            let (mut sim, senders, dst, ch) = star(3);
            for (i, &s) in senders.iter().enumerate() {
                for _ in 0..20 {
                    sim.inject(
                        s,
                        Packet::new(s, dst, FlowId(i as u64), 1460, TagPayload(0)),
                    );
                }
            }
            sim.run();
            (
                sim.now(),
                sim.host::<SinkAgent>(dst).received,
                sim.queue_stats(ch).max_len,
            )
        };
        assert_eq!(run(), run());
    }

    /// Arms two timers for the same deadline; the first fire cancels the
    /// second from inside `on_timer` — the cancel races the same-tick
    /// fire that is already next in the merged order.
    #[derive(Debug, Default)]
    struct RacingAgent {
        victim: Option<TimerId>,
        fired: Vec<u64>,
    }
    impl Agent<TagPayload> for RacingAgent {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
            ctx.set_timer(Dur::from_micros(10), 1);
            self.victim = Some(ctx.set_timer(Dur::from_micros(10), 2));
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TagPayload>, token: u64) {
            self.fired.push(token);
            if let Some(v) = self.victim.take() {
                ctx.cancel_timer(v);
            }
        }
    }

    /// Regression for the cancel-racing-same-tick-fire edge: a timer
    /// cancelled by an earlier fire at the same instant must not fire,
    /// and is not counted as an event.
    #[test]
    fn cancel_racing_same_tick_fire_is_deterministic() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h = sim.add_host(Box::new(RacingAgent::default()));
        let _ = h;
        sim.run();
        assert_eq!(sim.host::<RacingAgent>(h).fired, vec![1]);
        assert_eq!(sim.events_processed(), 1);
        assert_eq!(sim.now(), SimTime::from_nanos(10_000));
    }

    /// Cancels a handle whose timer already fired, after a later timer
    /// has been armed (which may recycle the fired timer's slot).
    #[derive(Debug, Default)]
    struct StaleCancelAgent {
        first: Option<TimerId>,
        fired: Vec<u64>,
    }
    impl Agent<TagPayload> for StaleCancelAgent {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
            self.first = Some(ctx.set_timer(Dur::from_micros(1), 1));
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TagPayload>, token: u64) {
            self.fired.push(token);
            if token == 1 {
                // Arm the next timer first so it can recycle slot 0,
                // then cancel the stale handle of the fired timer.
                ctx.set_timer(Dur::from_micros(1), 2);
                let stale = self.first.take().expect("armed in on_start");
                ctx.cancel_timer(stale);
            }
        }
    }

    /// Regression for the stale-cancel edge at the engine level: a stale
    /// `TimerId` (its timer already fired) must not kill a newly armed
    /// timer that recycled the timer slot.
    #[test]
    fn stale_cancel_cannot_kill_recycled_timer() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h = sim.add_host(Box::new(StaleCancelAgent::default()));
        sim.run();
        assert_eq!(sim.host::<StaleCancelAgent>(h).fired, vec![1, 2]);
        // Both timers fired: the stale cancel was a no-op.
        assert_eq!(sim.events_processed(), 2);
    }

    /// Counts `Clock` emissions into a counter the test keeps a handle
    /// to (attached monitors are boxed inside the simulator).
    #[derive(Debug, Default)]
    struct ClockCounter {
        clocks: Arc<AtomicU64>,
    }
    impl crate::monitor::InvariantMonitor for ClockCounter {
        fn name(&self) -> &'static str {
            "clock-counter"
        }
        fn observe(&mut self, _at: SimTime, ev: &MonitorEvent) {
            if matches!(ev, MonitorEvent::Clock { .. }) {
                self.clocks.fetch_add(1, Ordering::Relaxed);
            }
        }
        fn violations(&self) -> &[crate::monitor::Violation] {
            &[]
        }
    }

    /// The event-count contract: `events_processed` is the number of
    /// events dispatched, one per `Clock` emission. A transmitter wake-up
    /// is an event only when a packet was waiting for it, a timer
    /// cancelled while live is never dispatched and never counted, and
    /// slicing a run into several `run_until` calls does not change the
    /// total.
    #[test]
    fn events_processed_counts_dispatched_events_only() {
        let build = || {
            let mut sim: Simulator<TagPayload> = Simulator::new();
            let h = sim.add_host(Box::new(TimerAgent::default()));
            let s = sim.add_host(Box::new(SinkAgent::default()));
            sim.connect(
                h,
                s,
                Bandwidth::gbps(1),
                Dur::from_micros(400),
                QueueConfig::default(),
            );
            let clocks = Arc::new(AtomicU64::new(0));
            sim.attach_monitor(Box::new(ClockCounter {
                clocks: Arc::clone(&clocks),
            }));
            for i in 0..5 {
                sim.inject(h, Packet::new(h, s, FlowId(i), 1460, TagPayload(0)));
            }
            (sim, clocks)
        };
        // TimerAgent cancels its 2 ms timer while it is live; the horizon
        // lies past that deadline and before the 3 ms fire.
        let horizon = SimTime::from_nanos(2_500_000);

        let (mut whole, clocks) = build();
        whole.run_until(horizon);
        // 5 back-to-back packets on the one hop: 5 arrivals, the 4
        // wake-ups that found a packet waiting, and the 1 ms fire.
        assert_eq!(whole.events_processed(), 10);
        assert_eq!(clocks.load(Ordering::Relaxed), 10);

        let (mut sliced, clocks) = build();
        for k in 1..=10 {
            sliced.run_until(SimTime::from_nanos(250_000 * k));
        }
        assert_eq!(sliced.events_processed(), 10);
        assert_eq!(clocks.load(Ordering::Relaxed), 10);
    }

    /// Arms `n` timers for one deadline with ascending tokens.
    #[derive(Debug, Default)]
    struct FifoTimerAgent {
        n: u64,
        fired: Vec<u64>,
    }
    impl Agent<TagPayload> for FifoTimerAgent {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
            for token in 0..self.n {
                ctx.set_timer(Dur::from_micros(25), token);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TagPayload>, token: u64) {
            self.fired.push(token);
        }
    }

    /// Same-deadline timers on one host fire in arm order.
    #[test]
    fn same_deadline_timers_fire_in_fifo_order() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h = sim.add_host(Box::new(FifoTimerAgent {
            n: 5,
            ..Default::default()
        }));
        sim.run();
        assert_eq!(sim.host::<FifoTimerAgent>(h).fired, vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.events_processed(), 5);
    }

    /// Records the arrival order of packet flow ids.
    #[derive(Debug, Default)]
    struct RecordingAgent {
        seen: Vec<u64>,
    }
    impl Agent<TagPayload> for RecordingAgent {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, pkt: Packet<TagPayload>) {
            self.seen.push(pkt.flow.0);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _token: u64) {}
    }

    /// Two same-instant arrivals on one host (over two direct links with
    /// identical latency) are delivered in injection-sequence order.
    #[test]
    fn same_instant_arrivals_deliver_in_sequence_order() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let dst = sim.add_host(Box::new(RecordingAgent::default()));
        let s0 = sim.add_host(Box::new(SinkAgent::default()));
        let s1 = sim.add_host(Box::new(SinkAgent::default()));
        let cfg = QueueConfig::default();
        sim.connect(s0, dst, Bandwidth::gbps(1), Dur::from_micros(50), cfg);
        sim.connect(s1, dst, Bandwidth::gbps(1), Dur::from_micros(50), cfg);
        sim.inject(s1, Packet::new(s1, dst, FlowId(9), 1000, TagPayload(0)));
        sim.inject(s0, Packet::new(s0, dst, FlowId(4), 1000, TagPayload(0)));
        sim.run();
        // Identical links and sizes: both land at 8us ser + 50us prop.
        assert_eq!(sim.now(), SimTime::from_nanos(58_000));
        // Injection order (9 then 4), not node order, decides the tie.
        assert_eq!(sim.host::<RecordingAgent>(dst).seen, vec![9, 4]);
    }

    /// Records every callback as `('T', token)` or `('P', flow)`.
    #[derive(Debug, Default)]
    struct CallbackLog {
        calls: Vec<(char, u64)>,
    }
    impl Agent<TagPayload> for CallbackLog {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, pkt: Packet<TagPayload>) {
            self.calls.push(('P', pkt.flow.0));
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TagPayload>, token: u64) {
            self.calls.push(('T', token));
        }
    }

    /// The two queues merge on `(time, seq)` within one instant:
    /// with timers and arrivals for one host due at the same time and
    /// interleaved in sequence, an arrival with the smaller key goes
    /// before the next timer (T, P, T) and a timer with the smaller key
    /// goes before the next arrival (P, T, P).
    #[test]
    fn same_instant_timers_and_arrivals_interleave_by_sequence() {
        let at = Dur::from_micros(10);
        let run = |kinds: [char; 3]| {
            let mut sim: Simulator<TagPayload> = Simulator::new();
            let h = sim.add_host(Box::new(CallbackLog::default()));
            sim.ensure_ready();
            // Scheduled straight into the two queues, so the global
            // sequence numbers are 1, 2, 3 in `kinds` order and nothing
            // else is ever pending.
            for (i, kind) in kinds.into_iter().enumerate() {
                let id = i as u64 + 1;
                if kind == 'T' {
                    sim.core.set_timer(h, at, id);
                } else {
                    let pkt = Packet::new(h, h, FlowId(id), 100, TagPayload(0));
                    let pkt = sim.core.arena.alloc(pkt);
                    sim.core.pending_arrivals += 1;
                    sim.core
                        .schedule(SimTime::ZERO + at, Ev::Arrival { node: h, pkt });
                }
            }
            sim.run();
            assert_eq!(sim.events_processed(), 3);
            assert_eq!(sim.now(), SimTime::ZERO + at);
            sim.host::<CallbackLog>(h).calls.clone()
        };
        assert_eq!(run(['T', 'P', 'T']), vec![('T', 1), ('P', 2), ('T', 3)]);
        assert_eq!(run(['P', 'T', 'P']), vec![('P', 1), ('T', 2), ('P', 3)]);
    }

    /// Logs `(time ns, flow)` of every delivery.
    #[derive(Debug, Default)]
    struct ArrivalLog {
        seen: Vec<(u64, u64)>,
    }
    impl Agent<TagPayload> for ArrivalLog {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, TagPayload>, pkt: Packet<TagPayload>) {
            self.seen.push((ctx.now().as_nanos(), pkt.flow.0));
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _token: u64) {}
    }

    /// One `Enqueued` (`'E'`) or `Dequeued` (`'D'`) on the watched
    /// channel: `(kind, uid, dispatch)`, where `dispatch` is the number
    /// of `Clock` emissions seen before it. Two entries with the same
    /// `dispatch` happened inside one event handler (or, at the same
    /// count, outside any); the tests compare these indices with each
    /// other only, never with a constant, so they do not depend on how
    /// many events a run dispatches.
    type ChannelLogEntry = (char, u64, u64);
    type SharedLog = Rc<RefCell<Vec<ChannelLogEntry>>>;

    #[derive(Debug)]
    struct ChannelLog {
        ch: ChannelId,
        dispatches: u64,
        log: SharedLog,
    }
    impl crate::monitor::InvariantMonitor for ChannelLog {
        fn name(&self) -> &'static str {
            "channel-log"
        }
        fn observe(&mut self, _at: SimTime, ev: &MonitorEvent) {
            match *ev {
                MonitorEvent::Clock { .. } => self.dispatches += 1,
                MonitorEvent::Enqueued { channel, uid, .. } if channel == self.ch => {
                    self.log.borrow_mut().push(('E', uid, self.dispatches));
                }
                MonitorEvent::Dequeued { channel, uid, .. } if channel == self.ch => {
                    self.log.borrow_mut().push(('D', uid, self.dispatches));
                }
                _ => {}
            }
        }
        fn violations(&self) -> &[crate::monitor::Violation] {
            &[]
        }
    }

    fn watch(sim: &mut Simulator<TagPayload>, ch: ChannelId) -> SharedLog {
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.attach_monitor(Box::new(ChannelLog {
            ch,
            dispatches: 0,
            log: Rc::clone(&log),
        }));
        log
    }

    /// `(kind, uid)` of every log entry, in order.
    fn kinds(log: &[ChannelLogEntry]) -> Vec<(char, u64)> {
        log.iter().map(|&(k, uid, _)| (k, uid)).collect()
    }

    /// What a same-nanosecond tie at the switch's downlink looks like
    /// from outside: deliveries at the destination, the downlink's
    /// statistics, and its `Enqueued`/`Dequeued` log.
    struct TieOutcome {
        deliveries: Vec<(u64, u64)>,
        stats: QueueStats,
        log: Vec<ChannelLogEntry>,
    }

    /// Senders A, B (and optionally a rival C that mirrors B) behind one
    /// switch, every link 1 Gbps / 1 us, the downlink able to hold one
    /// waiting packet. A's 1000-byte packet reaches the switch at 9 us
    /// and occupies the downlink's transmitter until exactly 17 us — the
    /// nanosecond B's (and C's) packet reaches the switch.
    ///
    /// `b_first`: B and C send 2000 bytes at t = 0, so their arrivals
    /// were scheduled *before* the downlink transmission began and sort
    /// before its end. Otherwise they send 500 bytes at t = 12 us, so
    /// their arrivals were scheduled *after* it began and sort after its
    /// end.
    fn tie_at_downlink(b_first: bool, rival: bool) -> TieOutcome {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let sw = sim.add_switch();
        let dst = sim.add_host(Box::new(ArrivalLog::default()));
        let bw = Bandwidth::gbps(1);
        let d = Dur::from_micros(1);
        let (_, down) = sim.connect(dst, sw, bw, d, QueueConfig::drop_tail(1));
        let sender = |sim: &mut Simulator<TagPayload>| {
            let h = sim.add_host(Box::new(SinkAgent::default()));
            sim.connect(h, sw, bw, d, QueueConfig::default());
            h
        };
        let a = sender(&mut sim);
        let b = sender(&mut sim);
        let c = sender(&mut sim);
        let log = watch(&mut sim, down);
        sim.inject(a, Packet::new(a, dst, FlowId(1), 1000, TagPayload(0)));
        let size = if b_first {
            2000
        } else {
            sim.run_until(SimTime::from_nanos(12_000));
            500
        };
        sim.inject(b, Packet::new(b, dst, FlowId(2), size, TagPayload(0)));
        if rival {
            sim.inject(c, Packet::new(c, dst, FlowId(3), size, TagPayload(0)));
        }
        sim.run();
        sim.assert_no_violations();
        let log = log.borrow().clone();
        TieOutcome {
            deliveries: sim.host::<ArrivalLog>(dst).seen.clone(),
            stats: sim.queue_stats(down),
            log,
        }
    }

    /// Tie-break, arrival first: a packet whose arrival sorts before the
    /// end of the transmission in progress finds the transmitter busy
    /// and waits (for zero nanoseconds) until a later event dequeues it.
    #[test]
    fn arrival_sorting_before_the_transmitter_frees_queues() {
        let t = tie_at_downlink(true, false);
        // A: 9 us + 8 us + 1 us. B: 17 us + 16 us + 1 us.
        assert_eq!(t.deliveries, vec![(18_000, 1), (34_000, 2)]);
        assert_eq!(
            (t.stats.enqueued, t.stats.dequeued, t.stats.dropped),
            (2, 2, 0)
        );
        assert_eq!((t.stats.max_len, t.stats.occupancy_integral), (1, 0));
        assert_eq!(kinds(&t.log), vec![('E', 1), ('D', 1), ('E', 2), ('D', 2)]);
        assert_eq!(t.log[0].2, t.log[1].2, "A went straight to the wire");
        assert_eq!(t.log[3].2, t.log[2].2 + 1, "B waited for the next event");

        // With a rival arriving the same nanosecond, B holds the one
        // waiting slot and C is dropped.
        let t = tie_at_downlink(true, true);
        assert_eq!(t.deliveries, vec![(18_000, 1), (34_000, 2)]);
        assert_eq!(
            (t.stats.enqueued, t.stats.dequeued, t.stats.dropped),
            (2, 2, 1)
        );
        assert_eq!((t.stats.max_len, t.stats.occupancy_integral), (1, 0));
        assert_eq!(kinds(&t.log), vec![('E', 1), ('D', 1), ('E', 2), ('D', 2)]);
    }

    /// Tie-break, transmitter first: a packet whose arrival sorts after
    /// the end of the transmission finds the transmitter free.
    #[test]
    fn arrival_sorting_after_the_transmitter_frees_goes_straight_out() {
        let t = tie_at_downlink(false, false);
        // A as above. B: 17 us + 4 us + 1 us.
        assert_eq!(t.deliveries, vec![(18_000, 1), (22_000, 2)]);
        assert_eq!(
            (t.stats.enqueued, t.stats.dequeued, t.stats.dropped),
            (2, 2, 0)
        );
        assert_eq!((t.stats.max_len, t.stats.occupancy_integral), (1, 0));
        assert_eq!(kinds(&t.log), vec![('E', 1), ('D', 1), ('E', 2), ('D', 2)]);
        assert_eq!(t.log[3].2, t.log[2].2, "B went straight to the wire");

        // The rival queues behind B for B's 4 us on the wire; nothing
        // is dropped.
        let t = tie_at_downlink(false, true);
        assert_eq!(t.deliveries, vec![(18_000, 1), (22_000, 2), (26_000, 3)]);
        assert_eq!(
            (t.stats.enqueued, t.stats.dequeued, t.stats.dropped),
            (3, 3, 0)
        );
        assert_eq!((t.stats.max_len, t.stats.occupancy_integral), (1, 4_000));
        assert_eq!(
            kinds(&t.log),
            vec![('E', 1), ('D', 1), ('E', 2), ('D', 2), ('E', 3), ('D', 3)]
        );
        assert_eq!(t.log[3].2, t.log[2].2);
        assert_eq!(t.log[4].2, t.log[2].2 + 1, "C arrived in the next event");
        assert!(t.log[5].2 > t.log[4].2, "and waited for a later one");
    }

    /// Two hosts on one 1 Gbps / 1 us link, the sender's uplink watched.
    fn watched_pair() -> (Simulator<TagPayload>, NodeId, NodeId, ChannelId, SharedLog) {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h = sim.add_host(Box::new(SinkAgent::default()));
        let s = sim.add_host(Box::new(ArrivalLog::default()));
        let (up, _) = sim.connect(
            h,
            s,
            Bandwidth::gbps(1),
            Dur::from_micros(1),
            QueueConfig::default(),
        );
        let log = watch(&mut sim, up);
        (sim, h, s, up, log)
    }

    /// Tie-break outside any event, transmitter busy: a zero-byte packet
    /// serialises in zero time, yet a second `inject` at the same instant
    /// finds the transmitter busy — its wake-up has not been dispatched —
    /// both before the first `run_until` and between two of them.
    #[test]
    fn second_zero_time_inject_queues_behind_the_first() {
        for start in [0, 5_000] {
            let (mut sim, h, s, up, log) = watched_pair();
            if start > 0 {
                sim.run_until(SimTime::from_nanos(start));
            }
            sim.inject(h, Packet::new(h, s, FlowId(1), 0, TagPayload(0)));
            sim.inject(h, Packet::new(h, s, FlowId(2), 0, TagPayload(0)));
            assert_eq!(sim.audit_stats().queued_pkts, 1, "start {start}");
            sim.run();
            let seen = &sim.host::<ArrivalLog>(s).seen;
            assert_eq!(seen, &vec![(start + 1_000, 1), (start + 1_000, 2)]);
            let stats = sim.queue_stats(up);
            assert_eq!((stats.enqueued, stats.dequeued), (2, 2));
            assert_eq!((stats.max_len, stats.occupancy_integral), (1, 0));
            let log = log.borrow();
            assert_eq!(kinds(&log), vec![('E', 1), ('D', 1), ('E', 2), ('D', 2)]);
            assert_eq!(log[2].2, log[0].2, "both offered outside any event");
            assert_eq!(log[3].2, log[2].2 + 1, "the second left in the next one");
        }
    }

    /// Tie-break outside any event, transmitter free: `run_until(h)`
    /// dispatches everything due at `h`, so an `inject` at the instant a
    /// transmission ended finds the transmitter free.
    #[test]
    fn inject_at_the_instant_the_transmitter_freed_goes_straight_out() {
        let (mut sim, h, s, up, log) = watched_pair();
        sim.inject(h, Packet::new(h, s, FlowId(1), 1000, TagPayload(0)));
        // 1000 bytes at 1 Gbps: the transmitter frees at exactly 8 us.
        sim.run_until(SimTime::from_nanos(8_000));
        sim.inject(h, Packet::new(h, s, FlowId(2), 1000, TagPayload(0)));
        assert_eq!(sim.audit_stats().queued_pkts, 0);
        sim.run();
        let seen = &sim.host::<ArrivalLog>(s).seen;
        assert_eq!(seen, &vec![(9_000, 1), (17_000, 2)]);
        let stats = sim.queue_stats(up);
        assert_eq!((stats.enqueued, stats.dequeued), (2, 2));
        assert_eq!((stats.max_len, stats.occupancy_integral), (1, 0));
        let log = log.borrow();
        assert_eq!(kinds(&log), vec![('E', 1), ('D', 1), ('E', 2), ('D', 2)]);
        assert_eq!(log[3].2, log[2].2, "the second went straight to the wire");
    }

    /// A `run_until` whose horizon lies in the past dispatches nothing,
    /// so it must not free a transmitter either: the zero-time packet
    /// injected before it is still on the wire for the one after.
    #[test]
    fn run_until_into_the_past_frees_no_transmitter() {
        let (mut sim, h, s, up, _log) = watched_pair();
        sim.run_until(SimTime::from_nanos(5_000));
        sim.inject(h, Packet::new(h, s, FlowId(1), 0, TagPayload(0)));
        sim.run_until(SimTime::from_nanos(4_000));
        sim.inject(h, Packet::new(h, s, FlowId(2), 0, TagPayload(0)));
        assert_eq!(sim.audit_stats().queued_pkts, 1);
        sim.run();
        let seen = &sim.host::<ArrivalLog>(s).seen;
        assert_eq!(seen, &vec![(6_000, 1), (6_000, 2)]);
        let stats = sim.queue_stats(up);
        assert_eq!((stats.enqueued, stats.dequeued, stats.max_len), (2, 2, 1));
    }

    #[test]
    fn timer_slot_is_32_bytes() {
        assert_eq!(std::mem::size_of::<TimerSlot>(), 32);
    }

    /// Arms one timer with the first delay, then moves it to each later
    /// one, by `rearm_timer` or by cancel + set; records `(ns, token)` of
    /// every fire.
    #[derive(Debug, Default)]
    struct MovingTimer {
        delays_us: Vec<u64>,
        lazy: bool,
        fired: Vec<(u64, u64)>,
    }
    impl Agent<TagPayload> for MovingTimer {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
            let mut id = ctx.set_timer(Dur::from_micros(self.delays_us[0]), 0);
            for (token, &d) in (1..).zip(&self.delays_us[1..]) {
                let delay = Dur::from_micros(d);
                id = if self.lazy {
                    ctx.rearm_timer(id, delay, token)
                } else {
                    ctx.cancel_timer(id);
                    ctx.set_timer(delay, token)
                };
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TagPayload>, token: u64) {
            self.fired.push((ctx.now().as_nanos(), token));
        }
    }

    /// Runs a [`MovingTimer`]: timer-queue entries once it has armed,
    /// its fires, and the events dispatched.
    fn run_moving(delays_us: &[u64], lazy: bool) -> (usize, Vec<(u64, u64)>, u64) {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h = sim.add_host(Box::new(MovingTimer {
            delays_us: delays_us.to_vec(),
            lazy,
            ..Default::default()
        }));
        sim.ensure_ready();
        let queued = sim.core.timers.len();
        sim.run();
        assert!(sim.core.timers.is_empty());
        let fired = sim.host::<MovingTimer>(h).fired.clone();
        (queued, fired, sim.events_processed())
    }

    /// Re-armed to later keys, a timer keeps its one queue entry however
    /// often it moves, and fires once, at the last key.
    #[test]
    fn rearm_to_a_later_key_moves_the_one_entry() {
        let delays = [10, 20, 20, 35, 40];
        let (queued, fired, events) = run_moving(&delays, true);
        assert_eq!(queued, 1);
        assert_eq!(fired, vec![(40_000, 4)]);
        assert_eq!(events, 1);
        let (queued, eager, events) = run_moving(&delays, false);
        assert_eq!((queued, eager, events), (5, fired, 1));
    }

    /// Re-armed to an earlier key, a timer fires there, and the entry it
    /// left behind never fires.
    #[test]
    fn rearm_to_an_earlier_key_fires_early_and_once() {
        let (queued, fired, events) = run_moving(&[40, 10], true);
        assert_eq!(queued, 2, "the earlier key took a fresh entry");
        assert_eq!(fired, vec![(10_000, 1)]);
        assert_eq!(events, 1);
    }

    /// Re-arms its first timer's id after that timer fired, once the
    /// slot behind the id has gone to another timer.
    #[derive(Debug, Default)]
    struct RearmFired {
        first: Option<TimerId>,
        fired: Vec<(u64, u64)>,
    }
    impl Agent<TagPayload> for RearmFired {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
            self.first = Some(ctx.set_timer(Dur::from_micros(10), 0));
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TagPayload>, token: u64) {
            self.fired.push((ctx.now().as_nanos(), token));
            if let Some(stale) = self.first.take() {
                ctx.set_timer(Dur::from_micros(50), 2);
                ctx.rearm_timer(stale, Dur::from_micros(5), 1);
            }
        }
    }

    /// Re-arming an already-fired id is a plain `set_timer`: it arms a
    /// new timer and leaves the one that recycled the slot alone.
    #[test]
    fn rearm_of_a_fired_id_is_set_timer() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h = sim.add_host(Box::new(RearmFired::default()));
        sim.run();
        assert_eq!(
            sim.host::<RearmFired>(h).fired,
            vec![(10_000, 0), (15_000, 1), (60_000, 2)]
        );
        assert_eq!(sim.events_processed(), 3);
    }

    /// A re-armed timer ties with an arrival due at the same instant
    /// exactly as cancel + set would: by the sequence number the re-arm
    /// drew, not the one its queued entry still carries.
    #[test]
    fn rearmed_timer_ties_with_an_arrival_like_cancel_and_set() {
        let at = Dur::from_micros(10);
        // `arrival_first`: the arrival is scheduled between the timer's
        // set and its re-arm, so it sorts between the two keys.
        let run = |arrival_first: bool, lazy: bool| {
            let mut sim: Simulator<TagPayload> = Simulator::new();
            let h = sim.add_host(Box::new(CallbackLog::default()));
            sim.ensure_ready();
            let core = &mut sim.core;
            let arrival = |core: &mut Core<TagPayload>| {
                let pkt = Packet::new(h, h, FlowId(7), 100, TagPayload(0));
                let pkt = core.arena.alloc(pkt);
                core.pending_arrivals += 1;
                core.schedule(SimTime::ZERO + at, Ev::Arrival { node: h, pkt });
            };
            let id = core.set_timer(h, at, 1);
            if arrival_first {
                arrival(core);
            }
            if lazy {
                core.rearm_timer(id, h, at, 2);
            } else {
                core.cancel_timer(id);
                core.set_timer(h, at, 2);
            }
            if !arrival_first {
                arrival(core);
            }
            sim.run();
            assert_eq!(sim.events_processed(), 2);
            sim.host::<CallbackLog>(h).calls.clone()
        };
        for arrival_first in [true, false] {
            let lazy = run(arrival_first, true);
            assert_eq!(lazy, run(arrival_first, false));
            let want = if arrival_first {
                vec![('P', 7), ('T', 2)]
            } else {
                vec![('T', 2), ('P', 7)]
            };
            assert_eq!(lazy, want);
        }
    }
}
