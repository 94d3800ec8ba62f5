//! The host agent: demultiplexes packets and timers to the TCP
//! connections and receivers living on one simulated host, and injects
//! scheduled application trains.
//!
//! Sender state lives in a [`FlowSlab`], one [`Conn`] per flow. Each
//! event borrows its flow's connection in place and drives its state
//! machine; [`TcpHost::connection`] borrows the same connection
//! read-only.

use netsim::hash::FastHashMap;
use netsim::prelude::*;
use netsim::time::SimTime;

use crate::cc::CcKind;
use crate::config::TcpConfig;
use crate::conn::{new_conn, Conn, KIND_APP, KIND_BITS, KIND_PROBE, KIND_RTO, KIND_SEQ};
use crate::receiver::Receiver;
use crate::segment::{SegKind, Segment};
use crate::slab::{FlowSlab, SlabAudit};

/// A scheduled application action on one sender. `generation` is the
/// sender's slot generation at schedule time: an event that fires after
/// its sender was torn down (or its id reused) no longer matches and is
/// dropped, like a late ACK.
#[derive(Clone, Copy, Debug)]
struct AppEvent {
    at: SimTime,
    sender_idx: usize,
    generation: u32,
    action: AppAction,
}

#[derive(Clone, Copy, Debug)]
enum AppAction {
    /// Hand `bytes` to the sender.
    Train { bytes: u64 },
    /// Discard the sender's unsent data.
    Stop,
    /// Tear the sender down: cancel its timers and free its slab slot
    /// for reuse.
    Teardown,
}

/// A request/response exchange sequence on one connection: each response
/// is handed to TCP `think` after the previous one completes (persistent
/// HTTP with sequential requests, as on the paper's testbed).
#[derive(Clone, Debug)]
struct ResponseSequence {
    sender_idx: usize,
    /// The sender's slot generation at schedule time (see [`AppEvent`]).
    generation: u32,
    start: SimTime,
    sizes: Vec<u64>,
    think: netsim::time::Dur,
    next: usize,
    /// `TrainRecord::id` of the response in flight. Only that train's
    /// completion advances the sequence: the sender may also carry plain
    /// scheduled trains.
    outstanding: Option<u64>,
    /// Responses fully acknowledged so far.
    completed: usize,
    /// Whether the session-end event has been emitted.
    ended: bool,
    /// Fault injection: emit `SessionEnded` right after the first
    /// request is issued, while its response is still in flight. Used to
    /// prove the session-conservation monitor fires; never set in
    /// healthy runs.
    fault_early_end: bool,
}

/// A host running any number of sending connections and receivers.
///
/// Build the host, register senders/receivers and schedule trains *before*
/// the simulation starts; read connections back after the run via
/// [`Simulator::host`].
///
/// ```
/// use netsim::prelude::*;
/// use trim_tcp::{CcKind, Segment, TcpConfig, TcpHost};
///
/// let mut sim: Simulator<Segment> = Simulator::new();
/// let sw = sim.add_switch();
///
/// // Receiver host.
/// let mut rx_host = TcpHost::new();
/// rx_host.add_receiver(FlowId(1), TcpConfig::default());
/// let rx = sim.add_host(Box::new(rx_host));
///
/// // Sender host with one Reno connection sending 100 KB at t=1ms.
/// let mut tx_host = TcpHost::new();
/// let idx = tx_host.add_sender(FlowId(1), rx, TcpConfig::default(), &CcKind::Reno);
/// tx_host.schedule_train(idx, SimTime::from_secs_f64(0.001), 100 * 1024);
/// let tx = sim.add_host(Box::new(tx_host));
///
/// let spec = topology::LinkSpec::new(
///     Bandwidth::gbps(1), Dur::from_micros(50), QueueConfig::drop_tail(100));
/// sim.connect(tx, sw, spec.bandwidth, spec.delay, spec.queue);
/// sim.connect(rx, sw, spec.bandwidth, spec.delay, spec.queue);
/// sim.run();
///
/// let host: &TcpHost = sim.host(tx);
/// assert_eq!(host.connection(0).completed_trains().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct TcpHost {
    flows: FlowSlab,
    receivers: Vec<Receiver>,
    // Flow demux maps are on the per-packet hot path; FastHashMap keeps
    // the lookups cheap and deterministic. Neither map is ever iterated.
    recv_by_flow: FastHashMap<u64, usize>,
    send_by_flow: FastHashMap<u64, usize>,
    schedule: Vec<AppEvent>,
    sequences: Vec<ResponseSequence>,
    /// sender_idx -> sequence index, for completion-driven advance.
    seq_by_sender: FastHashMap<usize, usize>,
}

impl TcpHost {
    /// Creates an empty host.
    pub fn new() -> Self {
        TcpHost::default()
    }

    /// Creates a host with slab capacity reserved for `senders` flows.
    pub fn with_sender_capacity(senders: usize) -> Self {
        TcpHost {
            flows: FlowSlab::with_capacity(senders),
            ..TcpHost::default()
        }
    }

    /// Adds a sending connection toward `dst`; returns its dense flow id
    /// (reusing the id of a torn-down sender when one is free).
    ///
    /// # Panics
    ///
    /// Panics if the flow already has a sender on this host or `cfg` is
    /// invalid.
    pub fn add_sender(&mut self, flow: FlowId, dst: NodeId, cfg: TcpConfig, cc: &CcKind) -> usize {
        let idx = self.flows.insert(new_conn(flow, dst, cfg, cc.build()));
        assert!(
            self.send_by_flow.insert(flow.0, idx).is_none(),
            "duplicate sender for flow {flow}"
        );
        idx
    }

    /// Adds a receiver for `flow`; returns its local index.
    ///
    /// # Panics
    ///
    /// Panics if the flow already has a receiver on this host.
    pub fn add_receiver(&mut self, flow: FlowId, cfg: TcpConfig) -> usize {
        let idx = self.receivers.len();
        assert!(
            self.recv_by_flow.insert(flow.0, idx).is_none(),
            "duplicate receiver for flow {flow}"
        );
        self.receivers.push(Receiver::new(flow, cfg));
        idx
    }

    /// Schedules `bytes` to be handed to sender `sender_idx` at absolute
    /// time `at`. Must be called before the simulation starts.
    ///
    /// # Panics
    ///
    /// Panics if `sender_idx` is not a live sender.
    pub fn schedule_train(&mut self, sender_idx: usize, at: SimTime, bytes: u64) {
        self.schedule_app(sender_idx, at, AppAction::Train { bytes });
    }

    /// Schedules the application to stop sender `sender_idx` at `at`:
    /// unsent data is discarded, in-flight data drains normally.
    ///
    /// # Panics
    ///
    /// Panics if `sender_idx` is not a live sender.
    pub fn schedule_stop(&mut self, sender_idx: usize, at: SimTime) {
        self.schedule_app(sender_idx, at, AppAction::Stop);
    }

    /// Schedules sender `sender_idx` to be torn down at `at`: its timers
    /// are cancelled, its flow demux entry removed, and its slab slot
    /// freed for reuse by later `add_sender` calls. In-flight packets
    /// for the flow arriving afterwards are dropped silently, like any
    /// unknown flow.
    ///
    /// # Panics
    ///
    /// Panics if `sender_idx` is not a live sender.
    pub fn schedule_teardown(&mut self, sender_idx: usize, at: SimTime) {
        self.schedule_app(sender_idx, at, AppAction::Teardown);
    }

    /// Schedules a sequential request/response exchange: the first
    /// response of `sizes` is handed to sender `sender_idx` at `start`,
    /// and each subsequent one `think` after the previous response
    /// completes. Only one sequence per sender.
    ///
    /// # Panics
    ///
    /// Panics if `sender_idx` is not a live sender, `sizes` is empty, or
    /// the sender already has a sequence.
    pub fn schedule_response_sequence(
        &mut self,
        sender_idx: usize,
        start: SimTime,
        sizes: Vec<u64>,
        think: netsim::time::Dur,
    ) {
        assert!(self.flows.contains(sender_idx), "no such sender");
        assert!(!sizes.is_empty(), "empty response sequence");
        let idx = self.sequences.len();
        assert!(
            self.seq_by_sender.insert(sender_idx, idx).is_none(),
            "sender already has a response sequence"
        );
        self.sequences.push(ResponseSequence {
            sender_idx,
            generation: self.flows.generation(sender_idx),
            start,
            sizes,
            think,
            next: 0,
            outstanding: None,
            completed: 0,
            ended: false,
            fault_early_end: false,
        });
    }

    /// Fault injection: make the sequence driving sender `sender_idx`
    /// announce its session end immediately after issuing its first
    /// request, while the response is still in flight. Exists to prove
    /// the session-conservation monitor catches broken lifecycles.
    ///
    /// # Panics
    ///
    /// Panics if the sender has no response sequence.
    pub fn inject_session_early_end(&mut self, sender_idx: usize) {
        #[expect(
            clippy::expect_used,
            reason = "fault-injection API misuse is a test bug"
        )]
        let idx = *self
            .seq_by_sender
            .get(&sender_idx)
            .expect("sender has no response sequence");
        self.sequences[idx].fault_early_end = true;
    }

    /// Fault injection: leak the slab slot of the next torn-down sender.
    /// Exists to prove [`Self::slab_audit`] / `FlowSlab::leak_check`
    /// catch lifecycle bugs.
    pub fn inject_slot_leak(&mut self) {
        self.flows.inject_slot_leak();
    }

    /// Borrows a sending connection by dense flow id: the same state the
    /// next event for this flow will act on, so it is current mid-run.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a live sender.
    pub fn connection(&self, idx: usize) -> &Conn {
        self.flows.get(idx)
    }

    /// Mutably adjusts a sending connection by dense flow id (e.g. to
    /// enable window recording before the run).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a live sender.
    pub fn connection_mut(&mut self, idx: usize) -> &mut Conn {
        self.flows.get_mut(idx)
    }

    /// All live sending connections, ascending by id.
    pub fn connections(&self) -> impl Iterator<Item = &Conn> {
        self.flows.live_ids().map(|id| self.connection(id))
    }

    /// Number of live sending connections.
    pub fn sender_count(&self) -> usize {
        self.flows.len()
    }

    /// Slab lifecycle accounting (allocations, frees, high water).
    pub fn slab_audit(&self) -> SlabAudit {
        self.flows.audit()
    }

    /// Verifies the sender slab's lifecycle books balance; returns the
    /// first discrepancy found. Cross-check this with the engine's
    /// packet-conservation audit after teardown-heavy runs.
    pub fn slab_leak_check(&self) -> Result<(), String> {
        self.flows.leak_check()
    }

    /// The slot birth count for a flow id (0 for a first occupant);
    /// observable proof of id reuse in lifecycle tests.
    pub fn sender_generation(&self, idx: usize) -> u32 {
        self.flows.generation(idx)
    }

    /// Borrows a receiver by local index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn receiver(&self, idx: usize) -> &Receiver {
        &self.receivers[idx]
    }

    /// Mutably borrows a receiver by local index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn receiver_mut(&mut self, idx: usize) -> &mut Receiver {
        &mut self.receivers[idx]
    }

    /// All receivers on this host.
    pub fn receivers(&self) -> &[Receiver] {
        &self.receivers
    }

    fn schedule_app(&mut self, sender_idx: usize, at: SimTime, action: AppAction) {
        assert!(self.flows.contains(sender_idx), "no such sender");
        self.schedule.push(AppEvent {
            at,
            sender_idx,
            generation: self.flows.generation(sender_idx),
            action,
        });
    }

    /// Tears a sender down now: cancels its timers, unmaps its flow, and
    /// frees its slab slot.
    fn teardown_sender(&mut self, ctx: &mut Ctx<'_, Segment>, idx: usize) {
        self.flows.get_mut(idx).cancel_timers(ctx);
        let conn = self.flows.remove(idx);
        self.send_by_flow.remove(&conn.flow().0);
        self.seq_by_sender.remove(&idx);
    }

    /// Sender `sender_idx` completed the trains after its first
    /// `already_done`: if the sequence's outstanding response is among
    /// them, record it, and if the sequence has responses left, arm the
    /// think-time timer for the next one; otherwise close the session.
    fn advance_sequence(
        &mut self,
        ctx: &mut Ctx<'_, Segment>,
        sender_idx: usize,
        already_done: usize,
    ) {
        let Some(&seq_idx) = self.seq_by_sender.get(&sender_idx) else {
            return;
        };
        let conn = self.flows.get(sender_idx);
        let flow = conn.flow();
        let seq = &mut self.sequences[seq_idx];
        let newly_done = &conn.completed_trains()[already_done..];
        if !newly_done.iter().any(|t| Some(t.id) == seq.outstanding) {
            return;
        }
        seq.outstanding = None;
        let index = seq.completed as u32;
        seq.completed += 1;
        ctx.emit_monitor_with(|| MonitorEvent::ResponseCompleted { flow, index });
        if seq.next < seq.sizes.len() {
            ctx.set_timer(seq.think, ((seq_idx as u64) << KIND_BITS) | KIND_SEQ);
        } else if seq.completed == seq.sizes.len() && !seq.ended {
            seq.ended = true;
            let (issued, completed) = (seq.next as u32, seq.completed as u32);
            ctx.emit_monitor_with(|| MonitorEvent::SessionEnded {
                flow,
                issued,
                completed,
            });
        }
    }
}

impl Agent<Segment> for TcpHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Segment>) {
        for (i, s) in self.schedule.iter().enumerate() {
            let delay = s.at.saturating_since(SimTime::ZERO);
            ctx.set_timer(delay, ((i as u64) << KIND_BITS) | KIND_APP);
        }
        for (i, seq) in self.sequences.iter().enumerate() {
            let delay = seq.start.saturating_since(SimTime::ZERO);
            ctx.set_timer(delay, ((i as u64) << KIND_BITS) | KIND_SEQ);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Segment>, pkt: Packet<Segment>) {
        match pkt.payload.kind {
            SegKind::Data { .. } => {
                let Some(&idx) = self.recv_by_flow.get(&pkt.flow.0) else {
                    return; // no receiver registered: drop silently
                };
                self.receivers[idx].on_data(ctx, pkt);
            }
            SegKind::Ack {
                ack_seq,
                echo_ts,
                echo_probe,
                echo_rtx,
                ece,
            } => {
                let Some(&idx) = self.send_by_flow.get(&pkt.flow.0) else {
                    return;
                };
                let conn = self.flows.get_mut(idx);
                let before = conn.completed_trains().len();
                conn.on_ack(ctx, ack_seq, echo_ts, echo_probe, echo_rtx, ece);
                let after = conn.completed_trains().len();
                if after > before {
                    self.advance_sequence(ctx, idx, before);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Segment>, token: u64) {
        let kind = token & ((1 << KIND_BITS) - 1);
        let idx = (token >> KIND_BITS) as usize;
        match kind {
            KIND_RTO => self.flows.get_mut(idx).on_rto_fire(ctx),
            KIND_PROBE => self.flows.get_mut(idx).on_probe_deadline_fire(ctx),
            KIND_APP => {
                let ev = self.schedule[idx];
                if self.flows.generation(ev.sender_idx) != ev.generation {
                    return; // the sender was torn down first: drop
                }
                match ev.action {
                    AppAction::Train { bytes } => {
                        self.flows.get_mut(ev.sender_idx).enqueue_train(ctx, bytes);
                    }
                    AppAction::Stop => self.flows.get_mut(ev.sender_idx).truncate_unsent(),
                    AppAction::Teardown => self.teardown_sender(ctx, ev.sender_idx),
                }
            }
            KIND_SEQ => {
                let seq = &mut self.sequences[idx];
                if self.flows.generation(seq.sender_idx) != seq.generation {
                    return; // the sender was torn down first: drop
                }
                if seq.next < seq.sizes.len() {
                    let bytes = seq.sizes[seq.next];
                    let index = seq.next as u32;
                    seq.next += 1;
                    let sender = seq.sender_idx;
                    let flow = self.flows.get(sender).flow();
                    if index == 0 {
                        let planned_requests = seq.sizes.len() as u32;
                        ctx.emit_monitor_with(|| MonitorEvent::SessionStarted {
                            flow,
                            planned_requests,
                        });
                    }
                    ctx.emit_monitor_with(|| MonitorEvent::RequestIssued { flow, index, bytes });
                    let early_end = seq.fault_early_end && index == 0;
                    if early_end {
                        let seq = &mut self.sequences[idx];
                        seq.ended = true;
                        let (issued, completed) = (seq.next as u32, seq.completed as u32);
                        ctx.emit_monitor_with(|| MonitorEvent::SessionEnded {
                            flow,
                            issued,
                            completed,
                        });
                    }
                    let id = self.flows.get_mut(sender).enqueue_train(ctx, bytes);
                    self.sequences[idx].outstanding = Some(id);
                }
            }
            _ => unreachable!("unknown timer kind {kind}"),
        }
    }
}
