//! The TCP sender state machine: sequencing, loss detection (duplicate
//! ACKs and RTO), NewReno-style recovery, go-back-N timeout recovery, and
//! the application-side packet-train queue.
//!
//! The policy half (window growth/shrink, TRIM probing) lives in the
//! pluggable [`CcAlgo`]; this module is the mechanism half. Sequence
//! numbers count packets, as in NS2.
//!
//! ## State layout
//!
//! A sender's whole state is one [`Conn`], held inline in its
//! [`FlowSlab`](crate::slab::FlowSlab) slot. Every ACK touches the
//! window, the RTO estimator and the sequence cursors, but also the
//! config, the stats, the controller, the probe state and the train
//! queue, so there is no rarely-touched half to split off. The state
//! machine is `impl Conn`; the public methods are the read-only view
//! behind [`TcpHost::connection`](crate::TcpHost::connection).

use std::collections::VecDeque;

use netsim::prelude::*;
use netsim::time::{Dur, SimTime};

use crate::cc::{AckInfo, CcAlgo, PreSendAction, WindowState};
use crate::config::TcpConfig;
use crate::rto::RtoEstimator;
use crate::segment::Segment;

/// Timer-token kind for retransmission timeouts (dispatched by `TcpHost`).
pub(crate) const KIND_RTO: u64 = 0;
/// Timer-token kind for TRIM probe deadlines.
pub(crate) const KIND_PROBE: u64 = 1;
/// Timer-token kind for scheduled application trains.
pub(crate) const KIND_APP: u64 = 2;
/// Timer-token kind for the next train in a response sequence.
pub(crate) const KIND_SEQ: u64 = 3;
/// Width of the kind field in timer tokens.
pub(crate) const KIND_BITS: u64 = 3;

/// Counters exposed by a connection after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Data packets transmitted (including retransmissions).
    pub pkts_sent: u64,
    /// Retransmitted data packets.
    pub rtx_sent: u64,
    /// TRIM probe packets transmitted.
    pub probes_sent: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Fast-retransmit events entered.
    pub fast_retransmits: u64,
    /// ACKs processed.
    pub acks_received: u64,
    /// Duplicate ACKs processed.
    pub dup_acks_received: u64,
}

/// A finished packet train, with the timestamps used for completion-time
/// metrics (the paper's ACT/ARCT).
#[derive(Clone, Copy, Debug)]
pub struct TrainRecord {
    /// Order of arrival at the sender (0-based).
    pub id: u64,
    /// Application bytes in the train.
    pub bytes: u64,
    /// Packets in the train.
    pub pkts: u64,
    /// When the application handed the train to TCP.
    pub enqueued_at: SimTime,
    /// When the train's first packet left the host.
    pub first_sent_at: SimTime,
    /// When the last packet was cumulatively acknowledged.
    pub completed_at: SimTime,
}

impl TrainRecord {
    /// Completion time as measured in the paper: from hand-off to final
    /// acknowledgment.
    pub fn completion_time(&self) -> Dur {
        self.completed_at.saturating_since(self.enqueued_at)
    }
}

#[derive(Clone, Copy, Debug)]
struct TrainProgress {
    id: u64,
    bytes: u64,
    start_seq: u64,
    end_seq: u64,
    enqueued_at: SimTime,
    first_sent_at: Option<SimTime>,
}

#[derive(Debug)]
struct ProbePending {
    remaining: u32,
    timer: TimerId,
}

/// One sending connection: the per-event working set (window, RTO
/// estimator, sequence cursors, recovery flags) and everything around it
/// (config, controller, train queue, stats), held inline per
/// flow in the [`FlowSlab`](crate::slab::FlowSlab).
#[derive(Debug)]
pub struct Conn {
    /// Congestion window state (cwnd/ssthresh/bounds/suspended).
    win: WindowState,
    /// RFC 6298 estimator (srtt/rttvar plus the configured clamp).
    rto_est: RtoEstimator,
    /// Next fresh sequence to transmit.
    next_seq: u64,
    /// Highest cumulative ACK received.
    high_ack: u64,
    /// Highest sequence ever transmitted (fresh data high-water mark).
    max_seq_sent: u64,
    /// Total packets handed over by the application so far.
    total_pkts: u64,
    /// NewReno recovery point: recovery ends at this sequence.
    recover: u64,
    /// Consecutive duplicate ACKs seen.
    dup_acks: u32,
    /// Karn backoff multiplier (doubles per RTO, capped at 64).
    backoff: u32,
    /// Whether fast recovery is in progress.
    in_recovery: bool,
    /// The armed retransmission timer, if any.
    rto_timer: Option<TimerId>,

    flow: FlowId,
    dst: NodeId,
    cfg: TcpConfig,
    cc: Box<dyn CcAlgo>,
    /// Dense slab id within the owning host, used to build timer tokens.
    /// Assigned by `FlowSlab::insert`.
    pub(crate) local_idx: u64,

    probe: Option<ProbePending>,

    trains: VecDeque<TrainProgress>,
    next_train_id: u64,
    completed: Vec<TrainRecord>,

    stats: ConnStats,
    cwnd_series: Option<Series>,
}

/// Builds the state for a new connection sending to `dst` with flow
/// label `flow`. Its `local_idx` is assigned when it is inserted into a
/// [`FlowSlab`](crate::slab::FlowSlab).
///
/// # Panics
///
/// Panics if `cfg` fails validation.
pub(crate) fn new_conn(flow: FlowId, dst: NodeId, cfg: TcpConfig, cc: Box<dyn CcAlgo>) -> Conn {
    #[expect(
        clippy::panic,
        reason = "constructor contract: configs are validated at build time"
    )]
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid TcpConfig: {e}"));
    Conn {
        win: WindowState::new(cfg.init_cwnd, cfg.init_ssthresh, cfg.min_cwnd, cfg.max_cwnd),
        rto_est: RtoEstimator::new(cfg.min_rto, cfg.max_rto),
        next_seq: 0,
        high_ack: 0,
        max_seq_sent: 0,
        total_pkts: 0,
        recover: 0,
        dup_acks: 0,
        backoff: 1,
        in_recovery: false,
        rto_timer: None,
        flow,
        dst,
        cfg,
        cc,
        local_idx: 0,
        probe: None,
        trains: VecDeque::new(),
        next_train_id: 0,
        completed: Vec::new(),
        stats: ConnStats::default(),
        cwnd_series: None,
    }
}

impl Conn {
    /// The connection's flow label.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// The congestion controller's report name.
    pub fn cc_name(&self) -> &'static str {
        self.cc.name()
    }

    /// Current congestion window in packets.
    pub fn cwnd(&self) -> f64 {
        self.win.cwnd
    }

    /// The smoothed RTT estimate, if any Karn-valid sample has arrived
    /// (echoes of retransmitted packets never contribute samples).
    pub fn srtt(&self) -> Option<Dur> {
        self.rto_est.srtt()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ConnStats {
        self.stats
    }

    /// Trains fully acknowledged so far, in completion order.
    pub fn completed_trains(&self) -> &[TrainRecord] {
        &self.completed
    }

    /// Whether every queued train has been fully acknowledged.
    pub fn is_idle(&self) -> bool {
        self.high_ack == self.total_pkts
    }

    /// Packets currently unacknowledged.
    pub fn flight(&self) -> u64 {
        self.next_seq - self.high_ack
    }

    /// The recorded window series, if enabled.
    pub fn cwnd_series(&self) -> Option<&Series> {
        self.cwnd_series.as_ref()
    }

    /// Starts recording a `(time, cwnd)` point at every window change.
    pub fn enable_cwnd_recording(&mut self) {
        if self.cwnd_series.is_none() {
            self.cwnd_series = Some(Series::new());
        }
    }

    /// Cancels and forgets any timers this connection holds (called on
    /// teardown so a recycled slab slot cannot receive stale fires).
    pub(crate) fn cancel_timers(&mut self, ctx: &mut Ctx<'_, Segment>) {
        self.cancel_rto(ctx);
        if let Some(p) = self.probe.take() {
            ctx.cancel_timer(p.timer);
        }
    }

    fn record_cwnd(&mut self, now: SimTime) {
        if let Some(s) = &mut self.cwnd_series {
            s.push(now, self.win.cwnd);
        }
    }

    /// Reports the current window to any attached invariant monitors
    /// (`cwnd-range` checks it stays within `[min_cwnd, max_cwnd]`).
    fn emit_cwnd(&self, ctx: &mut Ctx<'_, Segment>) {
        let (flow, win) = (self.flow, &self.win);
        ctx.emit_monitor_with(|| MonitorEvent::CwndUpdate {
            flow,
            cwnd: win.cwnd,
            min_cwnd: win.min_cwnd,
            max_cwnd: win.max_cwnd,
        });
    }

    /// Reports a congestion-control ACK hook invocation to any attached
    /// invariant monitors (`ack-reduction-bound` checks that no single
    /// ACK cuts the window below legacy TCP's halving, per Eq. 2–3).
    fn emit_ack_window(&self, ctx: &mut Ctx<'_, Segment>, before: f64, probe_echo: bool) {
        let (flow, after) = (self.flow, self.win.cwnd);
        ctx.emit_monitor_with(|| MonitorEvent::AckWindow {
            flow,
            before,
            after,
            probe_echo,
        });
    }

    /// Reports an Algorithm-1 probe state-machine transition to any
    /// attached invariant monitors (`probe-legality` checks ordering).
    fn emit_probe(&self, ctx: &mut Ctx<'_, Segment>, transition: ProbeTransition) {
        let flow = self.flow;
        ctx.emit_monitor_with(|| MonitorEvent::ProbeTransition { flow, transition });
    }

    fn token(&self, kind: u64) -> u64 {
        (self.local_idx << KIND_BITS) | kind
    }

    /// Discards all application data that has not yet been transmitted:
    /// pending trains are dropped and the in-progress train is truncated
    /// at the highest transmitted packet. In-flight packets still drain
    /// normally. Models an application closing its response stream
    /// (used by the convergence and multi-hop experiments to stop LPTs
    /// at a scheduled time).
    pub(crate) fn truncate_unsent(&mut self) {
        self.total_pkts = self.next_seq;
        while let Some(last) = self.trains.back() {
            if last.start_seq >= self.total_pkts {
                self.trains.pop_back();
            } else {
                break;
            }
        }
        if let Some(last) = self.trains.back_mut() {
            last.end_seq = last.end_seq.min(self.total_pkts);
        }
    }

    /// Queues `bytes` of application data as one packet train and starts
    /// transmitting as the window allows. Returns the id the train's
    /// [`TrainRecord`] will carry once it completes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub(crate) fn enqueue_train(&mut self, ctx: &mut Ctx<'_, Segment>, bytes: u64) -> u64 {
        assert!(bytes > 0, "empty train");
        let pkts = bytes.div_ceil(self.cfg.mss_bytes as u64);
        let start_seq = self.total_pkts;
        self.total_pkts += pkts;
        let id = self.next_train_id;
        self.trains.push_back(TrainProgress {
            id,
            bytes,
            start_seq,
            end_seq: self.total_pkts,
            enqueued_at: ctx.now(),
            first_sent_at: None,
        });
        self.next_train_id += 1;
        self.try_send(ctx);
        id
    }

    /// Transmits as much new data as the window, the probe state, and the
    /// application queue allow.
    pub(crate) fn try_send(&mut self, ctx: &mut Ctx<'_, Segment>) {
        loop {
            if self.win.suspended || self.next_seq >= self.total_pkts {
                break;
            }
            let wnd = self.win.cwnd.floor().max(1.0) as u64;
            if self.flight() >= wnd {
                break;
            }
            // Algorithm 1 applies only to fresh data, not go-back-N
            // resends.
            if self.probe.is_none() && self.next_seq >= self.max_seq_sent {
                let available = self.total_pkts - self.next_seq;
                match self.cc.pre_send(&mut self.win, ctx.now(), available) {
                    PreSendAction::Continue => {}
                    PreSendAction::StartProbe { probes, deadline } => {
                        let timer = ctx.set_timer(deadline, self.token(KIND_PROBE));
                        self.probe = Some(ProbePending {
                            remaining: probes,
                            timer,
                        });
                        self.emit_probe(ctx, ProbeTransition::Start);
                        self.record_cwnd(ctx.now());
                        self.emit_cwnd(ctx);
                        continue; // window changed; re-evaluate
                    }
                }
            }
            let seq = self.next_seq;
            let is_probe = self.probe.is_some();
            self.transmit(ctx, seq, is_probe);
            self.next_seq += 1;
            self.max_seq_sent = self.max_seq_sent.max(self.next_seq);
            if let Some(p) = &mut self.probe {
                self.stats.probes_sent += 1;
                p.remaining -= 1;
                if p.remaining == 0 {
                    // Algorithm 1 line 6: suspend until the probe result.
                    self.win.suspended = true;
                    let flow = self.flow;
                    ctx.emit_monitor_with(|| MonitorEvent::ProbeTransition {
                        flow,
                        transition: ProbeTransition::Suspend,
                    });
                }
            }
        }
    }

    /// Puts data segment `seq` on the wire: the one place a data packet
    /// is built, sent, reported to the controller and counted.
    fn send_segment(&mut self, ctx: &mut Ctx<'_, Segment>, seq: u64, is_probe: bool, is_rtx: bool) {
        let now = ctx.now();
        let seg = Segment::data(seq, is_probe, is_rtx, now, self.cc.uses_ecn());
        let pkt = Packet::new(ctx.node(), self.dst, self.flow, self.cfg.mss_bytes, seg);
        ctx.send(pkt);
        self.cc.note_sent(now);
        self.stats.pkts_sent += 1;
        if is_rtx {
            self.stats.rtx_sent += 1;
        }
    }

    /// The window-driven send path: new data and go-back-N resends.
    fn transmit(&mut self, ctx: &mut Ctx<'_, Segment>, seq: u64, is_probe: bool) {
        let is_rtx = seq < self.max_seq_sent;
        self.send_segment(ctx, seq, is_probe, is_rtx);
        if !is_rtx {
            self.note_first_send(seq, ctx.now());
        }
        if self.rto_timer.is_none() {
            self.arm_rto(ctx);
        }
    }

    fn note_first_send(&mut self, seq: u64, now: SimTime) {
        // Binary search the (start_seq-sorted) pending trains.
        let idx = self
            .trains
            .partition_point(|t| t.start_seq <= seq)
            .checked_sub(1);
        if let Some(i) = idx {
            let t = &mut self.trains[i];
            if seq < t.end_seq && t.first_sent_at.is_none() {
                t.first_sent_at = Some(now);
            }
        }
    }

    /// The backed-off retransmission timeout.
    fn rto(&self) -> Dur {
        self.rto_est
            .rto()
            .mul_f64(self.backoff as f64)
            .min(self.cfg.max_rto)
    }

    fn arm_rto(&mut self, ctx: &mut Ctx<'_, Segment>) {
        self.rto_timer = Some(ctx.set_timer(self.rto(), self.token(KIND_RTO)));
    }

    fn cancel_rto(&mut self, ctx: &mut Ctx<'_, Segment>) {
        if let Some(t) = self.rto_timer.take() {
            ctx.cancel_timer(t);
        }
    }

    /// Restarts the RTO for the data still in flight, or stops it when
    /// none is. Runs on every advancing ACK, so an armed timer is moved
    /// (`rearm_timer`), not cancelled and set again.
    fn rearm_rto(&mut self, ctx: &mut Ctx<'_, Segment>) {
        if self.flight() == 0 {
            self.cancel_rto(ctx);
        } else if let Some(t) = self.rto_timer {
            self.rto_timer = Some(ctx.rearm_timer(t, self.rto(), self.token(KIND_RTO)));
        } else {
            self.arm_rto(ctx);
        }
    }

    /// Processes an arriving cumulative ACK.
    pub(crate) fn on_ack(
        &mut self,
        ctx: &mut Ctx<'_, Segment>,
        ack_seq: u64,
        echo_ts: SimTime,
        echo_probe: bool,
        echo_rtx: bool,
        ece: bool,
    ) {
        let now = ctx.now();
        self.stats.acks_received += 1;
        // Karn's rule: no RTT sample from a retransmitted packet's echo.
        let rtt = if echo_rtx {
            None
        } else {
            Some(now.saturating_since(echo_ts))
        };
        if let Some(r) = rtt {
            if r > Dur::ZERO {
                self.rto_est.observe(r);
            }
        }
        // What the controller is told about this ACK, read off the
        // connection as it stands when the controller is fed.
        let ack_info = |c: &Conn, newly_acked: u64| AckInfo {
            now,
            rtt,
            newly_acked,
            ack_seq,
            next_seq: c.next_seq,
            flight: c.next_seq - c.high_ack,
            ece,
            probe_echo: echo_probe,
        };

        if ack_seq > self.high_ack {
            let newly = ack_seq - self.high_ack;
            self.high_ack = ack_seq;
            // After go-back-N the ACK may cover packets sent before the
            // timeout that were still in flight; never send below the
            // cumulative ACK.
            self.next_seq = self.next_seq.max(self.high_ack);
            self.max_seq_sent = self.max_seq_sent.max(self.next_seq);
            self.backoff = 1;
            if self.in_recovery {
                if ack_seq >= self.recover {
                    // Full ACK: leave recovery, deflate to ssthresh.
                    self.in_recovery = false;
                    self.dup_acks = 0;
                    self.win.cwnd = self.win.ssthresh;
                    self.win.clamp_cwnd();
                } else {
                    // NewReno partial ACK: the next hole is lost too.
                    self.transmit_rtx(ctx, self.high_ack);
                    self.win.cwnd = (self.win.cwnd - newly as f64 + 1.0).max(self.win.min_cwnd);
                }
            } else {
                self.dup_acks = 0;
                self.feed_controller(ctx, ack_info(self, newly));
            }
            self.complete_trains(now);
            self.rearm_rto(ctx);
        } else {
            // Duplicate ACK.
            if self.next_seq > self.high_ack {
                self.dup_acks += 1;
                self.stats.dup_acks_received += 1;
                if self.in_recovery {
                    // Window inflation keeps the pipe full.
                    self.win.cwnd += 1.0;
                    self.win.clamp_cwnd();
                } else if self.dup_acks == self.cfg.dupack_threshold {
                    self.enter_fast_recovery(ctx, now);
                } else {
                    // Still feed the controller: TRIM needs every RTT
                    // sample, DCTCP every ECE, probe echoes may ride on
                    // duplicates.
                    self.feed_controller(ctx, ack_info(self, 0));
                }
            }
        }

        // Did the controller resolve a probe phase?
        if let Some(p) = &self.probe {
            if p.remaining == 0 && !self.win.suspended {
                let timer = p.timer;
                ctx.cancel_timer(timer);
                self.probe = None;
                self.emit_probe(ctx, ProbeTransition::Resolve);
            }
        }
        self.record_cwnd(now);
        self.emit_cwnd(ctx);
        self.try_send(ctx);
    }

    fn feed_controller(&mut self, ctx: &mut Ctx<'_, Segment>, info: AckInfo) {
        let before = self.win.cwnd;
        self.cc.on_ack(&mut self.win, &info);
        self.emit_ack_window(ctx, before, info.probe_echo);
    }

    fn enter_fast_recovery(&mut self, ctx: &mut Ctx<'_, Segment>, now: SimTime) {
        self.in_recovery = true;
        self.recover = self.next_seq;
        self.stats.fast_retransmits += 1;
        let flight = self.flight();
        self.cc.on_fast_retransmit(&mut self.win, flight, now);
        // Standard inflation by the duplicate threshold.
        self.win.cwnd += self.cfg.dupack_threshold as f64;
        self.win.clamp_cwnd();
        self.transmit_rtx(ctx, self.high_ack);
        self.rearm_rto(ctx);
    }

    /// The loss-recovery send path: a repair outside the window, whose
    /// caller owns the RTO.
    fn transmit_rtx(&mut self, ctx: &mut Ctx<'_, Segment>, seq: u64) {
        self.send_segment(ctx, seq, false, true);
    }

    /// The retransmission timer fired: collapse the window, back off the
    /// timer, and go-back-N from the last cumulative ACK.
    pub(crate) fn on_rto_fire(&mut self, ctx: &mut Ctx<'_, Segment>) {
        self.rto_timer = None;
        if self.flight() == 0 {
            return; // stale: everything got acknowledged meanwhile
        }
        let now = ctx.now();
        self.stats.timeouts += 1;
        let flight = self.flight();
        self.cc.on_timeout(&mut self.win, flight, now);
        self.win.cwnd = self.cfg.restart_cwnd;
        self.win.suspended = false;
        self.win.clamp_cwnd();
        if let Some(p) = self.probe.take() {
            ctx.cancel_timer(p.timer);
            self.emit_probe(ctx, ProbeTransition::Abort);
        }
        self.in_recovery = false;
        self.dup_acks = 0;
        self.backoff = (self.backoff * 2).min(64);
        // Go-back-N: resume from the last cumulative ACK.
        self.next_seq = self.high_ack;
        self.record_cwnd(now);
        self.emit_cwnd(ctx);
        self.try_send(ctx);
        if self.rto_timer.is_none() && self.flight() > 0 {
            self.arm_rto(ctx);
        }
    }

    /// The TRIM probe deadline fired without all probe ACKs.
    pub(crate) fn on_probe_deadline_fire(&mut self, ctx: &mut Ctx<'_, Segment>) {
        if self.probe.take().is_some() {
            self.emit_probe(ctx, ProbeTransition::Timeout);
            self.cc.on_probe_deadline(&mut self.win);
            self.record_cwnd(ctx.now());
            self.emit_cwnd(ctx);
            self.try_send(ctx);
        }
    }

    fn complete_trains(&mut self, now: SimTime) {
        while let Some(front) = self.trains.front() {
            if self.high_ack < front.end_seq {
                break;
            }
            #[expect(
                clippy::expect_used,
                reason = "front() returned Some in the loop condition"
            )]
            let t = self.trains.pop_front().expect("front exists");
            self.completed.push(TrainRecord {
                id: t.id,
                bytes: t.bytes,
                pkts: t.end_seq - t.start_seq,
                enqueued_at: t.enqueued_at,
                first_sent_at: t.first_sent_at.unwrap_or(t.enqueued_at),
                completed_at: now,
            });
        }
    }
}
