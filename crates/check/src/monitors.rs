//! The built-in invariant monitors.
//!
//! Each monitor derives its own view of the world from the
//! [`MonitorEvent`] stream and flags what breaks into the [`Findings`]
//! the engine hands it — never panics — so a single run surfaces every
//! problem at once. See the crate docs for the attach policy.

use std::collections::VecDeque;

use netsim::hash::FastHashMap;
use netsim::monitor::{
    interest, AuditStats, Findings, InvariantMonitor, MonitorEvent, ProbeTransition,
};
use netsim::{ChannelId, Dur, FlowId, SimTime};

/// Slack for floating-point window comparisons: windows are `f64`
/// arithmetic, so equality at the clamp boundaries is approximate.
const CWND_EPS: f64 = 1e-9;

/// Every built-in monitor, freshly constructed.
pub fn standard_monitors() -> Vec<Box<dyn InvariantMonitor>> {
    vec![
        Box::new(PacketConservation::new()),
        Box::new(QueueBound::new()),
        Box::new(FifoOrder::new()),
        Box::new(MonotonicTime::new()),
        Box::new(CwndRange::new()),
        Box::new(ProbeLegality::new()),
        Box::new(AckReductionBound::new()),
        Box::new(ProbeWindow::new()),
        Box::new(SessionConservation::new()),
    ]
}

/// Checks packet conservation: at every instant
/// `delivered + dropped <= injected`, and at the end of each run
/// `injected == delivered + dropped + in_flight` — cross-checked
/// against the engine's own [`AuditStats`], so a miscounted event
/// stream and a miscounting engine are both caught.
#[derive(Debug, Default)]
pub struct PacketConservation {
    injected: u64,
    delivered: u64,
    dropped: u64,
}

impl PacketConservation {
    /// Creates the monitor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InvariantMonitor for PacketConservation {
    fn name(&self) -> &'static str {
        "packet-conservation"
    }

    fn interests(&self) -> u32 {
        interest::INJECTED | interest::DELIVERED | interest::DROPPED
    }

    fn observe(&mut self, _at: SimTime, ev: &MonitorEvent, out: &mut Findings<'_>) {
        let (flow, accounted) = match ev {
            MonitorEvent::Injected { flow, .. } => {
                self.injected += 1;
                (*flow, false)
            }
            MonitorEvent::Delivered { flow, .. } => {
                self.delivered += 1;
                (*flow, true)
            }
            MonitorEvent::Dropped { flow, .. } => {
                self.dropped += 1;
                (*flow, true)
            }
            _ => return,
        };
        if accounted && self.delivered + self.dropped > self.injected {
            let (i, d, x) = (self.injected, self.delivered, self.dropped);
            out.flag(
                Some(flow),
                format!("delivered {d} + dropped {x} exceeds injected {i}"),
            );
        }
    }

    fn finalize(&mut self, _at: SimTime, audit: &AuditStats, out: &mut Findings<'_>) {
        if self.injected != audit.injected
            || self.delivered != audit.delivered
            || self.dropped != audit.dropped
        {
            let (i, d, x) = (self.injected, self.delivered, self.dropped);
            out.flag(
                None,
                format!(
                    "event stream tallies (injected {i}, delivered {d}, dropped {x}) \
                     disagree with engine counters {audit:?}"
                ),
            );
        }
        if audit.injected != audit.delivered + audit.dropped + audit.in_flight() {
            out.flag(
                None,
                format!(
                    "injected {} != delivered {} + dropped {} + in-flight {}",
                    audit.injected,
                    audit.delivered,
                    audit.dropped,
                    audit.in_flight()
                ),
            );
        }
        // Arena leak check: the engine's packet arena holds exactly the
        // packets with a pending Arrival event, so any difference is a
        // leaked (or double-freed) slab slot. In particular a drained
        // run (pending_arrivals == 0) must leave the arena empty.
        if audit.arena_live != audit.pending_arrivals {
            out.flag(
                None,
                format!(
                    "packet arena holds {} packet(s) but {} arrival(s) are pending \
                     — the engine leaked arena slots",
                    audit.arena_live, audit.pending_arrivals
                ),
            );
        }
    }
}

/// Checks that no packet-capacity queue ever holds more packets than
/// its configured capacity (byte-capacity queues carry no packet cap
/// and are skipped), and that every AQM early-drop decision carries a
/// sane average-queue estimate: the RED EWMA averages a bounded
/// occupancy, so a finite estimate can never exceed the physical packet
/// cap the queue itself enforces.
#[derive(Debug, Default)]
pub struct QueueBound {
    /// Packet caps learned from `Enqueued` events, per channel.
    caps: FastHashMap<ChannelId, usize>,
}

impl QueueBound {
    /// Creates the monitor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InvariantMonitor for QueueBound {
    fn name(&self) -> &'static str {
        "queue-bound"
    }

    fn interests(&self) -> u32 {
        interest::ENQUEUED | interest::AQM_EARLY_DROP
    }

    fn observe(&mut self, _at: SimTime, ev: &MonitorEvent, out: &mut Findings<'_>) {
        match ev {
            MonitorEvent::Enqueued {
                channel,
                flow,
                len_after,
                cap_pkts: Some(cap),
                ..
            } => {
                if self.caps.get(channel) != Some(cap) {
                    self.caps.insert(*channel, *cap);
                }
                if len_after > cap {
                    out.flag(
                        Some(*flow),
                        format!("{channel} occupancy {len_after} exceeds cap {cap}"),
                    );
                }
            }
            MonitorEvent::AqmEarlyDrop {
                channel,
                flow,
                avg_queue,
                ..
            } => {
                if !avg_queue.is_finite() || *avg_queue < 0.0 {
                    out.flag(
                        Some(*flow),
                        format!(
                            "{channel} AQM average-queue estimate {avg_queue} is not a \
                             finite non-negative value — the EWMA estimator is corrupt"
                        ),
                    );
                } else if let Some(cap) = self.caps.get(channel) {
                    if *avg_queue > *cap as f64 {
                        out.flag(
                            Some(*flow),
                            format!(
                                "{channel} AQM average-queue estimate {avg_queue} exceeds \
                                 the physical cap {cap} — an EWMA of a bounded occupancy \
                                 cannot pass the bound"
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

/// Checks per-port FIFO order: each channel must dequeue packets in
/// exactly the order it enqueued them, tracked by engine-unique packet
/// ids.
#[derive(Debug, Default)]
pub struct FifoOrder {
    queues: FastHashMap<ChannelId, VecDeque<(u64, FlowId)>>,
}

impl FifoOrder {
    /// Creates the monitor. Attach before the first run: a queue that
    /// already holds packets would make every later dequeue look
    /// out of order.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InvariantMonitor for FifoOrder {
    fn name(&self) -> &'static str {
        "fifo-order"
    }

    fn interests(&self) -> u32 {
        interest::ENQUEUED | interest::DEQUEUED | interest::SOJOURN_DROP
    }

    fn observe(&mut self, _at: SimTime, ev: &MonitorEvent, out: &mut Findings<'_>) {
        match ev {
            MonitorEvent::Enqueued {
                channel, flow, uid, ..
            } => {
                self.queues
                    .entry(*channel)
                    .or_default()
                    .push_back((*uid, *flow));
            }
            MonitorEvent::Dequeued {
                channel, flow, uid, ..
            } => match self.queues.entry(*channel).or_default().pop_front() {
                Some((head_uid, _)) if head_uid == *uid => {}
                Some((head_uid, head_flow)) => out.flag(
                    Some(*flow),
                    format!(
                        "{channel} dequeued pkt#{uid} but head of queue \
                             is pkt#{head_uid} ({head_flow})"
                    ),
                ),
                None => out.flag(
                    Some(*flow),
                    format!("{channel} dequeued pkt#{uid} from an empty queue"),
                ),
            },
            // A CoDel sojourn drop removes the *head* of the queue
            // without a matching `Dequeued`: consume it here so later
            // dequeues still line up.
            MonitorEvent::SojournDrop {
                channel, flow, uid, ..
            } => match self.queues.entry(*channel).or_default().pop_front() {
                Some((head_uid, _)) if head_uid == *uid => {}
                Some((head_uid, head_flow)) => out.flag(
                    Some(*flow),
                    format!(
                        "{channel} sojourn-dropped pkt#{uid} but head of queue \
                         is pkt#{head_uid} ({head_flow})"
                    ),
                ),
                None => out.flag(
                    Some(*flow),
                    format!("{channel} sojourn-dropped pkt#{uid} from an empty queue"),
                ),
            },
            _ => {}
        }
    }
}

/// Checks that the event clock never runs backwards.
///
/// Note on "strictly monotonic": distinct events legitimately share a
/// timestamp (the engine breaks ties by insertion sequence), so the
/// enforceable invariant is *non-decreasing* event time; a strictly
/// decreasing step is a scheduler bug.
#[derive(Debug, Default)]
pub struct MonotonicTime {
    last: Option<SimTime>,
}

impl MonotonicTime {
    /// Creates the monitor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InvariantMonitor for MonotonicTime {
    fn name(&self) -> &'static str {
        "monotonic-time"
    }

    fn interests(&self) -> u32 {
        interest::CLOCK
    }

    fn observe(&mut self, _at: SimTime, ev: &MonitorEvent, out: &mut Findings<'_>) {
        if let MonitorEvent::Clock { to } = ev {
            if let Some(last) = self.last {
                if *to < last {
                    out.flag(
                        None,
                        format!(
                            "clock stepped backwards: {}ns after {}ns",
                            to.as_nanos(),
                            last.as_nanos()
                        ),
                    );
                }
            }
            self.last = Some(*to);
        }
    }
}

/// Checks that every reported congestion window stays within the
/// connection's configured `[min_cwnd, max_cwnd]` segment range (the
/// paper's `[2, cwnd_max]`) and is a finite number.
#[derive(Debug, Default)]
pub struct CwndRange;

impl CwndRange {
    /// Creates the monitor.
    pub fn new() -> Self {
        Self
    }
}

impl InvariantMonitor for CwndRange {
    fn name(&self) -> &'static str {
        "cwnd-range"
    }

    fn interests(&self) -> u32 {
        interest::CWND_UPDATE
    }

    fn observe(&mut self, _at: SimTime, ev: &MonitorEvent, out: &mut Findings<'_>) {
        if let MonitorEvent::CwndUpdate {
            flow,
            cwnd,
            min_cwnd,
            max_cwnd,
        } = ev
        {
            if !cwnd.is_finite() || *cwnd < min_cwnd - CWND_EPS || *cwnd > max_cwnd + CWND_EPS {
                out.flag(
                    Some(*flow),
                    format!("cwnd {cwnd} outside [{min_cwnd}, {max_cwnd}]"),
                );
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProbePhase {
    Idle,
    Probing,
    Suspended,
}

/// Checks TCP-TRIM's Algorithm-1 probe state machine per flow: `Start`
/// only from idle, `Suspend` only while probing, and `Resolve` /
/// `Timeout` / `Abort` only while a probe is outstanding.
#[derive(Debug, Default)]
pub struct ProbeLegality {
    phases: FastHashMap<FlowId, ProbePhase>,
}

impl ProbeLegality {
    /// Creates the monitor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InvariantMonitor for ProbeLegality {
    fn name(&self) -> &'static str {
        "probe-legality"
    }

    fn interests(&self) -> u32 {
        interest::PROBE_TRANSITION
    }

    fn observe(&mut self, _at: SimTime, ev: &MonitorEvent, out: &mut Findings<'_>) {
        let MonitorEvent::ProbeTransition { flow, transition } = ev else {
            return;
        };
        let phase = self.phases.entry(*flow).or_insert(ProbePhase::Idle);
        let next = match (*phase, transition) {
            (ProbePhase::Idle, ProbeTransition::Start) => Some(ProbePhase::Probing),
            (ProbePhase::Probing, ProbeTransition::Suspend) => Some(ProbePhase::Suspended),
            (
                ProbePhase::Probing | ProbePhase::Suspended,
                ProbeTransition::Resolve | ProbeTransition::Timeout | ProbeTransition::Abort,
            ) => Some(ProbePhase::Idle),
            _ => None,
        };
        match next {
            Some(next) => *phase = next,
            None => {
                let detail = format!("illegal transition {transition} in phase {phase:?}");
                out.flag(Some(*flow), detail);
            }
        }
    }
}

/// Differential bound on per-ACK window reductions (paper Eq. 2–3):
/// processing a single ACK may never cut the congestion window below
/// legacy TCP's halving of the pre-ACK window.
///
/// TRIM's delay-based scale factor `1 - ep/2` is strictly greater than
/// 1/2 for any finite RTT, DCTCP cuts by at most `alpha/2 <= 1/2`, and
/// L2DCT by at most `alpha * b_c / 2 <= 1/2`, so `after >= before / 2`
/// holds for every controller in the workspace. Probe-echo ACKs are
/// exempt: Algorithm-1 probe resolution *restores* an inherited window
/// from the suspended floor, which is not a congestion reduction.
#[derive(Debug, Default)]
pub struct AckReductionBound;

impl AckReductionBound {
    /// Creates the monitor.
    pub fn new() -> Self {
        Self
    }
}

impl InvariantMonitor for AckReductionBound {
    fn name(&self) -> &'static str {
        "ack-reduction-bound"
    }

    fn interests(&self) -> u32 {
        interest::ACK_WINDOW
    }

    fn observe(&mut self, _at: SimTime, ev: &MonitorEvent, out: &mut Findings<'_>) {
        if let MonitorEvent::AckWindow {
            flow,
            before,
            after,
            probe_echo: false,
        } = ev
        {
            if !after.is_finite() || *after < before / 2.0 - CWND_EPS {
                out.flag(
                    Some(*flow),
                    format!(
                        "one ACK cut cwnd {before} -> {after}, below the \
                         legacy-TCP halving floor {}",
                        before / 2.0
                    ),
                );
            }
        }
    }
}

/// Checks Algorithm 1's probe window: when a flow enters the probe
/// phase (`ProbeTransition::Start`), the very next window report from
/// that flow must sit at the configured floor (`cwnd == min_cwnd`, the
/// paper's 2 segments) — probing is done with the minimum window, never
/// with leftover congestion window.
///
/// Only the first `CwndUpdate` after `Start` is checked: the transport
/// reports the collapsed window synchronously with the transition, while
/// later updates during the probing/suspended phases may legitimately
/// reflect ACKs for pre-probe data.
#[derive(Debug, Default)]
pub struct ProbeWindow {
    awaiting: FastHashMap<FlowId, bool>,
}

impl ProbeWindow {
    /// Creates the monitor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InvariantMonitor for ProbeWindow {
    fn name(&self) -> &'static str {
        "probe-window"
    }

    fn interests(&self) -> u32 {
        interest::PROBE_TRANSITION | interest::CWND_UPDATE
    }

    fn observe(&mut self, _at: SimTime, ev: &MonitorEvent, out: &mut Findings<'_>) {
        match ev {
            MonitorEvent::ProbeTransition {
                flow,
                transition: ProbeTransition::Start,
            } => {
                self.awaiting.insert(*flow, true);
            }
            MonitorEvent::CwndUpdate {
                flow,
                cwnd,
                min_cwnd,
                ..
            } if self.awaiting.remove(flow) == Some(true)
                && (*cwnd - min_cwnd).abs() > CWND_EPS =>
            {
                out.flag(
                    Some(*flow),
                    format!(
                        "probe started with cwnd {cwnd}, expected the \
                         window floor {min_cwnd}"
                    ),
                );
            }
            _ => {}
        }
    }
}

/// Per-flow session bookkeeping for [`SessionConservation`].
#[derive(Clone, Copy, Debug, Default)]
struct SessionState {
    planned: u32,
    issued: u32,
    completed: u32,
    ended: bool,
}

/// Checks session/request conservation for the serve workload's
/// application lifecycle: requests are issued in order on a started
/// session, every response matches an outstanding request
/// (`completed < issued` at completion time), and a session may only
/// end once all issued requests have completed — so at any horizon
/// `issued == completed + in-flight` holds per session and every
/// started session is either ended or accounted open.
#[derive(Debug, Default)]
pub struct SessionConservation {
    sessions: FastHashMap<FlowId, SessionState>,
}

impl SessionConservation {
    /// Creates the monitor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InvariantMonitor for SessionConservation {
    fn name(&self) -> &'static str {
        "session-conservation"
    }

    fn interests(&self) -> u32 {
        interest::SESSION_STARTED
            | interest::REQUEST_ISSUED
            | interest::RESPONSE_COMPLETED
            | interest::SESSION_ENDED
    }

    #[expect(
        clippy::expect_used,
        reason = "each `expect` follows the check that its session is present"
    )]
    fn observe(&mut self, _at: SimTime, ev: &MonitorEvent, out: &mut Findings<'_>) {
        match *ev {
            MonitorEvent::SessionStarted {
                flow,
                planned_requests,
            } => {
                if self.sessions.contains_key(&flow) {
                    out.flag(Some(flow), "session started twice".into());
                    return;
                }
                self.sessions.insert(
                    flow,
                    SessionState {
                        planned: planned_requests,
                        ..SessionState::default()
                    },
                );
            }
            MonitorEvent::RequestIssued { flow, index, bytes } => {
                let Some(s) = self.sessions.get(&flow).copied() else {
                    out.flag(Some(flow), format!("request #{index} on unstarted session"));
                    return;
                };
                if s.ended {
                    out.flag(Some(flow), format!("request #{index} after session end"));
                    return;
                }
                if index != s.issued {
                    out.flag(
                        Some(flow),
                        format!("request #{index} out of order, expected #{}", s.issued),
                    );
                } else if s.issued >= s.planned {
                    out.flag(
                        Some(flow),
                        format!(
                            "request #{index} exceeds the session's {} planned request(s)",
                            s.planned
                        ),
                    );
                }
                let _ = bytes;
                self.sessions.get_mut(&flow).expect("present above").issued += 1;
            }
            MonitorEvent::ResponseCompleted { flow, index } => {
                let Some(s) = self.sessions.get(&flow).copied() else {
                    out.flag(
                        Some(flow),
                        format!("response #{index} on unstarted session"),
                    );
                    return;
                };
                if s.completed >= s.issued {
                    out.flag(
                        Some(flow),
                        format!(
                            "response #{index} without an outstanding request \
                             (issued {}, completed {})",
                            s.issued, s.completed
                        ),
                    );
                    return;
                }
                if index != s.completed {
                    out.flag(
                        Some(flow),
                        format!("response #{index} out of order, expected #{}", s.completed),
                    );
                }
                self.sessions
                    .get_mut(&flow)
                    .expect("present above")
                    .completed += 1;
            }
            MonitorEvent::SessionEnded {
                flow,
                issued,
                completed,
            } => {
                let Some(s) = self.sessions.get(&flow).copied() else {
                    out.flag(Some(flow), "unstarted session ended".into());
                    return;
                };
                if s.ended {
                    out.flag(Some(flow), "session ended twice".into());
                    return;
                }
                if s.issued != issued || s.completed != completed {
                    out.flag(
                        Some(flow),
                        format!(
                            "session-end tallies (issued {issued}, completed {completed}) \
                             disagree with the event stream (issued {}, completed {})",
                            s.issued, s.completed
                        ),
                    );
                }
                if s.issued != s.completed {
                    out.flag(
                        Some(flow),
                        format!(
                            "session ended with {} request(s) still in flight \
                             (issued {}, completed {})",
                            s.issued - s.completed,
                            s.issued,
                            s.completed
                        ),
                    );
                }
                self.sessions.get_mut(&flow).expect("present above").ended = true;
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Stability oracle family (AQM & tiny-buffer scenarios).
//
// These monitors are deliberately NOT part of [`standard_monitors`]:
// a legacy Reno sender on a drop-tail bottleneck oscillates by design
// (the sawtooth is a legitimate limit cycle), so the detectors below
// would false-positive on perfectly healthy baseline scenarios. Attach
// them explicitly — via [`stability_monitors`] or the workload spec's
// `stability = on` switch — on the AQM scenarios whose whole point is
// that the control loop should converge. Their thresholds are
// conservative constants sized to datacenter scenarios; only the
// amplitude floor is scaled per scenario (`aqm_matrix`).
// ---------------------------------------------------------------------

/// Default minimum peak-to-trough cwnd swing, in segments, for a
/// reversal to count as part of an oscillation.
pub const MIN_AMPLITUDE: f64 = 4.0;
/// Minimum swing relative to the oscillation midpoint; filters slow
/// drift around a large window.
const MIN_REL_AMPLITUDE: f64 = 0.25;
/// Full oscillation cycles (two reversals each) that must fall inside
/// the sliding window before the limit-cycle detector fires.
const MIN_CYCLES: usize = 4;
/// Sliding window of the limit-cycle detector, and the shortest span the
/// standing-queue detector judges.
const STABILITY_WINDOW: Dur = Dur::from_millis(200);
/// Queue occupancy, as a fraction of the per-packet capacity, above
/// which the queue counts as "standing".
const QUEUE_FLOOR: f64 = 0.5;
/// Fraction of the observed span the occupancy must spend above the
/// floor for the standing-queue detector to fire.
const QUEUE_DWELL: f64 = 0.9;

/// The stability oracle family, freshly constructed: the cwnd
/// limit-cycle detector at the default [`MIN_AMPLITUDE`] and the
/// standing-queue detector. (The RED mean-field cross-check
/// [`RedStability`] needs scenario parameters and is constructed
/// explicitly.)
pub fn stability_monitors() -> Vec<Box<dyn InvariantMonitor>> {
    vec![
        Box::new(CwndLimitCycle::new(MIN_AMPLITUDE)),
        Box::new(StandingQueue::new()),
    ]
}

#[derive(Clone, Debug, Default)]
struct CycleState {
    /// Last observed window, and whether any observation happened yet.
    prev: Option<f64>,
    /// +1 rising, -1 falling, 0 unknown.
    dir: i8,
    /// Window value at the last reversal (or the first observation).
    last_ext: f64,
    /// Qualified reversals: (time, peak-to-trough swing).
    turns: VecDeque<(SimTime, f64)>,
    fired: bool,
}

/// Detects a sustained congestion-window limit cycle: reversals of the
/// cwnd trajectory whose swing clears both the absolute and the
/// relative amplitude floor, recurring often enough that
/// `2·MIN_CYCLES` of them fall inside the sliding window. Fires at
/// most once per flow, reporting the simulation time, flow, mean
/// amplitude, and estimated period.
///
/// A converged controller (flat cwnd) never reverses; ACK-granularity
/// noise reverses constantly but below the amplitude floors; a true
/// limit cycle — e.g. Reno bouncing off a steep RED band — reverses
/// with large swings every couple of RTTs and is caught within a few
/// windows.
#[derive(Debug)]
pub struct CwndLimitCycle {
    min_amplitude: f64,
    flows: FastHashMap<FlowId, CycleState>,
}

impl CwndLimitCycle {
    /// Creates the detector; a reversal counts when its swing is at
    /// least `min_amplitude` segments (see [`MIN_AMPLITUDE`]).
    pub fn new(min_amplitude: f64) -> Self {
        CwndLimitCycle {
            min_amplitude,
            flows: FastHashMap::default(),
        }
    }

    /// Whether any flow has fired.
    fn fired(&self) -> bool {
        self.flows.values().any(|s| s.fired)
    }

    /// Takes `flow`'s window report `cwnd` at `at`; returns what the
    /// detector saw when this report makes the flow fire.
    fn step(&mut self, at: SimTime, flow: FlowId, cwnd: f64) -> Option<String> {
        let min_amplitude = self.min_amplitude;
        let s = self.flows.entry(flow).or_default();
        let Some(prev) = s.prev else {
            s.prev = Some(cwnd);
            s.last_ext = cwnd;
            return None;
        };
        let d: i8 = if cwnd > prev {
            1
        } else if cwnd < prev {
            -1
        } else {
            0
        };
        if d != 0 {
            if s.dir != 0 && d != s.dir {
                // `prev` was a local extremum: measure the swing since
                // the previous extremum.
                let swing = (prev - s.last_ext).abs();
                let mid = 0.5 * (prev + s.last_ext);
                if swing >= min_amplitude && swing >= MIN_REL_AMPLITUDE * mid {
                    s.turns.push_back((at, swing));
                }
                s.last_ext = prev;
            }
            s.dir = d;
        }
        s.prev = Some(cwnd);
        // Prune reversals that slid out of the window, then test.
        let cutoff = at.saturating_since(SimTime::ZERO);
        let window_start = if cutoff > STABILITY_WINDOW {
            SimTime::ZERO + (cutoff - STABILITY_WINDOW)
        } else {
            SimTime::ZERO
        };
        while s
            .turns
            .front()
            .is_some_and(|&(turn_at, _)| turn_at < window_start)
        {
            s.turns.pop_front();
        }
        let needed = 2 * MIN_CYCLES;
        if s.fired || s.turns.len() < needed {
            return None;
        }
        s.fired = true;
        let span = at.saturating_since(s.turns.front().map(|&(t0, _)| t0).unwrap_or(at));
        let mean_amp = s.turns.iter().map(|&(_, a)| a).sum::<f64>() / s.turns.len() as f64;
        let cycles = s.turns.len() as f64 / 2.0;
        let period_us = span.as_nanos() as f64 / cycles / 1_000.0;
        Some(format!(
            "sustained cwnd oscillation: {} reversals in {}us \
             (mean amplitude {:.1} segments, period ~{:.0}us)",
            s.turns.len(),
            span.as_nanos() / 1_000,
            mean_amp,
            period_us
        ))
    }
}

impl InvariantMonitor for CwndLimitCycle {
    fn name(&self) -> &'static str {
        "cwnd-limit-cycle"
    }

    fn interests(&self) -> u32 {
        interest::CWND_UPDATE
    }

    fn observe(&mut self, at: SimTime, ev: &MonitorEvent, out: &mut Findings<'_>) {
        if let MonitorEvent::CwndUpdate { flow, cwnd, .. } = *ev {
            if let Some(detail) = self.step(at, flow, cwnd) {
                out.flag(Some(flow), detail);
            }
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct ChannelOccupancy {
    cap_pkts: Option<usize>,
    len: usize,
    last: Option<SimTime>,
    above_ns: u128,
    total_ns: u128,
}

impl ChannelOccupancy {
    /// Accounts the span since the last event at the occupancy it had.
    fn advance(&mut self, at: SimTime) {
        let floor = self
            .cap_pkts
            .map_or(f64::INFINITY, |c| QUEUE_FLOOR * c as f64);
        if let Some(last) = self.last {
            let span = at.saturating_since(last).as_nanos() as u128;
            self.total_ns += span;
            if self.len as f64 > floor {
                self.above_ns += span;
            }
        }
        self.last = Some(at);
    }
}

/// Detects a standing queue: time-average occupancy that stays above
/// `QUEUE_FLOOR · capacity` for at least `QUEUE_DWELL` of the observed
/// span despite an AQM whose job is to drain it. Evaluated per packet-
/// capacity channel at finalize; spans shorter than the limit-cycle
/// window are ignored (too little evidence).
///
/// This is the Briscoe/De Schepper failure mode: at datacenter RTTs TCP
/// overrides the AQM and rebuilds the standing queue, so latency stays
/// pinned at the buffer ceiling even though the AQM keeps dropping.
#[derive(Debug, Default)]
pub struct StandingQueue {
    /// Per-channel occupancy accounting, in channel-id order of first
    /// appearance (kept in a `Vec` so finalize iterates deterministically).
    channels: Vec<(ChannelId, ChannelOccupancy)>,
    fired: bool,
}

impl StandingQueue {
    /// Creates the detector.
    pub fn new() -> Self {
        Self::default()
    }

    #[expect(clippy::expect_used, reason = "entry pushed on the line above")]
    fn state(&mut self, ch: ChannelId) -> &mut ChannelOccupancy {
        if let Some(i) = self.channels.iter().position(|&(c, _)| c == ch) {
            return &mut self.channels[i].1;
        }
        self.channels.push((ch, ChannelOccupancy::default()));
        &mut self.channels.last_mut().expect("just pushed").1
    }
}

impl InvariantMonitor for StandingQueue {
    fn name(&self) -> &'static str {
        "standing-queue"
    }

    fn interests(&self) -> u32 {
        interest::ENQUEUED | interest::DEQUEUED | interest::SOJOURN_DROP
    }

    fn observe(&mut self, at: SimTime, ev: &MonitorEvent, _: &mut Findings<'_>) {
        match ev {
            MonitorEvent::Enqueued {
                channel,
                len_after,
                cap_pkts,
                ..
            } => {
                let (len_after, cap_pkts) = (*len_after, *cap_pkts);
                let s = self.state(*channel);
                s.cap_pkts = cap_pkts.or(s.cap_pkts);
                s.advance(at);
                s.len = len_after;
            }
            MonitorEvent::Dequeued { channel, .. } | MonitorEvent::SojournDrop { channel, .. } => {
                let s = self.state(*channel);
                s.advance(at);
                s.len = s.len.saturating_sub(1);
            }
            _ => {}
        }
    }

    fn finalize(&mut self, _at: SimTime, _audit: &AuditStats, out: &mut Findings<'_>) {
        if self.fired {
            return;
        }
        let min_span_ns = STABILITY_WINDOW.as_nanos() as u128;
        for &(ch, ref s) in &self.channels {
            let Some(cap) = s.cap_pkts else { continue };
            if s.total_ns < min_span_ns || s.total_ns == 0 {
                continue;
            }
            let dwell = s.above_ns as f64 / s.total_ns as f64;
            if dwell >= QUEUE_DWELL {
                self.fired = true;
                out.flag(
                    None,
                    format!(
                        "{ch} occupancy above {:.0}% of the {cap}-packet buffer \
                         for {:.0}% of the observed {}us",
                        QUEUE_FLOOR * 100.0,
                        dwell * 100.0,
                        s.total_ns / 1_000
                    ),
                );
            }
        }
    }
}

/// Cross-checks the *measured* cwnd behavior of a RED scenario against
/// the mean-field stability predicate
/// ([`trim_core::fluid::red_stability`], Reynier's condition): a
/// scenario whose fluid model says "stable" must not exhibit a
/// sustained limit cycle in the packet simulation, and one whose model
/// says "unstable" must. Fires one violation on disagreement.
///
/// Construct with the scenario's bottleneck parameters; internally it
/// runs a [`CwndLimitCycle`] as the measurement instrument, and reads
/// whether it fired, not what it found.
#[derive(Debug)]
pub struct RedStability {
    verdict: trim_core::fluid::RedStabilityVerdict,
    cycle: CwndLimitCycle,
    fired: bool,
}

impl RedStability {
    /// Creates the cross-check for one RED bottleneck scenario:
    /// capacity in packets per second, base RTT, flow population, the
    /// RED parameters, and the amplitude floor of the limit-cycle
    /// detector that measures the packet-level behavior.
    pub fn new(
        capacity_pps: f64,
        base_rtt_ns: u64,
        n_flows: f64,
        red: &trim_core::fluid::RedFluid,
        min_amplitude: f64,
    ) -> Self {
        RedStability {
            verdict: trim_core::fluid::red_stability(capacity_pps, base_rtt_ns, n_flows, red),
            cycle: CwndLimitCycle::new(min_amplitude),
            fired: false,
        }
    }

    /// The mean-field verdict being checked against.
    pub fn verdict(&self) -> trim_core::fluid::RedStabilityVerdict {
        self.verdict
    }

    /// Whether the packet-level measurement saw a sustained limit cycle
    /// so far.
    pub fn measured_unstable(&self) -> bool {
        self.cycle.fired()
    }
}

impl InvariantMonitor for RedStability {
    fn name(&self) -> &'static str {
        "red-stability"
    }

    fn interests(&self) -> u32 {
        self.cycle.interests()
    }

    /// Feeds the inner detector, whose own findings are not this
    /// monitor's: only a disagreement with the verdict is flagged.
    fn observe(&mut self, at: SimTime, ev: &MonitorEvent, _: &mut Findings<'_>) {
        if let MonitorEvent::CwndUpdate { flow, cwnd, .. } = *ev {
            self.cycle.step(at, flow, cwnd);
        }
    }

    fn finalize(&mut self, _at: SimTime, _audit: &AuditStats, out: &mut Findings<'_>) {
        if self.fired {
            return;
        }
        self.fired = true;
        let measured = self.measured_unstable();
        let predicted = !self.verdict.stable;
        if measured != predicted {
            let v = &self.verdict;
            out.flag(
                None,
                format!(
                    "measured {} but the mean-field predicate says {} \
                     (W* = {:.2}, q* = {:.1}, p* = {:.4}, margin = {:.3})",
                    if measured {
                        "a sustained limit cycle"
                    } else {
                        "convergence"
                    },
                    if predicted { "unstable" } else { "stable" },
                    v.w_star,
                    v.q_star,
                    v.p_star,
                    v.margin
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::prelude::*;

    /// A monitor driven by hand, keeping what it flags as the engine
    /// would.
    struct Judged<M>(M, Vec<Violation>);

    impl<M: InvariantMonitor> Judged<M> {
        fn new(m: M) -> Self {
            Judged(m, Vec::new())
        }
        fn observe(&mut self, at: SimTime, ev: &MonitorEvent) {
            let name = self.0.name();
            let mut out = Findings::new(name, at, &mut self.1);
            self.0.observe(at, ev, &mut out);
        }
        fn finalize(&mut self, at: SimTime, audit: &AuditStats) {
            let name = self.0.name();
            let mut out = Findings::new(name, at, &mut self.1);
            self.0.finalize(at, audit, &mut out);
        }
        fn violations(&self) -> &[Violation] {
            &self.1
        }
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Real (node, channel) ids out of a throwaway two-host network —
    /// the id types are deliberately opaque outside `netsim`.
    fn ids() -> (NodeId, ChannelId) {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let a = sim.add_host(Box::new(SinkAgent::default()));
        let b = sim.add_host(Box::new(SinkAgent::default()));
        let (ab, _) = sim.connect(
            a,
            b,
            Bandwidth::gbps(1),
            Dur::from_micros(1),
            QueueConfig::default(),
        );
        (a, ab)
    }

    #[test]
    fn conservation_flags_excess_delivery() {
        let (node, _) = ids();
        let mut m = Judged::new(PacketConservation::new());
        m.observe(
            t(1),
            &MonitorEvent::Injected {
                node,
                flow: FlowId(1),
                uid: 1,
                size: 100,
            },
        );
        m.observe(
            t(2),
            &MonitorEvent::Delivered {
                node,
                flow: FlowId(1),
                uid: 1,
                size: 100,
            },
        );
        assert!(m.violations().is_empty());
        // A second delivery of a never-injected packet breaks the running
        // inequality.
        m.observe(
            t(3),
            &MonitorEvent::Delivered {
                node,
                flow: FlowId(1),
                uid: 99,
                size: 100,
            },
        );
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.violations()[0].flow, Some(FlowId(1)));
    }

    #[test]
    fn conservation_finalize_cross_checks_the_engine() {
        let mut m = Judged::new(PacketConservation::new());
        let bad = AuditStats {
            injected: 5,
            delivered: 2,
            dropped: 1,
            queued_pkts: 1,
            pending_arrivals: 0,
            arena_live: 0,
        };
        // Event tallies are all zero, so both finalize checks fire: the
        // engine disagreement and (5 != 2+1+1) the identity itself.
        m.finalize(t(10), &bad);
        assert_eq!(m.violations().len(), 2);
    }

    #[test]
    fn conservation_finalize_flags_arena_leaks() {
        // Counters and the conservation identity are consistent, but the
        // arena still holds a packet with no pending arrival: a leak.
        let leaked = AuditStats {
            injected: 4,
            delivered: 4,
            dropped: 0,
            queued_pkts: 0,
            pending_arrivals: 0,
            arena_live: 1,
        };
        // Align the event tallies with the engine counters so only the
        // arena check can fire.
        let mut m = Judged::new(PacketConservation::new());
        for uid in 1..=4u64 {
            m.observe(
                t(1),
                &MonitorEvent::Injected {
                    node: ids().0,
                    flow: FlowId(1),
                    uid,
                    size: 100,
                },
            );
            m.observe(
                t(2),
                &MonitorEvent::Delivered {
                    node: ids().0,
                    flow: FlowId(1),
                    uid,
                    size: 100,
                },
            );
        }
        m.finalize(t(10), &leaked);
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].detail.contains("leaked arena slots"));
    }

    #[test]
    fn queue_bound_flags_over_capacity() {
        let (_, ch) = ids();
        let mut m = Judged::new(QueueBound::new());
        m.observe(
            t(5),
            &MonitorEvent::Enqueued {
                channel: ch,
                flow: FlowId(3),
                uid: 1,
                len_after: 101,
                cap_pkts: Some(100),
            },
        );
        assert_eq!(m.violations().len(), 1);
        let v = &m.violations()[0];
        assert_eq!(v.at, t(5));
        assert_eq!(v.flow, Some(FlowId(3)));
    }

    #[test]
    fn queue_bound_flags_impossible_aqm_average() {
        let (_, ch) = ids();
        let mut m = Judged::new(QueueBound::new());
        // Learn the cap from a legal enqueue, then report an AQM drop
        // whose EWMA claims more packets than the queue can even hold.
        m.observe(
            t(1),
            &MonitorEvent::Enqueued {
                channel: ch,
                flow: FlowId(0),
                uid: 1,
                len_after: 1,
                cap_pkts: Some(100),
            },
        );
        m.observe(
            t(2),
            &MonitorEvent::AqmEarlyDrop {
                channel: ch,
                flow: FlowId(0),
                uid: 2,
                size: 100,
                avg_queue: 250.0,
            },
        );
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].detail.contains("exceeds"));
        // A non-finite estimate is flagged even before any cap is known.
        let mut m2 = Judged::new(QueueBound::new());
        m2.observe(
            t(3),
            &MonitorEvent::AqmEarlyDrop {
                channel: ch,
                flow: FlowId(1),
                uid: 3,
                size: 100,
                avg_queue: f64::NAN,
            },
        );
        assert_eq!(m2.violations().len(), 1);
        assert!(m2.violations()[0].detail.contains("corrupt"));
    }

    #[test]
    fn queue_bound_accepts_sane_aqm_average() {
        let (_, ch) = ids();
        let mut m = Judged::new(QueueBound::new());
        m.observe(
            t(1),
            &MonitorEvent::Enqueued {
                channel: ch,
                flow: FlowId(0),
                uid: 1,
                len_after: 40,
                cap_pkts: Some(100),
            },
        );
        m.observe(
            t(2),
            &MonitorEvent::AqmEarlyDrop {
                channel: ch,
                flow: FlowId(0),
                uid: 2,
                size: 100,
                avg_queue: 42.5,
            },
        );
        assert!(m.violations().is_empty());
    }

    #[test]
    fn fifo_flags_out_of_order_dequeue() {
        let (_, ch) = ids();
        let mut m = Judged::new(FifoOrder::new());
        for uid in [1u64, 2] {
            m.observe(
                t(1),
                &MonitorEvent::Enqueued {
                    channel: ch,
                    flow: FlowId(0),
                    uid,
                    len_after: uid as usize,
                    cap_pkts: Some(10),
                },
            );
        }
        m.observe(
            t(2),
            &MonitorEvent::Dequeued {
                channel: ch,
                flow: FlowId(0),
                uid: 2,
                len_after: 1,
            },
        );
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].detail.contains("pkt#2"));
    }

    #[test]
    fn monotonic_time_flags_backwards_clock() {
        let mut m = Judged::new(MonotonicTime::new());
        m.observe(t(5), &MonitorEvent::Clock { to: t(10) });
        m.observe(t(10), &MonitorEvent::Clock { to: t(10) }); // equal: fine
        m.observe(t(10), &MonitorEvent::Clock { to: t(9) });
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn cwnd_range_flags_out_of_band_windows() {
        let mut m = Judged::new(CwndRange::new());
        let ev = |cwnd: f64| MonitorEvent::CwndUpdate {
            flow: FlowId(1),
            cwnd,
            min_cwnd: 2.0,
            max_cwnd: 900.0,
        };
        m.observe(t(1), &ev(2.0));
        m.observe(t(2), &ev(900.0));
        m.observe(t(3), &ev(450.5));
        assert!(m.violations().is_empty());
        m.observe(t(4), &ev(1.5));
        m.observe(t(5), &ev(901.0));
        m.observe(t(6), &ev(f64::NAN));
        assert_eq!(m.violations().len(), 3);
    }

    #[test]
    fn probe_machine_accepts_the_legal_lifecycles() {
        let mut m = Judged::new(ProbeLegality::new());
        let ev = |tr| MonitorEvent::ProbeTransition {
            flow: FlowId(1),
            transition: tr,
        };
        // Full lifecycle with suspension, then resolve-before-suspend,
        // then timeout and abort endings.
        for tr in [
            ProbeTransition::Start,
            ProbeTransition::Suspend,
            ProbeTransition::Resolve,
            ProbeTransition::Start,
            ProbeTransition::Resolve,
            ProbeTransition::Start,
            ProbeTransition::Suspend,
            ProbeTransition::Timeout,
            ProbeTransition::Start,
            ProbeTransition::Abort,
        ] {
            m.observe(t(1), &ev(tr));
        }
        assert!(m.violations().is_empty());
    }

    #[test]
    fn ack_reduction_bound_allows_halving_but_not_deeper_cuts() {
        let mut m = Judged::new(AckReductionBound::new());
        let ev = |before: f64, after: f64, probe_echo: bool| MonitorEvent::AckWindow {
            flow: FlowId(1),
            before,
            after,
            probe_echo,
        };
        m.observe(t(1), &ev(10.0, 11.0, false)); // growth
        m.observe(t(2), &ev(10.0, 5.0, false)); // exact halving (DCTCP alpha=1)
        m.observe(t(3), &ev(10.0, 7.5, false)); // TRIM-style partial cut
        m.observe(t(4), &ev(64.0, 2.0, true)); // probe resolution is exempt
        assert!(m.violations().is_empty());
        m.observe(t(5), &ev(10.0, 4.9, false));
        m.observe(t(6), &ev(10.0, f64::NAN, false));
        assert_eq!(m.violations().len(), 2);
        assert!(m.violations()[0].detail.contains("halving floor"));
    }

    #[test]
    fn probe_window_requires_the_floor_at_probe_start() {
        let mut m = Judged::new(ProbeWindow::new());
        let start = MonitorEvent::ProbeTransition {
            flow: FlowId(1),
            transition: ProbeTransition::Start,
        };
        let cwnd = |cwnd: f64| MonitorEvent::CwndUpdate {
            flow: FlowId(1),
            cwnd,
            min_cwnd: 2.0,
            max_cwnd: 900.0,
        };
        // Normal updates while idle are never checked.
        m.observe(t(1), &cwnd(64.0));
        // Probe start followed by the collapsed window: clean.
        m.observe(t(2), &start);
        m.observe(t(2), &cwnd(2.0));
        // Later updates (stray ACKs for pre-probe data) are exempt.
        m.observe(t(3), &cwnd(3.0));
        assert!(m.violations().is_empty());
        // A probe that keeps its old window is a violation.
        m.observe(t(4), &start);
        m.observe(t(4), &cwnd(64.0));
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].detail.contains("window floor"));
    }

    #[test]
    fn session_conservation_accepts_a_clean_lifecycle() {
        let mut m = Judged::new(SessionConservation::new());
        let f = FlowId(1);
        m.observe(
            t(1),
            &MonitorEvent::SessionStarted {
                flow: f,
                planned_requests: 2,
            },
        );
        for i in 0..2u32 {
            m.observe(
                t(2 + u64::from(i)),
                &MonitorEvent::RequestIssued {
                    flow: f,
                    index: i,
                    bytes: 4_000,
                },
            );
            m.observe(
                t(5 + u64::from(i)),
                &MonitorEvent::ResponseCompleted { flow: f, index: i },
            );
        }
        m.observe(
            t(9),
            &MonitorEvent::SessionEnded {
                flow: f,
                issued: 2,
                completed: 2,
            },
        );
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }

    #[test]
    fn session_conservation_accounts_open_sessions_at_horizon() {
        // A session with a request still in flight at the horizon is
        // legal as long as it never claims to have ended.
        let mut m = Judged::new(SessionConservation::new());
        let f = FlowId(2);
        m.observe(
            t(1),
            &MonitorEvent::SessionStarted {
                flow: f,
                planned_requests: 3,
            },
        );
        m.observe(
            t(2),
            &MonitorEvent::RequestIssued {
                flow: f,
                index: 0,
                bytes: 1_000,
            },
        );
        m.finalize(
            t(10),
            &AuditStats {
                injected: 0,
                delivered: 0,
                dropped: 0,
                queued_pkts: 0,
                pending_arrivals: 0,
                arena_live: 0,
            },
        );
        assert!(m.violations().is_empty());
    }

    #[test]
    fn session_conservation_flags_broken_lifecycles() {
        let mut m = Judged::new(SessionConservation::new());
        // Request on a session that never started.
        m.observe(
            t(1),
            &MonitorEvent::RequestIssued {
                flow: FlowId(1),
                index: 0,
                bytes: 100,
            },
        );
        // Response with no outstanding request.
        m.observe(
            t(2),
            &MonitorEvent::SessionStarted {
                flow: FlowId(2),
                planned_requests: 1,
            },
        );
        m.observe(
            t(3),
            &MonitorEvent::ResponseCompleted {
                flow: FlowId(2),
                index: 0,
            },
        );
        // Session ends while a request is still in flight.
        m.observe(
            t(4),
            &MonitorEvent::SessionStarted {
                flow: FlowId(3),
                planned_requests: 2,
            },
        );
        m.observe(
            t(5),
            &MonitorEvent::RequestIssued {
                flow: FlowId(3),
                index: 0,
                bytes: 100,
            },
        );
        m.observe(
            t(6),
            &MonitorEvent::SessionEnded {
                flow: FlowId(3),
                issued: 1,
                completed: 0,
            },
        );
        assert_eq!(m.violations().len(), 3, "{:?}", m.violations());
        assert!(m.violations()[2].detail.contains("in flight"));
    }

    #[test]
    fn probe_machine_flags_illegal_transitions() {
        let mut m = Judged::new(ProbeLegality::new());
        let ev = |flow, tr| MonitorEvent::ProbeTransition {
            flow: FlowId(flow),
            transition: tr,
        };
        // Suspend without a probe outstanding.
        m.observe(t(1), &ev(1, ProbeTransition::Suspend));
        // Double start.
        m.observe(t(2), &ev(2, ProbeTransition::Start));
        m.observe(t(3), &ev(2, ProbeTransition::Start));
        // Resolve when idle.
        m.observe(t(4), &ev(3, ProbeTransition::Resolve));
        assert_eq!(m.violations().len(), 3);
        assert!(m.violations().iter().all(|v| v.flow.is_some()));
    }

    // --- stability oracle family ---

    fn t_ms(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn cwnd_ev(flow: u64, cwnd: f64) -> MonitorEvent {
        MonitorEvent::CwndUpdate {
            flow: FlowId(flow),
            cwnd,
            min_cwnd: 2.0,
            max_cwnd: 1000.0,
        }
    }

    /// Injected limit-cycle fault: a 4 ↔ 40 square wave must trip the
    /// detector, and the violation must carry the sim time and flow id
    /// plus amplitude/period diagnostics.
    #[test]
    fn limit_cycle_fires_on_square_wave() {
        let mut m = Judged::new(CwndLimitCycle::new(MIN_AMPLITUDE));
        for i in 0..30u64 {
            let w = if i % 2 == 0 { 4.0 } else { 40.0 };
            m.observe(t_ms(2 * i), &cwnd_ev(7, w));
        }
        assert_eq!(m.violations().len(), 1, "{:?}", m.violations());
        let v = &m.violations()[0];
        assert_eq!(v.flow, Some(FlowId(7)), "violation names the flow");
        assert!(v.at > SimTime::ZERO, "violation carries the sim time");
        assert!(v.detail.contains("amplitude"), "{}", v.detail);
        assert!(v.detail.contains("period"), "{}", v.detail);
        // Square-wave swing is 36 segments.
        assert!(v.detail.contains("36.0"), "{}", v.detail);
    }

    /// A converged trace — slow-start ramp, then flat forever — must
    /// stay silent: there are no reversals at all.
    #[test]
    fn limit_cycle_silent_on_converged_trace() {
        let mut m = Judged::new(CwndLimitCycle::new(MIN_AMPLITUDE));
        for (i, w) in [2.0, 4.0, 8.0, 16.0, 24.0].into_iter().enumerate() {
            m.observe(t_ms(i as u64), &cwnd_ev(1, w));
        }
        for i in 5..300u64 {
            m.observe(t_ms(i), &cwnd_ev(1, 24.0));
        }
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }

    /// ACK-granularity noise — constant reversals of ±1 segment around
    /// a stable operating point — must stay silent: the swings never
    /// clear the amplitude floor.
    #[test]
    fn limit_cycle_silent_on_noisy_but_stable_trace() {
        let mut m = Judged::new(CwndLimitCycle::new(MIN_AMPLITUDE));
        for i in 0..500u64 {
            let w = 20.0 + if i % 2 == 0 { 0.0 } else { 1.0 };
            m.observe(t_ms(i), &cwnd_ev(1, w));
        }
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }

    /// Reversals must be *sustained*: a handful of large swings that
    /// then damp out (converging oscillation) never accumulates the
    /// required count inside the window.
    #[test]
    fn limit_cycle_needs_sustained_reversals() {
        let mut m = Judged::new(CwndLimitCycle::new(MIN_AMPLITUDE));
        // Three big reversals (6 turns < 8 needed), then convergence.
        let trace = [10.0, 40.0, 10.0, 40.0, 10.0, 40.0, 25.0, 25.0, 25.0];
        for (i, w) in trace.into_iter().enumerate() {
            m.observe(t_ms(2 * i as u64), &cwnd_ev(1, w));
        }
        for i in 20..400u64 {
            m.observe(t_ms(i), &cwnd_ev(1, 25.0));
        }
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }

    /// The detector fires once per flow, and separately per flow.
    #[test]
    fn limit_cycle_fires_once_per_flow() {
        let mut m = Judged::new(CwndLimitCycle::new(MIN_AMPLITUDE));
        for i in 0..60u64 {
            let w = if i % 2 == 0 { 4.0 } else { 40.0 };
            m.observe(t_ms(2 * i), &cwnd_ev(1, w));
            m.observe(t_ms(2 * i), &cwnd_ev(2, w));
        }
        assert_eq!(m.violations().len(), 2, "{:?}", m.violations());
        let flows: Vec<_> = m.violations().iter().map(|v| v.flow).collect();
        assert!(flows.contains(&Some(FlowId(1))));
        assert!(flows.contains(&Some(FlowId(2))));
    }

    fn enq_ev(ch: ChannelId, len_after: usize, cap: usize) -> MonitorEvent {
        MonitorEvent::Enqueued {
            channel: ch,
            flow: FlowId(0),
            uid: 0,
            len_after,
            cap_pkts: Some(cap),
        }
    }

    /// A queue pinned near its ceiling for the whole run is a standing
    /// queue; one that oscillates across the floor is not.
    #[test]
    fn standing_queue_fires_on_pinned_occupancy() {
        let (_, ch) = ids();
        let mut m = Judged::new(StandingQueue::new());
        // Occupancy 13..15 of 16 for 500 ms.
        for i in 0..500u64 {
            let len = 13 + (i % 3) as usize;
            m.observe(t_ms(i), &enq_ev(ch, len, 16));
        }
        let audit = AuditStats {
            injected: 0,
            delivered: 0,
            dropped: 0,
            queued_pkts: 0,
            pending_arrivals: 0,
            arena_live: 0,
        };
        m.finalize(t_ms(500), &audit);
        assert_eq!(m.violations().len(), 1, "{:?}", m.violations());
        assert!(m.violations()[0].detail.contains("16-packet"));
    }

    #[test]
    fn standing_queue_silent_when_queue_drains() {
        let (_, ch) = ids();
        let mut m = Judged::new(StandingQueue::new());
        // Occupancy swings 1..16: above the 8-packet floor only half
        // the time.
        for i in 0..500u64 {
            let len = 1 + (i % 16) as usize;
            m.observe(t_ms(i), &enq_ev(ch, len, 16));
        }
        let audit = AuditStats {
            injected: 0,
            delivered: 0,
            dropped: 0,
            queued_pkts: 0,
            pending_arrivals: 0,
            arena_live: 0,
        };
        m.finalize(t_ms(500), &audit);
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }

    #[test]
    fn standing_queue_ignores_short_spans() {
        let (_, ch) = ids();
        let mut m = Judged::new(StandingQueue::new());
        // Pinned, but only observed for 50 ms < the 200 ms window.
        for i in 0..50u64 {
            m.observe(t_ms(i), &enq_ev(ch, 15, 16));
        }
        let audit = AuditStats {
            injected: 0,
            delivered: 0,
            dropped: 0,
            queued_pkts: 0,
            pending_arrivals: 0,
            arena_live: 0,
        };
        m.finalize(t_ms(50), &audit);
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }

    /// The RED cross-check agrees in both directions and fires on
    /// either kind of disagreement.
    #[test]
    fn red_stability_cross_check_fires_only_on_disagreement() {
        use trim_core::fluid::RedFluid;
        const C: f64 = 1e9 / (1460.0 * 8.0);
        let steep = RedFluid {
            min_th: 10.0,
            max_th: 20.0,
            max_p: 1.0,
            wq: 0.01,
        };
        let gentle = RedFluid {
            min_th: 15.0,
            max_th: 45.0,
            max_p: 0.1,
            wq: 0.002,
        };
        let audit = AuditStats {
            injected: 0,
            delivered: 0,
            dropped: 0,
            queued_pkts: 0,
            pending_arrivals: 0,
            arena_live: 0,
        };
        let square = |m: &mut Judged<RedStability>| {
            for i in 0..30u64 {
                let w = if i % 2 == 0 { 4.0 } else { 40.0 };
                m.observe(t_ms(2 * i), &cwnd_ev(1, w));
            }
        };
        let flat = |m: &mut Judged<RedStability>| {
            for i in 0..300u64 {
                m.observe(t_ms(i), &cwnd_ev(1, 20.0));
            }
        };

        // Unstable predicate + oscillating measurement: agreement.
        let mut m = Judged::new(RedStability::new(C, 1_000_000, 4.0, &steep, MIN_AMPLITUDE));
        assert!(!m.0.verdict().stable);
        square(&mut m);
        m.finalize(t_ms(600), &audit);
        assert!(m.violations().is_empty(), "{:?}", m.violations());

        // Stable predicate + converged measurement: agreement.
        let mut m = Judged::new(RedStability::new(C, 100_000, 8.0, &gentle, MIN_AMPLITUDE));
        assert!(m.0.verdict().stable);
        flat(&mut m);
        m.finalize(t_ms(600), &audit);
        assert!(m.violations().is_empty(), "{:?}", m.violations());

        // Stable predicate + oscillating measurement: disagreement.
        let mut m = Judged::new(RedStability::new(C, 100_000, 8.0, &gentle, MIN_AMPLITUDE));
        square(&mut m);
        m.finalize(t_ms(600), &audit);
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].detail.contains("limit cycle"));

        // Unstable predicate + converged measurement: disagreement.
        let mut m = Judged::new(RedStability::new(C, 1_000_000, 4.0, &steep, MIN_AMPLITUDE));
        flat(&mut m);
        m.finalize(t_ms(600), &audit);
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].detail.contains("margin"));
    }
}
