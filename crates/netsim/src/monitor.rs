//! Runtime invariant monitoring hooks for the simulator.
//!
//! An [`InvariantMonitor`] observes a stream of [`MonitorEvent`]s emitted
//! by the engine (and by protocol agents through
//! [`Ctx::emit_monitor_with`](crate::sim::Ctx::emit_monitor_with)) and
//! flags what it finds into the [`Findings`] the engine hands it, which
//! stamp each [`Violation`] with the monitor's name and the simulation
//! time. Monitoring never influences the simulation: it is strictly
//! read-only, so a monitored run produces byte-identical results to an
//! unmonitored one.
//!
//! Cost: an event whose kind is in no attached monitor's
//! [`InvariantMonitor::interests`] mask costs its emission site one
//! branch and is never built; the others go only to the monitors whose
//! mask holds their kind (every kind by default).
//!
//! The built-in monitors (packet conservation, queue bounds, per-port
//! FIFO order, clock monotonicity, cwnd range, and TRIM probe-machine
//! legality) live in the `trim-check` crate, the recorders in
//! [`crate::trace`]; this module only defines the contract.

use core::fmt;

use crate::packet::{ChannelId, FlowId, NodeId};
use crate::time::SimTime;

/// A lifecycle step of TCP-TRIM's Algorithm-1 probe state machine, as
/// reported by the transport layer.
///
/// Legal sequences per flow are `Start → Suspend → (Resolve | Timeout |
/// Abort)` and `Start → Resolve | Timeout | Abort` (a probe can resolve
/// before every probe packet has been transmitted, i.e. before the
/// window suspends).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeTransition {
    /// `pre_send` decided to probe: probe packets scheduled, deadline set.
    Start,
    /// The last probe packet was transmitted; the window is suspended.
    Suspend,
    /// Probe ACKs returned in time; the window was restored (scaled
    /// inheritance or fallback to the minimum window).
    Resolve,
    /// The probe deadline fired; the connection fell back to the minimum
    /// window and resumed.
    Timeout,
    /// A retransmission timeout aborted the probe outright.
    Abort,
}

impl fmt::Display for ProbeTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProbeTransition::Start => "start",
            ProbeTransition::Suspend => "suspend",
            ProbeTransition::Resolve => "resolve",
            ProbeTransition::Timeout => "timeout",
            ProbeTransition::Abort => "abort",
        };
        f.write_str(s)
    }
}

/// One observation handed to every attached monitor.
///
/// Engine-level events (`Clock`, `Injected`, `Delivered`, `Dropped`,
/// `Enqueued`, `Dequeued`) are emitted by the simulator itself;
/// protocol-level events (`CwndUpdate`, `Goodput`, `ProbeTransition`,
/// …) are emitted by transport agents through
/// [`Ctx::emit_monitor_with`](crate::sim::Ctx::emit_monitor_with).
#[derive(Clone, Debug, PartialEq)]
pub enum MonitorEvent {
    /// The engine is about to advance the clock to `to` (the timestamp
    /// of the event being dispatched). Event time must never decrease.
    Clock {
        /// The timestamp of the next event.
        to: SimTime,
    },
    /// A host handed a new packet to the network (`Ctx::send` or
    /// `Simulator::inject`).
    Injected {
        /// The sending host.
        node: NodeId,
        /// Flow label of the packet.
        flow: FlowId,
        /// Engine-assigned unique packet id.
        uid: u64,
        /// Wire size in bytes.
        size: u32,
    },
    /// A packet arrived at its destination host.
    Delivered {
        /// The receiving host.
        node: NodeId,
        /// Flow label of the packet.
        flow: FlowId,
        /// Engine-assigned unique packet id.
        uid: u64,
        /// Wire size in bytes.
        size: u32,
    },
    /// A queue refused a packet (capacity, RED, or injected fault).
    Dropped {
        /// The channel whose queue dropped the packet.
        channel: ChannelId,
        /// Flow label of the packet.
        flow: FlowId,
        /// Engine-assigned unique packet id.
        uid: u64,
        /// Wire size in bytes.
        size: u32,
    },
    /// An AQM (RED) dropped a packet early — below capacity — at enqueue
    /// time. Emitted *in addition to* [`MonitorEvent::Dropped`] for the
    /// same packet, carrying the average-queue estimate that drove the
    /// decision.
    AqmEarlyDrop {
        /// The channel whose queue made the decision.
        channel: ChannelId,
        /// Flow label of the packet.
        flow: FlowId,
        /// Engine-assigned unique packet id.
        uid: u64,
        /// Wire size in bytes.
        size: u32,
        /// The EWMA queue estimate (in packets) at the drop decision.
        avg_queue: f64,
    },
    /// CoDel dropped a queued packet at *dequeue* time because its
    /// sojourn stayed above target. Emitted *in addition to*
    /// [`MonitorEvent::Dropped`] for the same packet, carrying the
    /// measured sojourn. The dropped packet was the queue head, so FIFO
    /// monitors treat this as a head removal.
    SojournDrop {
        /// The channel whose queue made the decision.
        channel: ChannelId,
        /// Flow label of the packet.
        flow: FlowId,
        /// Engine-assigned unique packet id.
        uid: u64,
        /// Wire size in bytes.
        size: u32,
        /// How long the packet sat in the queue, in nanoseconds.
        sojourn_ns: u64,
    },
    /// A packet was accepted into a channel's queue.
    Enqueued {
        /// The channel.
        channel: ChannelId,
        /// Flow label of the packet.
        flow: FlowId,
        /// Engine-assigned unique packet id.
        uid: u64,
        /// Queue length in packets immediately after the enqueue.
        len_after: usize,
        /// The queue's capacity in packets, when configured in packets
        /// (`None` for byte-capacity queues).
        cap_pkts: Option<usize>,
    },
    /// A packet left a channel's queue for the transmitter.
    Dequeued {
        /// The channel.
        channel: ChannelId,
        /// Flow label of the packet.
        flow: FlowId,
        /// Engine-assigned unique packet id.
        uid: u64,
        /// Queue length in packets immediately after the dequeue.
        len_after: usize,
    },
    /// A transport connection updated its congestion window.
    CwndUpdate {
        /// The connection's flow label.
        flow: FlowId,
        /// The new congestion window in segments.
        cwnd: f64,
        /// The configured window floor in segments.
        min_cwnd: f64,
        /// The configured window ceiling in segments.
        max_cwnd: f64,
    },
    /// A transport receiver delivered data in order to its application.
    Goodput {
        /// The receiving flow's label.
        flow: FlowId,
        /// Application bytes newly delivered.
        bytes: u64,
    },
    /// A transport connection ran its congestion-control ACK hook.
    ///
    /// `before`/`after` bracket the entire per-ACK window update
    /// (additive growth and any multiplicative reduction combined), so a
    /// differential oracle can bound the worst-case per-ACK cut: no
    /// controller in this workspace may reduce the window below legacy
    /// TCP's halving on a single ACK (TRIM's Eq. 2–3 scale factor
    /// `1 - ep/2` is strictly above 1/2; DCTCP/L2DCT cut by at most
    /// `alpha/2 <= 1/2`).
    AckWindow {
        /// The connection's flow label.
        flow: FlowId,
        /// Congestion window in segments before the ACK was processed.
        before: f64,
        /// Congestion window in segments after the ACK was processed.
        after: f64,
        /// Whether the ACK answered a TRIM probe packet (probe
        /// resolution restores an inherited window and is exempt from
        /// the per-ACK reduction bound).
        probe_echo: bool,
    },
    /// A TCP-TRIM probe state-machine step.
    ProbeTransition {
        /// The connection's flow label.
        flow: FlowId,
        /// The step taken.
        transition: ProbeTransition,
    },
    /// An application-level user session opened on a connection (the
    /// serve workload's request/response exchange began).
    SessionStarted {
        /// The flow label of the connection carrying the session.
        flow: FlowId,
        /// Requests the session intends to issue over its lifetime.
        planned_requests: u32,
    },
    /// A session issued one request (one response train was enqueued).
    RequestIssued {
        /// The flow label of the connection carrying the session.
        flow: FlowId,
        /// Zero-based index of the request within the session.
        index: u32,
        /// Response bytes the request asks for.
        bytes: u64,
    },
    /// One request's response train was fully acknowledged.
    ResponseCompleted {
        /// The flow label of the connection carrying the session.
        flow: FlowId,
        /// Zero-based index of the completed request.
        index: u32,
    },
    /// A session closed after its final response completed.
    SessionEnded {
        /// The flow label of the connection carrying the session.
        flow: FlowId,
        /// Requests the session issued in total.
        issued: u32,
        /// Responses that completed in total.
        completed: u32,
    },
}

/// Interest masks: one bit per [`MonitorEvent`] variant, for
/// [`InvariantMonitor::interests`]. Combine them with `|`.
pub mod interest {
    /// [`MonitorEvent::Clock`](super::MonitorEvent::Clock).
    pub const CLOCK: u32 = 1 << 0;
    /// [`MonitorEvent::Injected`](super::MonitorEvent::Injected).
    pub const INJECTED: u32 = 1 << 1;
    /// [`MonitorEvent::Delivered`](super::MonitorEvent::Delivered).
    pub const DELIVERED: u32 = 1 << 2;
    /// [`MonitorEvent::Dropped`](super::MonitorEvent::Dropped).
    pub const DROPPED: u32 = 1 << 3;
    /// [`MonitorEvent::AqmEarlyDrop`](super::MonitorEvent::AqmEarlyDrop).
    pub const AQM_EARLY_DROP: u32 = 1 << 4;
    /// [`MonitorEvent::SojournDrop`](super::MonitorEvent::SojournDrop).
    pub const SOJOURN_DROP: u32 = 1 << 5;
    /// [`MonitorEvent::Enqueued`](super::MonitorEvent::Enqueued).
    pub const ENQUEUED: u32 = 1 << 6;
    /// [`MonitorEvent::Dequeued`](super::MonitorEvent::Dequeued).
    pub const DEQUEUED: u32 = 1 << 7;
    /// [`MonitorEvent::CwndUpdate`](super::MonitorEvent::CwndUpdate).
    pub const CWND_UPDATE: u32 = 1 << 8;
    /// [`MonitorEvent::AckWindow`](super::MonitorEvent::AckWindow).
    pub const ACK_WINDOW: u32 = 1 << 9;
    /// [`MonitorEvent::ProbeTransition`](super::MonitorEvent::ProbeTransition).
    pub const PROBE_TRANSITION: u32 = 1 << 10;
    /// [`MonitorEvent::SessionStarted`](super::MonitorEvent::SessionStarted).
    pub const SESSION_STARTED: u32 = 1 << 11;
    /// [`MonitorEvent::RequestIssued`](super::MonitorEvent::RequestIssued).
    pub const REQUEST_ISSUED: u32 = 1 << 12;
    /// [`MonitorEvent::ResponseCompleted`](super::MonitorEvent::ResponseCompleted).
    pub const RESPONSE_COMPLETED: u32 = 1 << 13;
    /// [`MonitorEvent::SessionEnded`](super::MonitorEvent::SessionEnded).
    pub const SESSION_ENDED: u32 = 1 << 14;
    /// [`MonitorEvent::Goodput`](super::MonitorEvent::Goodput).
    pub const GOODPUT: u32 = 1 << 15;
    /// Every kind, present and future: the default.
    pub const ALL: u32 = u32::MAX;
}

impl MonitorEvent {
    /// This event's bit in an [`InvariantMonitor::interests`] mask.
    pub fn kind_bit(&self) -> u32 {
        match self {
            Self::Clock { .. } => interest::CLOCK,
            Self::Injected { .. } => interest::INJECTED,
            Self::Delivered { .. } => interest::DELIVERED,
            Self::Dropped { .. } => interest::DROPPED,
            Self::AqmEarlyDrop { .. } => interest::AQM_EARLY_DROP,
            Self::SojournDrop { .. } => interest::SOJOURN_DROP,
            Self::Enqueued { .. } => interest::ENQUEUED,
            Self::Dequeued { .. } => interest::DEQUEUED,
            Self::CwndUpdate { .. } => interest::CWND_UPDATE,
            Self::AckWindow { .. } => interest::ACK_WINDOW,
            Self::ProbeTransition { .. } => interest::PROBE_TRANSITION,
            Self::SessionStarted { .. } => interest::SESSION_STARTED,
            Self::RequestIssued { .. } => interest::REQUEST_ISSUED,
            Self::ResponseCompleted { .. } => interest::RESPONSE_COMPLETED,
            Self::SessionEnded { .. } => interest::SESSION_ENDED,
            Self::Goodput { .. } => interest::GOODPUT,
        }
    }
}

/// A recorded invariant violation: which monitor, when (simulation
/// time), which flow (when attributable), and a human-readable detail.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Simulation time at which the violation was observed.
    pub at: SimTime,
    /// Name of the monitor that recorded it.
    pub monitor: &'static str,
    /// The flow involved, when the event carries one.
    pub flow: Option<FlowId>,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] t={}ns", self.monitor, self.at.as_nanos())?;
        if let Some(flow) = self.flow {
            write!(f, " {flow}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The engine's own packet accounting, handed to
/// [`InvariantMonitor::finalize`] so conservation monitors can
/// cross-check their event-derived tallies against ground truth.
///
/// The conservation identity at any quiescent point is
/// `injected == delivered + dropped + queued_pkts + pending_arrivals`
/// (the last two terms are the in-flight population: packets waiting in
/// queues plus packets on the wire / in the transmitter, which the
/// engine represents as pending `Arrival` events).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditStats {
    /// Packets injected by hosts since the start of the simulation.
    pub injected: u64,
    /// Packets delivered to destination hosts.
    pub delivered: u64,
    /// Packets dropped by queues.
    pub dropped: u64,
    /// Packets currently sitting in channel queues.
    pub queued_pkts: u64,
    /// Packets currently on the wire or in a transmitter (pending
    /// `Arrival` events).
    pub pending_arrivals: u64,
    /// Packets currently resident in the engine's packet arena. The
    /// arena holds exactly the packets with a pending `Arrival`, so this
    /// must equal `pending_arrivals` at every instant and zero once a
    /// run drains — anything else is a leak (or double-free) in the
    /// engine's slab accounting.
    pub arena_live: u64,
}

impl AuditStats {
    /// Packets currently inside the network (queued or propagating).
    pub fn in_flight(&self) -> u64 {
        self.queued_pkts + self.pending_arrivals
    }
}

/// Where a monitor reports what it finds. The engine hands one to each
/// [`InvariantMonitor::observe`] and [`InvariantMonitor::finalize`] call
/// and keeps every flag, stamped with the monitor's name and the time of
/// the call, beside that monitor; see
/// [`Simulator::violations`](crate::sim::Simulator::violations).
#[derive(Debug)]
pub struct Findings<'a> {
    monitor: &'static str,
    at: SimTime,
    found: &'a mut Vec<Violation>,
}

impl<'a> Findings<'a> {
    /// A sink that appends `monitor`'s flags, stamped `at`, to `found`.
    pub fn new(monitor: &'static str, at: SimTime, found: &'a mut Vec<Violation>) -> Self {
        Findings { monitor, at, found }
    }

    /// Records a violation involving `flow`, when one is to blame.
    pub fn flag(&mut self, flow: Option<FlowId>, detail: String) {
        self.found.push(Violation {
            at: self.at,
            monitor: self.monitor,
            flow,
            detail,
        });
    }
}

/// A runtime invariant checker attached to a
/// [`Simulator`](crate::sim::Simulator).
///
/// Monitors are strictly observers: `observe` receives a shared
/// reference to each event and has no channel back into the engine, so
/// attaching any number of monitors cannot change simulation results.
/// Report problems through the [`Findings`] each call is handed; do not
/// panic from `observe`, so a single run can surface every violation at
/// once. A monitor that records rather than checks ignores its
/// `Findings` and is read back after the run with
/// [`Simulator::monitor`](crate::sim::Simulator::monitor).
pub trait InvariantMonitor: std::any::Any {
    /// A short stable name, used in violation reports.
    fn name(&self) -> &'static str;

    /// The kinds of [`MonitorEvent`] this monitor reads, as a mask of
    /// [`interest`] bits; the engine hands it no other kind. Read once,
    /// when the monitor is attached. Defaults to every kind.
    fn interests(&self) -> u32 {
        interest::ALL
    }

    /// Called for every [`MonitorEvent`] whose kind is in
    /// [`InvariantMonitor::interests`], with the simulation time at
    /// which it occurred.
    fn observe(&mut self, at: SimTime, ev: &MonitorEvent, out: &mut Findings<'_>);

    /// Called when [`Simulator::run_until`](crate::sim::Simulator::run_until)
    /// returns, with the engine's own packet accounting. May be called
    /// more than once (once per `run_until`); implementations should
    /// re-derive any end-of-run checks each time.
    fn finalize(&mut self, _at: SimTime, _audit: &AuditStats, _out: &mut Findings<'_>) {}
}

impl fmt::Debug for dyn InvariantMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InvariantMonitor({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_includes_time_flow_and_monitor() {
        let v = Violation {
            at: SimTime::from_nanos(1234),
            monitor: "queue-bound",
            flow: Some(FlowId(7)),
            detail: "len 101 > cap 100".into(),
        };
        let s = v.to_string();
        assert!(s.contains("queue-bound"));
        assert!(s.contains("t=1234ns"));
        assert!(s.contains("f7"));
        assert!(s.contains("len 101 > cap 100"));
    }

    #[test]
    fn audit_in_flight_sums_queues_and_wires() {
        let a = AuditStats {
            injected: 10,
            delivered: 5,
            dropped: 2,
            queued_pkts: 2,
            pending_arrivals: 1,
            arena_live: 1,
        };
        assert_eq!(a.in_flight(), 3);
        assert_eq!(a.delivered + a.dropped + a.in_flight(), a.injected);
    }
}
