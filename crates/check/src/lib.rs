//! # trim-check — correctness layer for the TCP-TRIM reproduction
//!
//! The judges of a run: the built-in runtime
//! [`InvariantMonitor`](netsim::InvariantMonitor)s for the `netsim`
//! engine in [`monitors`] — packet conservation, queue bounds, per-port
//! FIFO order, clock monotonicity, congestion-window range, TRIM probe
//! state-machine legality, the per-ACK reduction bound, the probe
//! window and session conservation, plus the opt-in stability oracles —
//! with [`attach_standard`] and the [`monitors_enabled`] policy used by
//! the scenario builders. A monitor declares the event kinds it reads
//! and flags what it finds; the engine stamps and keeps each flag (see
//! [`netsim::Findings`]). The committed `results/` CSVs are checked by
//! byte comparison of a monitored, forced `trim-bench` run, not here.
//!
//! Monitoring policy: monitors are attached when the
//! `TRIM_CHECK_MONITORS` environment variable says so (`1`/`true`/`yes`/
//! `on` to force on, `0`/`false`/`no`/`off` to force off; any other
//! value is ignored), and default to on in debug builds and off in
//! release builds. Every tier-1 simulation test therefore runs fully
//! monitored, while release-mode experiment campaigns pay only a
//! disabled-check branch per event.

#![cfg_attr(
    not(test),
    deny(
        clippy::dbg_macro,
        clippy::print_stdout,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod monitors;

pub use monitors::{
    stability_monitors, standard_monitors, AckReductionBound, CwndLimitCycle, CwndRange, FifoOrder,
    MonotonicTime, PacketConservation, ProbeLegality, ProbeWindow, QueueBound, RedStability,
    SessionConservation, StandingQueue, MIN_AMPLITUDE,
};

use netsim::{Payload, Simulator};

/// Whether the standard monitors should be attached, per the
/// `TRIM_CHECK_MONITORS` policy: the environment variable wins when it
/// is set to a recognised value (see [`policy`]); otherwise debug
/// builds monitor and release builds do not.
pub fn monitors_enabled() -> bool {
    let value = std::env::var("TRIM_CHECK_MONITORS").ok();
    policy(value.as_deref(), cfg!(debug_assertions))
}

/// The `TRIM_CHECK_MONITORS` decision for a given variable value:
/// `1`/`true`/`yes`/`on` attach the monitors, `0`/`false`/`no`/`off`
/// detach them (surrounding whitespace and case ignored), and anything
/// else — unset, empty, a typo — falls back to `build_default`, so a
/// misspelt override can never silently switch monitoring off.
pub fn policy(value: Option<&str>, build_default: bool) -> bool {
    match value.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
        Some("1" | "true" | "yes" | "on") => true,
        Some("0" | "false" | "no" | "off") => false,
        _ => build_default,
    }
}

/// Attaches every [`standard_monitors`] instance to `sim`, unless the
/// standard set is already attached (its [`PacketConservation`] is the
/// mark), so each invariant is checked once however often this is
/// called. Other monitors and recorders do not count as the set.
/// Attach before the first `run_until`: the monitors assume they see
/// the event stream from the beginning of the simulation.
pub fn attach_standard<P: Payload>(sim: &mut Simulator<P>) {
    if sim.monitor::<PacketConservation>().is_some() {
        return;
    }
    for m in standard_monitors() {
        sim.attach_monitor(m);
    }
}

/// [`attach_standard`] gated by [`monitors_enabled`]; returns whether
/// monitors were attached. This is the one-liner scenario builders call.
pub fn attach_standard_if_enabled<P: Payload>(sim: &mut Simulator<P>) -> bool {
    let enabled = monitors_enabled();
    if enabled {
        attach_standard(sim);
    }
    enabled
}

/// One failed check of a post-run differential oracle: where an
/// [`InvariantMonitor`](netsim::InvariantMonitor) watches the live event
/// stream, an oracle inspects a finished run's summary and reports every
/// disagreement with the model's predictions.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleFailure {
    /// Name of the oracle that failed.
    pub oracle: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::monitor::interest;
    use netsim::prelude::*;

    #[test]
    fn standard_monitors_cover_the_documented_invariants() {
        let names: Vec<&str> = standard_monitors().iter().map(|m| m.name()).collect();
        for expected in [
            "packet-conservation",
            "queue-bound",
            "fifo-order",
            "monotonic-time",
            "cwnd-range",
            "probe-legality",
            "ack-reduction-bound",
            "probe-window",
            "session-conservation",
        ] {
            assert!(names.contains(&expected), "missing monitor {expected}");
        }
    }

    /// Every built-in monitor names the event kinds it reads, so the
    /// engine can skip it for the rest (the clock of every dispatched
    /// event, above all).
    #[test]
    fn built_in_monitors_declare_their_interests() {
        let mut all = standard_monitors();
        all.extend(stability_monitors());
        for m in &all {
            let mask = m.interests();
            assert!(mask != 0 && mask.count_ones() <= 4, "{}", m.name());
        }
        let clock_readers: Vec<&str> = all
            .iter()
            .filter(|m| m.interests() & interest::CLOCK != 0)
            .map(|m| m.name())
            .collect();
        assert_eq!(clock_readers, ["monotonic-time"]);

        // Monitor coverage: every event kind has a reader. A kind that
        // no built-in monitor reads is listed here with the test that
        // reads it. trim-workload's `tests/monitor_masks.rs` checks the
        // other half, that the engine emits every kind read here.
        const READ_BY_TESTS: &[(u32, &str)] = &[(
            interest::GOODPUT,
            "netsim's ThroughputRecorder, in trim-tcp's e2e::throughput_close_to_line_rate",
        )];
        let every_kind = [
            interest::CLOCK,
            interest::INJECTED,
            interest::DELIVERED,
            interest::DROPPED,
            interest::AQM_EARLY_DROP,
            interest::SOJOURN_DROP,
            interest::ENQUEUED,
            interest::DEQUEUED,
            interest::CWND_UPDATE,
            interest::ACK_WINDOW,
            interest::PROBE_TRANSITION,
            interest::SESSION_STARTED,
            interest::REQUEST_ISSUED,
            interest::RESPONSE_COMPLETED,
            interest::SESSION_ENDED,
            interest::GOODPUT,
        ]
        .into_iter()
        .fold(0, |acc, kind| acc | kind);
        let read = all.iter().map(|m| m.interests()).fold(0, |acc, m| acc | m)
            | READ_BY_TESTS.iter().fold(0, |acc, &(kind, _)| acc | kind);
        assert_eq!(
            read,
            every_kind,
            "kinds without a reader: {:#x}",
            every_kind & !read
        );
    }

    /// Four hosts behind a switch, each about to send 25 packets to one
    /// destination whose switch port queues `cap` packets. Returns the
    /// simulator, that port's channel and a function injecting the load.
    fn incast_star(
        cap: usize,
    ) -> (
        Simulator<TagPayload>,
        ChannelId,
        impl Fn(&mut Simulator<TagPayload>),
    ) {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let sw = sim.add_switch();
        let dst = sim.add_host(Box::new(SinkAgent::default()));
        let (_, sw_to_dst) = sim.connect(
            dst,
            sw,
            Bandwidth::gbps(1),
            Dur::from_micros(50),
            QueueConfig::drop_tail(cap),
        );
        let mut senders = Vec::new();
        for _ in 0..4 {
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
        let load = move |sim: &mut Simulator<TagPayload>| {
            for (i, &s) in senders.iter().enumerate() {
                for _ in 0..25 {
                    sim.inject(
                        s,
                        Packet::new(s, dst, FlowId(i as u64), 1460, TagPayload(0)),
                    );
                }
            }
        };
        (sim, sw_to_dst, load)
    }

    #[test]
    fn attach_standard_monitors_a_clean_sim_without_violations() {
        let (mut sim, _, load) = incast_star(10);
        attach_standard(&mut sim);
        assert!(sim.monitors_enabled());
        load(&mut sim);
        sim.run();
        // The 10-packet bottleneck drops traffic; conservation and FIFO
        // must still hold exactly.
        assert!(sim.audit_stats().dropped > 0);
        sim.assert_no_violations();
    }

    #[test]
    fn overadmit_fault_is_caught_with_time_and_flow() {
        let (mut sim, sw_to_dst, load) = incast_star(5);
        attach_standard(&mut sim);
        sim.inject_queue_overadmit(sw_to_dst, 3);
        load(&mut sim);
        sim.run();
        let violations = sim.violations();
        assert!(
            !violations.is_empty(),
            "queue-bound monitor must catch the injected over-admission"
        );
        let v = violations
            .iter()
            .find(|v| v.monitor == "queue-bound")
            .expect("violation attributed to the queue-bound monitor");
        assert!(v.at > SimTime::ZERO, "violation carries simulation time");
        assert!(v.flow.is_some(), "violation carries the offending flow");
        assert!(v.detail.contains("cap"), "detail names the capacity: {v}");
    }

    /// The standard set is attached once however often it is asked for,
    /// and a recorder attached first does not count as the standard set:
    /// one over-admitted packet is one `queue-bound` violation.
    #[test]
    fn attach_standard_attaches_the_set_once() {
        let (mut sim, sw_to_dst, load) = incast_star(5);
        sim.attach_monitor(Box::new(CwndRecorder::new([FlowId(0)])));
        attach_standard(&mut sim);
        attach_standard(&mut sim);
        sim.inject_queue_overadmit(sw_to_dst, 1);
        load(&mut sim);
        sim.run();
        let violations = sim.violations();
        let bound = violations.iter().filter(|v| v.monitor == "queue-bound");
        assert_eq!(bound.count(), 1, "{violations:?}");
    }

    /// One client/server pair exchanging a two-response session over a
    /// switch, with monitors attached. Returns the simulator after the
    /// run; `faulty` injects the early session end on the server.
    fn run_session_pair(faulty: bool) -> Simulator<trim_tcp::Segment> {
        use trim_tcp::{CcKind, TcpConfig, TcpHost};
        let mut sim: Simulator<trim_tcp::Segment> = Simulator::new();
        let sw = sim.add_switch();
        let mut client = TcpHost::new();
        client.add_receiver(FlowId(1), TcpConfig::default());
        let client = sim.add_host(Box::new(client));
        let mut server = TcpHost::new();
        let idx = server.add_sender(FlowId(1), client, TcpConfig::default(), &CcKind::Reno);
        server.schedule_response_sequence(
            idx,
            SimTime::from_secs_f64(0.001),
            vec![8_000, 8_000],
            Dur::from_millis(2),
        );
        if faulty {
            server.inject_session_early_end(idx);
        }
        let server = sim.add_host(Box::new(server));
        for h in [client, server] {
            sim.connect(
                h,
                sw,
                Bandwidth::gbps(1),
                Dur::from_micros(50),
                QueueConfig::drop_tail(100),
            );
        }
        attach_standard(&mut sim);
        sim.run_until(SimTime::from_secs_f64(0.5));
        sim
    }

    #[test]
    fn clean_session_lifecycle_is_violation_free() {
        let sim = run_session_pair(false);
        assert_eq!(sim.audit_stats().dropped, 0);
        sim.assert_no_violations();
    }

    #[test]
    fn early_session_end_fault_is_caught() {
        let sim = run_session_pair(true);
        let violations = sim.violations();
        let v = violations
            .iter()
            .find(|v| v.monitor == "session-conservation")
            .expect("session-conservation catches the injected early end");
        assert_eq!(v.flow, Some(FlowId(1)));
        assert!(v.detail.contains("in flight"), "detail explains: {v}");
    }

    #[test]
    fn policy_falls_back_to_the_build_default_on_unrecognised_values() {
        for on in ["1", "true", "yes", "on", " ON ", "True\n"] {
            assert!(policy(Some(on), false), "{on:?}");
        }
        for off in ["0", "false", "no", "off", " Off ", "FALSE"] {
            assert!(!policy(Some(off), true), "{off:?}");
        }
        for default in [true, false] {
            assert_eq!(policy(None, default), default);
            for typo in ["2", "ture", "", "  ", "enable"] {
                assert_eq!(policy(Some(typo), default), default, "{typo:?}");
            }
        }
    }
}
