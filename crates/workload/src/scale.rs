//! Engine-scale incast: N senders (up to 100 000) fanning into one
//! front-end through a single switch.
//!
//! This is the stress workload behind the repo benchmark's incast
//! workloads and the `large_scale_100k` and `million_flow` campaigns:
//! it exists to exercise the event engine at flow counts far beyond
//! the paper's figures, so the topology is the plain star and every
//! knob lives in [`ScaleConfig`].
//! The report carries only deterministic quantities (completions,
//! packet audit, event count) — wall-clock timing is layered on top by
//! `benchmark/` and never enters campaign artifacts.

use netsim::prelude::*;
use netsim::time::SimTime;
use netsim::topology::{self, LinkSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use trim_tcp::{CcKind, Segment, TcpConfig, TcpHost};

use crate::metrics::Summary;
use crate::scenario::{schedule_train, wire_flow};

/// Parameters of one scale-incast run.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Number of senders (= flows), each on its own host.
    pub flows: usize,
    /// Application bytes per flow (one train per sender).
    pub bytes_per_flow: u64,
    /// Train starts are drawn uniformly from `[0, start_window)` so the
    /// first round-trip is not one synchronized 100k-packet burst.
    pub start_window: Dur,
    /// Hard simulation horizon; stragglers past it count as incomplete.
    pub horizon: Dur,
    /// RTO floor (the paper's datacenter tuning, not the 200 ms WAN
    /// default, so loss recovery does not dominate the run).
    pub min_rto: Dur,
    /// Seed for the start-time draw.
    pub seed: u64,
    /// Congestion control on every sender.
    pub cc: CcKind,
    /// Sending connections packed onto each sender host (flows on one
    /// host share its access link and flow slab). `1` reproduces the
    /// historical one-host-per-flow topology exactly; larger values keep
    /// million-flow runs to a bounded node/link count and exercise the
    /// flow slab at depth.
    pub senders_per_host: usize,
}

impl ScaleConfig {
    /// A scale point with the benchmark defaults: per-flow bytes shrink
    /// as the flow count grows so every point moves a comparable total
    /// volume (~146 MB) through the 1 Gbps bottleneck.
    pub fn with_flows(flows: usize) -> Self {
        ScaleConfig {
            flows,
            bytes_per_flow: (146_000_000 / flows.max(1) as u64).max(1_460), // trim-lint: allow(no-raw-unit-literal, reason = "total volume (~146 MB) held constant across flow counts; bytes, not time")
            start_window: Dur::from_millis(100),
            horizon: Dur::from_secs(10),
            min_rto: Dur::from_millis(20),
            seed: 0x5ca1e,
            cc: CcKind::Reno,
            senders_per_host: 1,
        }
    }

    /// The million-flow stress point: 10⁶ single-segment flows packed
    /// 1 000 to a host (1 000 sender hosts + the front-end), the
    /// headline workload for the engine's timer queue and flow slab. The
    /// 1 Gbps bottleneck cannot drain 10⁶ segments inside the horizon,
    /// so the run is dominated by queue drops and RTO backoff, with up
    /// to 10⁶ timers armed at once — the deepest the timer queue gets;
    /// `completed` reports the flows that made it.
    pub fn million_flow() -> Self {
        ScaleConfig {
            flows: 1_000_000, // trim-lint: allow(no-raw-unit-literal, reason = "a flow count, not a physical quantity; no unit constructor applies")
            bytes_per_flow: 1_460,
            start_window: Dur::from_millis(500),
            horizon: Dur::from_secs(5),
            min_rto: Dur::from_millis(20),
            seed: 0x5ca1e,
            cc: CcKind::Reno,
            senders_per_host: 1_000,
        }
    }
}

/// Deterministic outcome of one scale-incast run.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    /// Flows whose train completed within the horizon.
    pub completed: usize,
    /// Packet audit at the horizon (injected/delivered/dropped/...).
    pub audit: AuditStats,
    /// Retransmission timeouts fired across all senders.
    pub timeouts: u64,
    /// Events the engine dispatched.
    pub events: u64,
    /// Peak concurrent on-the-wire packets (arena high-water mark).
    pub arena_high_water: usize,
    /// Completion-time summary of the finished trains (seconds).
    pub act: Summary,
}

/// Runs the scale incast: `cfg.flows` senders each push one train to
/// the front-end of a 1 Gbps star.
///
/// Deterministic: a pure function of `cfg`.
pub fn run_scale_incast(cfg: &ScaleConfig) -> ScaleReport {
    let mut sim: Simulator<Segment> = Simulator::new();
    let link = LinkSpec::new(
        Bandwidth::gbps(1),
        Dur::from_micros(50),
        QueueConfig::drop_tail(100),
    );
    let per_host = cfg.senders_per_host.max(1);
    let hosts = cfg.flows.div_ceil(per_host);
    let net = topology::many_to_one(&mut sim, hosts, link, |role| {
        Box::new(match role {
            topology::Role::Sender(_) => TcpHost::with_sender_capacity(per_host),
            _ => TcpHost::new(),
        })
    });
    let tcp = TcpConfig::default().with_min_rto(cfg.min_rto);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let window = cfg.start_window.as_nanos();
    for i in 0..cfg.flows {
        let s = net.senders[i / per_host];
        let idx = wire_flow(&mut sim, FlowId(i as u64), s, net.front_end, tcp, &cfg.cc);
        let at = SimTime::from_nanos(rng.random_range(0..window.max(1)));
        schedule_train(
            &mut sim,
            s,
            idx,
            crate::TrainSpec {
                at,
                bytes: cfg.bytes_per_flow,
            },
        );
    }
    sim.run_until(SimTime::ZERO + cfg.horizon);

    let mut times: Vec<Dur> = Vec::new();
    let mut timeouts = 0u64;
    for &s in &net.senders {
        let host = sim.host::<TcpHost>(s);
        host.slab_leak_check()
            .expect("flow slab books must balance after a scale run"); // trim-lint: allow(no-panic-in-library, reason = "a leaked slab slot is engine corruption; aborting the campaign is the only safe outcome")
        for conn in host.connections() {
            timeouts += conn.stats().timeouts;
            times.extend(conn.completed_trains().iter().map(|t| t.completion_time()));
        }
    }
    ScaleReport {
        completed: times.len(),
        audit: sim.audit_stats(),
        timeouts,
        events: sim.events_processed(),
        arena_high_water: sim.arena_high_water(),
        act: Summary::of(&times),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_incast_completes_every_flow() {
        let mut cfg = ScaleConfig::with_flows(50);
        cfg.bytes_per_flow = 10_000;
        let r = run_scale_incast(&cfg);
        assert_eq!(r.completed, 50, "all 50 trains finish: {r:?}");
        assert!(r.events > 0);
        assert!(r.arena_high_water > 0);
        assert_eq!(r.audit.arena_live, 0, "arena drains with the run");
        assert!(r.act.mean > 0.0);
    }

    #[test]
    fn scale_incast_is_deterministic() {
        let cfg = ScaleConfig::with_flows(120);
        let a = run_scale_incast(&cfg);
        let b = run_scale_incast(&cfg);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.events, b.events);
        assert_eq!(a.audit.delivered, b.audit.delivered);
        assert_eq!(a.audit.dropped, b.audit.dropped);
        assert_eq!(a.act.mean, b.act.mean);
    }

    #[test]
    fn per_flow_bytes_shrink_with_scale() {
        assert_eq!(ScaleConfig::with_flows(1_000).bytes_per_flow, 146_000);
        assert_eq!(ScaleConfig::with_flows(100_000).bytes_per_flow, 1_460);
    }

    #[test]
    fn packed_hosts_complete_and_balance_the_slab() {
        let mut cfg = ScaleConfig::with_flows(200);
        cfg.bytes_per_flow = 10_000;
        cfg.senders_per_host = 50; // 4 sender hosts x 50 flows each
        let r = run_scale_incast(&cfg);
        assert_eq!(r.completed, 200, "all trains finish: {r:?}");
        assert_eq!(r.audit.arena_live, 0);

        let a = run_scale_incast(&cfg);
        assert_eq!(a.events, r.events, "packed runs stay deterministic");
        assert_eq!(a.act.mean, r.act.mean);
    }

    #[test]
    fn million_flow_config_is_packed() {
        let cfg = ScaleConfig::million_flow();
        assert_eq!(cfg.flows, 1_000_000);
        assert_eq!(cfg.senders_per_host, 1_000);
        assert_eq!(cfg.flows.div_ceil(cfg.senders_per_host), 1_000);
    }
}
