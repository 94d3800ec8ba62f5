//! Per-layer probes: short loops that time one public operation of one
//! crate from outside, plus the reference measurements that tie a layer
//! to one workload (packed vs one-per-host, monitored vs detached,
//! serving outcomes, per-experiment campaign time).
//!
//! Each probe reports the median of [`SAMPLES`] timed loops.

use std::hint::black_box;
use std::path::Path;

use netsim::prelude::*;
use netsim::queue::DropTailQueue;
use netsim::topology::LinkSpec;
use netsim::{CoDelConfig, RedConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use trim_core::trim::Trim;
use trim_core::TrimConfig;
use trim_harness::{Campaign, ExecConfig, ResultStore, Table};
use trim_serve::session::{generate, SessionModel};
use trim_tcp::rto::RtoEstimator;
use trim_tcp::{AckInfo, CcKind, Segment, TcpConfig, TcpHost, WindowState};
use trim_workload::metrics::Summary;
use trim_workload::scenario::{schedule_train, wire_flow};
use trim_workload::TrainSpec;

use crate::catalogue::Metric;
use crate::stats::{median, now, secs_since};
use crate::trace::{secs_of, Span, Tracer};
use crate::workloads::{
    campaign_ids, campaign_rep, paper_link, sim_rep, sim_workload, Scale, SimWorkload, CAMPAIGN_IDS,
};

/// Timed loops per probe.
const SAMPLES: usize = 3;

fn probe(out: &mut Vec<Metric>, name: &str, mut sample: impl FnMut() -> f64) {
    let samples: Vec<f64> = (0..SAMPLES).map(|_| sample()).collect();
    out.push(Metric::new(name, median(&samples)));
}

/// Two hosts behind one switch.
fn pair<P: Payload>(
    link: LinkSpec,
    make: impl FnMut(topology::Role) -> Box<dyn Agent<P>>,
) -> (Simulator<P>, topology::ManyToOne) {
    let mut sim = Simulator::new();
    let net = topology::many_to_one(&mut sim, 1, link, make);
    (sim, net)
}

/// Bounces every packet back until its budget is spent.
struct Echo {
    remaining: u64,
}

impl Agent<TagPayload> for Echo {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, TagPayload>, pkt: Packet<TagPayload>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(Packet::new(
                pkt.dst,
                pkt.src,
                pkt.flow,
                pkt.size,
                pkt.payload,
            ));
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _token: u64) {}
}

/// Keeps `pending` timers armed, re-arming each when it fires.
struct TimerFire {
    rng: StdRng,
    pending: usize,
    fired: u64,
}

impl TimerFire {
    fn delay(&mut self) -> Dur {
        Dur::from_micros(self.rng.random_range(1_000..50_000))
    }
}

impl Agent<TagPayload> for TimerFire {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
        for _ in 0..self.pending {
            let delay = self.delay();
            ctx.set_timer(delay, 0);
        }
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, TagPayload>, _token: u64) {
        self.fired += 1;
        let delay = self.delay();
        ctx.set_timer(delay, 0);
    }
}

/// Holds `pending` timers that never fire and re-arms them round-robin,
/// [`TimerRearm::BATCH`] per tick of a 1 us driver timer: the per-ACK
/// RTO re-arm of a TCP sender.
struct TimerRearm {
    rng: StdRng,
    pending: usize,
    ids: Vec<TimerId>,
    next: usize,
    pairs: u64,
}

impl TimerRearm {
    const BATCH: usize = 1_000;
    const DRIVER: u64 = 0;
    const HELD: u64 = 1;

    fn rto(&mut self) -> Dur {
        Dur::from_micros(self.rng.random_range(20_000..70_000))
    }
}

impl Agent<TagPayload> for TimerRearm {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
        for _ in 0..self.pending {
            let rto = self.rto();
            self.ids.push(ctx.set_timer(rto, Self::HELD));
        }
        ctx.set_timer(Dur::from_micros(1), Self::DRIVER);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, TagPayload>, token: u64) {
        assert_eq!(token, Self::DRIVER, "a held timer fired: horizon too long");
        for _ in 0..Self::BATCH {
            ctx.cancel_timer(self.ids[self.next]);
            let rto = self.rto();
            self.ids[self.next] = ctx.set_timer(rto, Self::HELD);
            self.next = (self.next + 1) % self.ids.len();
            self.pairs += 1;
        }
        ctx.set_timer(Dur::from_micros(1), Self::DRIVER);
    }
}

fn sink() -> Box<dyn Agent<TagPayload>> {
    Box::new(SinkAgent::default())
}

fn netsim_probes(out: &mut Vec<Metric>, seed: u64, scale: Scale) {
    probe(out, "netsim.pkt_hop_ns", || {
        let bounces = scale.of(500_000) as u64;
        let (mut sim, net) = pair(paper_link(), |_| Box::new(Echo { remaining: bounces }));
        let (a, b) = (net.senders[0], net.front_end);
        for i in 0..16 {
            sim.inject(a, Packet::new(a, b, FlowId(i), 1460, TagPayload(i)));
        }
        let t0 = now();
        sim.run_until(SimTime::MAX);
        let secs = secs_since(t0);
        // Every delivery crossed host -> switch -> host: two hops.
        secs * 1e9 / (2 * sim.audit_stats().delivered) as f64
    });

    for (name, pending) in [
        ("netsim.timer_fire_ns.p1k", 1_000),
        ("netsim.timer_fire_ns.p100k", scale.of(100_000)),
    ] {
        probe(out, name, || {
            let (mut sim, net) = pair(paper_link(), |role| match role {
                topology::Role::FrontEnd => Box::new(TimerFire {
                    rng: StdRng::seed_from_u64(seed),
                    pending,
                    fired: 0,
                }),
                _ => sink(),
            });
            // Arm the timers untimed; each then re-arms every 25.5 ms on
            // average.
            sim.run_until(SimTime::ZERO);
            let fires = scale.of(1_000_000) as f64;
            let horizon = Dur::from_secs_f64(fires * 0.0255 / pending as f64);
            let t0 = now();
            sim.run_until(SimTime::ZERO + horizon);
            let secs = secs_since(t0);
            secs * 1e9 / sim.host::<TimerFire>(net.front_end).fired as f64
        });
    }

    probe(out, "netsim.timer_rearm_ns.p100k", || {
        let (mut sim, net) = pair(paper_link(), |role| match role {
            topology::Role::FrontEnd => Box::new(TimerRearm {
                rng: StdRng::seed_from_u64(seed),
                pending: scale.of(100_000),
                ids: Vec::new(),
                next: 0,
                pairs: 0,
            }),
            _ => sink(),
        });
        sim.run_until(SimTime::ZERO); // arms the timers, untimed
        let ticks = scale.of(1_000_000).div_ceil(TimerRearm::BATCH) as u64;
        let t0 = now();
        sim.run_until(SimTime::ZERO + Dur::from_micros(ticks));
        let secs = secs_since(t0);
        secs * 1e9 / sim.host::<TimerRearm>(net.front_end).pairs as f64
    });

    // Thresholds around the half-full operating point, so RED's early
    // drops and CoDel's sojourn drops both take part.
    let red = RedConfig {
        min_th: 30.0,
        max_th: 90.0,
        ..RedConfig::default()
    };
    // Node ids only come from a simulator; the queue itself stands alone.
    let (_, net) = pair(paper_link(), |_| sink());
    let (a, b) = (net.senders[0], net.front_end);
    for (name, cfg) in [
        ("netsim.queue_op_ns.droptail", QueueConfig::drop_tail(100)),
        (
            "netsim.queue_op_ns.red",
            QueueConfig::drop_tail(100).with_red(red),
        ),
        (
            "netsim.queue_op_ns.codel",
            QueueConfig::drop_tail(100).with_codel(CoDelConfig::datacenter()),
        ),
    ] {
        probe(out, name, || {
            let mut q: DropTailQueue<TagPayload> = DropTailQueue::new(cfg);
            let ops = scale.of(2_000_000) as u64;
            let t0 = now();
            for i in 0..ops {
                // One 1460-byte serialisation time at 1 Gbps per op.
                let at = SimTime::from_nanos(i * 11_680);
                black_box(q.enqueue(at, Packet::new(a, b, FlowId(i), 1460, TagPayload(i))));
                if q.len() > 50 {
                    black_box(q.dequeue(at));
                    if q.has_sojourn_drops() {
                        black_box(q.take_sojourn_drops());
                    }
                }
            }
            secs_since(t0) * 1e9 / ops as f64
        });
    }

    probe(out, "netsim.star_build_us_per_host", || {
        let hosts = scale.of(100_000);
        let mut sim: Simulator<Segment> = Simulator::new();
        let t0 = now();
        let net =
            topology::many_to_one(&mut sim, hosts, paper_link(), |_| Box::new(TcpHost::new()));
        let secs = secs_since(t0);
        black_box(net);
        secs * 1e6 / hosts as f64
    });

    probe(out, "netsim.fat_tree_build_ms", || {
        let reps = scale.of(200);
        let t0 = now();
        for _ in 0..reps {
            let mut sim: Simulator<Segment> = Simulator::new();
            black_box(topology::fat_tree(&mut sim, 4, paper_link(), |_| {
                Box::new(TcpHost::new())
            }));
        }
        secs_since(t0) * 1e3 / reps as f64
    });
}

/// The congestion controllers a workload uses, by metric suffix.
fn controllers() -> [(&'static str, CcKind); 5] {
    [
        ("reno", CcKind::Reno),
        ("trim", CcKind::trim_with_capacity(1_000_000_000, 1460)),
        ("cubic", CcKind::Cubic),
        ("dctcp", CcKind::Dctcp),
        ("l2dct", CcKind::L2dct),
    ]
}

fn tcp_probes(out: &mut Vec<Metric>, seed: u64, scale: Scale) {
    for (suffix, cc) in &controllers()[..4] {
        probe(out, &format!("trim-tcp.segment_ns.{suffix}"), || {
            // One long loss-free flow: the window ceiling stays under
            // bandwidth-delay product plus buffer.
            let mut link = paper_link();
            link.queue = link.queue.with_ecn_threshold(20);
            let (mut sim, net) = pair(link, |_| Box::new(TcpHost::new()));
            let tcp = TcpConfig {
                max_cwnd: 64.0,
                ..TcpConfig::default()
            };
            let (s, dst) = (net.senders[0], net.front_end);
            let idx = wire_flow(&mut sim, FlowId(0), s, dst, tcp, cc);
            let segments = scale.of(200_000) as u64;
            let bytes = segments * u64::from(tcp.mss_bytes);
            schedule_train(
                &mut sim,
                s,
                idx,
                TrainSpec {
                    at: SimTime::ZERO,
                    bytes,
                },
            );
            let t0 = now();
            sim.run_until(SimTime::from_secs(3_600));
            let secs = secs_since(t0);
            let conn = sim.host::<TcpHost>(s).connection(idx);
            assert_eq!(conn.completed_trains().len(), 1, "{suffix}: flow finished");
            assert_eq!(sim.audit_stats().dropped, 0, "{suffix}: flow is loss-free");
            secs * 1e9 / segments as f64
        });
    }

    // ACKs whose RTT sweeps 100-612 us across the delay threshold K, one
    // in eight carrying an ECN echo.
    let mut rng = StdRng::seed_from_u64(seed);
    let acks: Vec<AckInfo> = (0..scale.of(1_000_000) as u64)
        .map(|i| AckInfo {
            now: SimTime::from_nanos(i * 12_000),
            rtt: Some(Dur::from_micros(100 + i % 512)),
            newly_acked: 1,
            ack_seq: i + 1,
            next_seq: i + 11,
            flight: 10,
            ece: rng.random_range(0..8u32) == 0,
            probe_echo: false,
        })
        .collect();
    for (suffix, cc) in &controllers() {
        probe(out, &format!("trim-tcp.cc_on_ack_ns.{suffix}"), || {
            let mut algo = cc.build();
            let mut w = WindowState::new(10.0, 64.0, 2.0, 1_000.0);
            let t0 = now();
            for info in &acks {
                algo.on_ack(&mut w, info);
                w.clamp_cwnd();
            }
            black_box(w);
            secs_since(t0) * 1e9 / acks.len() as f64
        });
    }

    probe(out, "trim-tcp.rto_observe_ns", || {
        let mut est = RtoEstimator::new(Dur::from_millis(20), Dur::from_secs(60));
        let n = scale.of(5_000_000) as u64;
        let mut sum = 0u64;
        let t0 = now();
        for i in 0..n {
            est.observe(Dur::from_micros(100 + i % 512));
            sum += est.rto().as_nanos();
        }
        black_box(sum);
        secs_since(t0) * 1e9 / n as f64
    });

    for (name, per_host) in [
        ("trim-tcp.wire_flow_us", 1),
        ("trim-tcp.wire_flow_packed_us", scale.of(1_000)),
    ] {
        probe(out, name, || {
            let flows = scale.of(100_000);
            let mut sim: Simulator<Segment> = Simulator::new();
            let net = topology::many_to_one(&mut sim, flows / per_host, paper_link(), |role| {
                Box::new(match role {
                    topology::Role::Sender(_) => TcpHost::with_sender_capacity(per_host),
                    _ => TcpHost::new(),
                })
            });
            let tcp = TcpConfig::default();
            let t0 = now();
            for i in 0..flows {
                let s = net.senders[i / per_host];
                black_box(wire_flow(
                    &mut sim,
                    FlowId(i as u64),
                    s,
                    net.front_end,
                    tcp,
                    &CcKind::Reno,
                ));
            }
            secs_since(t0) * 1e6 / flows as f64
        });
    }
}

fn core_probes(out: &mut Vec<Metric>, scale: Scale) {
    let cfg = TrimConfig::default().with_capacity(1_000_000_000, 1460);
    let n = scale.of(5_000_000) as u64;

    probe(out, "trim-core.alg2_on_ack_ns", || {
        let mut trim = Trim::new(cfg).expect("default TRIM config is valid");
        let t0 = now();
        for i in 0..n {
            // Non-probe ACKs whose RTT alternates either side of K.
            let rtt_ns = if i % 2 == 0 { 150_000 } else { 400_000 };
            black_box(trim.on_ack(i * 50_000, rtt_ns, false));
        }
        secs_since(t0) * 1e9 / n as f64
    });

    probe(out, "trim-core.alg1_send_attempt_ns", || {
        let mut trim = Trim::new(cfg).expect("default TRIM config is valid");
        trim.on_ack(0, 200_000, false); // smooth_RTT = 200 us
        let mut at = 0u64;
        let t0 = now();
        for i in 0..n {
            // Gaps alternate either side of smooth_RTT.
            at += if i % 2 == 0 { 10_000 } else { 1_000_000 };
            black_box(trim.on_send_attempt(at, 10.0));
            trim.note_sent(at);
        }
        secs_since(t0) * 1e9 / n as f64
    });
}

fn workload_and_serve_probes(out: &mut Vec<Metric>, seed: u64, scale: Scale) {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples: Vec<Dur> = (0..scale.of(1_000_000))
        .map(|_| Dur::from_nanos(rng.random_range(100_000..10_000_000_000u64)))
        .collect();
    probe(out, "trim-workload.summary_of_ns_per_sample", || {
        let t0 = now();
        black_box(Summary::of(&samples));
        secs_since(t0) * 1e9 / samples.len() as f64
    });

    let Some(SimWorkload::Serve { model, .. }) = sim_workload("serve_sessions", seed, scale) else {
        unreachable!("serve_sessions is a serving workload")
    };
    probe(out, "trim-serve.session_gen_ns", || {
        let reps = 20;
        let t0 = now();
        for k in 0..reps {
            black_box(generate(&SessionModel {
                seed: seed + k,
                ..model.clone()
            }));
        }
        secs_since(t0) * 1e9 / (reps as usize * model.sessions) as f64
    });
}

fn harness_probes(out: &mut Vec<Metric>, scale: Scale, scratch: &Path) {
    let dir = scratch.join("harness-probe");
    let exec = ExecConfig {
        jobs: 1,
        force: true,
        results_dir: dir.clone(),
        quiet: true,
    };

    probe(out, "trim-harness.job_overhead_us", || {
        let jobs = scale.of(1_000).max(10);
        let mut campaign = Campaign::new("probe", 1);
        for i in 0..jobs {
            campaign.table_job(format!("job{i}"), &[], |_| Table::new("empty", &["x"]));
        }
        let t0 = now();
        trim_harness::execute(campaign, &exec).expect("probe campaign runs");
        let secs = secs_since(t0);
        std::fs::remove_dir_all(&dir).expect("probe directory is removable");
        secs * 1e6 / jobs as f64
    });

    let mut table = Table::new(
        "probe",
        &["flow", "start", "end", "bytes", "act", "timeouts"],
    );
    for i in 0..scale.of(100_000) {
        let cells = [i, i * 7, i * 13, 1_460_000, i * 17 % 9_973, i % 3];
        table.row(&cells.map(|c| c.to_string()));
    }
    probe(out, "trim-harness.csv_write_mb_per_s", || {
        let store = ResultStore::new(dir.clone());
        let t0 = now();
        store
            .write_reduce_artifact("probe", &table)
            .expect("probe CSV is writable");
        let secs = secs_since(t0);
        let bytes = std::fs::metadata(dir.join("probe.csv"))
            .expect("probe CSV exists")
            .len();
        std::fs::remove_dir_all(&dir).expect("probe directory is removable");
        bytes as f64 / 1e6 / secs
    });
}

/// Every workload-independent probe.
pub fn probes(seed: u64, scale: Scale, scratch: &Path) -> Vec<Metric> {
    let mut out = Vec::new();
    netsim_probes(&mut out, seed, scale);
    tcp_probes(&mut out, seed, scale);
    core_probes(&mut out, scale);
    workload_and_serve_probes(&mut out, seed, scale);
    harness_probes(&mut out, scale, scratch);
    out
}

/// Reference measurements that tie a layer to one workload. They run
/// the owning workload whatever `--workload` asked for, so every
/// per-layer metric is measured in every traced run. `campaign` is the
/// traced one-worker campaign rep (its `drive` seconds and spans) when
/// the run already has one.
pub fn references(
    seed: u64,
    scale: Scale,
    scratch: &Path,
    campaign: Option<(f64, Vec<Span>)>,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let run_s = |w: &SimWorkload, monitored: bool| sim_rep(w, monitored, &mut Tracer::off()).run_s;

    // trim-tcp: the same 100k flows packed 1 000 to a host against one
    // per host separates per-host/per-link footprint from table depth.
    // Each variant warms up once.
    let storm = sim_workload("incast_storm", seed, scale).expect("a simulator workload");
    let SimWorkload::Incast(mut packed) = storm.clone() else {
        unreachable!("incast_storm is an incast")
    };
    packed.senders_per_host = scale.of(1_000);
    let packed = SimWorkload::Incast(packed);
    let (_, one_per_host) = (run_s(&storm, false), run_s(&storm, false));
    let (_, packed) = (run_s(&packed, false), run_s(&packed, false));
    out.push(Metric::new(
        "trim-tcp.packed_run_ratio",
        packed / one_per_host,
    ));

    // trim-check: what attaching the standard monitors costs.
    let dense = sim_workload("incast_dense", seed, scale).expect("a simulator workload");
    let (_, detached, attached) = (
        run_s(&dense, false),
        run_s(&dense, false),
        run_s(&dense, true),
    );
    out.push(Metric::new(
        "trim-check.monitor_overhead_ratio",
        attached / detached,
    ));

    // trim-serve: simulated-time outcomes; results, not speeds.
    let serve = sim_workload("serve_sessions", seed, scale).expect("a simulator workload");
    let rep = sim_rep(&serve, false, &mut Tracer::off());
    out.push(Metric::new("trim-serve.arct_p50_us", rep.act.p50 * 1e6));
    out.push(Metric::new("trim-serve.arct_p99_us", rep.act.p99 * 1e6));
    out.push(Metric::new(
        "trim-serve.requests_completed",
        rep.act.count as f64,
    ));

    // trim-experiments / trim-harness: each experiment's share of the
    // campaign, and what a second worker thread buys.
    let dir = scratch.join("campaign-reference");
    let ids = campaign_ids(scale);
    let (one_worker_s, spans) = campaign.unwrap_or_else(|| {
        let mut tracer = Tracer::on("campaign_quick");
        let rep = campaign_rep(ids, 1, seed, &dir, &mut tracer);
        (rep.run_s, tracer.spans().to_vec())
    });
    for id in CAMPAIGN_IDS {
        // Experiments a reduced (tiny) campaign skips report zero.
        let secs = secs_of(&spans, &format!("exp.{id}")).unwrap_or(0.0);
        out.push(Metric::new(format!("trim-experiments.exp_s.{id}"), secs));
    }
    // Traced like the one-worker rep, so both make one `drive` call per
    // experiment.
    let two_workers = campaign_rep(ids, 2, seed, &dir, &mut Tracer::on("campaign_quick"));
    out.push(Metric::new(
        "trim-harness.parallel_speedup",
        one_worker_s / two_workers.run_s,
    ));
    out
}
