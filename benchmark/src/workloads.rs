//! The four workloads, each as a `rep` whose phases are timed from
//! outside the program: every measurement is host time around a call
//! into a public function of a workspace crate.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use netsim::prelude::*;
use netsim::topology::LinkSpec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use trim_harness::cli::CliArgs;
use trim_harness::Effort;
use trim_serve::session::{generate, SessionModel};
use trim_tcp::{CcKind, Segment, TcpConfig, TcpHost};
use trim_workload::metrics::Summary;
use trim_workload::scale::ScaleConfig;
use trim_workload::scenario::{schedule_session, schedule_train, wire_flow};
use trim_workload::TrainSpec;

use crate::stats::{now, secs_since};
use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "incast_dense",
    "incast_storm",
    "serve_sessions",
    "campaign_quick",
];

/// The seed whose campaign CSVs are the committed goldens: with it
/// `campaign_quick` leaves every campaign's own seed alone.
pub const DEFAULT_SEED: u64 = 1;

/// Experiments `campaign_quick` regenerates. `large_scale` (74 s) and
/// `multihop` (14 s) are left out for time only.
pub const CAMPAIGN_IDS: [&str; 13] = [
    "trace",
    "impairment",
    "concurrency",
    "properties",
    "convergence",
    "fat_tree",
    "testbed",
    "kmodel",
    "ablation",
    "incast",
    "rto_sensitivity",
    "serve_slo",
    "aqm_matrix",
];

/// The experiments `campaign_quick` runs at `scale`.
pub fn campaign_ids(scale: Scale) -> &'static [&'static str] {
    match scale {
        Scale::Full => &CAMPAIGN_IDS,
        // Three experiments of a few milliseconds, all seed-dependent.
        Scale::Tiny => &["trace", "impairment", "incast"],
    }
}

/// Workload size: `Tiny` is 1/100 of `Full`, for the test suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// 1/100 size, exercising every code path and check in seconds.
    Tiny,
}

impl Scale {
    /// `n` at full scale, `n / 100` (at least 1) at tiny scale.
    pub fn of(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Tiny => (n / 100).max(1),
        }
    }
}

/// Output checks: how many were attempted, how many failed, and why.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` is only rendered when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// A simulator workload: an incast on the star, or serving sessions on
/// the fat-tree.
#[derive(Clone, Debug)]
pub enum SimWorkload {
    /// `trim_workload::scale`'s incast, rebuilt from its public parts.
    Incast(ScaleConfig),
    /// `trim_serve::run`, rebuilt from its public parts.
    Serve {
        /// The session arrival process.
        model: SessionModel,
        /// Simulated horizon.
        horizon: Dur,
    },
}

/// The simulator workload called `name`, or `None` for `campaign_quick`
/// and unknown names.
pub fn sim_workload(name: &str, seed: u64, scale: Scale) -> Option<SimWorkload> {
    match name {
        "incast_dense" => {
            let mut cfg = ScaleConfig::with_flows(1_000);
            cfg.bytes_per_flow = scale.of(1_460_000) as u64;
            cfg.horizon = Dur::from_secs(20);
            cfg.seed = seed;
            Some(SimWorkload::Incast(cfg))
        }
        "incast_storm" => {
            let mut cfg = ScaleConfig::with_flows(scale.of(100_000));
            cfg.bytes_per_flow = 1_460; // one segment per flow at either scale
            cfg.seed = seed;
            Some(SimWorkload::Incast(cfg))
        }
        "serve_sessions" => Some(SimWorkload::Serve {
            model: SessionModel {
                seed,
                sessions: scale.of(16_384),
                arrival_window: Dur::from_millis(250),
                requests: (6, 8),
                response_bytes: (2_000, 10_000),
                think_min: Dur::from_millis(375),
                think_mean_excess: Dur::from_millis(188),
            },
            horizon: Dur::from_secs(8),
        }),
        _ => None,
    }
}

/// Discarded warm-up reps before the first timed one. `incast_storm`'s
/// second rep in a fresh process is still 25-45 % slow (page faults on
/// 100k hosts of cold state), so it warms up twice.
pub fn warmups(name: &str) -> usize {
    match name {
        "incast_storm" => 2,
        "campaign_quick" => 0,
        _ => 1,
    }
}

/// The 1 Gbps / 50 us / 100-packet drop-tail link of the paper, which
/// both `run_scale_incast` and `ServeConfig::new` use.
pub fn paper_link() -> LinkSpec {
    LinkSpec::new(
        Bandwidth::gbps(1),
        Dur::from_micros(50),
        QueueConfig::drop_tail(100),
    )
}

/// Runs `f` as the phase `name`: a span when tracing, and its host
/// seconds either way.
fn phase<T>(tracer: &mut Tracer, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
    tracer.open(name);
    let t0 = now();
    let out = f(tracer);
    let secs = secs_since(t0);
    tracer.close(&[]);
    (out, secs)
}

/// A wired simulation, ready for its first `run_until`.
struct Wired {
    sim: Simulator<Segment>,
    /// Every `TcpHost` in the topology.
    hosts: Vec<NodeId>,
    /// Per flow: sender host, connection index there, trains planned.
    flows: Vec<(NodeId, usize, usize)>,
    horizon: SimTime,
    /// Host seconds of the build and wire phases together.
    setup_s: f64,
}

impl SimWorkload {
    /// Builds the topology, wires the flows and schedules the traffic:
    /// everything before the first `run_until`.
    fn set_up(&self, tracer: &mut Tracer) -> Wired {
        match self {
            SimWorkload::Incast(cfg) => {
                let per_host = cfg.senders_per_host.max(1);
                let ((mut sim, net), build_s) = phase(tracer, "build", |_| {
                    let mut sim: Simulator<Segment> = Simulator::new();
                    let hosts = cfg.flows.div_ceil(per_host);
                    let net = topology::many_to_one(&mut sim, hosts, paper_link(), |role| {
                        Box::new(match role {
                            topology::Role::Sender(_) => TcpHost::with_sender_capacity(per_host),
                            _ => TcpHost::new(),
                        })
                    });
                    (sim, net)
                });
                let (flows, wire_s) = phase(tracer, "wire", |_| {
                    let tcp = TcpConfig::default().with_min_rto(cfg.min_rto);
                    // The same start-time draw as `run_scale_incast`.
                    let mut starts = StdRng::seed_from_u64(cfg.seed);
                    let window = cfg.start_window.as_nanos().max(1);
                    (0..cfg.flows)
                        .map(|i| {
                            let s = net.senders[i / per_host];
                            let flow = FlowId(i as u64);
                            let idx = wire_flow(&mut sim, flow, s, net.front_end, tcp, &cfg.cc);
                            let spec = TrainSpec {
                                at: SimTime::from_nanos(starts.random_range(0..window)),
                                bytes: cfg.bytes_per_flow,
                            };
                            schedule_train(&mut sim, s, idx, spec);
                            (s, idx, 1)
                        })
                        .collect()
                });
                let mut hosts = net.senders;
                hosts.push(net.front_end);
                Wired {
                    sim,
                    hosts,
                    flows,
                    horizon: SimTime::ZERO + cfg.horizon,
                    setup_s: build_s + wire_s,
                }
            }
            SimWorkload::Serve { model, horizon } => {
                let link = paper_link();
                let ((mut sim, net, plans), build_s) = phase(tracer, "build", |_| {
                    let plans = generate(model);
                    let mut sim: Simulator<Segment> = Simulator::new();
                    let net = topology::fat_tree(&mut sim, 4, link, |_| Box::new(TcpHost::new()));
                    (sim, net, plans)
                });
                let (flows, wire_s) = phase(tracer, "wire", |_| {
                    let tcp = TcpConfig::default();
                    let cc = CcKind::trim_with_capacity(link.bandwidth.as_bps(), tcp.mss_bytes);
                    // Placement exactly as `trim_serve::run`: session i
                    // serves from servers[i % S] to clients[(i / S) % C].
                    let (servers, clients) = net.hosts.split_at(net.hosts.len() / 2);
                    plans
                        .iter()
                        .enumerate()
                        .map(|(i, plan)| {
                            let server = servers[i % servers.len()];
                            let client = clients[(i / servers.len()) % clients.len()];
                            let flow = FlowId(i as u64);
                            let idx = wire_flow(&mut sim, flow, server, client, tcp, &cc);
                            let sizes = plan.sizes.clone();
                            schedule_session(
                                &mut sim,
                                server,
                                idx,
                                plan.arrival,
                                sizes,
                                plan.think,
                            );
                            (server, idx, plan.sizes.len())
                        })
                        .collect()
                });
                Wired {
                    sim,
                    hosts: net.hosts,
                    flows,
                    horizon: SimTime::ZERO + *horizon,
                    setup_s: build_s + wire_s,
                }
            }
        }
    }

    fn flows(&self) -> usize {
        match self {
            SimWorkload::Incast(cfg) => cfg.flows,
            SimWorkload::Serve { model, .. } => model.sessions,
        }
    }
}

/// What one rep of a simulator workload measured and produced.
#[derive(Clone, Debug)]
pub struct SimRep {
    /// Host seconds setting up: building the topology, wiring flows and
    /// scheduling traffic, i.e. everything before the first `run_until`.
    pub setup_s: f64,
    /// Host seconds inside `run_until`.
    pub run_s: f64,
    /// Host seconds for the whole rep, set-up through drop.
    pub wall_s: f64,
    /// Packet accounting at the horizon.
    pub audit: AuditStats,
    /// Retransmission timeouts across all connections.
    pub timeouts: u64,
    /// Flows (sessions) whose every train completed.
    pub completed: usize,
    /// Events dispatched: informational only, its definition may change.
    pub events: u64,
    /// Peak concurrently live packets.
    pub arena_high_water: usize,
    /// Completion times of all finished trains (ACT / ARCT).
    pub act: Summary,
    /// Violations the standard monitors recorded (monitored reps only).
    pub violations: usize,
    /// First flow-table lifecycle discrepancy on any host.
    pub slab_error: Option<String>,
}

impl SimRep {
    /// Every deterministic outcome of the rep; identical across reps of
    /// the same inputs, traced, monitored or neither.
    pub fn digest(&self) -> String {
        format!(
            "injected={} delivered={} dropped={} timeouts={} completed={} trains={} \
             act_mean={:016x} act_p50={:016x} act_p99={:016x}",
            self.audit.injected,
            self.audit.delivered,
            self.audit.dropped,
            self.timeouts,
            self.completed,
            self.act.count,
            self.act.mean.to_bits(),
            self.act.p50.to_bits(),
            self.act.p99.to_bits(),
        )
    }
}

/// Runs one rep of `w`: set up, run to the horizon, harvest, drop. With
/// `tracer` enabled the run is driven as ten `run_until` slices, each a
/// span carrying the packets injected and dropped in it.
pub fn sim_rep(w: &SimWorkload, monitored: bool, tracer: &mut Tracer) -> SimRep {
    tracer.open("rep");
    let t0 = now();
    let Wired {
        mut sim,
        hosts,
        flows,
        horizon,
        setup_s,
    } = w.set_up(tracer);
    if monitored {
        trim_check::attach_standard(&mut sim);
    }

    tracer.open("run");
    let t_run = now();
    if tracer.enabled() {
        let mut before = sim.audit_stats();
        for k in 1..=10u64 {
            tracer.open(&format!("run.slice.{}", k - 1));
            sim.run_until(SimTime::from_nanos(horizon.as_nanos() / 10 * k));
            let after = sim.audit_stats();
            tracer.close(&[
                ("pkts_injected", after.injected - before.injected),
                ("pkts_dropped", after.dropped - before.dropped),
            ]);
            before = after;
        }
    }
    sim.run_until(horizon);
    let run_s = secs_since(t_run);
    let audit = sim.audit_stats();
    tracer.close(&[
        ("pkts_injected", audit.injected),
        ("pkts_dropped", audit.dropped),
    ]);

    let (harvest, _) = phase(tracer, "harvest", |_| {
        let slab_error = hosts
            .iter()
            .find_map(|&h| sim.host::<TcpHost>(h).slab_leak_check().err());
        let mut times: Vec<Dur> = Vec::new();
        let mut timeouts = 0u64;
        let mut completed = 0usize;
        for &(node, idx, planned) in &flows {
            let conn = sim.host::<TcpHost>(node).connection(idx);
            timeouts += conn.stats().timeouts;
            let trains = conn.completed_trains();
            completed += usize::from(trains.len() == planned);
            times.extend(trains.iter().map(|t| t.completion_time()));
        }
        (slab_error, timeouts, completed, Summary::of(&times))
    });
    let (slab_error, timeouts, completed, act) = harvest;
    let violations = sim.violations().len();
    let events = sim.events_processed(); // informational `netsim.events` only
    let arena_high_water = sim.arena_high_water();

    phase(tracer, "drop", |_| drop((sim, hosts, flows)));
    let wall_s = secs_since(t0);
    tracer.close(&[]);
    SimRep {
        setup_s,
        run_s,
        wall_s,
        audit,
        timeouts,
        completed,
        events,
        arena_high_water,
        act,
        violations,
        slab_error,
    }
}

/// Output checks on one simulator rep. `reference` is the digest every
/// rep of these inputs must reproduce.
pub fn check_sim_rep(name: &str, w: &SimWorkload, rep: &SimRep, reference: &str, c: &mut Checks) {
    let a = &rep.audit;
    c.check(
        a.injected == a.delivered + a.dropped + a.in_flight(),
        || format!("{name}: packets not conserved at the horizon: {a:?}"),
    );
    c.check(a.arena_live == a.pending_arrivals, || {
        format!(
            "{name}: arena holds {} packets, {} arrivals pending",
            a.arena_live, a.pending_arrivals
        )
    });
    c.check(rep.slab_error.is_none(), || {
        format!(
            "{name}: flow table books do not balance: {:?}",
            rep.slab_error
        )
    });
    c.check(rep.digest() == reference, || {
        format!(
            "{name}: rep digest differs\n  got  {}\n  want {reference}",
            rep.digest()
        )
    });
    c.check(rep.violations == 0, || {
        format!("{name}: {} monitor violation(s)", rep.violations)
    });
    match name {
        "incast_dense" => c.check(rep.completed == w.flows(), || {
            format!("{name}: {}/{} flows completed", rep.completed, w.flows())
        }),
        "serve_sessions" => {
            // The think-time tail leaves about 1 % of sessions (±0.1 % with
            // the seed) open at the horizon; 2 % would be a stall.
            c.check(rep.completed * 100 >= w.flows() * 98, || {
                format!(
                    "{name}: only {}/{} sessions completed",
                    rep.completed,
                    w.flows()
                )
            });
            // Loss-free in the sizing run; an occasional seed (102) drops
            // one packet in its 114k requests and takes one timeout.
            c.check(rep.timeouts * 1_000 <= rep.act.count as u64, || {
                format!(
                    "{name}: {} timeouts in {} requests",
                    rep.timeouts, rep.act.count
                )
            });
        }
        _ => c.check(rep.completed > 0, || format!("{name}: no flow completed")),
    }
}

/// What one rep of `campaign_quick` measured and produced.
#[derive(Clone, Debug)]
pub struct CampaignRep {
    /// Host seconds inside `drive`: the rep's wall time.
    pub run_s: f64,
    /// Simulation jobs the campaigns hold: the unit of work.
    pub jobs: usize,
    /// Every top-level `*.csv` the campaigns reduced to.
    pub csvs: BTreeMap<String, Vec<u8>>,
}

/// Builds the campaigns of `ids` and returns how many jobs they hold.
pub fn build_campaigns(ids: &[&str]) -> usize {
    ids.iter()
        .map(|id| {
            let spec = trim_experiments::registry::find(id).expect("registered experiment id");
            (spec.campaign)(Effort::Quick).len()
        })
        .sum()
}

/// Runs one rep of the campaign workload into `dir` (created, then
/// removed): `trim-bench --only <ids> --jobs <jobs> --force --quiet`,
/// in-process. When tracing, `drive` is called once per experiment so
/// each gets a span.
pub fn campaign_rep(
    ids: &[&str],
    jobs: usize,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> CampaignRep {
    tracer.open("rep");
    let (n_jobs, _) = phase(tracer, "build", |_| build_campaigns(ids));
    let (args, _) = phase(tracer, "wire", |_| {
        std::fs::create_dir_all(dir).expect("results directory is creatable");
        CliArgs {
            jobs,
            only: Some(ids.iter().map(|s| s.to_string()).collect()),
            force: true,
            results_dir: dir.to_path_buf(),
            seed: (seed != DEFAULT_SEED).then_some(seed),
            quiet: true,
            ..CliArgs::default()
        }
    });
    let ((), run_s) = phase(tracer, "run", |tracer| {
        if !tracer.enabled() {
            return trim_experiments::drive(&args).expect("campaign runs");
        }
        for id in ids {
            let one = CliArgs {
                only: Some(vec![id.to_string()]),
                ..args.clone()
            };
            tracer.open(&format!("exp.{id}"));
            trim_experiments::drive(&one).expect("campaign runs");
            tracer.close(&[]);
        }
    });
    let (csvs, _) = phase(tracer, "harvest", |_| read_csvs(dir));
    phase(tracer, "drop", |_| {
        std::fs::remove_dir_all(dir).expect("results directory is removable");
    });
    tracer.close(&[("jobs", n_jobs as u64), ("csvs", csvs.len() as u64)]);
    CampaignRep {
        run_s,
        jobs: n_jobs,
        csvs,
    }
}

/// Every top-level `*.csv` in `dir`, by file name.
fn read_csvs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut csvs = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("results directory is readable") {
        let path = entry.expect("directory entry is readable").path();
        if path.extension().is_some_and(|e| e == "csv") {
            let name = path.file_name().expect("a file has a name");
            let bytes = std::fs::read(&path).expect("produced CSV is readable");
            csvs.insert(name.to_string_lossy().into_owned(), bytes);
        }
    }
    csvs
}

/// The committed golden CSVs of this checkout.
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../results")
}

/// The committed goldens of the CSVs `produced` names; a missing golden
/// reads as empty, so it fails the byte comparison.
pub fn goldens_for(produced: &BTreeMap<String, Vec<u8>>, dir: &Path) -> BTreeMap<String, Vec<u8>> {
    produced
        .keys()
        .map(|name| {
            let bytes = std::fs::read(dir.join(name)).unwrap_or_default();
            (name.clone(), bytes)
        })
        .collect()
}

/// Output checks on one campaign rep: it produced CSVs, and each is
/// byte-equal to `reference` (the committed goldens at the default
/// seed, the first rep's CSVs otherwise).
pub fn check_campaign_rep(
    rep: &CampaignRep,
    reference: &BTreeMap<String, Vec<u8>>,
    c: &mut Checks,
) {
    c.check(
        !rep.csvs.is_empty() && rep.csvs.len() == reference.len(),
        || {
            format!(
                "campaign_quick: produced {} CSVs, reference has {}",
                rep.csvs.len(),
                reference.len()
            )
        },
    );
    for (name, bytes) in &rep.csvs {
        c.check(reference.get(name) == Some(bytes), || {
            format!("campaign_quick: {name} differs from its reference")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trim_serve::run::ServeConfig;
    use trim_workload::scale::run_scale_incast;

    /// The benchmark rebuilds `run_scale_incast` from its public parts so
    /// it can time the phases; the rebuild must simulate the same thing.
    #[test]
    fn incast_rebuild_matches_run_scale_incast() {
        for name in ["incast_dense", "incast_storm"] {
            let w = sim_workload(name, 0x5ca1e, Scale::Tiny).unwrap();
            let SimWorkload::Incast(cfg) = &w else {
                panic!("{name} is an incast")
            };
            let want = run_scale_incast(cfg);
            let got = sim_rep(&w, false, &mut Tracer::off());
            assert_eq!(got.completed, want.completed, "{name}");
            assert_eq!(got.audit, want.audit, "{name}");
            assert_eq!(got.timeouts, want.timeouts, "{name}");
            assert_eq!(got.arena_high_water, want.arena_high_water, "{name}");
            assert_eq!(got.act, want.act, "{name}");
        }
    }

    #[test]
    fn serve_rebuild_matches_trim_serve_run() {
        let w = sim_workload("serve_sessions", 5, Scale::Tiny).unwrap();
        let SimWorkload::Serve { model, horizon } = &w else {
            panic!("serve_sessions serves")
        };
        let want = trim_serve::run(
            &ServeConfig {
                horizon_secs: horizon.as_secs_f64(),
                ..ServeConfig::new(model.clone())
            }
            .trim(),
        );
        let got = sim_rep(&w, false, &mut Tracer::off());
        assert_eq!(got.completed, want.sessions_completed);
        assert_eq!(got.act, want.arct);
        assert_eq!(got.act.count as u64, want.requests_completed);
        assert_eq!(got.timeouts, want.timeouts);
    }

    #[test]
    fn traced_and_monitored_reps_reproduce_the_plain_digest() {
        for name in ["incast_dense", "incast_storm", "serve_sessions"] {
            let w = sim_workload(name, 3, Scale::Tiny).unwrap();
            let plain = sim_rep(&w, false, &mut Tracer::off());
            let mut tracer = Tracer::on(name);
            let traced = sim_rep(&w, false, &mut tracer);
            let monitored = sim_rep(&w, true, &mut Tracer::off());
            let mut c = Checks::default();
            for rep in [&plain, &traced, &monitored] {
                check_sim_rep(name, &w, rep, &plain.digest(), &mut c);
            }
            assert_eq!(c.failed, 0, "{:?}", c.failures);
            assert!(c.attempted >= 18);
            // rep -> build, wire, run (-> 10 slices), harvest, drop
            assert_eq!(tracer.spans().len(), 16);
            let other = sim_rep(
                &sim_workload(name, 4, Scale::Tiny).unwrap(),
                false,
                &mut Tracer::off(),
            );
            assert_ne!(
                other.digest(),
                plain.digest(),
                "{name}: the seed must reach the inputs"
            );
        }
    }

    #[test]
    fn a_wrong_reference_fails_checks() {
        let w = sim_workload("incast_dense", 3, Scale::Tiny).unwrap();
        let rep = sim_rep(&w, false, &mut Tracer::off());
        let mut c = Checks::default();
        check_sim_rep("incast_dense", &w, &rep, "not the digest", &mut c);
        assert_eq!(c.failed, 1);
        assert!(c.failures[0].contains("digest differs"));
    }
}
