//! Ready-made evaluation scenarios.
//!
//! [`ScenarioBuilder`] assembles the paper's workhorse many-to-one setup —
//! N web servers sending packet trains to one front-end across a single
//! switch — into a runnable [`Scenario`] with per-train completion
//! records, per-connection statistics, and bottleneck-queue measurements.
//! For other topologies, [`wire_flow`] and [`schedule_train`] wire TCP
//! connections over any `netsim` topology built with empty
//! [`TcpHost`] agents.

use netsim::prelude::*;
use netsim::time::SimTime;
use netsim::topology::{self, LinkSpec, ManyToOne};
use trim_tcp::conn::TrainRecord;
use trim_tcp::{CcKind, ConnStats, Segment, TcpConfig, TcpHost};

use crate::metrics::Summary;

/// A train to inject: `bytes` handed to TCP at absolute time `at`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainSpec {
    /// Injection time.
    pub at: SimTime,
    /// Application bytes.
    pub bytes: u64,
}

impl TrainSpec {
    /// A train of `bytes` at `t` seconds.
    pub fn at_secs(t: f64, bytes: u64) -> Self {
        TrainSpec {
            at: SimTime::from_secs_f64(t),
            bytes,
        }
    }
}

/// Registers a sender on `src` and a receiver on `dst` for `flow`, over
/// any topology whose hosts are [`TcpHost`]s. Returns the sender's local
/// index on `src` (needed by [`schedule_train`]).
///
/// # Panics
///
/// Panics if either node is not a [`TcpHost`] or the flow is already
/// wired there.
pub fn wire_flow(
    sim: &mut Simulator<Segment>,
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    cfg: TcpConfig,
    cc: &CcKind,
) -> usize {
    sim.host_mut::<TcpHost>(dst).add_receiver(flow, cfg);
    sim.host_mut::<TcpHost>(src).add_sender(flow, dst, cfg, cc)
}

/// Schedules a train on a sender previously wired with [`wire_flow`].
///
/// # Panics
///
/// Panics if `src` is not a [`TcpHost`] or `sender_idx` is out of range.
pub fn schedule_train(
    sim: &mut Simulator<Segment>,
    src: NodeId,
    sender_idx: usize,
    spec: TrainSpec,
) {
    sim.host_mut::<TcpHost>(src)
        .schedule_train(sender_idx, spec.at, spec.bytes);
}

/// Schedules a persistent-HTTP user session on a sender previously wired
/// with [`wire_flow`]: the responses of `sizes` go out sequentially, each
/// handed to TCP `think` after the previous one completes, starting at
/// `start`.
///
/// # Panics
///
/// Panics if `src` is not a [`TcpHost`], `sender_idx` is out of range,
/// `sizes` is empty, or the sender already has a session.
pub fn schedule_session(
    sim: &mut Simulator<Segment>,
    src: NodeId,
    sender_idx: usize,
    start: SimTime,
    sizes: Vec<u64>,
    think: Dur,
) {
    sim.host_mut::<TcpHost>(src)
        .schedule_response_sequence(sender_idx, start, sizes, think);
}

/// Builder for the many-to-one scenario (Sections II.B and IV.A/B).
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    senders: usize,
    cc: CcKind,
    tcp: TcpConfig,
    sender_link: LinkSpec,
    front_end_link: LinkSpec,
    record_cwnd: bool,
    throughput_bin: Option<Dur>,
    record_queue: bool,
}

impl ScenarioBuilder {
    /// Starts a many-to-one scenario with `senders` web servers and the
    /// paper's defaults: 1 Gbps links, 50 µs latency, 100-packet switch
    /// buffer, Reno.
    pub fn many_to_one(senders: usize) -> Self {
        let link = LinkSpec::new(
            Bandwidth::gbps(1),
            Dur::from_micros(50),
            QueueConfig::drop_tail(100),
        );
        ScenarioBuilder {
            senders,
            cc: CcKind::Reno,
            tcp: TcpConfig::default(),
            sender_link: link,
            front_end_link: link,
            record_cwnd: false,
            throughput_bin: None,
            record_queue: false,
        }
    }

    /// Selects the congestion-control policy for every sender.
    pub fn congestion_control(mut self, cc: CcKind) -> Self {
        self.cc = cc;
        self
    }

    /// Uses TCP-TRIM with `K` derived from this scenario's bottleneck.
    pub fn trim(self) -> Self {
        let bw = self.front_end_link.bandwidth.as_bps();
        let mss = self.tcp.mss_bytes;
        self.congestion_control(CcKind::trim_with_capacity(bw, mss))
    }

    /// Overrides the TCP configuration (RTO bounds, MSS, windows).
    pub fn tcp_config(mut self, cfg: TcpConfig) -> Self {
        self.tcp = cfg;
        self
    }

    /// Overrides both link specs at once.
    pub fn links(mut self, link: LinkSpec) -> Self {
        self.sender_link = link;
        self.front_end_link = link;
        self
    }

    /// Overrides the sender-side links (for the asymmetric convergence
    /// test, Fig. 10).
    pub fn sender_links(mut self, link: LinkSpec) -> Self {
        self.sender_link = link;
        self
    }

    /// Selects the queue discipline (drop-tail, RED, or CoDel) on every
    /// queue. A per-link override goes through [`ScenarioBuilder::links`] /
    /// [`ScenarioBuilder::sender_links`] afterwards, with the discipline
    /// already set on the [`LinkSpec`]'s queue config.
    pub fn queue_discipline(mut self, aqm: netsim::QueueDiscipline) -> Self {
        self.sender_link.queue.aqm = aqm;
        self.front_end_link.queue.aqm = aqm;
        self
    }

    /// Enables ECN marking above `pkts` on every queue (for DCTCP/L2DCT).
    pub fn ecn_threshold(mut self, pkts: usize) -> Self {
        self.sender_link.queue.ecn_threshold = Some(pkts);
        self.front_end_link.queue.ecn_threshold = Some(pkts);
        self
    }

    /// Records every sender's congestion-window evolution.
    pub fn record_cwnd(mut self) -> Self {
        self.record_cwnd = true;
        self
    }

    /// Meters per-flow goodput at the front-end in bins of `bin`.
    pub fn throughput_bin(mut self, bin: Dur) -> Self {
        self.throughput_bin = Some(bin);
        self
    }

    /// Records the bottleneck queue-length time series (Fig. 9(a)).
    pub fn record_queue(mut self) -> Self {
        self.record_queue = true;
        self
    }

    /// Assembles the simulator, topology and connections.
    pub fn build(self) -> Scenario {
        let mut sim: Simulator<Segment> = Simulator::new();
        let net = topology::many_to_one_asym(
            &mut sim,
            self.senders,
            self.sender_link,
            self.front_end_link,
            |_role| Box::new(TcpHost::new()),
        );
        for (i, &s) in net.senders.iter().enumerate() {
            let flow = FlowId(i as u64);
            let idx = wire_flow(&mut sim, flow, s, net.front_end, self.tcp, &self.cc);
            debug_assert_eq!(idx, 0, "one sender per host");
        }
        let flows = || (0..self.senders as u64).map(FlowId);
        if self.record_cwnd {
            sim.attach_monitor(Box::new(CwndRecorder::new(flows())));
        }
        if let Some(bin) = self.throughput_bin {
            sim.attach_monitor(Box::new(ThroughputRecorder::new(bin, flows())));
        }
        if self.record_queue {
            sim.attach_monitor(Box::new(QueueRecorder::new([net.bottleneck])));
        }
        // Runtime invariant monitors, per the TRIM_CHECK_MONITORS policy
        // (default: on in debug builds, off in release). Observe-only, so
        // the event stream — and therefore every artifact — is identical
        // either way.
        trim_check::attach_standard_if_enabled(&mut sim);
        Scenario { sim, net }
    }
}

/// A built many-to-one scenario, ready to receive trains and run.
pub struct Scenario {
    sim: Simulator<Segment>,
    net: ManyToOne,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("senders", &self.net.senders.len())
            .field("now", &self.sim.now())
            .finish_non_exhaustive()
    }
}

impl Scenario {
    /// Schedules a train on sender `sender` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range or the simulation has already
    /// started.
    pub fn send_train(&mut self, sender: usize, spec: TrainSpec) {
        let node = self.net.senders[sender];
        schedule_train(&mut self.sim, node, 0, spec);
    }

    /// Schedules many trains at once.
    pub fn send_trains(&mut self, sender: usize, specs: impl IntoIterator<Item = TrainSpec>) {
        for s in specs {
            self.send_train(sender, s);
        }
    }

    /// Schedules a persistent-HTTP session on sender `sender`: the
    /// responses of `sizes` go out sequentially, each `think` after the
    /// previous one completes, starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range, `sizes` is empty, or the
    /// sender already has a session.
    pub fn send_session(&mut self, sender: usize, start: SimTime, sizes: Vec<u64>, think: Dur) {
        let node = self.net.senders[sender];
        schedule_session(&mut self.sim, node, 0, start, sizes, think);
    }

    /// The underlying simulator, for custom instrumentation.
    pub fn sim_mut(&mut self) -> &mut Simulator<Segment> {
        &mut self.sim
    }

    /// The topology handle.
    pub fn net(&self) -> &ManyToOne {
        &self.net
    }

    /// Runs until `secs` of simulated time and collects the report.
    pub fn run_for_secs(&mut self, secs: f64) -> Report {
        self.sim.run_until(SimTime::from_secs_f64(secs));
        self.report()
    }

    /// Collects the report at the current simulated time without running
    /// further.
    ///
    /// # Panics
    ///
    /// Panics if any attached invariant monitor recorded a violation —
    /// a monitored run must be clean before its results are read. Tools
    /// that want the report *and* the violations (the fuzzer's failure
    /// path) use [`Scenario::report_unchecked`] instead.
    pub fn report(&mut self) -> Report {
        self.sim.assert_no_violations();
        self.report_unchecked()
    }

    /// [`Scenario::report`] without the clean-monitors assertion: still
    /// collects results when invariant monitors recorded violations, so
    /// a caller can pair the report with `sim_mut().violations()`.
    pub fn report_unchecked(&mut self) -> Report {
        let bottleneck = self.sim.queue_stats(self.net.bottleneck);
        let sim = &self.sim;
        let queue_series = sim
            .monitor::<QueueRecorder>()
            .and_then(|r| r.samples(self.net.bottleneck))
            .map(<[_]>::to_vec);
        let cwnd = sim.monitor::<CwndRecorder>();
        let throughput = sim.monitor::<ThroughputRecorder>();
        let mut senders = Vec::new();
        for (i, &node) in self.net.senders.iter().enumerate() {
            let flow = FlowId(i as u64);
            let conn = sim.host::<TcpHost>(node).connection(0);
            let fe: &TcpHost = sim.host(self.net.front_end);
            senders.push(SenderReport {
                sender: i,
                cc: conn.cc_name(),
                trains: conn.completed_trains().to_vec(),
                stats: conn.stats(),
                unfinished: !conn.is_idle(),
                cwnd: cwnd.and_then(|r| r.series(flow)).cloned(),
                goodput_bytes: fe.receiver(i).goodput_bytes(),
                throughput: throughput.and_then(|r| r.meter(flow)).cloned(),
            });
        }
        Report {
            at: self.sim.now(),
            senders,
            bottleneck,
            queue_series,
        }
    }
}

/// Per-sender results.
#[derive(Clone, Debug)]
pub struct SenderReport {
    /// Sender index.
    pub sender: usize,
    /// Congestion-control name.
    pub cc: &'static str,
    /// Completed trains in completion order.
    pub trains: Vec<TrainRecord>,
    /// Connection counters.
    pub stats: ConnStats,
    /// Whether data was still outstanding at report time.
    pub unfinished: bool,
    /// Window evolution, when recorded.
    pub cwnd: Option<Series>,
    /// In-order bytes delivered at the front-end.
    pub goodput_bytes: u64,
    /// Binned goodput at the front-end, when metered.
    pub throughput: Option<ThroughputMeter>,
}

/// Results of a many-to-one run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Simulated time of the report.
    pub at: SimTime,
    /// One entry per sender.
    pub senders: Vec<SenderReport>,
    /// Bottleneck queue statistics.
    pub bottleneck: netsim::QueueStats,
    /// Bottleneck queue-length series, when recorded.
    pub queue_series: Option<Vec<netsim::QueueSample>>,
}

impl Report {
    /// Total trains completed across all senders.
    pub fn completed_trains(&self) -> usize {
        self.senders.iter().map(|s| s.trains.len()).sum()
    }

    /// Total retransmission timeouts across all senders.
    pub fn total_timeouts(&self) -> u64 {
        self.senders.iter().map(|s| s.stats.timeouts).sum()
    }

    /// All completion times across all senders.
    pub fn completion_times(&self) -> Vec<Dur> {
        self.senders
            .iter()
            .flat_map(|s| s.trains.iter().map(|t| t.completion_time()))
            .collect()
    }

    /// Summary of all completion times (the paper's ACT is `.mean`).
    pub fn act(&self) -> Summary {
        Summary::of(&self.completion_times())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_runs_the_motivating_example() {
        let mut sc = ScenarioBuilder::many_to_one(3).build();
        for s in 0..3 {
            sc.send_train(s, TrainSpec::at_secs(0.01, 50_000));
        }
        let report = sc.run_for_secs(1.0);
        assert_eq!(report.completed_trains(), 3);
        assert_eq!(report.total_timeouts(), 0);
        assert!(report.act().mean > 0.0);
        for s in &report.senders {
            assert_eq!(s.cc, "reno");
            assert!(!s.unfinished);
            assert_eq!(s.goodput_bytes % 1460, 0);
        }
    }

    #[test]
    fn trim_builder_configures_capacity() {
        let mut sc = ScenarioBuilder::many_to_one(2).trim().record_cwnd().build();
        sc.send_train(0, TrainSpec::at_secs(0.001, 20_000));
        sc.send_train(1, TrainSpec::at_secs(0.001, 20_000));
        let report = sc.run_for_secs(0.5);
        assert_eq!(report.completed_trains(), 2);
        assert_eq!(report.senders[0].cc, "trim");
        assert!(report.senders[0].cwnd.is_some());
    }

    #[test]
    fn queue_and_throughput_instrumentation() {
        let mut sc = ScenarioBuilder::many_to_one(2)
            .record_queue()
            .throughput_bin(Dur::from_millis(1))
            .build();
        sc.send_train(0, TrainSpec::at_secs(0.0, 100_000));
        sc.send_train(1, TrainSpec::at_secs(0.0, 100_000));
        let report = sc.run_for_secs(0.5);
        assert!(report.queue_series.is_some());
        let m = report.senders[0].throughput.as_ref().unwrap();
        assert_eq!(m.total_bytes(), report.senders[0].goodput_bytes);
        assert!(report.bottleneck.enqueued > 0);
    }

    /// Advancing a run in slices changes nothing: the Fig. 13(a) runs
    /// stop early by checking between 100 ms slices, which is only sound
    /// if slicing is unobservable.
    #[test]
    fn a_sliced_run_matches_one_run() {
        let run = |slice: Option<Dur>| {
            let link = LinkSpec::new(
                Bandwidth::mbps(100),
                Dur::from_micros(100),
                QueueConfig::drop_tail(100),
            );
            let mut sc = ScenarioBuilder::many_to_one(3).links(link).build();
            sc.send_train(0, TrainSpec::at_secs(0.0, 2_000_000_000));
            sc.send_train(1, TrainSpec::at_secs(0.0, 2_000_000_000));
            let sizes = (1..=40).map(|i| i * 7_000).collect();
            sc.send_session(2, SimTime::from_secs_f64(0.1), sizes, Dur::from_millis(2));
            let end = SimTime::from_secs_f64(2.0);
            match slice {
                None => sc.sim_mut().run_until(end),
                Some(step) => {
                    let mut t = SimTime::ZERO;
                    while t < end {
                        t = (t + step).min(end);
                        sc.sim_mut().run_until(t);
                    }
                }
            }
            let audit = sc.sim_mut().audit_stats();
            (sc.report(), audit)
        };
        let (whole, whole_audit) = run(None);
        let (sliced, sliced_audit) = run(Some(Dur::from_millis(100)));
        let trains = |s: &SenderReport| -> Vec<_> {
            s.trains
                .iter()
                .map(|t| {
                    let times = (t.enqueued_at, t.first_sent_at, t.completed_at);
                    (t.id, t.bytes, t.pkts, times)
                })
                .collect()
        };
        assert!(whole.senders[2].trains.len() > 10, "responses complete");
        for (w, s) in whole.senders.iter().zip(&sliced.senders) {
            assert_eq!(trains(w), trains(s), "sender {}", w.sender);
            assert_eq!(w.stats, s.stats, "sender {}", w.sender);
        }
        assert_eq!(whole.bottleneck, sliced.bottleneck);
        assert_eq!(whole_audit, sliced_audit);
        assert_eq!(whole.at, sliced.at);
    }

    #[test]
    fn asymmetric_links_build() {
        let sc = ScenarioBuilder::many_to_one(5)
            .sender_links(LinkSpec::new(
                Bandwidth::bps(1_100_000_000),
                Dur::from_micros(50),
                QueueConfig::drop_tail(100),
            ))
            .build();
        assert_eq!(sc.net().senders.len(), 5);
    }
}
