//! Interest masks are unobservable: every built-in monitor records the
//! same violations, in the same order, whether the engine hands it only
//! the event kinds its `interests()` mask declares or every event.
//!
//! Each scenario runs twice, once with every monitor attached directly
//! and once with every monitor behind a wrapper that declares all
//! kinds. The scenarios are chosen to make the monitors fire: an
//! injected queue over-admission, RED and CoDel runs under the
//! stability oracles, and every spec in `corpus/`. The unfiltered runs
//! also record which event kinds the engine emits: together the
//! scenarios must emit every kind a built-in monitor reads.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::mpsc::{self, Sender};

use netsim::monitor::{interest, AuditStats, Findings, InvariantMonitor, MonitorEvent, Violation};
use netsim::{Dur, SimTime, Simulator, ThroughputRecorder};
use trim_check::{RedStability, MIN_AMPLITUDE};
use trim_core::fluid::RedFluid;
use trim_tcp::Segment;
use trim_workload::scenario::{ScenarioBuilder, TrainSpec};
use trim_workload::spec::{ScenarioSpec, SpecAqm, SpecFault};

/// Forwards to the wrapped monitor but asks for every event kind.
struct Unfiltered(Box<dyn InvariantMonitor>);

impl InvariantMonitor for Unfiltered {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn interests(&self) -> u32 {
        interest::ALL
    }
    fn observe(&mut self, at: SimTime, ev: &MonitorEvent, out: &mut Findings<'_>) {
        self.0.observe(at, ev, out);
    }
    fn finalize(&mut self, at: SimTime, audit: &AuditStats, out: &mut Findings<'_>) {
        self.0.finalize(at, audit, out);
    }
}

/// Sends each event kind's bit the first time it sees that kind.
struct KindRecorder {
    seen: u32,
    kinds: Sender<u32>,
}

impl InvariantMonitor for KindRecorder {
    fn name(&self) -> &'static str {
        "kind-recorder"
    }
    fn interests(&self) -> u32 {
        interest::ALL
    }
    fn observe(&mut self, _at: SimTime, ev: &MonitorEvent, _: &mut Findings<'_>) {
        let bit = ev.kind_bit();
        if self.seen & bit == 0 {
            self.seen |= bit;
            self.kinds.send(bit).expect("the test holds the receiver");
        }
    }
}

/// Attaches `monitors` directly (`None`), or each behind [`Unfiltered`]
/// plus a [`KindRecorder`] reporting to `Some(kinds)`.
fn attach(
    sim: &mut Simulator<Segment>,
    monitors: Vec<Box<dyn InvariantMonitor>>,
    unfiltered: Option<&Sender<u32>>,
) {
    for m in monitors {
        if unfiltered.is_some() {
            sim.attach_monitor(Box::new(Unfiltered(m)));
        } else {
            sim.attach_monitor(m);
        }
    }
    if let Some(kinds) = unfiltered {
        sim.attach_monitor(Box::new(KindRecorder {
            seen: 0,
            kinds: kinds.clone(),
        }));
    }
}

fn violations(sim: &Simulator<Segment>) -> Vec<Violation> {
    sim.violations().into_iter().cloned().collect()
}

/// The over-admit fault run: an 8-way incast whose bottleneck admits 4
/// packets past its cap.
fn overadmit_incast(unfiltered: Option<&Sender<u32>>) -> Vec<Violation> {
    let mut sc = ScenarioBuilder::many_to_one(8).build();
    attach(sc.sim_mut(), trim_check::standard_monitors(), unfiltered);
    for s in 0..8 {
        sc.send_train(s, TrainSpec::at_secs(0.001, 300_000));
    }
    let bottleneck = sc.net().bottleneck;
    let sim = sc.sim_mut();
    sim.inject_queue_overadmit(bottleneck, 4);
    sim.run_until(SimTime::from_secs_f64(5.0));
    violations(sim)
}

/// Every monitor a spec's replay attaches, plus the RED mean-field
/// cross-check on a RED spec, so all twelve built-in monitors run.
fn spec_monitors(spec: &ScenarioSpec) -> Vec<Box<dyn InvariantMonitor>> {
    let mut monitors = trim_check::standard_monitors();
    if spec.stability {
        monitors.extend(trim_check::stability_monitors());
    }
    if let SpecAqm::Red {
        min_th,
        max_th,
        max_p_milli,
        wq_micro,
        ..
    } = spec.aqm
    {
        let red = RedFluid {
            min_th: f64::from(min_th),
            max_th: f64::from(max_th),
            max_p: f64::from(max_p_milli) / 1_000.0,
            wq: f64::from(wq_micro) / 1_000_000.0,
        };
        let capacity_pps = spec.bottleneck_bps() as f64 / (1500.0 * 8.0);
        monitors.push(Box::new(RedStability::new(
            capacity_pps,
            spec.base_rtt_ns(),
            spec.senders as f64,
            &red,
            MIN_AMPLITUDE,
        )));
    }
    monitors
}

/// [`ScenarioSpec::run`] with the monitors of [`spec_monitors`].
fn run_spec(spec: &ScenarioSpec, unfiltered: Option<&Sender<u32>>) -> Vec<Violation> {
    spec.validate().expect("valid spec");
    let mut sc = spec.build();
    attach(sc.sim_mut(), spec_monitors(spec), unfiltered);
    if let Some(SpecFault::QueueOveradmit { extra }) = spec.fault {
        let ch = sc.net().bottleneck;
        sc.sim_mut().inject_queue_overadmit(ch, extra);
    }
    for t in &spec.trains {
        let at = SimTime::from_nanos(t.at_us * 1_000);
        sc.send_train(t.sender, TrainSpec { at, bytes: t.bytes });
    }
    for s in &spec.sessions {
        sc.send_session(
            s.sender,
            SimTime::from_nanos(s.at_us * 1_000),
            s.sizes.clone(),
            Dur::from_micros(s.think_us),
        );
    }
    sc.sim_mut()
        .run_until(SimTime::ZERO + Dur::from_millis(spec.horizon_ms));
    violations(sc.sim_mut())
}

/// A stability-monitored spec: `senders` Reno senders through `aqm`.
fn stability_spec(senders: usize, aqm: &str) -> ScenarioSpec {
    let mut text = format!(
        "seed = 3\nsenders = {senders}\nlink_mbps = 1000\ndelay_us = 50\n\
         buffer_pkts = 64\ncc = reno\nmin_rto_us = 10000\nhorizon_ms = 400\n\
         aqm = {aqm}\nstability = on\n"
    );
    for s in 0..senders {
        text.push_str(&format!("train = {s} {} 20000000\n", 100 * s));
    }
    ScenarioSpec::from_text(&text).expect("well-formed spec")
}

/// Runs `run` with direct and with unfiltered monitors, asserts the
/// two violation lists are equal, and notes which monitors fired.
fn same_either_way(
    label: &str,
    run: impl Fn(Option<&Sender<u32>>) -> Vec<Violation>,
    fired: &mut BTreeSet<&'static str>,
    kinds: &Sender<u32>,
) {
    let direct = run(None);
    assert_eq!(direct, run(Some(kinds)), "{label}");
    fired.extend(direct.iter().map(|v| v.monitor));
}

/// The one test of this binary: it switches the builders' own monitor
/// policy off so each run attaches exactly the monitors it names.
#[test]
fn interest_masks_are_unobservable() {
    std::env::set_var("TRIM_CHECK_MONITORS", "off");
    let mut fired = BTreeSet::new();
    let (kinds, emitted) = mpsc::channel();

    same_either_way("overadmit incast", overadmit_incast, &mut fired, &kinds);
    // RED's fast average keeps the loop oscillating. CoDel with a 50 ms
    // target, far above what the 64-packet buffer can delay, lets the
    // queue stand; with a 100 us target it drops from the head.
    for (label, senders, aqm) in [
        ("red stability", 4, "red:9:20:100:200000"),
        ("codel standing", 16, "codel:50000:100000"),
        ("codel dropping", 4, "codel:100:1000"),
    ] {
        let spec = stability_spec(senders, aqm);
        same_either_way(label, |u| run_spec(&spec, u), &mut fired, &kinds);
    }
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&corpus)
        .expect("corpus directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "spec"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no specs in {}", corpus.display());
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable spec");
        let spec = ScenarioSpec::from_text(&text).expect("well-formed corpus spec");
        let label = path.display().to_string();
        same_either_way(&label, |u| run_spec(&spec, u), &mut fired, &kinds);
    }

    // The comparison is only as strong as the violations it compares.
    for monitor in [
        "queue-bound",
        "cwnd-limit-cycle",
        "standing-queue",
        "red-stability",
    ] {
        assert!(fired.contains(monitor), "{monitor} never fired: {fired:?}");
    }
    // ...and only as broad as the event kinds the runs emit.
    let emitted = emitted.try_iter().fold(0, |acc, bit| acc | bit);
    let mut monitors = trim_check::standard_monitors();
    monitors.extend(trim_check::stability_monitors());
    // The built-in monitors read every kind but goodput, which only the
    // throughput recorder of `netsim::trace` reads.
    let goodput = ThroughputRecorder::new(Dur::from_millis(1), []).interests();
    let read = monitors.iter().fold(goodput, |acc, m| acc | m.interests());
    assert_eq!(
        emitted,
        read,
        "read but never emitted: {:#x}; emitted but never read: {:#x}",
        read & !emitted,
        emitted & !read
    );
}
