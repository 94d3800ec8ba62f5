//! Metamorphic and invariant-monitor properties of the full stack:
//! determinism, observe-only monitoring, bandwidth/delay
//! scale-invariance, and end-to-end fault detection.

use netsim::topology::LinkSpec;
use tcp_trim::prelude::*;

/// A digest of everything a run produced that a perturbation could
/// plausibly disturb: completion times, retransmission behavior, and
/// bottleneck-queue history.
fn run_digest(mut sc: tcp_trim::workload::scenario::Scenario, secs: f64) -> String {
    let report = sc.run_for_secs(secs);
    format!(
        "ct={:?} timeouts={} queue={:?}",
        report.completion_times(),
        report.total_timeouts(),
        report.bottleneck
    )
}

fn incast(senders: usize, trim: bool) -> tcp_trim::workload::scenario::Scenario {
    let mut b = ScenarioBuilder::many_to_one(senders);
    if trim {
        b = b.trim();
    }
    let mut sc = b.build();
    for s in 0..senders {
        sc.send_train(s, TrainSpec::at_secs(0.001, 250_000));
    }
    sc
}

/// Same seed, same topology, same schedule: the simulation is a pure
/// function of its inputs, across topology sizes and both CC policies.
#[test]
fn same_inputs_reproduce_identical_runs_across_topologies() {
    for &senders in &[1usize, 4, 8] {
        for &trim in &[false, true] {
            let a = run_digest(incast(senders, trim), 5.0);
            let b = run_digest(incast(senders, trim), 5.0);
            assert_eq!(a, b, "n={senders} trim={trim} diverged across reruns");
        }
    }
}

/// Monitoring is strictly observe-only: attaching a full standard
/// monitor set on top of whatever the build profile already attached
/// leaves every measurable output bit-identical.
#[test]
fn attached_monitors_never_perturb_the_simulation() {
    let baseline = run_digest(incast(8, true), 5.0);
    let mut sc = incast(8, true);
    for m in trim_check::standard_monitors() {
        sc.sim_mut().attach_monitor(m);
    }
    assert!(sc.sim_mut().monitors_enabled());
    let monitored = run_digest(sc, 5.0);
    assert_eq!(baseline, monitored, "monitors perturbed the event stream");
}

/// Scaling bandwidth up and propagation delay down by the same factor
/// leaves the bandwidth-delay product (and hence the whole congestion
/// dynamic, measured in packets) unchanged; completion times contract
/// by that factor. TRIM keeps the runs loss-free, so no non-scaling
/// constant (min-RTO) enters the picture.
#[test]
fn bandwidth_delay_rescaling_contracts_completion_times() {
    let base = incast(8, true);
    let scale = 2u64;
    let scaled_link = LinkSpec::new(
        Bandwidth::gbps(scale),
        Dur::from_micros(50 / scale),
        QueueConfig::drop_tail(100),
    );
    let mut scaled = ScenarioBuilder::many_to_one(8)
        .links(scaled_link)
        .trim()
        .build();
    for s in 0..8 {
        // The schedule offset must contract with time as well.
        scaled.send_train(s, TrainSpec::at_secs(0.001 / scale as f64, 250_000));
    }
    let mut base = base;
    let r_base = base.run_for_secs(5.0);
    let r_scaled = scaled.run_for_secs(5.0);
    assert_eq!(r_base.total_timeouts(), 0, "base run must be loss-free");
    assert_eq!(r_scaled.total_timeouts(), 0, "scaled run must be loss-free");
    let cts_base = r_base.completion_times();
    let cts_scaled = r_scaled.completion_times();
    assert_eq!(cts_base.len(), 8);
    assert_eq!(cts_scaled.len(), 8);
    for (i, (b, s)) in cts_base.iter().zip(&cts_scaled).enumerate() {
        // ct counts from t=0, schedule offset included; both scale.
        let expect = b.as_nanos() as f64 / scale as f64;
        let got = s.as_nanos() as f64;
        let rel = (got - expect).abs() / expect;
        assert!(
            rel < 0.02,
            "sender {i}: base={b:?} scaled={s:?} (rel err {rel:.4})"
        );
    }
}

/// An incast over an explicit bottleneck queue configuration, same
/// link rate/delay/schedule as [`incast`] but with Reno senders so the
/// AQM drop paths are actually exercised.
fn aqm_incast(senders: usize, queue: QueueConfig) -> tcp_trim::workload::scenario::Scenario {
    let link = LinkSpec::new(Bandwidth::gbps(1), Dur::from_micros(50), queue);
    let mut sc = ScenarioBuilder::many_to_one(senders).links(link).build();
    for s in 0..senders {
        sc.send_train(s, TrainSpec::at_secs(0.001, 250_000));
    }
    sc
}

/// [`run_digest`] without the no-violations assertion, for runs where
/// the stability oracles are *expected* to report (a tiny-buffer Reno
/// incast oscillates by design — that is data, not a bug).
fn run_digest_unchecked(mut sc: tcp_trim::workload::scenario::Scenario, secs: f64) -> String {
    sc.sim_mut().run_until(SimTime::from_secs_f64(secs));
    let report = sc.report_unchecked();
    format!(
        "ct={:?} timeouts={} queue={:?}",
        report.completion_times(),
        report.total_timeouts(),
        report.bottleneck
    )
}

/// Observe-only monitoring extends to the AQM disciplines: attaching
/// the full standard set *plus* the stability oracle family on top of a
/// RED or CoDel bottleneck leaves every measurable output — including
/// the early-drop and sojourn-drop counters — bit-identical.
#[test]
fn attached_monitors_never_perturb_aqm_simulations() {
    let red = QueueConfig::drop_tail(16).with_red(RedConfig {
        min_th: 4.0,
        max_th: 12.0,
        ..RedConfig::default()
    });
    let codel = QueueConfig::drop_tail(16).with_codel(CoDelConfig::datacenter());
    for queue in [red, codel] {
        let baseline = run_digest_unchecked(aqm_incast(8, queue), 5.0);
        let mut sc = aqm_incast(8, queue);
        for m in trim_check::standard_monitors() {
            sc.sim_mut().attach_monitor(m);
        }
        for m in trim_check::stability_monitors() {
            sc.sim_mut().attach_monitor(m);
        }
        assert!(sc.sim_mut().monitors_enabled());
        let monitored = run_digest_unchecked(sc, 5.0);
        assert_eq!(
            baseline, monitored,
            "monitors perturbed the AQM event stream ({queue:?})"
        );
    }
}

/// RED with both thresholds above the physical buffer can never reach
/// its early-drop region (the average is an EWMA of occupancies capped
/// by the buffer), so the queue must degenerate to drop-tail exactly:
/// same completion times, same timeouts, same queue history.
#[test]
fn red_with_thresholds_above_buffer_reproduces_drop_tail() {
    let buffer = 32;
    let drop_tail = run_digest(aqm_incast(8, QueueConfig::drop_tail(buffer)), 5.0);
    let inert_red = QueueConfig::drop_tail(buffer).with_red(RedConfig {
        min_th: 2.0 * buffer as f64,
        max_th: 4.0 * buffer as f64,
        ..RedConfig::default()
    });
    let red = run_digest(aqm_incast(8, inert_red), 5.0);
    assert_eq!(drop_tail, red, "inert RED diverged from drop-tail");
}

/// The stability oracle family is quiet on a healthy converged run:
/// TRIM over the standard drop-tail incast keeps the queue bounded and
/// the windows monotone, so neither the limit-cycle nor the
/// standing-queue detector may fire.
#[test]
fn stability_oracles_stay_silent_on_healthy_runs() {
    let mut sc = incast(8, true);
    for m in trim_check::stability_monitors() {
        sc.sim_mut().attach_monitor(m);
    }
    sc.sim_mut().run_until(SimTime::from_secs(5));
    sc.sim_mut().assert_no_violations();
}

/// The full monitor set is clean on healthy Reno and TRIM incasts and
/// catches a deliberately injected queue over-admission, attributing it
/// to a simulation time and flow.
#[test]
fn standard_monitors_pass_clean_runs_and_catch_injected_faults() {
    // Clean runs: every train completes with zero violations under the
    // full set (`report` panics on any).
    for trim in [false, true] {
        let mut sc = incast(8, trim);
        trim_check::attach_standard(sc.sim_mut());
        let report = sc.run_for_secs(5.0);
        assert_eq!(report.completed_trains(), 8, "trim={trim}");
    }

    // Faulty run: the queue admits 4 packets over capacity.
    let mut sc = incast(8, false);
    trim_check::attach_standard(sc.sim_mut());
    let bottleneck = sc.net().bottleneck;
    sc.sim_mut().inject_queue_overadmit(bottleneck, 4);
    sc.sim_mut().run_until(SimTime::from_secs(5));
    let violations = sc.sim_mut().violations();
    let v = violations
        .iter()
        .find(|v| v.monitor == "queue-bound")
        .expect("over-admission must be caught");
    assert!(v.at.as_nanos() > 0, "violation carries a simulation time");
    assert!(v.flow.is_some(), "violation carries the offending flow");
    assert!(v.detail.contains("exceeds cap"), "detail names the bound");
}
