//! End-to-end tests: full TCP transfers over simulated networks.

use netsim::prelude::*;
use netsim::time::SimTime;
use trim_tcp::{CcKind, Segment, TcpConfig, TcpHost};

const MSS: u32 = 1460;

/// Builds a many-to-one network with one sending connection per sender
/// host, all toward a single front-end, and returns
/// `(sim, sender node ids, front-end node id, bottleneck channel)`.
fn incast(
    n: usize,
    cc: &CcKind,
    cfg: TcpConfig,
    buffer_pkts: usize,
    ecn_threshold: Option<usize>,
) -> (Simulator<Segment>, Vec<NodeId>, NodeId, ChannelId) {
    incast_with_delay(n, cc, cfg, buffer_pkts, ecn_threshold, Dur::from_micros(50))
}

/// Like [`incast`] but with a configurable per-link propagation delay.
fn incast_with_delay(
    n: usize,
    cc: &CcKind,
    cfg: TcpConfig,
    buffer_pkts: usize,
    ecn_threshold: Option<usize>,
    delay: Dur,
) -> (Simulator<Segment>, Vec<NodeId>, NodeId, ChannelId) {
    let mut sim = Simulator::new();
    let sw = sim.add_switch();

    let mut fe_host = TcpHost::new();
    for i in 0..n {
        fe_host.add_receiver(FlowId(i as u64), cfg);
    }
    let fe = sim.add_host(Box::new(fe_host));
    let mut qc = QueueConfig::drop_tail(buffer_pkts);
    if let Some(t) = ecn_threshold {
        qc = qc.with_ecn_threshold(t);
    }
    let (_, bottleneck) = sim.connect(fe, sw, Bandwidth::gbps(1), delay, qc);

    let mut senders = Vec::new();
    for i in 0..n {
        let mut h = TcpHost::new();
        h.add_sender(FlowId(i as u64), fe, cfg, cc);
        let node = sim.add_host(Box::new(h));
        sim.connect(
            node,
            sw,
            Bandwidth::gbps(1),
            delay,
            QueueConfig::drop_tail(buffer_pkts),
        );
        senders.push(node);
    }
    (sim, senders, fe, bottleneck)
}

#[test]
fn single_flow_bulk_transfer_completes() {
    let (mut sim, senders, _fe, _b) = incast(1, &CcKind::Reno, TcpConfig::default(), 100, None);
    sim.host_mut::<TcpHost>(senders[0])
        .schedule_train(0, SimTime::from_secs_f64(0.001), 1_000_000);
    sim.run_until(SimTime::from_secs(2));
    let host: &TcpHost = sim.host(senders[0]);
    let conn = host.connection(0);
    assert!(
        conn.is_idle(),
        "transfer incomplete: flight={}",
        conn.flight()
    );
    let rec = &conn.completed_trains()[0];
    assert_eq!(rec.bytes, 1_000_000);
    assert_eq!(rec.pkts, 1_000_000u64.div_ceil(MSS as u64));
    // 1 MB over ~1 Gbps should finish within ~15 ms including slow start.
    let ct = rec.completion_time().as_secs_f64();
    assert!(ct > 0.008 && ct < 0.05, "completion time {ct}s");
}

#[test]
fn throughput_close_to_line_rate() {
    let (mut sim, senders, fe, _b) = incast(1, &CcKind::Reno, TcpConfig::default(), 100, None);
    sim.host_mut::<TcpHost>(senders[0])
        .schedule_train(0, SimTime::ZERO, 10_000_000);
    let flow = sim.host::<TcpHost>(fe).receiver(0).flow();
    let bin = Dur::from_millis(10);
    sim.attach_monitor(Box::new(ThroughputRecorder::new(bin, [flow])));
    sim.run_until(SimTime::from_secs(2));
    let host: &TcpHost = sim.host(senders[0]);
    assert!(host.connection(0).is_idle());
    let rx: &TcpHost = sim.host(fe);
    let meter = sim
        .monitor::<ThroughputRecorder>()
        .unwrap()
        .meter(flow)
        .unwrap();
    assert_eq!(meter.total_bytes(), rx.receiver(0).goodput_bytes());
    // Steady-state bins should carry >900 Mbps of goodput.
    let peak = meter
        .mbps_series()
        .iter()
        .map(|(_, m)| *m)
        .fold(0.0f64, f64::max);
    assert!(peak > 900.0, "peak goodput {peak} Mbps");
}

#[test]
fn no_timeouts_or_losses_for_single_flow() {
    let (mut sim, senders, fe, b) = incast(1, &CcKind::Reno, TcpConfig::default(), 100, None);
    sim.host_mut::<TcpHost>(senders[0])
        .schedule_train(0, SimTime::ZERO, 2_000_000);
    sim.run_until(SimTime::from_secs(2));
    let host: &TcpHost = sim.host(senders[0]);
    let stats = host.connection(0).stats();
    // BDP is ~9 pkts and the buffer 100: one flow in slow start will
    // eventually overfill it (cwnd doubles), so allow fast retransmits but
    // demand no RTO with NewReno recovery.
    assert_eq!(stats.timeouts, 0, "stats: {stats:?}");
    let _ = sim.queue_stats(b);
    let rx: &TcpHost = sim.host(fe);
    assert_eq!(
        rx.receiver(0).goodput_bytes() % MSS as u64,
        0,
        "whole packets delivered"
    );
}

#[test]
fn incast_reno_suffers_drops_and_recovers_all_data() {
    let cfg = TcpConfig::default();
    let (mut sim, senders, fe, b) = incast(5, &CcKind::Reno, cfg, 100, None);
    for (i, &s) in senders.iter().enumerate() {
        // All five blast 500 KB simultaneously.
        sim.host_mut::<TcpHost>(s).schedule_train(
            0,
            SimTime::from_secs_f64(0.001 + i as f64 * 1e-6),
            500_000,
        );
    }
    sim.run_until(SimTime::from_secs(5));
    let drops = sim.queue_stats(b).dropped;
    assert!(
        drops > 0,
        "five synchronized slow-starts must overflow 100 pkts"
    );
    let rx: &TcpHost = sim.host(fe);
    for i in 0..5 {
        assert_eq!(
            rx.receiver(i).goodput_bytes(),
            500_000u64.div_ceil(MSS as u64) * MSS as u64,
            "flow {i} delivered everything despite drops"
        );
    }
    for &s in &senders {
        let host: &TcpHost = sim.host(s);
        assert!(host.connection(0).is_idle(), "sender did not finish");
    }
}

#[test]
fn rto_fires_when_entire_window_is_lost() {
    // A 2-packet buffer forces tail loss that dupacks cannot repair.
    let cfg = TcpConfig::default().with_min_rto(Dur::from_millis(20));
    let (mut sim, senders, _fe, _b) = incast(4, &CcKind::Reno, cfg, 2, None);
    for &s in &senders {
        sim.host_mut::<TcpHost>(s)
            .schedule_train(0, SimTime::ZERO, 300_000);
    }
    sim.run_until(SimTime::from_secs(10));
    let total_timeouts: u64 = senders
        .iter()
        .map(|&s| sim.host::<TcpHost>(s).connection(0).stats().timeouts)
        .sum();
    assert!(total_timeouts > 0, "tiny buffer must force RTOs");
    for &s in &senders {
        let host: &TcpHost = sim.host(s);
        assert!(
            host.connection(0).is_idle(),
            "all data eventually delivered"
        );
    }
}

#[test]
fn dctcp_keeps_queue_short_with_ecn() {
    let cfg = TcpConfig::default();
    // DCTCP marking threshold ~20 pkts at 1 Gbps (per the DCTCP paper).
    let (mut sim, senders, _fe, b) = incast(5, &CcKind::Dctcp, cfg, 100, Some(20));
    for &s in &senders {
        sim.host_mut::<TcpHost>(s)
            .schedule_train(0, SimTime::ZERO, 1_000_000);
    }
    sim.run_until(SimTime::from_secs(2));
    let stats = sim.queue_stats(b);
    assert_eq!(stats.dropped, 0, "ECN should prevent overflow");
    // The initial synchronized slow start overshoots while alpha converges;
    // steady state must hold the *average* queue near the marking point.
    let aql = stats.average_len(sim.now().saturating_since(SimTime::ZERO));
    assert!(aql < 40.0, "DCTCP bounds the average queue, aql={aql}");
    for &s in &senders {
        let host: &TcpHost = sim.host(s);
        assert!(host.connection(0).is_idle());
    }
}

#[test]
fn trim_avoids_timeouts_in_onoff_incast() {
    // The paper's core claim (Fig. 6/7): ON/OFF trains + a big LPT burst
    // cause Reno timeouts but not TRIM timeouts.
    let run = |cc: &CcKind| -> (u64, u64) {
        let cfg = TcpConfig::default();
        let (mut sim, senders, _fe, b) = incast(5, cc, cfg, 100, None);
        for &s in &senders {
            let host = sim.host_mut::<TcpHost>(s);
            // 200 small responses, 1 ms apart, from t=0.1s...
            for r in 0..200 {
                host.schedule_train(0, SimTime::from_secs_f64(0.1 + r as f64 * 0.001), 6_000);
            }
            // ...then a long train at t=0.5s.
            host.schedule_train(0, SimTime::from_secs_f64(0.5), 150_000);
        }
        sim.run_until(SimTime::from_secs(3));
        let timeouts = senders
            .iter()
            .map(|&s| sim.host::<TcpHost>(s).connection(0).stats().timeouts)
            .sum();
        (timeouts, sim.queue_stats(b).dropped)
    };
    let (reno_timeouts, reno_drops) = run(&CcKind::Reno);
    let trim = CcKind::trim_with_capacity(1_000_000_000, MSS);
    let (trim_timeouts, trim_drops) = run(&trim);
    assert!(
        reno_timeouts > 0,
        "Reno must hit timeouts in this scenario (got {reno_timeouts}, {reno_drops} drops)"
    );
    assert_eq!(
        trim_timeouts, 0,
        "TRIM must avoid timeouts ({trim_drops} drops)"
    );
    assert!(trim_drops < reno_drops, "TRIM drops fewer packets");
}

#[test]
fn trim_probes_fire_on_train_gaps() {
    let trim = CcKind::trim_with_capacity(1_000_000_000, MSS);
    let (mut sim, senders, _fe, _b) = incast(1, &trim, TcpConfig::default(), 100, None);
    let host = sim.host_mut::<TcpHost>(senders[0]);
    for r in 0..10 {
        host.schedule_train(0, SimTime::from_secs_f64(0.01 + r as f64 * 0.005), 30_000);
    }
    sim.run_until(SimTime::from_secs(1));
    let host: &TcpHost = sim.host(senders[0]);
    let stats = host.connection(0).stats();
    assert!(host.connection(0).is_idle());
    assert!(
        stats.probes_sent >= 8,
        "each 5 ms gap should probe (sent {})",
        stats.probes_sent
    );
    assert_eq!(stats.timeouts, 0);
}

#[test]
fn gip_restarts_slow_next_train() {
    // GIP restarts at cwnd=2, paying slow start on every train; when the
    // network has capacity for the inherited window (BDP-dominated path,
    // train smaller than BDP+buffer), TRIM's tuned inheritance wins —
    // the paper's related-work argument against fixed restart.
    let run = |cc: &CcKind| -> f64 {
        let (mut sim, senders, _fe, _b) = incast_with_delay(
            1,
            cc,
            TcpConfig::default(),
            100,
            None,
            Dur::from_micros(500),
        );
        let host = sim.host_mut::<TcpHost>(senders[0]);
        host.schedule_train(0, SimTime::from_secs_f64(0.001), 200_000);
        host.schedule_train(0, SimTime::from_secs_f64(0.1), 60_000);
        sim.run_until(SimTime::from_secs(1));
        let host: &TcpHost = sim.host(senders[0]);
        let recs = host.connection(0).completed_trains();
        assert_eq!(recs.len(), 2);
        recs[1].completion_time().as_secs_f64()
    };
    let trim_ct = run(&CcKind::trim_with_capacity(1_000_000_000, MSS));
    let gip_ct = run(&CcKind::Gip);
    assert!(
        trim_ct < gip_ct,
        "TRIM ({trim_ct}s) should beat GIP restart ({gip_ct}s) on an idle link"
    );
}

#[test]
fn cubic_completes_and_competes() {
    let (mut sim, senders, _fe, _b) = incast(2, &CcKind::Cubic, TcpConfig::default(), 100, None);
    for &s in &senders {
        sim.host_mut::<TcpHost>(s)
            .schedule_train(0, SimTime::ZERO, 2_000_000);
    }
    sim.run_until(SimTime::from_secs(3));
    for &s in &senders {
        let host: &TcpHost = sim.host(s);
        assert!(host.connection(0).is_idle());
    }
}

#[test]
fn l2dct_short_flow_finishes_quicker_than_long_started_together() {
    let cfg = TcpConfig::default();
    let (mut sim, senders, _fe, _b) = incast(2, &CcKind::L2dct, cfg, 100, Some(20));
    sim.host_mut::<TcpHost>(senders[0])
        .schedule_train(0, SimTime::ZERO, 5_000_000);
    sim.host_mut::<TcpHost>(senders[1])
        .schedule_train(0, SimTime::from_secs_f64(0.02), 100_000);
    sim.run_until(SimTime::from_secs(3));
    let long: &TcpHost = sim.host(senders[0]);
    let short: &TcpHost = sim.host(senders[1]);
    assert!(long.connection(0).is_idle() && short.connection(0).is_idle());
    let short_ct = short.connection(0).completed_trains()[0]
        .completion_time()
        .as_secs_f64();
    assert!(
        short_ct < 0.05,
        "LAS weighting should let the short flow cut through, took {short_ct}s"
    );
}

#[test]
fn persistent_connection_reuses_sequence_space() {
    let (mut sim, senders, fe, _b) = incast(1, &CcKind::Reno, TcpConfig::default(), 100, None);
    let host = sim.host_mut::<TcpHost>(senders[0]);
    for r in 0..50 {
        host.schedule_train(0, SimTime::from_secs_f64(r as f64 * 0.002), 4_000);
    }
    sim.run_until(SimTime::from_secs(1));
    let host: &TcpHost = sim.host(senders[0]);
    assert_eq!(host.connection(0).completed_trains().len(), 50);
    // Train ids are sequential and completion times ordered.
    for (i, rec) in host.connection(0).completed_trains().iter().enumerate() {
        assert_eq!(rec.id, i as u64);
        assert!(rec.completed_at >= rec.enqueued_at);
    }
    let rx: &TcpHost = sim.host(fe);
    let delivered = rx.receiver(0).stats().delivered_pkts;
    let expected: u64 = 50 * 4_000u64.div_ceil(MSS as u64);
    assert_eq!(delivered, expected);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let (mut sim, senders, _fe, b) = incast(5, &CcKind::Reno, TcpConfig::default(), 50, None);
        for &s in &senders {
            sim.host_mut::<TcpHost>(s)
                .schedule_train(0, SimTime::ZERO, 300_000);
        }
        sim.run_until(SimTime::from_secs(3));
        let timeouts: u64 = senders
            .iter()
            .map(|&s| sim.host::<TcpHost>(s).connection(0).stats().timeouts)
            .sum();
        (
            timeouts,
            sim.queue_stats(b).dropped,
            sim.delivered_packets(),
        )
    };
    assert_eq!(run(), run());
}
