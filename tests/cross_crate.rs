//! Cross-crate integration: wiring TCP flows over arbitrary `netsim`
//! topologies with the `trim-workload` helpers, the response-sequence and
//! scheduled-stop application models, and protocol interop.

use netsim::prelude::*;
use netsim::time::SimTime;
use netsim::topology::{self, LinkSpec};
use tcp_trim::tcp::{CcKind, Segment, TcpConfig, TcpHost};
use tcp_trim::workload::scenario::{schedule_train, wire_flow, TrainSpec};

fn gbit_link(buffer: usize) -> LinkSpec {
    LinkSpec::new(
        Bandwidth::gbps(1),
        Dur::from_micros(20),
        QueueConfig::drop_tail(buffer),
    )
}

/// TCP flows over the two-tier topology reach the front-end and complete.
#[test]
fn two_tier_topology_carries_tcp() {
    let mut sim: Simulator<Segment> = Simulator::new();
    let net = topology::two_tier(
        &mut sim,
        3,
        4,
        gbit_link(100),
        gbit_link(100),
        LinkSpec::new(
            Bandwidth::gbps(10),
            Dur::from_micros(10),
            QueueConfig::drop_tail(250),
        ),
        |_| Box::new(TcpHost::new()),
    );
    for (i, &server) in net.all_servers.iter().enumerate() {
        let idx = wire_flow(
            &mut sim,
            FlowId(i as u64),
            server,
            net.front_end,
            TcpConfig::default(),
            &CcKind::trim_with_capacity(10_000_000_000, 1460),
        );
        schedule_train(&mut sim, server, idx, TrainSpec::at_secs(0.001, 200_000));
    }
    sim.run_until(SimTime::from_secs(2));
    for &server in &net.all_servers {
        let host: &TcpHost = sim.host(server);
        assert!(host.connection(0).is_idle(), "transfer incomplete");
        assert_eq!(host.connection(0).completed_trains().len(), 1);
    }
}

/// Mixed protocols share a fat-tree without interfering with delivery.
#[test]
fn fat_tree_carries_mixed_protocols() {
    let mut sim: Simulator<Segment> = Simulator::new();
    let net = topology::fat_tree(
        &mut sim,
        4,
        LinkSpec::new(
            Bandwidth::gbps(10),
            Dur::from_micros(10),
            QueueConfig {
                capacity: QueueCapacity::Bytes(350_000),
                ecn_threshold: Some(65),
                aqm: netsim::QueueDiscipline::DropTail,
            },
        ),
        |_| Box::new(TcpHost::new()),
    );
    let protos = [
        CcKind::Reno,
        CcKind::Cubic,
        CcKind::Dctcp,
        CcKind::L2dct,
        CcKind::trim_with_capacity(10_000_000_000, 1460),
    ];
    let n = net.hosts.len();
    for (i, &src) in net.hosts.iter().enumerate() {
        let dst = net.hosts[(i + n / 2) % n];
        let idx = wire_flow(
            &mut sim,
            FlowId(i as u64),
            src,
            dst,
            TcpConfig::default(),
            &protos[i % protos.len()],
        );
        schedule_train(&mut sim, src, idx, TrainSpec::at_secs(0.001, 500_000));
    }
    sim.run_until(SimTime::from_secs(3));
    for &src in &net.hosts {
        let host: &TcpHost = sim.host(src);
        assert!(
            host.connection(0).is_idle(),
            "{} did not finish",
            host.connection(0).cc_name()
        );
    }
}

/// The response-sequence application model: each response is handed to
/// TCP only after the previous one completes plus think time.
#[test]
fn response_sequences_serialize_responses() {
    let mut sim: Simulator<Segment> = Simulator::new();
    let sw = sim.add_switch();
    let mut rx = TcpHost::new();
    rx.add_receiver(FlowId(0), TcpConfig::default());
    let server = sim.add_host(Box::new(rx));
    let mut tx = TcpHost::new();
    let idx = tx.add_sender(FlowId(0), server, TcpConfig::default(), &CcKind::Reno);
    tx.schedule_response_sequence(
        idx,
        SimTime::from_secs_f64(0.01),
        vec![10_000, 20_000, 30_000],
        Dur::from_millis(5),
    );
    let client = sim.add_host(Box::new(tx));
    let l = gbit_link(100);
    sim.connect(client, sw, l.bandwidth, l.delay, l.queue);
    sim.connect(server, sw, l.bandwidth, l.delay, l.queue);
    sim.run_until(SimTime::from_secs(1));

    let host: &TcpHost = sim.host(client);
    let trains = host.connection(0).completed_trains();
    assert_eq!(trains.len(), 3);
    // Sequencing: each response is enqueued after the previous completed
    // plus the 5 ms think time.
    for w in trains.windows(2) {
        let gap = w[1].enqueued_at.saturating_since(w[0].completed_at);
        assert_eq!(gap, Dur::from_millis(5), "think time respected");
    }
    assert_eq!(trains[0].bytes, 10_000);
    assert_eq!(trains[2].bytes, 30_000);
}

/// Scheduled stops truncate unsent data but deliver what was in flight.
#[test]
fn scheduled_stop_truncates_cleanly() {
    let mut sim: Simulator<Segment> = Simulator::new();
    let sw = sim.add_switch();
    let mut rx = TcpHost::new();
    rx.add_receiver(FlowId(0), TcpConfig::default());
    let server = sim.add_host(Box::new(rx));
    let mut tx = TcpHost::new();
    let idx = tx.add_sender(FlowId(0), server, TcpConfig::default(), &CcKind::Reno);
    // 100 MB enqueued at t=0; stopped at 50 ms: only ~6 MB fit at 1 Gbps.
    tx.schedule_train(idx, SimTime::ZERO, 100_000_000);
    tx.schedule_stop(idx, SimTime::from_secs_f64(0.05));
    let client = sim.add_host(Box::new(tx));
    let l = gbit_link(100);
    sim.connect(client, sw, l.bandwidth, l.delay, l.queue);
    sim.connect(server, sw, l.bandwidth, l.delay, l.queue);
    sim.run_until(SimTime::from_secs(5));

    let host: &TcpHost = sim.host(client);
    let conn = host.connection(0);
    assert!(conn.is_idle(), "in-flight data drains after the stop");
    let trains = conn.completed_trains();
    assert_eq!(trains.len(), 1, "the truncated train still completes");
    assert!(
        trains[0].completed_at < SimTime::from_secs_f64(0.1),
        "no transmission continues after the stop: {}",
        trains[0].completed_at
    );
    let rx_host: &TcpHost = sim.host(server);
    let delivered = rx_host.receiver(0).goodput_bytes();
    assert!(delivered > 1_000_000, "some data was delivered");
    assert!(delivered < 20_000_000, "but nowhere near the full 100 MB");
}

/// ECN marks survive the full path: switch queue -> receiver echo ->
/// sender controller (DCTCP's control loop end to end).
#[test]
fn ecn_feedback_loop_closes() {
    let mut sim: Simulator<Segment> = Simulator::new();
    let sw = sim.add_switch();
    let mut rx = TcpHost::new();
    for i in 0..4 {
        rx.add_receiver(FlowId(i), TcpConfig::default());
    }
    let fe = sim.add_host(Box::new(rx));
    let qc = QueueConfig::drop_tail(100).with_ecn_threshold(10);
    let (_, bottleneck) = sim.connect(fe, sw, Bandwidth::gbps(1), Dur::from_micros(20), qc);
    let mut senders = Vec::new();
    for i in 0..4 {
        let mut tx = TcpHost::new();
        let idx = tx.add_sender(FlowId(i), fe, TcpConfig::default(), &CcKind::Dctcp);
        tx.schedule_train(idx, SimTime::ZERO, 3_000_000);
        let node = sim.add_host(Box::new(tx));
        sim.connect(node, sw, Bandwidth::gbps(1), Dur::from_micros(20), qc);
        senders.push(node);
    }
    sim.run_until(SimTime::from_secs(2));
    let stats = sim.queue_stats(bottleneck);
    assert!(stats.ecn_marked > 0, "switch marked packets");
    assert_eq!(stats.dropped, 0, "marking prevented drops");
    for &s in &senders {
        let host: &TcpHost = sim.host(s);
        assert!(host.connection(0).is_idle());
    }
}
