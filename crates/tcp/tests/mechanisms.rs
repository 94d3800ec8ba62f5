//! White-box tests of the TCP mechanisms, using deterministic fault
//! injection to construct exact loss patterns: fast retransmit, NewReno
//! partial ACKs, tail-loss RTO, go-back-N recovery, ACK loss tolerance,
//! and TRIM probe loss.

use netsim::prelude::*;
use netsim::time::SimTime;
use trim_tcp::{CcKind, ConnStats, Segment, TcpConfig, TcpHost};

const MSS: u32 = 1460;

/// One sender directly linked to one receiver; returns the simulator,
/// the sender node, the data channel (tx -> rx) and the ACK channel
/// (rx -> tx).
fn pair(
    cc: &CcKind,
    cfg: TcpConfig,
    bytes: u64,
) -> (Simulator<Segment>, NodeId, ChannelId, ChannelId) {
    let (sim, tx_node, _, data_ch, ack_ch) = pair_with_rx(cc, cfg, bytes);
    (sim, tx_node, data_ch, ack_ch)
}

/// [`pair`], also returning the receiver node (third).
fn pair_with_rx(
    cc: &CcKind,
    cfg: TcpConfig,
    bytes: u64,
) -> (Simulator<Segment>, NodeId, NodeId, ChannelId, ChannelId) {
    let mut sim: Simulator<Segment> = Simulator::new();
    let mut rx = TcpHost::new();
    rx.add_receiver(FlowId(0), cfg);
    let rx_node = sim.add_host(Box::new(rx));
    let mut tx = TcpHost::new();
    let idx = tx.add_sender(FlowId(0), rx_node, cfg, cc);
    tx.schedule_train(idx, SimTime::from_secs_f64(0.001), bytes);
    let tx_node = sim.add_host(Box::new(tx));
    let (data_ch, ack_ch) = sim.connect(
        tx_node,
        rx_node,
        Bandwidth::gbps(1),
        Dur::from_micros(50),
        QueueConfig::drop_tail(1000),
    );
    (sim, tx_node, rx_node, data_ch, ack_ch)
}

fn finish(sim: &mut Simulator<Segment>, tx: NodeId, expect_pkts: u64) -> ConnStats {
    sim.run_until(SimTime::from_secs(10));
    let host: &TcpHost = sim.host(tx);
    let conn = host.connection(0);
    assert!(conn.is_idle(), "transfer incomplete: {:?}", conn.stats());
    assert_eq!(conn.completed_trains()[0].pkts, expect_pkts);
    conn.stats()
}

#[test]
fn clean_transfer_has_no_retransmissions() {
    let (mut sim, tx, _, _) = pair(&CcKind::Reno, TcpConfig::default(), 20 * MSS as u64);
    let stats = finish(&mut sim, tx, 20);
    assert_eq!(stats.rtx_sent, 0);
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.fast_retransmits, 0);
    assert_eq!(stats.pkts_sent, 20);
}

#[test]
fn single_loss_repaired_by_fast_retransmit() {
    let (mut sim, tx, data_ch, _) = pair(&CcKind::Reno, TcpConfig::default(), 30 * MSS as u64);
    // Lose the 6th data packet: plenty of later packets generate dupacks.
    sim.inject_channel_drops(data_ch, [5]);
    let stats = finish(&mut sim, tx, 30);
    assert_eq!(stats.fast_retransmits, 1, "{stats:?}");
    assert_eq!(stats.timeouts, 0, "dupacks repair without RTO: {stats:?}");
    assert_eq!(stats.rtx_sent, 1, "exactly the lost packet resent");
    // Completion well under the 200 ms RTO proves the repair was fast.
    let host: &TcpHost = sim.host(tx);
    let ct = host.connection(0).completed_trains()[0]
        .completion_time()
        .as_secs_f64();
    assert!(ct < 0.05, "completed in {ct}s");
}

#[test]
fn two_separated_losses_use_newreno_partial_ack() {
    let (mut sim, tx, data_ch, _) = pair(&CcKind::Reno, TcpConfig::default(), 40 * MSS as u64);
    // Two holes in the same window: the partial ACK after repairing the
    // first hole triggers the second retransmission without leaving
    // recovery (one fast-retransmit event, two retransmissions, no RTO).
    sim.inject_channel_drops(data_ch, [6, 12]);
    let stats = finish(&mut sim, tx, 40);
    assert_eq!(stats.fast_retransmits, 1, "{stats:?}");
    assert_eq!(stats.timeouts, 0, "{stats:?}");
    assert_eq!(stats.rtx_sent, 2, "{stats:?}");
}

#[test]
fn newreno_repairs_scattered_and_contiguous_holes() {
    // A window large enough to send the whole train in one burst, so
    // channel arrival indices equal sequence numbers and the losses hit
    // the intended packets even after retransmissions begin.
    let cfg = TcpConfig {
        init_cwnd: 128.0,
        ..TcpConfig::default().with_min_rto(Dur::from_millis(20))
    };
    let (mut sim, tx, rx, data_ch, _) = pair_with_rx(&CcKind::Reno, cfg, 80 * MSS as u64);
    sim.inject_channel_drops(data_ch, [4, 9, 14, 40, 41, 42, 70]);
    let stats = finish(&mut sim, tx, 80);
    assert!(stats.rtx_sent >= 7, "every hole is resent: {stats:?}");
    let rx = sim.host::<TcpHost>(rx).receiver(0).stats();
    assert_eq!(rx.delivered_pkts, 80, "{rx:?}");
}

#[test]
fn receiver_acks_every_packet() {
    let (mut sim, tx, rx, _, _) =
        pair_with_rx(&CcKind::Reno, TcpConfig::default(), 100 * MSS as u64);
    let stats = finish(&mut sim, tx, 100);
    assert_eq!(stats.acks_received, 100, "{stats:?}");
    let rx = sim.host::<TcpHost>(rx).receiver(0).stats();
    assert_eq!(rx.acks_sent, rx.pkts_received, "{rx:?}");
    assert_eq!(rx.pkts_received, 100, "{rx:?}");
}

#[test]
fn tail_loss_needs_the_rto() {
    let cfg = TcpConfig::default().with_min_rto(Dur::from_millis(20));
    let (mut sim, tx, data_ch, _) = pair(&CcKind::Reno, cfg, 10 * MSS as u64);
    // Lose the last three packets: at most two dupacks can come back, so
    // fast retransmit never fires and the RTO must recover.
    sim.inject_channel_drops(data_ch, [7, 8, 9]);
    let stats = finish(&mut sim, tx, 10);
    assert_eq!(stats.fast_retransmits, 0, "{stats:?}");
    assert!(stats.timeouts >= 1, "{stats:?}");
    assert!(stats.rtx_sent >= 3, "the tail is retransmitted: {stats:?}");
}

#[test]
fn go_back_n_resends_the_outstanding_window() {
    let cfg = TcpConfig::default().with_min_rto(Dur::from_millis(20));
    let (mut sim, tx, data_ch, _) = pair(&CcKind::Reno, cfg, 12 * MSS as u64);
    // Slow start sends 2, then 4, ... Drop everything from packet 3 on
    // within the first two windows: the whole window is lost, RTO fires,
    // go-back-N resends from the last cumulative ACK.
    sim.inject_channel_drops(data_ch, [2, 3, 4, 5]);
    let stats = finish(&mut sim, tx, 12);
    assert!(stats.timeouts >= 1, "{stats:?}");
    assert!(stats.rtx_sent >= 4, "{stats:?}");
    // Reliability invariant regardless of pattern: receiver got 12
    // distinct packets (checked by finish via the train record).
}

#[test]
fn lost_acks_are_absorbed_by_cumulative_acking() {
    let (mut sim, tx, _, ack_ch) = pair(&CcKind::Reno, TcpConfig::default(), 30 * MSS as u64);
    // Drop a third of the ACKs: later cumulative ACKs cover the holes,
    // so no retransmission and no timeout may occur.
    sim.inject_channel_drops(ack_ch, [2, 5, 8, 11, 14, 17, 20, 23]);
    let stats = finish(&mut sim, tx, 30);
    assert_eq!(stats.rtx_sent, 0, "{stats:?}");
    assert_eq!(stats.timeouts, 0, "{stats:?}");
}

#[test]
fn lost_trim_probes_fall_back_and_recover() {
    let cfg = TcpConfig::default().with_min_rto(Dur::from_millis(20));
    let trim = CcKind::trim_with_capacity(1_000_000_000, MSS);
    let mut sim: Simulator<Segment> = Simulator::new();
    let mut rx = TcpHost::new();
    rx.add_receiver(FlowId(0), cfg);
    let rx_node = sim.add_host(Box::new(rx));
    let mut tx = TcpHost::new();
    let idx = tx.add_sender(FlowId(0), rx_node, cfg, &trim);
    // First train warms the estimators (5 packets: arrivals 0..4); the
    // second train, 50 ms later, starts with two probes (arrivals 5, 6).
    tx.schedule_train(idx, SimTime::from_secs_f64(0.001), 5 * MSS as u64);
    tx.schedule_train(idx, SimTime::from_secs_f64(0.05), 10 * MSS as u64);
    let tx_node = sim.add_host(Box::new(tx));
    let (data_ch, _) = sim.connect(
        tx_node,
        rx_node,
        Bandwidth::gbps(1),
        Dur::from_micros(50),
        QueueConfig::drop_tail(1000),
    );
    sim.inject_channel_drops(data_ch, [5, 6]); // both probes vanish
    sim.run_until(SimTime::from_secs(5));
    let host: &TcpHost = sim.host(tx_node);
    let conn = host.connection(0);
    assert!(conn.is_idle(), "{:?}", conn.stats());
    assert_eq!(conn.completed_trains().len(), 2);
    let stats = conn.stats();
    assert_eq!(stats.probes_sent, 2, "{stats:?}");
    // With both probes lost, the deadline falls back to cwnd = 2 and the
    // RTO retransmits the probes; everything still completes exactly once.
    assert!(stats.timeouts >= 1, "{stats:?}");
    assert!(stats.rtx_sent >= 2, "{stats:?}");
}

#[test]
fn karns_rule_takes_no_sample_from_a_retransmit_echo() {
    // A one-packet train whose only packet is lost: the retransmission's
    // echo is the sole ACK, and Karn's rule forbids sampling it — the
    // estimator must end the transfer with no RTT estimate at all.
    let cfg = TcpConfig::default().with_min_rto(Dur::from_millis(20));
    let (mut sim, tx, data_ch, _) = pair(&CcKind::Reno, cfg, MSS as u64);
    sim.inject_channel_drops(data_ch, [0]);
    let stats = finish(&mut sim, tx, 1);
    assert_eq!(stats.timeouts, 1, "{stats:?}");
    assert_eq!(stats.rtx_sent, 1, "{stats:?}");
    let host: &TcpHost = sim.host(tx);
    assert_eq!(
        host.connection(0).srtt(),
        None,
        "retransmit echo must not produce an RTT sample"
    );
    // Control: the clean transfer does sample.
    let (mut sim, tx, _, _) = pair(&CcKind::Reno, TcpConfig::default(), MSS as u64);
    finish(&mut sim, tx, 1);
    let host: &TcpHost = sim.host(tx);
    assert!(host.connection(0).srtt().is_some());
}

#[test]
fn rto_backoff_doubles_and_caps_at_64() {
    // Lose the first 10 transmissions of a one-packet train. With a 2 ms
    // base RTO the successive timeouts fire after 2, 4, 8, 16, 32, 64,
    // 128, 128, 128, 128 ms (the exponential backoff caps at 64x), so
    // the packet finally lands ~638 ms in. Without the cap the total
    // would exceed 2 s; without doubling it would be ~20 ms.
    let cfg = TcpConfig::default().with_min_rto(Dur::from_millis(2));
    let (mut sim, tx, data_ch, _) = pair(&CcKind::Reno, cfg, MSS as u64);
    sim.inject_channel_drops(data_ch, 0..10);
    let stats = finish(&mut sim, tx, 1);
    assert_eq!(stats.timeouts, 10, "{stats:?}");
    assert_eq!(stats.rtx_sent, 10, "{stats:?}");
    let host: &TcpHost = sim.host(tx);
    let ct = host.connection(0).completed_trains()[0]
        .completion_time()
        .as_secs_f64();
    assert!(ct > 0.6, "backoff must grow exponentially: {ct}s");
    assert!(ct < 0.8, "backoff must cap at 64x: {ct}s");
}

#[test]
fn loss_patterns_are_reproducible() {
    let run = || {
        let cfg = TcpConfig::default().with_min_rto(Dur::from_millis(20));
        let (mut sim, tx, data_ch, _) = pair(&CcKind::Reno, cfg, 50 * MSS as u64);
        sim.inject_channel_drops(data_ch, [3, 9, 27]);
        let stats = finish(&mut sim, tx, 50);
        (
            stats.pkts_sent,
            stats.rtx_sent,
            stats.timeouts,
            stats.fast_retransmits,
        )
    };
    assert_eq!(run(), run());
}
