//! A response sequence and plain scheduled trains share one sender: the
//! sequence is advanced by the completion of the response it issued and
//! by nothing else, so its think gaps are measured from its own
//! responses wherever a plain train lands around them.

use netsim::prelude::*;
use trim_tcp::{CcKind, Segment, TcpConfig, TcpHost, TrainRecord};

const THINK: Dur = Dur::from_millis(50);

fn at_us(us: u64) -> SimTime {
    SimTime::ZERO + Dur::from_micros(us)
}

/// One Reno sender toward one receiver over a 1 Gbps / 50 us star, under
/// the standard monitors. The sender carries a three-response sequence
/// (10 kB each, 50 ms think, first at 1 ms) and one plain train of
/// `plain_bytes` at `plain_at`. Returns the sender's train records in
/// completion order.
fn run_mixed(plain_at: SimTime, plain_bytes: u64) -> Vec<TrainRecord> {
    let cfg = TcpConfig::default();
    let mut sim: Simulator<Segment> = Simulator::new();
    let sw = sim.add_switch();
    let link = |sim: &mut Simulator<Segment>, host| {
        sim.connect(
            host,
            sw,
            Bandwidth::gbps(1),
            Dur::from_micros(50),
            QueueConfig::drop_tail(100),
        )
    };

    let mut rx_host = TcpHost::new();
    rx_host.add_receiver(FlowId(1), cfg);
    let rx = sim.add_host(Box::new(rx_host));
    link(&mut sim, rx);

    let mut tx_host = TcpHost::new();
    let idx = tx_host.add_sender(FlowId(1), rx, cfg, &CcKind::Reno);
    tx_host.schedule_response_sequence(idx, at_us(1_000), vec![10_000; 3], THINK);
    tx_host.schedule_train(idx, plain_at, plain_bytes);
    let tx = sim.add_host(Box::new(tx_host));
    link(&mut sim, tx);

    trim_check::attach_standard(&mut sim);
    sim.run();
    sim.assert_no_violations();
    let conn = sim.host::<TcpHost>(tx).connection(idx);
    assert!(conn.is_idle());
    conn.completed_trains().to_vec()
}

/// Each response after the first is issued one think time after the
/// response before it completed.
fn assert_think_gaps(responses: &[&TrainRecord]) {
    assert_eq!(responses.len(), 3);
    assert_eq!(responses[0].enqueued_at, at_us(1_000));
    for pair in responses.windows(2) {
        assert_eq!(
            pair[1].enqueued_at,
            pair[0].completed_at + THINK,
            "response {} was issued off schedule",
            pair[1].id
        );
    }
}

/// The plain train runs during the first think gap. It used to be
/// credited to the sequence as a response: its completion at 20.3 ms
/// armed a second think timer, and the third response went out at
/// 70.3 ms, 50 ms after the plain train instead of after the second
/// response.
#[test]
fn plain_train_in_a_think_gap_does_not_advance_the_sequence() {
    let plain_at = at_us(20_000);
    let trains = run_mixed(plain_at, 10_000);
    let ids: Vec<u64> = trains.iter().map(|t| t.id).collect();
    assert_eq!(ids, vec![0, 1, 2, 3]);
    assert_eq!(trains[1].enqueued_at, plain_at);
    assert!(trains[1].completed_at < at_us(21_000));

    assert_think_gaps(&[&trains[0], &trains[2], &trains[3]]);
    assert_eq!(trains[2].enqueued_at, at_us(51_672));
    assert!(trains[3].enqueued_at >= at_us(101_900));
}

/// The plain train is queued ahead of the first response and completes
/// first. It used to be taken for that response, so the second response
/// was issued a think time after the plain train, while the first was
/// still in flight.
#[test]
fn plain_train_ahead_of_a_response_is_not_taken_for_it() {
    let trains = run_mixed(at_us(900), 200_000);
    let ids: Vec<u64> = trains.iter().map(|t| t.id).collect();
    assert_eq!(ids, vec![0, 1, 2, 3]);
    assert_eq!(trains[0].bytes, 200_000);
    assert!(
        trains[0].completed_at > trains[1].enqueued_at,
        "the plain train was still in flight when the first response was issued"
    );

    assert_think_gaps(&[&trains[1], &trains[2], &trains[3]]);
}
