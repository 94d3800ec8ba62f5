//! Flow-slab lifecycle tests: teardown mid-run, id reuse, and leak
//! accounting cross-checked against the engine's packet-conservation
//! audit.
//!
//! One host carries several senders so the teardown path exercises the
//! shared slab: freeing a slot must cancel the flow's timers (a stale
//! RTO fire on a vacated id would panic the host), drop late ACKs
//! silently, and return the id to the freelist for reuse. Application
//! events scheduled for a sender that is gone by the time they fire are
//! dropped the same way, and never reach a later occupant of the id.

use netsim::prelude::*;
use netsim::time::SimTime;
use trim_tcp::{CcKind, ConnStats, Segment, SlabAudit, TcpConfig, TcpHost};

/// Builds `n` senders on ONE host, each with its own flow toward a
/// front-end with `n` receivers, over a shared switch. Returns
/// `(sim, tx node, fe node)`.
fn multi_sender(n: usize) -> (Simulator<Segment>, NodeId, NodeId) {
    let cfg = TcpConfig::default();
    let mut sim = Simulator::new();
    let sw = sim.add_switch();

    let mut fe_host = TcpHost::new();
    for i in 0..n {
        fe_host.add_receiver(FlowId(i as u64), cfg);
    }
    let fe = sim.add_host(Box::new(fe_host));
    sim.connect(
        fe,
        sw,
        Bandwidth::gbps(1),
        Dur::from_micros(50),
        QueueConfig::drop_tail(100),
    );

    let mut tx_host = TcpHost::with_sender_capacity(n);
    for i in 0..n {
        let idx = tx_host.add_sender(FlowId(i as u64), fe, cfg, &CcKind::Reno);
        assert_eq!(idx, i);
        tx_host.schedule_train(idx, SimTime::from_secs_f64(0.001), 30_000);
    }
    let tx = sim.add_host(Box::new(tx_host));
    sim.connect(
        tx,
        sw,
        Bandwidth::gbps(1),
        Dur::from_micros(50),
        QueueConfig::drop_tail(100),
    );
    (sim, tx, fe)
}

/// Teardown while the flow's data and ACKs are still in flight (its RTO
/// timer is armed): the run must complete without a stale fire — a
/// stale RTO on a vacated slot would panic the host — the slot must be
/// freed, and the engine's packet books must still balance.
#[test]
fn teardown_mid_run_frees_slot_and_books_balance() {
    let (mut sim, tx, _fe) = multi_sender(3);
    // t = 1.05 ms: the 1 ms trains have started, nothing has drained.
    sim.host_mut::<TcpHost>(tx)
        .schedule_teardown(1, SimTime::from_secs_f64(0.00105));
    sim.run();

    let host: &TcpHost = sim.host(tx);
    assert_eq!(host.sender_count(), 2);
    assert_eq!(
        host.slab_audit(),
        SlabAudit {
            allocated: 3,
            freed: 1,
            live: 2,
            high_water: 3,
        }
    );
    host.slab_leak_check().unwrap();
    // The torn-down flow is gone from iteration; survivors finished.
    let live: Vec<u64> = host.connections().map(|c| c.flow().0).collect();
    assert_eq!(live, vec![0, 2]);
    for c in host.connections() {
        assert_eq!(c.completed_trains().len(), 1, "flow {}", c.flow());
    }

    // Cross-check with the engine's packet-conservation audit: the
    // teardown dropped late ACKs at the host, not inside the network,
    // so every injected packet is still accounted for.
    let audit = sim.audit_stats();
    assert_eq!(audit.injected, audit.delivered + audit.dropped);
    assert_eq!(audit.in_flight(), 0);
    assert_eq!(audit.arena_live, 0);
}

/// A vacated flow id is handed back to the next `add_sender`, with the
/// slot's generation counter bumped as observable proof of reuse — and
/// the new occupant starts from a fresh connection: nothing of the old
/// occupant's window, RTT estimate, counters or train records shows
/// through the reused id.
#[test]
fn torn_down_flow_id_is_reused_by_add_sender() {
    let (mut sim, tx, fe) = multi_sender(3);
    // t = 1.6 ms: a few round trips into the 1 ms trains.
    let teardown = SimTime::from_secs_f64(0.0016);
    sim.host_mut::<TcpHost>(tx).schedule_teardown(1, teardown);
    sim.run_until(SimTime::from_secs_f64(0.00159));
    let cfg = TcpConfig::default();
    {
        // The run has moved flow 1's window, RTT estimate and counters
        // off their initial values before the slot is vacated.
        let old = sim.host::<TcpHost>(tx).connection(1);
        assert!(old.cwnd() > cfg.init_cwnd);
        assert!(old.srtt().is_some());
        assert!(old.stats().acks_received > 0);
        assert!(!old.is_idle());
    }
    sim.run();

    let host = sim.host_mut::<TcpHost>(tx);
    assert_eq!(host.sender_generation(0), 0);
    assert_eq!(host.sender_generation(1), 1);

    let idx = host.add_sender(FlowId(9), fe, cfg, &CcKind::Reno);
    assert_eq!(idx, 1, "freed id must be reused before the slab grows");
    assert_eq!(host.sender_generation(1), 1);
    let fresh = host.connection(1);
    assert_eq!(fresh.flow(), FlowId(9));
    assert_eq!(fresh.cwnd(), cfg.init_cwnd);
    assert_eq!(fresh.srtt(), None);
    assert_eq!(fresh.stats(), ConnStats::default());
    assert!(fresh.completed_trains().is_empty());
    assert!(fresh.is_idle());
    let audit = host.slab_audit();
    assert_eq!((audit.allocated, audit.live, audit.high_water), (4, 3, 3));
    host.slab_leak_check().unwrap();
}

/// Fault injection: a slab slot that is dropped without returning to the
/// freelist is caught by `slab_leak_check`, while the engine's packet
/// books remain clean — proving the two audits are independent and the
/// leak detection is live.
#[test]
fn injected_slot_leak_is_caught() {
    let (mut sim, tx, _fe) = multi_sender(3);
    {
        let host = sim.host_mut::<TcpHost>(tx);
        host.inject_slot_leak();
        host.schedule_teardown(1, SimTime::from_secs_f64(0.00105));
    }
    sim.run();

    let host: &TcpHost = sim.host(tx);
    let err = host.slab_leak_check().unwrap_err();
    assert!(err.contains("leaked"), "unexpected message: {err}");
    // The allocation counters still balance — only the slot is gone.
    assert_eq!(host.slab_audit().live, 2);
    assert_eq!(host.sender_count(), 2);
    // Packet conservation is unaffected by the slab-level fault.
    let audit = sim.audit_stats();
    assert_eq!(audit.injected, audit.delivered + audit.dropped);
    assert_eq!(audit.in_flight(), 0);
}

/// Teardown after the flow has fully drained: identical books, and the
/// completed train record is discarded with the slot.
#[test]
fn teardown_after_drain_is_clean() {
    let (mut sim, tx, _fe) = multi_sender(2);
    // t = 100 ms: 30 KB at 1 Gbps finished long ago.
    sim.host_mut::<TcpHost>(tx)
        .schedule_teardown(0, SimTime::from_secs_f64(0.1));
    sim.run();

    let host: &TcpHost = sim.host(tx);
    assert_eq!(host.sender_count(), 1);
    host.slab_leak_check().unwrap();
    assert_eq!(
        host.connections().map(|c| c.flow().0).collect::<Vec<_>>(),
        vec![1]
    );
    assert_eq!(sim.audit_stats().in_flight(), 0);
}

/// A train or stop scheduled for after its sender's teardown is dropped
/// when it fires (a stale app event on a vacated slot would panic the
/// host), and so is a second teardown of the same sender.
#[test]
fn app_events_after_teardown_are_dropped() {
    let (mut sim, tx, _fe) = multi_sender(3);
    {
        let host = sim.host_mut::<TcpHost>(tx);
        host.schedule_teardown(1, SimTime::from_secs_f64(0.2));
        host.schedule_stop(1, SimTime::from_secs_f64(0.3));
        host.schedule_teardown(1, SimTime::from_secs_f64(0.4));
        host.schedule_train(1, SimTime::from_secs_f64(0.5), 30_000);
    }
    sim.run();

    let host: &TcpHost = sim.host(tx);
    assert_eq!(host.sender_count(), 2);
    assert_eq!(host.sender_generation(1), 1, "torn down exactly once");
    host.slab_leak_check().unwrap();
    assert_eq!(sim.audit_stats().in_flight(), 0);
}

/// Teardown during a response sequence's think gap: the pending
/// next-request timer fires on a vacated slot and is dropped.
#[test]
fn response_sequence_timer_after_teardown_is_dropped() {
    let (mut sim, tx, _fe) = multi_sender(2);
    {
        let host = sim.host_mut::<TcpHost>(tx);
        // First response at 10 ms, the second 100 ms after it completes;
        // the teardown at 50 ms lands inside the think gap.
        host.schedule_response_sequence(
            1,
            SimTime::from_secs_f64(0.01),
            vec![30_000, 30_000],
            Dur::from_millis(100),
        );
        host.schedule_teardown(1, SimTime::from_secs_f64(0.05));
    }
    sim.run();

    let host: &TcpHost = sim.host(tx);
    assert_eq!(host.sender_count(), 1);
    host.slab_leak_check().unwrap();
    assert_eq!(sim.audit_stats().in_flight(), 0);
}

/// Events scheduled for a torn-down sender must not drive the next
/// occupant of its id: the old train and the old response sequence both
/// fire after `add_sender` reused the slot, and the new sender stays
/// untouched — and free to take a sequence of its own.
#[test]
fn stale_app_events_never_reach_a_reused_id() {
    let (mut sim, tx, fe) = multi_sender(2);
    {
        let host = sim.host_mut::<TcpHost>(tx);
        host.schedule_teardown(1, SimTime::from_secs_f64(0.2));
        host.schedule_train(1, SimTime::from_secs_f64(0.5), 30_000);
        host.schedule_response_sequence(
            1,
            SimTime::from_secs_f64(0.6),
            vec![30_000],
            Dur::from_millis(1),
        );
    }
    sim.run_until(SimTime::from_secs_f64(0.3));

    let host = sim.host_mut::<TcpHost>(tx);
    let idx = host.add_sender(FlowId(9), fe, TcpConfig::default(), &CcKind::Reno);
    assert_eq!(idx, 1);
    // The old occupant's sequence went with it.
    host.schedule_response_sequence(idx, SimTime::ZERO, vec![1], Dur::ZERO);
    sim.run();

    let conn = sim.host::<TcpHost>(tx).connection(1);
    assert_eq!(conn.flow(), FlowId(9));
    assert_eq!(conn.stats().pkts_sent, 0);
    assert!(conn.is_idle());
}

/// `connection(idx)` between two `run_until` slices reads the row the
/// next event acts on. The run is loss-free Reno slow start with
/// per-packet ACKs, so at every instant the row (cwnd, flight) is tied
/// to the cold-side counters: one window increment per ACK, one packet
/// out of flight per ACK. Slicing the run, and reading at the slice
/// boundaries, changes nothing about where it ends up.
#[test]
fn connection_view_is_current_between_slices() {
    let view = |sim: &Simulator<Segment>, tx| {
        let c = sim.host::<TcpHost>(tx).connection(1);
        let stats = c.stats();
        assert_eq!(stats.rtx_sent + stats.dup_acks_received, 0, "loss-free");
        assert_eq!(
            c.cwnd(),
            TcpConfig::default().init_cwnd + stats.acks_received as f64
        );
        assert_eq!(c.flight(), stats.pkts_sent - stats.acks_received);
        (c.cwnd().to_bits(), c.flight(), c.srtt(), stats)
    };

    let (mut whole, tx, _) = multi_sender(3);
    whole.run();
    let end = view(&whole, tx);
    assert_eq!(end.1, 0, "drained");

    let (mut sliced, _, _) = multi_sender(3);
    let mut seen_mid_transfer = false;
    for us in [1_300, 1_500, 1_700] {
        sliced.run_until(SimTime::from_nanos(us * 1_000));
        let (_, flight, srtt, _) = view(&sliced, tx);
        seen_mid_transfer |= flight > 0 && srtt.is_some();
    }
    assert!(seen_mid_transfer, "slice boundaries chosen mid-transfer");
    sliced.run();
    assert_eq!(view(&sliced, tx), end);
}
