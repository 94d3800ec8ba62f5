//! End-to-end validation of the Section II.A methodology on simulated
//! traffic: the packet-train extractor applied to the simulator's
//! delivered-packet trace recovers exactly the trains the application
//! sent.

use netsim::FlowId;
use tcp_trim::prelude::*;
use tcp_trim::workload::trace::{extract_trains, packets_from_events, train_intervals};

#[test]
fn extracted_trains_match_the_application_schedule() {
    let mut sc = ScenarioBuilder::many_to_one(1).trim().build();
    // Five trains with distinct sizes, 5 ms apart: far beyond the RTT, so
    // the extractor's smoothed-RTT-scale threshold separates them.
    let sizes = [4_000u64, 20_000, 60_000, 8_000, 30_000];
    for (i, &bytes) in sizes.iter().enumerate() {
        sc.send_train(0, TrainSpec::at_secs(0.01 + i as f64 * 0.005, bytes));
    }
    sc.sim_mut()
        .attach_monitor(Box::new(PacketTrace::new(100_000)));
    let report = sc.run_for_secs(1.0);
    assert_eq!(report.completed_trains(), sizes.len());
    assert_eq!(report.total_timeouts(), 0, "clean network");

    let trace = sc.sim_mut().monitor::<PacketTrace>().expect("attached");
    assert_eq!(trace.dropped_events(), 0, "capacity 100k was never hit");
    // Data packets are MSS-sized; ACKs (40 B) are filtered out.
    let pkts = packets_from_events(trace.events(), FlowId(0), 1000);
    let expected_pkts: u64 = sizes.iter().map(|b| b.div_ceil(1460)).sum();
    assert_eq!(pkts.len() as u64, expected_pkts, "no loss, no duplicates");

    // Gap threshold of 1 ms (>> intra-train spacing, << 5 ms schedule).
    let trains = extract_trains(&pkts, Dur::from_millis(1));
    assert_eq!(
        trains.len(),
        sizes.len(),
        "one extracted train per response"
    );
    for (t, &bytes) in trains.iter().zip(&sizes) {
        assert_eq!(t.pkts, bytes.div_ceil(1460), "train size recovered");
    }
    // Inter-train gaps reflect the 5 ms schedule minus transfer time.
    for gap in train_intervals(&trains) {
        assert!(gap <= Dur::from_millis(5));
        assert!(gap >= Dur::from_millis(1));
    }
}

#[test]
fn trace_overflow_counts_every_dropped_event() {
    let run = |cap: usize| {
        let mut sc = ScenarioBuilder::many_to_one(2).build();
        sc.send_train(0, TrainSpec::at_secs(0.001, 100_000));
        sc.send_train(1, TrainSpec::at_secs(0.001, 100_000));
        sc.sim_mut().attach_monitor(Box::new(PacketTrace::new(cap)));
        sc.run_for_secs(1.0);
        sc.sim_mut()
            .monitor::<PacketTrace>()
            .cloned()
            .expect("attached")
    };
    let full = run(1_000_000);
    assert_eq!(full.dropped_events(), 0);

    // The identical (deterministic) run with a tiny buffer: the counter
    // accounts for exactly the events that no longer fit.
    let capped = run(50);
    assert!(capped.dropped_events() > 0);
    assert_eq!(capped.events().len(), 50);
    assert_eq!(
        capped.events().len() as u64 + capped.dropped_events(),
        full.events().len() as u64,
        "dropped_events counts, not just flags, the overflow"
    );
}

#[test]
fn drops_show_up_in_the_packet_trace() {
    let mut sc = ScenarioBuilder::many_to_one(8).build(); // Reno
    for s in 0..8 {
        sc.send_train(s, TrainSpec::at_secs(0.001, 300_000));
    }
    sc.sim_mut()
        .attach_monitor(Box::new(PacketTrace::new(2_000_000)));
    let report = sc.run_for_secs(5.0);
    let trace = sc.sim_mut().monitor::<PacketTrace>().expect("attached");
    let dropped = trace
        .events()
        .iter()
        .filter(|(_, ev)| matches!(ev, MonitorEvent::Dropped { .. }))
        .count() as u64;
    assert_eq!(
        dropped, report.bottleneck.dropped,
        "trace and queue stats agree on losses"
    );
    assert!(dropped > 0, "8-way incast must overflow");
}
