//! Tour of NewReno loss recovery, read off the packet-event trace: one
//! transfer over a deterministic injected-loss pattern, then the timeline
//! of drops and repairs the trace recorded.
//!
//! Run with `cargo run --example mechanisms --release`.

use tcp_trim::prelude::*;
use tcp_trim::tcp::{Segment, TcpConfig, TcpHost};

const PKTS: usize = 60;

fn main() {
    println!("{PKTS}-packet transfer, packets 6/11/16/21/26 lost in one flight\n");
    let cfg = TcpConfig {
        init_cwnd: 128.0, // one-burst send: arrival index == seq
        ..TcpConfig::default().with_min_rto(Dur::from_millis(20))
    };
    let mut sim: Simulator<Segment> = Simulator::new();
    let mut rx = TcpHost::new();
    rx.add_receiver(FlowId(0), cfg);
    let rx_node = sim.add_host(Box::new(rx));
    let mut tx = TcpHost::new();
    let idx = tx.add_sender(FlowId(0), rx_node, cfg, &CcKind::Reno);
    tx.schedule_train(idx, SimTime::from_secs_f64(0.001), PKTS as u64 * 1460);
    let tx_node = sim.add_host(Box::new(tx));
    let (data_ch, _) = sim.connect(
        tx_node,
        rx_node,
        Bandwidth::gbps(1),
        Dur::from_micros(50),
        QueueConfig::drop_tail(1000),
    );
    // Five scattered losses in one flight.
    sim.inject_channel_drops(data_ch, [6, 11, 16, 21, 26]);
    sim.attach_monitor(Box::new(PacketTrace::new(10_000)));
    sim.run_until(SimTime::from_secs(5));

    // The whole train left in one burst, so every data packet the sender
    // emits after the first PKTS is a repair.
    let trace = sim.monitor::<PacketTrace>().expect("attached");
    let mut data_sent = 0;
    for (at, ev) in trace.events() {
        let what = match *ev {
            MonitorEvent::Dropped { .. } => "drop",
            MonitorEvent::Injected { node, .. } if node == tx_node => {
                data_sent += 1;
                if data_sent <= PKTS {
                    continue;
                }
                "repair sent"
            }
            _ => continue,
        };
        println!("{:>10}  {what}", at.to_string());
    }

    let host: &TcpHost = sim.host(tx_node);
    let conn = host.connection(0);
    let stats = conn.stats();
    println!(
        "\ncompletion {}   rtx {}   fast-rtx {}   RTOs {}   traced events {}",
        conn.completed_trains()[0].completion_time(),
        stats.rtx_sent,
        stats.fast_retransmits,
        stats.timeouts,
        trace.events().len(),
    );
    println!(
        "\nThree duplicate ACKs trigger the one fast retransmit; each partial ACK\n\
         then exposes the next hole, so NewReno repairs one hole per round trip\n\
         and the five losses cost five round trips but no timeout."
    );
}
