//! The engine's event budget on uncongested paths, as exact counts.
//!
//! A packet that meets an idle transmitter at every hop costs one
//! dispatched event per hop — its arrival at the far end — and nothing
//! else: a transmission that ends with an empty queue has no event. The
//! counts below depend on the topology and the traffic only, never on
//! the machine, so they fail on any runner the moment a hop starts to
//! cost more (with a wake-up event per transmission they read `8 x N`
//! and `2 x` the hop sum).

use netsim::prelude::*;
use netsim::topology::LinkSpec;

fn link() -> LinkSpec {
    LinkSpec::new(
        Bandwidth::gbps(1),
        Dur::from_micros(10),
        QueueConfig::default(),
    )
}

/// Sends one packet at start, then one more per reply until it has made
/// `rounds` round trips: exactly one packet is ever in flight.
#[derive(Debug)]
struct PingAgent {
    peer: Option<NodeId>,
    rounds: u64,
    replies: u64,
}

impl PingAgent {
    fn ping(&self, ctx: &mut Ctx<'_, TagPayload>) {
        let peer = self.peer.expect("peer set before the run");
        ctx.send(Packet::new(
            ctx.node(),
            peer,
            FlowId(1),
            1460,
            TagPayload(0),
        ));
    }
}

impl Agent<TagPayload> for PingAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
        self.ping(ctx);
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {
        self.replies += 1;
        if self.replies < self.rounds {
            self.ping(ctx);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _token: u64) {}
}

/// Answers every packet with a 40-byte reply to its source.
#[derive(Debug)]
struct EchoAgent;

impl Agent<TagPayload> for EchoAgent {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, TagPayload>, pkt: Packet<TagPayload>) {
        ctx.send(Packet::new(pkt.dst, pkt.src, pkt.flow, 40, pkt.payload));
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _token: u64) {}
}

#[test]
fn a_round_trip_through_one_switch_is_four_events() {
    const ROUNDS: u64 = 250;
    let mut sim: Simulator<TagPayload> = Simulator::new();
    let sw = sim.add_switch();
    let client = sim.add_host(Box::new(PingAgent {
        peer: None,
        rounds: ROUNDS,
        replies: 0,
    }));
    let server = sim.add_host(Box::new(EchoAgent));
    let l = link();
    sim.connect(client, sw, l.bandwidth, l.delay, l.queue);
    sim.connect(server, sw, l.bandwidth, l.delay, l.queue);
    sim.host_mut::<PingAgent>(client).peer = Some(server);
    sim.run();
    assert_eq!(sim.host::<PingAgent>(client).replies, ROUNDS);
    // Out and back, two hops each way: one arrival per hop, no wake-ups.
    assert_eq!(sim.events_processed(), 4 * ROUNDS);
}

#[test]
fn fat_tree_all_to_all_costs_one_event_per_hop() {
    let mut sim: Simulator<TagPayload> = Simulator::new();
    let net = topology::fat_tree(&mut sim, 4, link(), |_| Box::new(SinkAgent::default()));
    // k = 4: two hosts per edge switch, four per pod, in `hosts` order.
    let hops = |i: usize, j: usize| match (i / 2 == j / 2, i / 4 == j / 4) {
        (true, _) => 2, // host - edge - host
        (_, true) => 4, // ... - agg - ...
        _ => 6,         // ... - agg - core - agg - ...
    };
    let mut sent = 0u64;
    let mut hop_sum = 0u64;
    for (i, &src) in net.hosts.iter().enumerate() {
        for (j, &dst) in net.hosts.iter().enumerate() {
            if i == j {
                continue;
            }
            sim.inject(
                src,
                Packet::new(src, dst, FlowId(sent), 1460, TagPayload(0)),
            );
            // Spaced: each packet has the network to itself.
            sim.run();
            sent += 1;
            hop_sum += hops(i, j);
        }
    }
    assert_eq!(sim.delivered_packets(), sent);
    // Per host: 1 x 2 + 2 x 4 + 12 x 6 = 82 hops; 16 hosts.
    assert_eq!(hop_sum, 16 * 82);
    assert_eq!(sim.events_processed(), hop_sum);
}
