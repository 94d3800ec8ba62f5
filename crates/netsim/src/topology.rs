//! Topology builders for the scenarios evaluated in the paper.
//!
//! Each builder wires hosts and switches into a [`Simulator`] and returns a
//! handle naming the interesting nodes and channels (in particular the
//! bottleneck queues whose statistics the experiments report). Host agents
//! are produced by a caller-supplied factory so the builders stay
//! protocol-agnostic.

use crate::agent::Agent;
use crate::packet::{ChannelId, NodeId, Payload};
use crate::queue::QueueConfig;
use crate::sim::Simulator;
use crate::time::Dur;
use crate::units::Bandwidth;

/// Parameters of one duplex link.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// Rate of each direction.
    pub bandwidth: Bandwidth,
    /// Propagation delay of each direction.
    pub delay: Dur,
    /// Queue configuration of each direction.
    pub queue: QueueConfig,
}

impl LinkSpec {
    /// Creates a link spec.
    pub fn new(bandwidth: Bandwidth, delay: Dur, queue: QueueConfig) -> Self {
        LinkSpec {
            bandwidth,
            delay,
            queue,
        }
    }
}

/// The role a host plays in a built topology, passed to the agent factory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The i-th traffic source.
    Sender(usize),
    /// The aggregating front-end server.
    FrontEnd,
    /// The i-th dedicated receiver (multi-hop scenario's group D).
    Receiver(usize),
}

/// Handle to a many-to-one (incast) topology: `n` senders and one front-end
/// behind a single switch. This is the paper's workhorse scenario
/// (Sections II.B, IV.A, IV.B).
#[derive(Clone, Debug)]
pub struct ManyToOne {
    /// The sender hosts, in index order.
    pub senders: Vec<NodeId>,
    /// The aggregating front-end host.
    pub front_end: NodeId,
    /// The switch joining them.
    pub switch: NodeId,
    /// The bottleneck channel (switch -> front-end) whose queue overflows.
    pub bottleneck: ChannelId,
}

/// Builds a many-to-one topology with identical links everywhere.
pub fn many_to_one<P: Payload>(
    sim: &mut Simulator<P>,
    n_senders: usize,
    link: LinkSpec,
    make: impl FnMut(Role) -> Box<dyn Agent<P>>,
) -> ManyToOne {
    many_to_one_asym(sim, n_senders, link, link, make)
}

/// Builds a many-to-one topology where sender links and the front-end link
/// differ, as in the convergence test (senders at 1.1 Gbps, receiver at
/// 1 Gbps; Fig. 10).
pub fn many_to_one_asym<P: Payload>(
    sim: &mut Simulator<P>,
    n_senders: usize,
    sender_link: LinkSpec,
    front_end_link: LinkSpec,
    mut make: impl FnMut(Role) -> Box<dyn Agent<P>>,
) -> ManyToOne {
    sim.reserve_links(n_senders + 1);
    let switch = sim.add_switch();
    let front_end = sim.add_host(make(Role::FrontEnd));
    let (_, bottleneck) = sim.connect(
        front_end,
        switch,
        front_end_link.bandwidth,
        front_end_link.delay,
        front_end_link.queue,
    );
    let senders = (0..n_senders)
        .map(|i| {
            let h = sim.add_host(make(Role::Sender(i)));
            sim.connect(
                h,
                switch,
                sender_link.bandwidth,
                sender_link.delay,
                sender_link.queue,
            );
            h
        })
        .collect();
    ManyToOne {
        senders,
        front_end,
        switch,
        bottleneck,
    }
}

/// Handle to the two-tier large-scale topology of Fig. 8(a): `s` edge
/// switches with `m` servers each, joined by a fabric switch that also
/// serves the front-end.
#[derive(Clone, Debug)]
pub struct TwoTier {
    /// Server hosts grouped by edge switch: `servers[s][i]`.
    pub servers: Vec<Vec<NodeId>>,
    /// All server hosts flattened, in (switch, index) order.
    pub all_servers: Vec<NodeId>,
    /// The aggregating front-end host.
    pub front_end: NodeId,
    /// The fabric (core) switch.
    pub fabric: NodeId,
    /// The edge switches.
    pub edges: Vec<NodeId>,
    /// The bottleneck channel fabric -> front-end.
    pub bottleneck: ChannelId,
}

/// Builds the Fig. 8(a) topology: `n_switches` edge switches, each with
/// `servers_per_switch` servers on `server_link`s; edge switches connect to
/// the fabric via `core_link`s; the front-end hangs off the fabric via
/// `front_end_link`.
pub fn two_tier<P: Payload>(
    sim: &mut Simulator<P>,
    n_switches: usize,
    servers_per_switch: usize,
    server_link: LinkSpec,
    core_link: LinkSpec,
    front_end_link: LinkSpec,
    mut make: impl FnMut(Role) -> Box<dyn Agent<P>>,
) -> TwoTier {
    let fabric = sim.add_switch();
    let front_end = sim.add_host(make(Role::FrontEnd));
    let (_, bottleneck) = sim.connect(
        front_end,
        fabric,
        front_end_link.bandwidth,
        front_end_link.delay,
        front_end_link.queue,
    );
    let mut servers = Vec::new();
    let mut all_servers = Vec::new();
    let mut edges = Vec::new();
    let mut idx = 0;
    for _ in 0..n_switches {
        let edge = sim.add_switch();
        sim.connect(
            edge,
            fabric,
            core_link.bandwidth,
            core_link.delay,
            core_link.queue,
        );
        let mut group = Vec::new();
        for _ in 0..servers_per_switch {
            let h = sim.add_host(make(Role::Sender(idx)));
            idx += 1;
            sim.connect(
                h,
                edge,
                server_link.bandwidth,
                server_link.delay,
                server_link.queue,
            );
            group.push(h);
            all_servers.push(h);
        }
        servers.push(group);
        edges.push(edge);
    }
    TwoTier {
        servers,
        all_servers,
        front_end,
        fabric,
        edges,
        bottleneck,
    }
}

/// Handle to the multi-hop, multi-bottleneck topology of Fig. 11(a).
#[derive(Clone, Debug)]
pub struct MultiHop {
    /// Group A senders (attached to switch 1; cross both bottlenecks).
    pub group_a: Vec<NodeId>,
    /// Group B senders (attached to switch 2; cross the second bottleneck).
    pub group_b: Vec<NodeId>,
    /// Group C senders (attached to switch 1; cross the first bottleneck).
    pub group_c: Vec<NodeId>,
    /// Group D receivers (attached to switch 2), targets of group C.
    pub group_d: Vec<NodeId>,
    /// The front-end host receiving groups A and B.
    pub front_end: NodeId,
    /// Switch 1 and switch 2.
    pub switches: (NodeId, NodeId),
    /// Bottleneck 1: switch 1 -> switch 2.
    pub bottleneck1: ChannelId,
    /// Bottleneck 2: switch 2 -> front-end.
    pub bottleneck2: ChannelId,
}

/// Builds the Fig. 11(a) topology: groups A and C (each `group_size`
/// senders) on switch 1, group B senders and group D receivers on switch 2,
/// the front-end behind switch 2. The two `bottleneck_link`s (sw1->sw2 and
/// sw2->front-end) are oversubscribed relative to the `edge_link`s.
pub fn multi_hop<P: Payload>(
    sim: &mut Simulator<P>,
    group_size: usize,
    edge_link: LinkSpec,
    bottleneck_link: LinkSpec,
    mut make: impl FnMut(Role) -> Box<dyn Agent<P>>,
) -> MultiHop {
    let sw1 = sim.add_switch();
    let sw2 = sim.add_switch();
    let (b1, _) = sim.connect(
        sw1,
        sw2,
        bottleneck_link.bandwidth,
        bottleneck_link.delay,
        bottleneck_link.queue,
    );
    let front_end = sim.add_host(make(Role::FrontEnd));
    let (_, b2) = sim.connect(
        front_end,
        sw2,
        bottleneck_link.bandwidth,
        bottleneck_link.delay,
        bottleneck_link.queue,
    );
    let attach = |sim: &mut Simulator<P>,
                  sw,
                  role,
                  i: usize,
                  make: &mut dyn FnMut(Role) -> Box<dyn Agent<P>>| {
        let h = sim.add_host(make(match role {
            0 => Role::Sender(i),
            _ => Role::Receiver(i),
        }));
        sim.connect(h, sw, edge_link.bandwidth, edge_link.delay, edge_link.queue);
        h
    };
    let group_a: Vec<_> = (0..group_size)
        .map(|i| attach(sim, sw1, 0, i, &mut make))
        .collect();
    let group_b: Vec<_> = (0..group_size)
        .map(|i| attach(sim, sw2, 0, group_size + i, &mut make))
        .collect();
    let group_c: Vec<_> = (0..group_size)
        .map(|i| attach(sim, sw1, 0, 2 * group_size + i, &mut make))
        .collect();
    let group_d: Vec<_> = (0..group_size)
        .map(|i| attach(sim, sw2, 1, i, &mut make))
        .collect();
    MultiHop {
        group_a,
        group_b,
        group_c,
        group_d,
        front_end,
        switches: (sw1, sw2),
        bottleneck1: b1,
        bottleneck2: b2,
    }
}

/// Handle to a k-ary fat-tree (Fig. 12's scenario).
#[derive(Clone, Debug)]
pub struct FatTree {
    /// All hosts, ordered pod by pod, edge switch by edge switch.
    pub hosts: Vec<NodeId>,
    /// Pod count (the `k` of the k-ary fat-tree).
    pub pods: usize,
    /// Edge switches per pod, then aggregation, then core, for inspection.
    pub edge_switches: Vec<NodeId>,
    /// Aggregation switches.
    pub agg_switches: Vec<NodeId>,
    /// Core switches.
    pub core_switches: Vec<NodeId>,
    /// Per-host edge→host downlink channels, indexed like `hosts`. The
    /// downlink is the last hop of every response train, so this is
    /// where serving workloads record queue occupancy.
    pub host_downlinks: Vec<ChannelId>,
}

/// Builds a k-ary fat-tree with `k` pods: each pod has `k/2` edge and `k/2`
/// aggregation switches, each edge switch hosts `k/2` servers, and
/// `(k/2)^2` core switches join the pods. All links share `link`.
///
/// # Panics
///
/// Panics if `k` is odd or less than 2.
pub fn fat_tree<P: Payload>(
    sim: &mut Simulator<P>,
    k: usize,
    link: LinkSpec,
    mut make: impl FnMut(Role) -> Box<dyn Agent<P>>,
) -> FatTree {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree requires an even k >= 2"
    );
    let half = k / 2;
    let core: Vec<_> = (0..half * half).map(|_| sim.add_switch()).collect();
    let mut hosts = Vec::new();
    let mut host_downlinks = Vec::new();
    let mut edge_switches = Vec::new();
    let mut agg_switches = Vec::new();
    let mut host_idx = 0;
    for _pod in 0..k {
        let aggs: Vec<_> = (0..half).map(|_| sim.add_switch()).collect();
        let edges: Vec<_> = (0..half).map(|_| sim.add_switch()).collect();
        for (g, &agg) in aggs.iter().enumerate() {
            // Aggregation switch g connects to core group g.
            for j in 0..half {
                sim.connect(
                    agg,
                    core[g * half + j],
                    link.bandwidth,
                    link.delay,
                    link.queue,
                );
            }
            for &edge in &edges {
                sim.connect(edge, agg, link.bandwidth, link.delay, link.queue);
            }
        }
        for &edge in &edges {
            for _ in 0..half {
                let h = sim.add_host(make(Role::Sender(host_idx)));
                host_idx += 1;
                let (_up, down) = sim.connect(h, edge, link.bandwidth, link.delay, link.queue);
                hosts.push(h);
                host_downlinks.push(down);
            }
        }
        edge_switches.extend(edges);
        agg_switches.extend(aggs);
    }
    FatTree {
        hosts,
        pods: k,
        edge_switches,
        agg_switches,
        core_switches: core,
        host_downlinks,
    }
}

/// The unit tests' star: `n_senders` sinks and a sink front-end on
/// 1 Gbps / 50 us links, default queues everywhere except `bottleneck`
/// on the switch's downlink to the front-end. Returns the simulator,
/// the senders, the front-end and that downlink.
#[cfg(test)]
pub(crate) fn sink_star(
    n_senders: usize,
    bottleneck: QueueConfig,
) -> (
    Simulator<crate::packet::TagPayload>,
    Vec<NodeId>,
    NodeId,
    ChannelId,
) {
    let mut sim = Simulator::new();
    let link = |queue| LinkSpec::new(Bandwidth::gbps(1), Dur::from_micros(50), queue);
    let (senders, down) = (link(QueueConfig::default()), link(bottleneck));
    let net = many_to_one_asym(&mut sim, n_senders, senders, down, |_| {
        Box::new(crate::agent::SinkAgent::default())
    });
    (sim, net.senders, net.front_end, net.bottleneck)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::SinkAgent;
    use crate::packet::{FlowId, Packet, TagPayload};

    fn sink(_role: Role) -> Box<dyn Agent<TagPayload>> {
        Box::new(SinkAgent::default())
    }

    fn spec() -> LinkSpec {
        LinkSpec::new(
            Bandwidth::gbps(1),
            Dur::from_micros(10),
            QueueConfig::default(),
        )
    }

    #[test]
    fn many_to_one_connects_all_senders() {
        let mut sim = Simulator::new();
        let net = many_to_one(&mut sim, 5, spec(), sink);
        assert_eq!(net.senders.len(), 5);
        for &s in &net.senders {
            sim.inject(
                s,
                Packet::new(s, net.front_end, FlowId(0), 1000, TagPayload(0)),
            );
        }
        sim.run();
        assert_eq!(sim.host::<SinkAgent>(net.front_end).received, 5);
    }

    #[test]
    fn two_tier_reaches_front_end() {
        let mut sim = Simulator::new();
        let net = two_tier(&mut sim, 3, 4, spec(), spec(), spec(), sink);
        assert_eq!(net.all_servers.len(), 12);
        assert_eq!(net.servers.len(), 3);
        for &s in &net.all_servers {
            sim.inject(
                s,
                Packet::new(
                    s,
                    net.front_end,
                    FlowId(s.index() as u64),
                    1000,
                    TagPayload(0),
                ),
            );
        }
        sim.run();
        assert_eq!(sim.host::<SinkAgent>(net.front_end).received, 12);
    }

    #[test]
    fn multi_hop_paths() {
        let mut sim = Simulator::new();
        let net = multi_hop(&mut sim, 4, spec(), spec(), sink);
        // A -> front-end crosses both bottlenecks.
        let a = net.group_a[0];
        sim.inject(
            a,
            Packet::new(a, net.front_end, FlowId(1), 1000, TagPayload(0)),
        );
        // C -> D crosses only bottleneck 1.
        let c = net.group_c[0];
        let d = net.group_d[0];
        sim.inject(c, Packet::new(c, d, FlowId(2), 1000, TagPayload(0)));
        // B -> front-end crosses only bottleneck 2.
        let b = net.group_b[0];
        sim.inject(
            b,
            Packet::new(b, net.front_end, FlowId(3), 1000, TagPayload(0)),
        );
        sim.run();
        assert_eq!(sim.host::<SinkAgent>(net.front_end).received, 2);
        assert_eq!(sim.host::<SinkAgent>(d).received, 1);
        let b1 = sim.queue_stats(net.bottleneck1);
        let b2 = sim.queue_stats(net.bottleneck2);
        assert_eq!(b1.enqueued, 2, "A and C cross bottleneck 1");
        assert_eq!(b2.enqueued, 2, "A and B cross bottleneck 2");
    }

    #[test]
    fn fat_tree_structure() {
        let mut sim = Simulator::new();
        let net = fat_tree(&mut sim, 4, spec(), sink);
        assert_eq!(net.hosts.len(), 16); // k^3/4
        assert_eq!(net.core_switches.len(), 4);
        assert_eq!(net.edge_switches.len(), 8);
        assert_eq!(net.agg_switches.len(), 8);
        assert_eq!(net.host_downlinks.len(), net.hosts.len());
    }

    #[test]
    fn fat_tree_downlinks_carry_inbound_traffic() {
        let mut sim = Simulator::new();
        let net = fat_tree(&mut sim, 4, spec(), sink);
        let dst = net.hosts[5];
        let src = net.hosts[12]; // cross-pod source
        sim.inject(src, Packet::new(src, dst, FlowId(1), 1000, TagPayload(0)));
        sim.run();
        assert_eq!(sim.queue_stats(net.host_downlinks[5]).enqueued, 1);
        assert_eq!(sim.queue_stats(net.host_downlinks[12]).enqueued, 0);
    }

    #[test]
    fn fat_tree_any_to_any() {
        let mut sim = Simulator::new();
        let net = fat_tree(&mut sim, 4, spec(), sink);
        let n = net.hosts.len();
        for (i, &src) in net.hosts.iter().enumerate() {
            let dst = net.hosts[(i + n / 2 + 1) % n]; // cross-pod target
            sim.inject(
                src,
                Packet::new(src, dst, FlowId(i as u64), 1000, TagPayload(0)),
            );
        }
        sim.run();
        let delivered: u64 = net
            .hosts
            .iter()
            .map(|&h| sim.host::<SinkAgent>(h).received)
            .sum();
        assert_eq!(delivered, n as u64);
    }

    #[test]
    #[should_panic(expected = "even k")]
    fn fat_tree_odd_k_rejected() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let _ = fat_tree(&mut sim, 3, spec(), sink);
    }
}
