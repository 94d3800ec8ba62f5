//! Forwarding state: shortest paths with deterministic per-flow ECMP.
//!
//! [`RouteTable::build`] turns the node kinds and adjacency lists the
//! topology builder collected into one dense next-hop table, and
//! [`RouteTable::out`] reads it once per hop. The table is immutable
//! after the build and knows on its own which nodes are hosts, so the
//! engine carries nothing else about the topology's shape.

use std::collections::VecDeque;

use crate::packet::{ChannelId, FlowId, NodeId};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NodeKind {
    Host,
    Switch,
}

/// Outgoing edges per node, as `(neighbor, channel)` in connect order.
pub(crate) type Adjacency = [Vec<(NodeId, ChannelId)>];

/// How packets leave one node.
#[derive(Clone, Copy, Debug)]
enum Egress {
    /// A host whose only link goes to a switch: everything leaves on it,
    /// and an unreachable destination is the switch's "no route". This
    /// keeps a 100k-host star at one table row, not 100k.
    Uplink(ChannelId),
    /// Any other node: its row in [`RouteTable::next`].
    Row(u32),
}

/// Precomputed forwarding state: one dense next-hop table.
///
/// `next[row * nodes + dst]` is the `(start, len)` slice of `ecmp` holding
/// the equal-cost outgoing channels from the row's node toward host `dst`;
/// `len == 0` means no route. The sets are what a per-hop search would
/// find, in adjacency order: the parallel edges to `dst` when it is a
/// direct neighbor (a one-hop route is strictly shorter than any route
/// via a switch), else the edges to the switch neighbors nearest `dst`.
/// Paths never transit a host: hosts terminate packets.
///
/// Size is rows x nodes entries, and real topologies have few rows:
/// switches, plus any host that is not a single-uplink leaf.
#[derive(Debug, Default)]
pub(crate) struct RouteTable {
    /// Per node.
    kinds: Vec<NodeKind>,
    /// Per node.
    egress: Vec<Egress>,
    next: Vec<(u32, u32)>,
    ecmp: Vec<ChannelId>,
}

impl RouteTable {
    /// Computes the table for the graph `(kinds, adjacency)`, both
    /// indexed by node.
    pub(crate) fn build(kinds: &[NodeKind], adjacency: &Adjacency) -> Self {
        let n = kinds.len();
        let dist = switch_distances(kinds, adjacency);
        let is_host = |v: NodeId| kinds[v.index()] == NodeKind::Host;
        let mut routes = RouteTable {
            kinds: kinds.to_vec(),
            ..RouteTable::default()
        };
        let mut rows = 0u32;
        for (u, adj) in adjacency.iter().enumerate() {
            if let (NodeKind::Host, &[(v, ch)]) = (kinds[u], adj.as_slice()) {
                if !is_host(v) {
                    routes.egress.push(Egress::Uplink(ch));
                    continue;
                }
            }
            routes.egress.push(Egress::Row(rows));
            rows += 1;
            // Edges to host neighbors grouped by neighbor; the sort is
            // stable, so parallel edges stay in adjacency order.
            let mut direct: Vec<(usize, ChannelId)> = adj
                .iter()
                .filter(|&&(v, _)| is_host(v))
                .map(|&(v, ch)| (v.index(), ch))
                .collect();
            direct.sort_by_key(|&(v, _)| v);
            let mut direct = direct.into_iter().peekable();
            // Switch neighbors, in adjacency order, with their distances.
            let via: Vec<(&[u32], ChannelId)> = adj
                .iter()
                .filter(|&&(v, _)| !is_host(v))
                .map(|&(v, ch)| (dist[v.index()].as_slice(), ch))
                .collect();
            for dst in 0..n {
                let start = routes.ecmp.len();
                while let Some((_, ch)) = direct.next_if(|&(v, _)| v == dst) {
                    routes.ecmp.push(ch);
                }
                if routes.ecmp.len() == start && kinds[dst] == NodeKind::Host {
                    let nearest = via.iter().map(|&(d, _)| d[dst]).min();
                    if let Some(best) = nearest.filter(|&best| best != u32::MAX) {
                        let tied = via.iter().filter(|&&(d, _)| d[dst] == best);
                        routes.ecmp.extend(tied.map(|&(_, ch)| ch));
                    }
                }
                let len = routes.ecmp.len() - start;
                routes.next.push((start as u32, len as u32));
            }
        }
        assert!(
            u32::try_from(routes.ecmp.len()).is_ok(),
            "route table too large"
        );
        routes
    }

    /// Picks the outgoing channel for `(node → dst)`, applying
    /// deterministic per-flow ECMP over the equal-cost set.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a host or is unreachable from `node`.
    #[expect(
        clippy::panic,
        reason = "documented panic: routing to a switch or across a disconnected topology is a construction bug"
    )]
    pub(crate) fn out(&self, node: NodeId, dst: NodeId, flow: FlowId) -> ChannelId {
        if self.kinds[dst.index()] != NodeKind::Host {
            panic!("no route from {node} to {dst}");
        }
        let row = match self.egress[node.index()] {
            Egress::Uplink(ch) => return ch,
            Egress::Row(row) => row as usize,
        };
        let (start, len) = self.next[row * self.kinds.len() + dst.index()];
        let pick = match len {
            0 => panic!("no route from {node} to {dst}"),
            1 => 0,
            n => ecmp_hash(flow) % u64::from(n),
        };
        self.ecmp[start as usize + pick as usize]
    }
}

/// Hop distance from every switch to every node (`u32::MAX` if
/// unreachable), indexed `[switch][node]`; hosts get an empty row.
/// Breadth-first from each switch, never expanding a host: hosts are
/// reachable endpoints but cannot be transited.
fn switch_distances(kinds: &[NodeKind], adjacency: &Adjacency) -> Vec<Vec<u32>> {
    let n = kinds.len();
    let mut queue = VecDeque::new();
    (0..n)
        .map(|s| {
            if kinds[s] == NodeKind::Host {
                return Vec::new();
            }
            let mut d = vec![u32::MAX; n];
            d[s] = 0;
            queue.push_back(s);
            while let Some(x) = queue.pop_front() {
                if kinds[x] == NodeKind::Host {
                    continue;
                }
                for &(v, _) in &adjacency[x] {
                    let vi = v.index();
                    if d[vi] == u32::MAX {
                        d[vi] = d[x] + 1;
                        queue.push_back(vi);
                    }
                }
            }
            d
        })
        .collect()
}

/// Deterministic per-flow ECMP hash: splitmix64 of the flow label.
#[inline]
fn ecmp_hash(flow: FlowId) -> u64 {
    crate::hash::mix64(flow.0 ^ 0x9e37_79b9_7f4a_7c15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, SinkAgent};
    use crate::packet::{Packet, TagPayload};
    use crate::queue::QueueConfig;
    use crate::sim::Simulator;
    use crate::time::Dur;
    use crate::units::Bandwidth;

    #[test]
    fn ecmp_spreads_flows_across_equal_paths() {
        // h0 -- swA -- {sw1, sw2} -- swB -- h1: two equal-cost paths.
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h0 = sim.add_host(Box::new(SinkAgent::default()));
        let h1 = sim.add_host(Box::new(SinkAgent::default()));
        let swa = sim.add_switch();
        let sw1 = sim.add_switch();
        let sw2 = sim.add_switch();
        let swb = sim.add_switch();
        let cfg = QueueConfig::default();
        let bw = Bandwidth::gbps(1);
        let d = Dur::from_micros(1);
        sim.connect(h0, swa, bw, d, cfg);
        let (a1, _) = sim.connect(swa, sw1, bw, d, cfg);
        let (a2, _) = sim.connect(swa, sw2, bw, d, cfg);
        sim.connect(sw1, swb, bw, d, cfg);
        sim.connect(sw2, swb, bw, d, cfg);
        sim.connect(swb, h1, bw, d, cfg);
        for flow in 0..64 {
            sim.inject(h0, Packet::new(h0, h1, FlowId(flow), 1000, TagPayload(0)));
        }
        sim.run();
        assert_eq!(sim.host::<SinkAgent>(h1).received, 64);
        let via1 = sim.queue_stats(a1).enqueued;
        let via2 = sim.queue_stats(a2).enqueued;
        assert_eq!(via1 + via2, 64);
        assert!(via1 > 8 && via2 > 8, "both paths used: {via1}/{via2}");
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unreachable_destination_panics() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h0 = sim.add_host(Box::new(SinkAgent::default()));
        let h1 = sim.add_host(Box::new(SinkAgent::default()));
        // No links at all.
        sim.inject(h0, Packet::new(h0, h1, FlowId(0), 100, TagPayload(0)));
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn switch_destination_panics() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h0 = sim.add_host(Box::new(SinkAgent::default()));
        let sw = sim.add_switch();
        sim.connect(
            h0,
            sw,
            Bandwidth::gbps(1),
            Dur::from_micros(1),
            QueueConfig::default(),
        );
        // Switches terminate nothing: only hosts are valid destinations.
        sim.inject(h0, Packet::new(h0, sw, FlowId(0), 100, TagPayload(0)));
    }

    /// The per-hop search the dense next-hop table replaced, kept as the
    /// reference it must agree with: the parallel edges to `dst` when it
    /// is a direct neighbor, else the edges to the switch neighbors at
    /// minimum distance from `dst`, both in adjacency order; per-flow
    /// ECMP over that set.
    fn reference_route_out(
        adjacency: &Adjacency,
        dist: &[Vec<u32>],
        node: NodeId,
        dst: NodeId,
        flow: FlowId,
    ) -> ChannelId {
        let adj = &adjacency[node.index()];
        let edges_to = |pick: &dyn Fn(NodeId) -> bool| -> Vec<ChannelId> {
            let picked = adj.iter().filter(|&&(v, _)| pick(v));
            picked.map(|&(_, ch)| ch).collect()
        };
        let mut set = edges_to(&|v| v == dst);
        if set.is_empty() {
            let to_dst = |v: NodeId| dist[v.index()].get(dst.index()).copied();
            let best = adj.iter().filter_map(|&(v, _)| to_dst(v)).min();
            let best = best.expect("node has a switch neighbor");
            assert_ne!(best, u32::MAX, "no route from {node} to {dst}");
            set = edges_to(&|v| to_dst(v) == Some(best));
        }
        set[(ecmp_hash(flow) % set.len() as u64) as usize]
    }

    /// `RouteTable::out` equals the reference for every node, every host
    /// destination (the node itself included) and 64 flow labels.
    fn assert_routes_match_reference(sim: &Simulator<TagPayload>) {
        let (kinds, adjacency) = sim.graph();
        let table = RouteTable::build(kinds, adjacency);
        let dist = switch_distances(kinds, adjacency);
        let nodes = || (0..kinds.len() as u32).map(NodeId);
        for node in nodes() {
            for dst in nodes().filter(|d| kinds[d.index()] == NodeKind::Host) {
                for flow in (0..64).map(FlowId) {
                    assert_eq!(
                        table.out(node, dst, flow),
                        reference_route_out(adjacency, &dist, node, dst, flow),
                        "{node} -> {dst}, flow {flow:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn route_table_matches_per_hop_search() {
        let link = crate::topology::LinkSpec::new(
            Bandwidth::gbps(1),
            Dur::from_micros(1),
            QueueConfig::default(),
        );
        fn sink<T>(_: T) -> Box<dyn Agent<TagPayload>> {
            Box::new(SinkAgent::default())
        }

        let mut sim = Simulator::new();
        crate::topology::fat_tree(&mut sim, 4, link, sink);
        assert_routes_match_reference(&sim);

        let mut sim = Simulator::new();
        crate::topology::many_to_one(&mut sim, 50, link, sink);
        assert_routes_match_reference(&sim);

        // A multigraph no builder makes: parallel host-switch and
        // switch-switch edges, a longer detour beside them, a dual-homed
        // host, and two hosts joined directly (hosts forward nothing, so
        // each needs a switch of its own to be reachable by the rest).
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let [h0, h1, dual, lone, peer] = [(); 5].map(|()| sim.add_host(sink(())));
        let [sa, sb, sc] = [(); 3].map(|()| sim.add_switch());
        let mut join = |a, b| sim.connect(a, b, link.bandwidth, link.delay, link.queue);
        join(h0, sa);
        join(sa, sb);
        join(h0, sa);
        join(sa, sc);
        join(sa, sb);
        join(sc, sb);
        join(sb, h1);
        join(dual, sc);
        join(sb, h1);
        join(dual, sa);
        join(lone, sc);
        join(dual, peer);
        join(peer, sb);
        assert_routes_match_reference(&sim);
    }
}
