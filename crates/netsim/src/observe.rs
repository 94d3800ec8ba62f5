//! Where a packet's life is turned into numbers.
//!
//! The engine reports each lifecycle point of a packet (injected,
//! enqueued, dequeued, dropped, delivered) and each dispatched event to
//! one [`Observer`], which fans it out to the three observation
//! surfaces in a fixed order: the lifecycle counters behind
//! [`AuditStats`], the optional [`PacketTrace`], and the attached
//! [`InvariantMonitor`]s. Nothing here feeds back into the simulation.
//!
//! Cost when nothing is attached: a counter bump, one branch on the
//! trace and one on a cached monitor flag. When monitors are attached,
//! each event goes only to those whose interest mask holds its kind.

use crate::monitor::{AuditStats, InvariantMonitor, MonitorEvent, Violation};
use crate::packet::{ChannelId, FlowId, NodeId, Packet};
use crate::time::SimTime;
use crate::trace::{PacketEvent, PacketEventKind, PacketTrace};
use crate::units::QueueCapacity;

/// The header fields the observation surfaces report, copied out of a
/// packet so they outlive its move into a queue.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PacketMeta {
    src: NodeId,
    dst: NodeId,
    flow: FlowId,
    size: u32,
    uid: u64,
}

impl PacketMeta {
    #[inline]
    pub(crate) fn of<P>(pkt: &Packet<P>) -> Self {
        PacketMeta {
            src: pkt.src,
            dst: pkt.dst,
            flow: pkt.flow,
            size: pkt.size,
            uid: pkt.uid,
        }
    }
}

/// Why a queue dropped a packet.
#[derive(Clone, Copy, Debug)]
pub(crate) enum DropCause {
    /// The queue was full (or an injected fault dropped the arrival).
    Tail,
    /// RED dropped the arrival below capacity, at this EWMA estimate.
    Early { avg_queue: f64 },
    /// CoDel dropped the packet from the head at dequeue time.
    Sojourn { sojourn_ns: u64 },
}

/// Lifecycle counters, packet trace and invariant monitors of one
/// simulator. The counters are read by the engine's accessors and
/// written only by the lifecycle methods below.
#[derive(Default)]
pub(crate) struct Observer {
    pub(crate) injected: u64,
    pub(crate) delivered_pkts: u64,
    pub(crate) delivered_bytes: u64,
    pub(crate) dropped: u64,
    pub(crate) events_processed: u64,
    pub(crate) ptrace: Option<PacketTrace>,
    /// Each attached monitor behind its [`InvariantMonitor::interests`]
    /// mask, read once at attach time.
    monitors: Vec<(u32, Box<dyn InvariantMonitor>)>,
    /// Cached `!monitors.is_empty()`; the one branch every emission site
    /// pays when monitoring is detached.
    on: bool,
}

impl Observer {
    /// Hands an event to every attached monitor, building it only when
    /// there is one: detached, this is one branch and `f` never runs.
    #[inline]
    pub(crate) fn emit_with(&mut self, now: SimTime, f: impl FnOnce() -> MonitorEvent) {
        if self.on {
            self.fan_out(now, &f());
        }
    }

    /// Hands `ev` to every monitor interested in its kind, in attach
    /// order. Out of line, so emission sites inline only the branch.
    #[inline(never)]
    fn fan_out(&mut self, now: SimTime, ev: &MonitorEvent) {
        let bit = ev.kind_bit();
        for (interests, m) in &mut self.monitors {
            if *interests & bit != 0 {
                m.observe(now, ev);
            }
        }
    }

    fn trace(&mut self, at: SimTime, kind: PacketEventKind, pkt: PacketMeta) {
        if let Some(t) = &mut self.ptrace {
            t.record(PacketEvent {
                at,
                kind,
                src: pkt.src,
                dst: pkt.dst,
                flow: pkt.flow,
                size: pkt.size,
            });
        }
    }

    /// The engine is about to dispatch the event stamped `to`; `now` is
    /// still the previous instant, which is when monitors observe it.
    #[inline]
    pub(crate) fn clock(&mut self, now: SimTime, to: SimTime) {
        self.emit_with(now, || MonitorEvent::Clock { to });
        self.events_processed += 1;
    }

    /// Host `node` handed `pkt` to the network.
    #[inline]
    pub(crate) fn injected(&mut self, now: SimTime, node: NodeId, pkt: PacketMeta) {
        let PacketMeta {
            flow, uid, size, ..
        } = pkt;
        self.injected += 1;
        self.trace(now, PacketEventKind::Sent { node }, pkt);
        self.emit_with(now, || MonitorEvent::Injected {
            node,
            flow,
            uid,
            size,
        });
    }

    /// `pkt` terminated at host `node`.
    #[inline]
    pub(crate) fn delivered(&mut self, now: SimTime, node: NodeId, pkt: PacketMeta) {
        let PacketMeta {
            flow, uid, size, ..
        } = pkt;
        self.delivered_pkts += 1;
        self.delivered_bytes += u64::from(size);
        self.trace(now, PacketEventKind::Delivered { node }, pkt);
        self.emit_with(now, || MonitorEvent::Delivered {
            node,
            flow,
            uid,
            size,
        });
    }

    /// The queue of `channel` dropped `pkt`. Monitors see `Dropped`,
    /// then the cause-specific event for an AQM decision.
    #[inline]
    pub(crate) fn dropped(
        &mut self,
        now: SimTime,
        channel: ChannelId,
        pkt: PacketMeta,
        cause: DropCause,
    ) {
        let PacketMeta {
            flow, uid, size, ..
        } = pkt;
        self.dropped += 1;
        self.trace(now, PacketEventKind::Dropped { channel }, pkt);
        self.emit_with(now, || MonitorEvent::Dropped {
            channel,
            flow,
            uid,
            size,
        });
        match cause {
            DropCause::Tail => {}
            DropCause::Early { avg_queue } => self.emit_with(now, || MonitorEvent::AqmEarlyDrop {
                channel,
                flow,
                uid,
                size,
                avg_queue,
            }),
            DropCause::Sojourn { sojourn_ns } => {
                self.emit_with(now, || MonitorEvent::SojournDrop {
                    channel,
                    flow,
                    uid,
                    size,
                    sojourn_ns,
                })
            }
        }
    }

    /// The queue of `channel` accepted `pkt` and now holds `len_after`
    /// of the `capacity` it may.
    #[inline]
    pub(crate) fn enqueued(
        &mut self,
        now: SimTime,
        channel: ChannelId,
        pkt: PacketMeta,
        len_after: usize,
        capacity: QueueCapacity,
    ) {
        self.emit_with(now, || MonitorEvent::Enqueued {
            channel,
            flow: pkt.flow,
            uid: pkt.uid,
            len_after,
            cap_pkts: match capacity {
                QueueCapacity::Packets(n) => Some(n),
                QueueCapacity::Bytes(_) => None,
            },
        });
    }

    /// Packet `uid` of `flow` left the queue of `channel` for the
    /// transmitter.
    #[inline]
    pub(crate) fn dequeued(&mut self, now: SimTime, channel: ChannelId, flow: FlowId, uid: u64) {
        self.emit_with(now, || MonitorEvent::Dequeued { channel, flow, uid });
    }

    /// End of a `run_until`: every monitor checks the engine's audit.
    pub(crate) fn finalize(&mut self, now: SimTime, audit: &AuditStats) {
        for (_, m) in &mut self.monitors {
            m.finalize(now, audit);
        }
    }

    pub(crate) fn attach_monitor(&mut self, monitor: Box<dyn InvariantMonitor>) {
        self.monitors.push((monitor.interests(), monitor));
        self.on = true;
    }

    pub(crate) fn monitors_enabled(&self) -> bool {
        self.on
    }

    pub(crate) fn violations(&self) -> Vec<&Violation> {
        self.monitors
            .iter()
            .flat_map(|(_, m)| m.violations().iter())
            .collect()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test monitors share what they saw with the test body; no simulator state is shared"
)]
mod tests {
    use super::*;
    use crate::agent::{Agent, SinkAgent};
    use crate::monitor::interest;
    use crate::packet::TagPayload;
    use crate::queue::{CoDelConfig, QueueConfig, RedConfig};
    use crate::sim::{Ctx, Simulator};
    use crate::time::Dur;
    use crate::topology::sink_star;
    use crate::units::Bandwidth;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn star(n_senders: usize) -> (Simulator<TagPayload>, Vec<NodeId>, NodeId, ChannelId) {
        sink_star(n_senders, QueueConfig::default())
    }

    /// What a [`CountingMonitor`] saw, shared with the test that attached
    /// it (attached monitors are boxed inside the simulator).
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct Counts {
        injected: u64,
        delivered: u64,
        dropped: u64,
        early_drops: u64,
        sojourn_drops: u64,
    }

    /// Counts the packet-lifecycle monitor events; used to test the
    /// emission hooks themselves.
    #[derive(Debug, Default)]
    struct CountingMonitor(Rc<RefCell<Counts>>);
    impl InvariantMonitor for CountingMonitor {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn observe(&mut self, _at: SimTime, ev: &MonitorEvent) {
            let mut c = self.0.borrow_mut();
            match ev {
                MonitorEvent::Injected { .. } => c.injected += 1,
                MonitorEvent::Delivered { .. } => c.delivered += 1,
                MonitorEvent::Dropped { .. } => c.dropped += 1,
                MonitorEvent::AqmEarlyDrop { .. } => c.early_drops += 1,
                MonitorEvent::SojournDrop { .. } => c.sojourn_drops += 1,
                _ => {}
            }
        }
        fn violations(&self) -> &[Violation] {
            &[]
        }
    }

    /// Records every monitor event of the kinds in its mask into a log
    /// the test keeps a handle to.
    #[derive(Debug)]
    struct RecordingMonitor(Rc<RefCell<Vec<MonitorEvent>>>, u32);
    impl InvariantMonitor for RecordingMonitor {
        fn name(&self) -> &'static str {
            "recording"
        }
        fn interests(&self) -> u32 {
            self.1
        }
        fn observe(&mut self, _at: SimTime, ev: &MonitorEvent) {
            self.0.borrow_mut().push(ev.clone());
        }
        fn violations(&self) -> &[Violation] {
            &[]
        }
    }

    /// A monitor declaring two kinds sees every event of those kinds and
    /// nothing else, in emission order: exactly the full stream with the
    /// other kinds filtered out.
    #[test]
    fn a_monitor_sees_only_the_kinds_it_declares() {
        let (mut sim, senders, dst, _) = sink_star(3, QueueConfig::drop_tail(4));
        let all = Rc::new(RefCell::new(Vec::new()));
        let some = Rc::new(RefCell::new(Vec::new()));
        let mask = interest::ENQUEUED | interest::DROPPED;
        sim.attach_monitor(Box::new(RecordingMonitor(Rc::clone(&all), interest::ALL)));
        sim.attach_monitor(Box::new(RecordingMonitor(Rc::clone(&some), mask)));
        for &s in &senders {
            for _ in 0..10 {
                let flow = FlowId(s.index() as u64);
                sim.inject(s, Packet::new(s, dst, flow, 1460, TagPayload(0)));
            }
        }
        sim.run();
        let all = all.borrow();
        let some = some.borrow();
        let expected: Vec<&MonitorEvent> =
            all.iter().filter(|ev| ev.kind_bit() & mask != 0).collect();
        assert_eq!(some.iter().collect::<Vec<_>>(), expected);
        let kinds = |bit: u32| some.iter().filter(|ev| ev.kind_bit() == bit).count();
        assert!(kinds(interest::ENQUEUED) > 0 && kinds(interest::DROPPED) > 0);
        assert!(all.len() > some.len(), "the other kinds were emitted");
    }

    /// Ten packets from two senders cross two hops each. Every packet
    /// gets its own uid, is injected and delivered once, and at each hop
    /// is enqueued then dequeued on one channel — whether it found the
    /// transmitter idle or waited.
    #[test]
    fn monitors_see_every_packet_event_and_uids_are_unique() {
        let (mut sim, senders, dst, _) = star(2);
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.attach_monitor(Box::new(RecordingMonitor(Rc::clone(&log), interest::ALL)));
        assert!(sim.monitors_enabled());
        for (i, &s) in senders.iter().enumerate() {
            for _ in 0..5 {
                sim.inject(
                    s,
                    Packet::new(s, dst, FlowId(i as u64), 1460, TagPayload(0)),
                );
            }
        }
        sim.run();
        sim.assert_no_violations();
        let log = log.borrow();

        let injected: Vec<u64> = log
            .iter()
            .filter_map(|ev| match *ev {
                MonitorEvent::Injected { uid, .. } => Some(uid),
                _ => None,
            })
            .collect();
        let uids: std::collections::BTreeSet<u64> = injected.iter().copied().collect();
        assert_eq!((injected.len(), uids.len()), (10, 10), "one uid per packet");

        for &uid in &uids {
            let mut delivered = 0;
            // The packet's queue events, in order: ('E' | 'D', channel).
            let mut hops = Vec::new();
            for ev in log.iter() {
                match *ev {
                    MonitorEvent::Delivered { uid: u, .. } if u == uid => delivered += 1,
                    MonitorEvent::Enqueued {
                        uid: u, channel, ..
                    } if u == uid => hops.push(('E', channel)),
                    MonitorEvent::Dequeued {
                        uid: u, channel, ..
                    } if u == uid => hops.push(('D', channel)),
                    _ => {}
                }
            }
            assert_eq!(delivered, 1, "uid {uid} delivered once");
            assert_eq!(hops.len(), 4, "uid {uid}: two hops, {hops:?}");
            for hop in hops.chunks(2) {
                assert_eq!((hop[0].0, hop[1].0), ('E', 'D'), "uid {uid}: {hops:?}");
                assert_eq!(hop[0].1, hop[1].1, "uid {uid}: one channel per hop");
            }
            assert_ne!(hops[0].1, hops[2].1, "uid {uid}: two different hops");
        }
        let count = |want: fn(&MonitorEvent) -> bool| log.iter().filter(|ev| want(ev)).count();
        let enqueued = count(|ev| matches!(ev, MonitorEvent::Enqueued { .. }));
        let dequeued = count(|ev| matches!(ev, MonitorEvent::Dequeued { .. }));
        assert_eq!(
            (enqueued, dequeued),
            (20, 20),
            "no queue event of another uid"
        );
    }

    #[test]
    fn monitored_run_is_identical_to_unmonitored() {
        let run = |monitored: bool| {
            let (mut sim, senders, dst, ch) = star(3);
            if monitored {
                sim.attach_monitor(Box::new(CountingMonitor::default()));
            }
            for (i, &s) in senders.iter().enumerate() {
                for _ in 0..20 {
                    sim.inject(
                        s,
                        Packet::new(s, dst, FlowId(i as u64), 1460, TagPayload(0)),
                    );
                }
            }
            sim.run();
            (
                sim.now(),
                sim.host::<SinkAgent>(dst).received,
                sim.queue_stats(ch).max_len,
            )
        };
        assert_eq!(run(false), run(true));
    }

    /// An agent that reports through `emit_monitor_with`, counting how
    /// many times its closure actually ran.
    #[derive(Debug, Default)]
    struct ClosureCountingAgent {
        closures_run: u64,
    }
    impl Agent<TagPayload> for ClosureCountingAgent {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, TagPayload>, pkt: Packet<TagPayload>) {
            let runs = &mut self.closures_run;
            ctx.emit_monitor_with(|| {
                *runs += 1;
                MonitorEvent::CwndUpdate {
                    flow: pkt.flow,
                    cwnd: 1.0,
                    min_cwnd: 1.0,
                    max_cwnd: 64.0,
                }
            });
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _token: u64) {}
    }

    #[test]
    fn emit_monitor_with_skips_closure_when_detached() {
        let run = |monitored: bool| {
            let mut sim: Simulator<TagPayload> = Simulator::new();
            let sw = sim.add_switch();
            let src = sim.add_host(Box::new(SinkAgent::default()));
            let dst = sim.add_host(Box::new(ClosureCountingAgent::default()));
            let cfg = QueueConfig::default();
            sim.connect(src, sw, Bandwidth::gbps(1), Dur::from_micros(5), cfg);
            sim.connect(dst, sw, Bandwidth::gbps(1), Dur::from_micros(5), cfg);
            if monitored {
                sim.attach_monitor(Box::new(CountingMonitor::default()));
            }
            for i in 0..7 {
                sim.inject(src, Packet::new(src, dst, FlowId(i), 1000, TagPayload(0)));
            }
            sim.run();
            (
                sim.host::<ClosureCountingAgent>(dst).closures_run,
                sim.now(),
            )
        };
        let (unmon_closures, unmon_now) = run(false);
        let (mon_closures, mon_now) = run(true);
        assert_eq!(unmon_closures, 0, "detached run must build zero events");
        assert_eq!(mon_closures, 7, "monitored run builds one per packet");
        assert_eq!(unmon_now, mon_now, "monitoring never perturbs the run");
    }

    /// The three observation surfaces and the queues' own statistics
    /// tell one story, whichever way a packet is dropped: 3 senders
    /// blast 20 packets each at a bottleneck that drops by capacity, by
    /// RED, or by CoDel.
    #[test]
    fn observation_surfaces_agree() {
        let red = RedConfig {
            min_th: 1.0,
            max_th: 30.0,
            max_p: 0.5,
            wq: 1.0, // average == the standing queue, far above min_th
            ecn: false,
            seed: 5,
        };
        let codel = CoDelConfig {
            target: Dur::from_micros(1),
            interval: Dur::from_micros(10),
            ecn: false,
        };
        let causes = [
            ("tail", QueueConfig::drop_tail(2)),
            ("early", QueueConfig::drop_tail(100).with_red(red)),
            ("sojourn", QueueConfig::drop_tail(100).with_codel(codel)),
        ];
        for (cause, bottleneck) in causes {
            let (mut sim, senders, dst, down) = sink_star(3, bottleneck);
            sim.enable_packet_trace(1_000);
            let seen = Rc::new(RefCell::new(Counts::default()));
            sim.attach_monitor(Box::new(CountingMonitor(Rc::clone(&seen))));
            for &s in &senders {
                for _ in 0..20 {
                    let flow = FlowId(s.index() as u64);
                    sim.inject(s, Packet::new(s, dst, flow, 1460, TagPayload(0)));
                }
            }
            sim.run();

            let audit = sim.audit_stats();
            assert_eq!(audit.injected, 60, "{cause}");
            assert!(audit.dropped > 0, "{cause}: the bottleneck must drop");
            assert_eq!(audit.delivered + audit.dropped, 60, "{cause}");
            assert_eq!(audit.delivered, sim.delivered_packets(), "{cause}");

            let trace = sim.packet_trace().expect("enabled above");
            assert!(!trace.is_truncated(), "{cause}");
            let traced = |want: fn(&PacketEventKind) -> bool| {
                trace.events().iter().filter(|e| want(&e.kind)).count() as u64
            };
            let sent = traced(|k| matches!(k, PacketEventKind::Sent { .. }));
            let delivered = traced(|k| matches!(k, PacketEventKind::Delivered { .. }));
            let dropped = traced(|k| matches!(k, PacketEventKind::Dropped { .. }));
            assert_eq!(
                (sent, delivered, dropped),
                (audit.injected, audit.delivered, audit.dropped),
                "{cause}: packet trace vs audit"
            );

            let seen = *seen.borrow();
            assert_eq!(
                (seen.injected, seen.delivered, seen.dropped),
                (audit.injected, audit.delivered, audit.dropped),
                "{cause}: monitor events vs audit"
            );

            // Every channel of the star: one duplex link per host.
            let channels = (0..2 * (senders.len() as u32 + 1)).map(ChannelId);
            let queue_drops: u64 = channels.map(|ch| sim.queue_stats(ch).dropped).sum();
            assert_eq!(queue_drops, audit.dropped, "{cause}: queue stats vs audit");

            let stats = sim.queue_stats(down);
            assert_eq!(
                stats.dropped, audit.dropped,
                "{cause}: all at the bottleneck"
            );
            assert_eq!(seen.early_drops, stats.red_events, "{cause}");
            assert_eq!(seen.sojourn_drops, stats.sojourn_events, "{cause}");
            let by_cause = match cause {
                "tail" => audit.dropped - seen.early_drops - seen.sojourn_drops,
                "early" => seen.early_drops,
                _ => seen.sojourn_drops,
            };
            assert_eq!(by_cause, audit.dropped, "{cause}: the only cause at work");
            sim.assert_no_violations();
        }
    }
}
