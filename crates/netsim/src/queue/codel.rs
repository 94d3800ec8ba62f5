//! Controlled Delay (Nichols & Jacobson 2012, RFC 8289): drop at
//! *dequeue* time when the head packet's sojourn exceeded `target`
//! continuously for `interval`, pacing further drops by
//! `interval / sqrt(count)`. Entirely deterministic. Dequeue-time drops
//! wait in the state for the engine to account for them.

use super::{Fifo, QueueStats};
use crate::packet::{Packet, Payload};
use crate::time::{Dur, SimTime};

/// Controlled Delay (CoDel) parameters (Nichols & Jacobson 2012).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoDelConfig {
    /// Acceptable standing sojourn time.
    pub target: Dur,
    /// How long the sojourn must stay above `target` before dropping
    /// starts; also the base of the drop-pacing control law.
    pub interval: Dur,
    /// Mark ECN-capable packets instead of dropping them.
    pub ecn: bool,
}

impl Default for CoDelConfig {
    /// The RFC 8289 internet defaults: target 5 ms, interval 100 ms.
    fn default() -> Self {
        CoDelConfig {
            target: Dur::from_millis(5),
            interval: Dur::from_millis(100),
            ecn: false,
        }
    }
}

impl CoDelConfig {
    /// Parameters rescaled to data-center RTTs (hundreds of µs): target
    /// 50 µs, interval 1 ms — the same 5% ratio as the RFC defaults.
    pub fn datacenter() -> Self {
        CoDelConfig {
            target: Dur::from_micros(50),
            interval: Dur::from_millis(1),
            ecn: false,
        }
    }
}

/// A packet CoDel dropped at dequeue time, with its measured sojourn.
/// Collected by the queue and drained by the engine via
/// [`DropTailQueue::take_sojourn_drops`](super::DropTailQueue::take_sojourn_drops)
/// so drop accounting and monitor events stay exact.
#[derive(Clone, Debug)]
pub struct SojournDrop<P> {
    /// The dropped packet.
    pub pkt: Packet<P>,
    /// How long it sat in the queue before the drop decision.
    pub sojourn: Dur,
}

/// A queued packet with its enqueue timestamp.
type Entry<P> = (SimTime, Packet<P>);

/// The per-queue CoDel state (RFC 8289): when the sojourn first stayed
/// above target, whether we are in the dropping state, the next
/// scheduled drop time, and the drop counts driving the control law.
#[derive(Debug)]
pub(super) struct CoDelState<P> {
    pub(super) cfg: CoDelConfig,
    first_above: Option<SimTime>,
    dropping: bool,
    drop_next: SimTime,
    count: u32,
    last_count: u32,
    /// Packets dropped during recent dequeues, awaiting engine
    /// accounting.
    pub(super) drops: Vec<SojournDrop<P>>,
}

impl<P: Payload> CoDelState<P> {
    pub(super) fn new(cfg: CoDelConfig) -> Self {
        CoDelState {
            cfg,
            first_above: None,
            dropping: false,
            drop_next: SimTime::ZERO,
            count: 0,
            last_count: 0,
            drops: Vec::new(),
        }
    }

    /// What [`Self::dequeue`] does when it hands out the only packet.
    pub(super) fn reset(&mut self) {
        (self.first_above, self.dropping) = (None, false);
    }

    /// One head pop: returns the head (if any) and whether the
    /// sojourn-time state machine permits dropping it.
    fn pop(&mut self, now: SimTime, fifo: &mut Fifo<P>) -> (Option<Entry<P>>, bool) {
        let Some((enq, pkt)) = fifo.pop() else {
            self.first_above = None;
            return (None, false);
        };
        let sojourn = now.saturating_since(enq);
        // Never drop the last packet: an empty queue would idle the link
        // (RFC 8289's one-MTU floor), and it guarantees that a dequeue
        // directly following an enqueue hands the packet out.
        if sojourn < self.cfg.target || fifo.is_empty() {
            self.first_above = None;
            return (Some((enq, pkt)), false);
        }
        match self.first_above {
            None => {
                self.first_above = Some(now + self.cfg.interval);
                (Some((enq, pkt)), false)
            }
            Some(first) => (Some((enq, pkt)), now >= first),
        }
    }

    /// Records one drop-or-mark on `(enq, pkt)`. Returns the packet when
    /// it was CE-marked (and must still be delivered), `None` when it
    /// was dropped.
    fn event(
        &mut self,
        now: SimTime,
        stats: &mut QueueStats,
        (enq, mut pkt): Entry<P>,
    ) -> Option<Entry<P>> {
        stats.sojourn_events += 1;
        if self.cfg.ecn && pkt.payload.ecn_capable() {
            pkt.payload.mark_ce();
            stats.ecn_marked += 1;
            return Some((enq, pkt));
        }
        stats.dropped += 1;
        self.drops.push(SojournDrop {
            pkt,
            sojourn: now.saturating_since(enq),
        });
        None
    }

    /// The RFC 8289 dequeue state machine.
    pub(super) fn dequeue(
        &mut self,
        now: SimTime,
        fifo: &mut Fifo<P>,
        stats: &mut QueueStats,
    ) -> Option<Packet<P>> {
        let interval = self.cfg.interval;
        let (mut head, mut ok_to_drop) = self.pop(now, fifo);
        if self.dropping {
            if !ok_to_drop {
                self.dropping = false;
            } else {
                while self.dropping && now >= self.drop_next {
                    let entry = head.take()?;
                    self.count += 1;
                    match self.event(now, stats, entry) {
                        Some(marked) => {
                            // Marked instead of dropped: pace the next
                            // event and deliver the marked packet.
                            self.drop_next = control_law(self.drop_next, interval, self.count);
                            head = Some(marked);
                            break;
                        }
                        None => {
                            let (next, next_ok) = self.pop(now, fifo);
                            head = next;
                            ok_to_drop = next_ok;
                            if !ok_to_drop {
                                self.dropping = false;
                            } else {
                                self.drop_next = control_law(self.drop_next, interval, self.count);
                            }
                        }
                    }
                }
            }
        } else if ok_to_drop {
            // Enter the dropping state with one drop/mark.
            let entry = head.take()?;
            if let Some(marked) = self.event(now, stats, entry) {
                head = Some(marked);
            } else {
                let (next, _) = self.pop(now, fifo);
                head = next;
            }
            self.dropping = true;
            // Resume at a higher drop rate when we were dropping
            // recently (within 16 intervals), per the RFC.
            let delta = self.count.saturating_sub(self.last_count);
            let recently =
                now.saturating_since(self.drop_next) < Dur::from_nanos(16 * interval.as_nanos());
            self.count = if delta > 1 && recently { delta } else { 1 };
            self.drop_next = control_law(now, interval, self.count);
            self.last_count = self.count;
        }
        head.map(|(_, p)| p)
    }
}

/// CoDel's drop-pacing control law: the next drop comes
/// `interval / sqrt(count)` after `t`.
fn control_law(t: SimTime, interval: Dur, count: u32) -> SimTime {
    let step = (interval.as_nanos() as f64 / f64::from(count.max(1)).sqrt()).max(1.0) as u64;
    t + Dur::from_nanos(step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId};
    use crate::queue::tests::{pkt, t, EcnPayload};
    use crate::queue::{DropTailQueue, QueueConfig};

    fn codel_cfg(target_us: u64, interval_us: u64) -> CoDelConfig {
        CoDelConfig {
            target: Dur::from_micros(target_us),
            interval: Dur::from_micros(interval_us),
            ecn: false,
        }
    }

    #[test]
    fn codel_below_target_never_drops() {
        let mut q =
            DropTailQueue::new(QueueConfig::drop_tail(100).with_codel(codel_cfg(100, 1000)));
        for i in 0..50u64 {
            q.enqueue(t(i), pkt(100));
            // Dequeue 50us later: sojourn 50us < 100us target.
            assert!(q.dequeue(t(i) + Dur::from_micros(50)).is_some());
        }
        assert_eq!(q.stats().dropped, 0);
        assert_eq!(q.stats().sojourn_events, 0);
        assert!(!q.has_sojourn_drops());
    }

    #[test]
    fn codel_drops_after_sustained_sojourn_above_target() {
        let mut q =
            DropTailQueue::new(QueueConfig::drop_tail(1000).with_codel(codel_cfg(100, 1000)));
        // Build a standing queue at t=0, then dequeue slowly: every head
        // has a sojourn far above target for far longer than interval.
        for _ in 0..200 {
            q.enqueue(t(0), pkt(100));
        }
        let mut delivered = 0u64;
        for i in 0..200u64 {
            // 500us apart, starting at 2ms: sojourn >= 2ms >> 100us.
            if q.dequeue(t(2_000 + i * 500)).is_some() {
                delivered += 1;
            }
            if q.is_empty() {
                break;
            }
        }
        let stats = q.stats();
        assert!(stats.sojourn_events > 0, "CoDel must engage");
        assert_eq!(stats.sojourn_events, stats.dropped);
        assert_eq!(stats.dequeued, delivered);
        assert_eq!(
            stats.enqueued,
            stats.dequeued + stats.dropped + q.len() as u64
        );
        let drops = q.take_sojourn_drops();
        assert_eq!(drops.len() as u64, stats.dropped);
        assert!(drops.iter().all(|d| d.sojourn >= Dur::from_micros(100)));
        assert!(!q.has_sojourn_drops(), "drain empties the buffer");
    }

    #[test]
    fn codel_is_deterministic() {
        let run = || {
            let mut q =
                DropTailQueue::new(QueueConfig::drop_tail(500).with_codel(codel_cfg(50, 500)));
            for i in 0..300u64 {
                q.enqueue(t(i * 2), pkt(100));
                if i % 3 == 0 {
                    q.dequeue(t(i * 2 + 1));
                }
            }
            // Drain.
            let mut n = 0;
            let mut when = 700u64;
            while !q.is_empty() {
                if q.dequeue(t(when)).is_some() {
                    n += 1;
                }
                when += 30;
            }
            let s = q.stats();
            (s.dropped, s.sojourn_events, s.dequeued, n)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn codel_never_drops_the_last_packet() {
        let mut q = DropTailQueue::new(QueueConfig::drop_tail(10).with_codel(codel_cfg(1, 1)));
        q.enqueue(t(0), pkt(100));
        // Massive sojourn, but it is the only packet: must be delivered.
        assert!(q.dequeue(t(1_000_000)).is_some());
        assert_eq!(q.stats().dropped, 0);
    }

    #[test]
    fn codel_ecn_marks_instead_of_dropping() {
        let codel = CoDelConfig {
            ecn: true,
            ..codel_cfg(100, 1000)
        };
        let mut q = DropTailQueue::new(QueueConfig::drop_tail(1000).with_codel(codel));
        let mk = || Packet::new(NodeId(0), NodeId(1), FlowId(0), 100, EcnPayload::default());
        for _ in 0..100 {
            q.enqueue(t(0), mk());
        }
        let mut marked = 0u64;
        for i in 0..100u64 {
            if let Some(p) = q.dequeue(t(2_000 + i * 500)) {
                if p.payload.is_ce() {
                    marked += 1;
                }
            }
            if q.is_empty() {
                break;
            }
        }
        let stats = q.stats();
        assert!(stats.sojourn_events > 0, "CoDel must engage");
        assert_eq!(stats.dropped, 0, "ECN-capable traffic is marked");
        assert_eq!(stats.ecn_marked, stats.sojourn_events);
        assert_eq!(marked, stats.ecn_marked);
        assert!(!q.has_sojourn_drops());
    }

    #[test]
    fn codel_control_law_paces_by_inverse_sqrt() {
        let i = Dur::from_micros(1000);
        let t0 = SimTime::from_nanos(0);
        assert_eq!(control_law(t0, i, 1), SimTime::from_nanos(1_000_000));
        assert_eq!(control_law(t0, i, 4), SimTime::from_nanos(500_000));
        assert_eq!(control_law(t0, i, 100), SimTime::from_nanos(100_000));
    }
}
