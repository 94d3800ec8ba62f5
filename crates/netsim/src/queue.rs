//! Switch output queues: drop-tail FIFO plus RED and CoDel disciplines,
//! optional ECN marking, and occupancy statistics.
//!
//! The discipline is selected per queue via [`QueueDiscipline`]:
//!
//! - [`QueueDiscipline::DropTail`] — the paper's switches: accept until
//!   the capacity limit, then drop arrivals.
//! - [`QueueDiscipline::Red`] — Random Early Detection (Floyd &
//!   Jacobson 1993): drop/mark arrivals probabilistically from an EWMA
//!   queue estimate, with the classic count-since-last-drop correction
//!   so early events space out evenly. Randomness comes from a seeded
//!   per-queue splitmix64 stream, so runs stay byte-identical.
//! - [`QueueDiscipline::CoDel`] — Controlled Delay (Nichols &
//!   Jacobson 2012): drop at *dequeue* time when the head packet's
//!   sojourn exceeded `target` continuously for `interval`, pacing
//!   further drops by `interval / sqrt(count)`. Entirely deterministic.
//!   Dequeue-time drops surface through [`DropTailQueue::take_sojourn_drops`]
//!   so the engine can account for them.
//!
//! Both AQMs support ECN-style early-mark-as-drop semantics: when `ecn`
//! is set and the packet is ECN-capable, the discipline CE-marks instead
//! of dropping and the packet is still delivered.

use std::collections::VecDeque;

use crate::hash::FastHashSet;
use crate::packet::{Packet, Payload};
use crate::time::{Dur, SimTime};
use crate::units::QueueCapacity;

/// Random Early Detection parameters (Floyd & Jacobson 1993).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RedConfig {
    /// Average queue length below which every packet is accepted.
    pub min_th: f64,
    /// Average queue length above which every packet is dropped/marked.
    pub max_th: f64,
    /// Drop/mark probability at `max_th`.
    pub max_p: f64,
    /// EWMA weight for the average queue estimate.
    pub wq: f64,
    /// Mark ECN-capable packets instead of dropping them.
    pub ecn: bool,
    /// Seed for the queue's deterministic PRNG.
    pub seed: u64,
}

impl Default for RedConfig {
    /// Classic gentle-ish defaults: min 15, max 45, max_p 0.1, wq 0.002.
    fn default() -> Self {
        RedConfig {
            min_th: 15.0,
            max_th: 45.0,
            max_p: 0.1,
            wq: 0.002,
            ecn: false,
            seed: 0x9e37_79b9,
        }
    }
}

impl RedConfig {
    /// One EWMA step of the average-queue estimate:
    /// `avg' = (1 - wq)·avg + wq·len`.
    pub fn ewma(&self, avg: f64, len: usize) -> f64 {
        (1.0 - self.wq) * avg + self.wq * len as f64
    }

    /// The base drop probability `p_b`: 0 below `min_th`, 1 at or above
    /// `max_th`, linear interpolation toward `max_p` in between.
    pub fn base_probability(&self, avg: f64) -> f64 {
        if avg <= self.min_th {
            0.0
        } else if avg >= self.max_th {
            1.0
        } else {
            self.max_p * (avg - self.min_th) / (self.max_th - self.min_th)
        }
    }

    /// The per-packet drop probability with the count correction:
    /// `p_a = p_b / (1 - count·p_b)`, clamped to `[0, 1]`, where `count`
    /// packets were accepted since the last early drop/mark. The
    /// correction turns the geometric inter-drop gaps of raw Bernoulli
    /// trials into (roughly) uniform spacing, guaranteeing a drop within
    /// `1/p_b` packets.
    pub fn drop_probability(&self, avg: f64, count: u64) -> f64 {
        let pb = self.base_probability(avg);
        if pb <= 0.0 {
            return 0.0;
        }
        let denom = 1.0 - count as f64 * pb;
        if denom <= pb {
            1.0
        } else {
            (pb / denom).min(1.0)
        }
    }
}

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

/// Queue management discipline of one switch output queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueueDiscipline {
    /// Plain drop-tail (the paper's switches).
    DropTail,
    /// Random Early Detection, with a deterministic seeded PRNG so runs
    /// stay reproducible.
    Red(RedConfig),
    /// Controlled Delay: sojourn-time dropping at dequeue, fully
    /// deterministic.
    CoDel(CoDelConfig),
}

/// Former name of [`QueueDiscipline`], kept for existing call sites.
pub type Aqm = QueueDiscipline;

/// Configuration of a switch output queue.
#[derive(Clone, Copy, Debug)]
pub struct QueueConfig {
    /// Maximum occupancy; arrivals beyond it are dropped (drop-tail).
    pub capacity: QueueCapacity,
    /// Instantaneous-queue ECN marking threshold in packets, as used by
    /// DCTCP: an arriving ECN-capable packet is marked CE when the queue
    /// length (including itself) exceeds this threshold. `None` disables
    /// marking.
    pub ecn_threshold: Option<usize>,
    /// Queue management discipline applied before the capacity check.
    pub aqm: QueueDiscipline,
}

impl QueueConfig {
    /// A drop-tail queue holding at most `pkts` packets, no ECN.
    pub fn drop_tail(pkts: usize) -> Self {
        QueueConfig {
            capacity: QueueCapacity::Packets(pkts),
            ecn_threshold: None,
            aqm: QueueDiscipline::DropTail,
        }
    }

    /// Enables ECN marking above `pkts` queued packets.
    pub fn with_ecn_threshold(mut self, pkts: usize) -> Self {
        self.ecn_threshold = Some(pkts);
        self
    }

    /// Applies RED instead of pure drop-tail (the capacity limit still
    /// backstops the queue).
    pub fn with_red(mut self, red: RedConfig) -> Self {
        self.aqm = QueueDiscipline::Red(red);
        self
    }

    /// Applies CoDel instead of pure drop-tail (the capacity limit still
    /// backstops the queue).
    pub fn with_codel(mut self, codel: CoDelConfig) -> Self {
        self.aqm = QueueDiscipline::CoDel(codel);
        self
    }
}

impl Default for QueueConfig {
    /// 100 packets, the buffer size used throughout the paper's 1 Gbps
    /// scenarios.
    fn default() -> Self {
        QueueConfig::drop_tail(100)
    }
}

/// Running statistics for one queue.
///
/// The occupancy integral enables the paper's *average queue length* metric
/// (Fig. 9(b)): `AQL = integral / observed span`.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueStats {
    /// Packets accepted into the queue (or straight into the transmitter).
    pub enqueued: u64,
    /// Packets dropped because the queue was full.
    pub dropped: u64,
    /// Packets handed to the transmitter.
    pub dequeued: u64,
    /// Bytes handed to the transmitter.
    pub dequeued_bytes: u64,
    /// Packets marked CE on arrival.
    pub ecn_marked: u64,
    /// Packets dropped or marked early by RED (subset of `dropped` /
    /// `ecn_marked`).
    pub red_events: u64,
    /// Packets dropped or marked by CoDel at dequeue time (subset of
    /// `dropped` / `ecn_marked`).
    pub sojourn_events: u64,
    /// Highest queue length seen, in packets.
    pub max_len: usize,
    /// Sum of (queue length x time) in packet-nanoseconds.
    pub occupancy_integral: u128,
}

impl QueueStats {
    /// Average queue length in packets over `span`.
    ///
    /// Returns 0 for an empty span.
    pub fn average_len(&self, span: Dur) -> f64 {
        if span == Dur::ZERO {
            return 0.0;
        }
        self.occupancy_integral as f64 / span.as_nanos() as f64
    }
}

/// A point in a recorded queue-length time series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueueSample {
    /// When the sample was taken.
    pub at: SimTime,
    /// Queue length in packets at that instant.
    pub len: usize,
}

/// A packet CoDel dropped at dequeue time, with its measured sojourn.
/// Collected by the queue and drained by the engine via
/// [`DropTailQueue::take_sojourn_drops`] so drop accounting and monitor
/// events stay exact.
#[derive(Clone, Debug)]
pub struct SojournDrop<P> {
    /// The dropped packet.
    pub pkt: Packet<P>,
    /// How long it sat in the queue before the drop decision.
    pub sojourn: Dur,
}

/// A FIFO queue with a configurable discipline (drop-tail backstop plus
/// optional RED or CoDel), statistics, and an optional length recorder.
#[derive(Debug)]
pub struct DropTailQueue<P> {
    config: QueueConfig,
    /// Queued packets with their enqueue timestamps (CoDel sojourn).
    items: VecDeque<(SimTime, Packet<P>)>,
    bytes: u64,
    stats: QueueStats,
    last_change: SimTime,
    recorder: Option<Vec<QueueSample>>,
    /// Fault injection: 0-based indices (in arrival order) of packets to
    /// drop deterministically, regardless of occupancy.
    forced_drops: FastHashSet<u64>,
    /// Fault injection: packets that may still be admitted beyond the
    /// configured capacity.
    overadmit_budget: u64,
    arrivals: u64,
    /// RED state: EWMA of the queue length, packets accepted since the
    /// last early event, and the PRNG stream position.
    red_avg: f64,
    red_count: u64,
    red_rng: u64,
    /// CoDel state (RFC 8289): when the sojourn first stayed above
    /// target, whether we are in the dropping state, the next scheduled
    /// drop time, and the drop counts driving the control law.
    codel_first_above: Option<SimTime>,
    codel_dropping: bool,
    codel_drop_next: SimTime,
    codel_count: u32,
    codel_last_count: u32,
    /// Packets CoDel dropped during recent dequeues, awaiting engine
    /// accounting. Empty unless the discipline is CoDel.
    sojourn_drops: Vec<SojournDrop<P>>,
}

/// Outcome of offering a packet to a queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EnqueueOutcome {
    /// Packet accepted.
    Accepted,
    /// Packet dropped (queue full, or an injected forced drop).
    Dropped,
    /// Packet dropped early by the AQM below capacity, carrying the
    /// average-queue estimate that drove the decision.
    EarlyDropped {
        /// The EWMA queue estimate at the drop decision.
        avg_queue: f64,
    },
}

impl<P: Payload> DropTailQueue<P> {
    /// Creates an empty queue.
    pub fn new(config: QueueConfig) -> Self {
        DropTailQueue {
            config,
            items: VecDeque::new(),
            bytes: 0,
            stats: QueueStats::default(),
            last_change: SimTime::ZERO,
            recorder: None,
            forced_drops: FastHashSet::default(),
            overadmit_budget: 0,
            arrivals: 0,
            red_avg: 0.0,
            red_count: 0,
            red_rng: match config.aqm {
                QueueDiscipline::Red(r) => r.seed,
                QueueDiscipline::DropTail | QueueDiscipline::CoDel(_) => 0,
            },
            codel_first_above: None,
            codel_dropping: false,
            codel_drop_next: SimTime::ZERO,
            codel_count: 0,
            codel_last_count: 0,
            sojourn_drops: Vec::new(),
        }
    }

    /// Fault injection: deterministically drop the packets whose 0-based
    /// arrival index (counting every packet offered to this queue) is in
    /// `indices`, regardless of occupancy. Used to construct exact loss
    /// patterns in tests — e.g. "lose the whole tail of a window" to
    /// force an RTO rather than a fast retransmit.
    pub fn inject_drops(&mut self, indices: impl IntoIterator<Item = u64>) {
        self.forced_drops.extend(indices);
    }

    /// Fault injection: lets the queue admit up to `extra` packets beyond
    /// its configured capacity (each over-capacity admission consumes one
    /// unit of the budget). This deliberately *breaks* the queue-bound
    /// invariant; it exists so the invariant monitors can be shown to
    /// catch a real over-admission, and has no other legitimate use.
    pub fn inject_overadmit(&mut self, extra: u64) {
        self.overadmit_budget += extra;
    }

    /// The queue's configuration.
    pub fn config(&self) -> QueueConfig {
        self.config
    }

    /// Starts recording a (time, length) sample on every length change.
    pub fn enable_recording(&mut self) {
        if self.recorder.is_none() {
            self.recorder = Some(vec![QueueSample {
                at: SimTime::ZERO,
                len: self.items.len(),
            }]);
        }
    }

    /// The recorded length series, if recording was enabled.
    pub fn samples(&self) -> Option<&[QueueSample]> {
        self.recorder.as_deref()
    }

    /// Current length in packets.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue holds no packets.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Current occupancy in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Statistics accumulated so far. The occupancy integral includes time
    /// up to the last enqueue/dequeue only; call [`Self::settle`] first to
    /// extend it to a chosen end time.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Extends the occupancy integral to `now` without changing contents.
    pub fn settle(&mut self, now: SimTime) {
        self.advance_clock(now);
    }

    /// Offers a packet. On acceptance the packet may be CE-marked per the
    /// RED/ECN configuration. Statistics are updated either way.
    pub fn enqueue(&mut self, now: SimTime, mut pkt: Packet<P>) -> EnqueueOutcome {
        self.advance_clock(now);
        let arrival = self.arrivals;
        self.arrivals += 1;
        if !self.forced_drops.is_empty() && self.forced_drops.remove(&arrival) {
            self.stats.dropped += 1;
            return EnqueueOutcome::Dropped;
        }
        if !self
            .config
            .capacity
            .admits(self.items.len(), self.bytes, pkt.size)
        {
            if self.overadmit_budget > 0 {
                // Injected fault: admit beyond capacity (skipping the AQM
                // and ECN steps) so the queue-bound monitor has something
                // real to catch.
                self.overadmit_budget -= 1;
                self.bytes += pkt.size as u64;
                self.items.push_back((now, pkt));
                self.stats.enqueued += 1;
                self.stats.max_len = self.stats.max_len.max(self.items.len());
                self.record(now);
                return EnqueueOutcome::Accepted;
            }
            self.stats.dropped += 1;
            return EnqueueOutcome::Dropped;
        }
        if let QueueDiscipline::Red(red) = self.config.aqm {
            self.red_avg = red.ewma(self.red_avg, self.items.len());
            if self.red_avg <= red.min_th {
                self.red_count = 0;
            } else {
                let p = red.drop_probability(self.red_avg, self.red_count);
                // Deterministic PRNG: splitmix64 stream.
                self.red_rng = self.red_rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.red_rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                let u = (z ^ (z >> 31)) as f64 / u64::MAX as f64;
                if u < p {
                    self.red_count = 0;
                    self.stats.red_events += 1;
                    if red.ecn && pkt.payload.ecn_capable() {
                        pkt.payload.mark_ce();
                        self.stats.ecn_marked += 1;
                        // Marked packets are still enqueued below.
                    } else {
                        self.stats.dropped += 1;
                        return EnqueueOutcome::EarlyDropped {
                            avg_queue: self.red_avg,
                        };
                    }
                } else {
                    self.red_count += 1;
                }
            }
        }
        if let Some(thresh) = self.config.ecn_threshold {
            if pkt.payload.ecn_capable() && self.items.len() + 1 > thresh {
                pkt.payload.mark_ce();
                self.stats.ecn_marked += 1;
            }
        }
        self.bytes += pkt.size as u64;
        self.items.push_back((now, pkt));
        self.stats.enqueued += 1;
        self.stats.max_len = self.stats.max_len.max(self.items.len());
        self.record(now);
        EnqueueOutcome::Accepted
    }

    /// Removes the packet at the head, if any. Under CoDel this may first
    /// drop head packets whose sojourn stayed above target; the dropped
    /// packets wait in [`Self::take_sojourn_drops`] for engine accounting.
    /// The last remaining packet is never sojourn-dropped, so a dequeue
    /// directly after a successful enqueue always yields a packet.
    pub fn dequeue(&mut self, now: SimTime) -> Option<Packet<P>> {
        self.advance_clock(now);
        let pkt = match self.config.aqm {
            QueueDiscipline::CoDel(codel) => self.codel_dequeue(now, codel),
            QueueDiscipline::DropTail | QueueDiscipline::Red(_) => self.pop_head().map(|(_, p)| p),
        };
        let pkt = pkt?;
        self.stats.dequeued += 1;
        self.stats.dequeued_bytes += pkt.size as u64;
        self.record(now);
        Some(pkt)
    }

    /// Drains the packets CoDel dropped during recent dequeues. Always
    /// empty for drop-tail and RED queues.
    pub fn take_sojourn_drops(&mut self) -> Vec<SojournDrop<P>> {
        std::mem::take(&mut self.sojourn_drops)
    }

    /// Whether any sojourn drops await [`Self::take_sojourn_drops`].
    pub fn has_sojourn_drops(&self) -> bool {
        !self.sojourn_drops.is_empty()
    }

    fn pop_head(&mut self) -> Option<(SimTime, Packet<P>)> {
        let (enq, pkt) = self.items.pop_front()?;
        self.bytes -= pkt.size as u64;
        Some((enq, pkt))
    }

    /// One CoDel head pop: returns the head (if any) and whether the
    /// sojourn-time state machine permits dropping it.
    fn codel_pop(
        &mut self,
        now: SimTime,
        codel: CoDelConfig,
    ) -> (Option<(SimTime, Packet<P>)>, bool) {
        let Some((enq, pkt)) = self.pop_head() else {
            self.codel_first_above = None;
            return (None, false);
        };
        let sojourn = now.saturating_since(enq);
        // Never drop the last packet: an empty queue would idle the link
        // (RFC 8289's one-MTU floor), and it guarantees that a dequeue
        // directly following an enqueue hands the packet out.
        if sojourn < codel.target || self.items.is_empty() {
            self.codel_first_above = None;
            return (Some((enq, pkt)), false);
        }
        match self.codel_first_above {
            None => {
                self.codel_first_above = Some(now + codel.interval);
                (Some((enq, pkt)), false)
            }
            Some(first) => (Some((enq, pkt)), now >= first),
        }
    }

    /// Records one CoDel drop-or-mark on `(enq, pkt)`. Returns the packet
    /// when it was CE-marked (and must still be delivered), `None` when it
    /// was dropped.
    fn codel_event(
        &mut self,
        now: SimTime,
        codel: CoDelConfig,
        enq: SimTime,
        mut pkt: Packet<P>,
    ) -> Option<(SimTime, Packet<P>)> {
        self.stats.sojourn_events += 1;
        if codel.ecn && pkt.payload.ecn_capable() {
            pkt.payload.mark_ce();
            self.stats.ecn_marked += 1;
            return Some((enq, pkt));
        }
        self.stats.dropped += 1;
        self.sojourn_drops.push(SojournDrop {
            pkt,
            sojourn: now.saturating_since(enq),
        });
        None
    }

    /// The RFC 8289 dequeue state machine.
    fn codel_dequeue(&mut self, now: SimTime, codel: CoDelConfig) -> Option<Packet<P>> {
        let (mut head, mut ok_to_drop) = self.codel_pop(now, codel);
        if self.codel_dropping {
            if !ok_to_drop {
                self.codel_dropping = false;
            } else {
                while self.codel_dropping && now >= self.codel_drop_next {
                    let (enq, pkt) = head.take()?;
                    self.codel_count += 1;
                    match self.codel_event(now, codel, enq, pkt) {
                        Some(marked) => {
                            // Marked instead of dropped: pace the next
                            // event and deliver the marked packet.
                            self.codel_drop_next = codel_control_law(
                                self.codel_drop_next,
                                codel.interval,
                                self.codel_count,
                            );
                            head = Some(marked);
                            break;
                        }
                        None => {
                            let (next, next_ok) = self.codel_pop(now, codel);
                            head = next;
                            ok_to_drop = next_ok;
                            if !ok_to_drop {
                                self.codel_dropping = false;
                            } else {
                                self.codel_drop_next = codel_control_law(
                                    self.codel_drop_next,
                                    codel.interval,
                                    self.codel_count,
                                );
                            }
                        }
                    }
                }
            }
        } else if ok_to_drop {
            // Enter the dropping state with one drop/mark.
            let (enq, pkt) = head.take()?;
            if let Some(marked) = self.codel_event(now, codel, enq, pkt) {
                head = Some(marked);
            } else {
                let (next, _) = self.codel_pop(now, codel);
                head = next;
            }
            self.codel_dropping = true;
            // Resume at a higher drop rate when we were dropping
            // recently (within 16 intervals), per the RFC.
            let delta = self.codel_count.saturating_sub(self.codel_last_count);
            let recently = now.saturating_since(self.codel_drop_next)
                < Dur::from_nanos(16 * codel.interval.as_nanos());
            self.codel_count = if delta > 1 && recently { delta } else { 1 };
            self.codel_drop_next = codel_control_law(now, codel.interval, self.codel_count);
            self.codel_last_count = self.codel_count;
        }
        head.map(|(_, p)| p)
    }

    fn advance_clock(&mut self, now: SimTime) {
        let span = now.saturating_since(self.last_change);
        self.stats.occupancy_integral += self.items.len() as u128 * span.as_nanos() as u128;
        if now > self.last_change {
            self.last_change = now;
        }
    }

    fn record(&mut self, now: SimTime) {
        if let Some(rec) = &mut self.recorder {
            rec.push(QueueSample {
                at: now,
                len: self.items.len(),
            });
        }
    }
}

/// CoDel's drop-pacing control law: the next drop comes
/// `interval / sqrt(count)` after `t`.
fn codel_control_law(t: SimTime, interval: Dur, count: u32) -> SimTime {
    let step = (interval.as_nanos() as f64 / f64::from(count.max(1)).sqrt()).max(1.0) as u64;
    t + Dur::from_nanos(step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, TagPayload};

    fn pkt(size: u32) -> Packet<TagPayload> {
        Packet::new(NodeId(0), NodeId(1), FlowId(0), size, TagPayload(0))
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    fn is_drop(outcome: EnqueueOutcome) -> bool {
        !matches!(outcome, EnqueueOutcome::Accepted)
    }

    #[test]
    fn fifo_order() {
        let mut q = DropTailQueue::new(QueueConfig::drop_tail(10));
        for i in 0..3 {
            let mut p = pkt(100);
            p.payload = TagPayload(i);
            assert_eq!(q.enqueue(t(0), p), EnqueueOutcome::Accepted);
        }
        for i in 0..3 {
            assert_eq!(q.dequeue(t(1)).unwrap().payload, TagPayload(i));
        }
        assert!(q.dequeue(t(2)).is_none());
    }

    #[test]
    fn drop_tail_on_packet_capacity() {
        let mut q = DropTailQueue::new(QueueConfig::drop_tail(2));
        assert_eq!(q.enqueue(t(0), pkt(100)), EnqueueOutcome::Accepted);
        assert_eq!(q.enqueue(t(0), pkt(100)), EnqueueOutcome::Accepted);
        assert_eq!(q.enqueue(t(0), pkt(100)), EnqueueOutcome::Dropped);
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.stats().enqueued, 2);
        assert_eq!(q.stats().max_len, 2);
    }

    #[test]
    fn drop_tail_on_byte_capacity() {
        let mut q = DropTailQueue::new(QueueConfig {
            capacity: QueueCapacity::Bytes(250),
            ecn_threshold: None,
            aqm: QueueDiscipline::DropTail,
        });
        assert_eq!(q.enqueue(t(0), pkt(100)), EnqueueOutcome::Accepted);
        assert_eq!(q.enqueue(t(0), pkt(100)), EnqueueOutcome::Accepted);
        assert_eq!(q.enqueue(t(0), pkt(100)), EnqueueOutcome::Dropped);
        assert_eq!(q.bytes(), 200);
    }

    #[test]
    fn occupancy_integral_accumulates() {
        let mut q = DropTailQueue::new(QueueConfig::drop_tail(10));
        q.enqueue(t(0), pkt(100));
        q.enqueue(t(10), pkt(100)); // 1 pkt for 10us
        q.dequeue(t(30)); // 2 pkts for 20us
        q.settle(t(40)); // 1 pkt for 10us
        let integral = q.stats().occupancy_integral;
        assert_eq!(integral, (10_000 + 2 * 20_000 + 10_000) as u128);
        let avg = q.stats().average_len(Dur::from_micros(40));
        assert!((avg - 1.5).abs() < 1e-9);
    }

    #[test]
    fn average_len_zero_span() {
        let q: DropTailQueue<TagPayload> = DropTailQueue::new(QueueConfig::default());
        assert_eq!(q.stats().average_len(Dur::ZERO), 0.0);
    }

    #[test]
    fn recording_captures_changes() {
        let mut q = DropTailQueue::new(QueueConfig::drop_tail(10));
        q.enable_recording();
        q.enqueue(t(1), pkt(100));
        q.enqueue(t(2), pkt(100));
        q.dequeue(t(3));
        let s = q.samples().unwrap();
        assert_eq!(
            s,
            &[
                QueueSample { at: t(0), len: 0 },
                QueueSample { at: t(1), len: 1 },
                QueueSample { at: t(2), len: 2 },
                QueueSample { at: t(3), len: 1 },
            ]
        );
    }

    #[derive(Clone, Copy, Debug, Default)]
    struct EcnPayload {
        ce: bool,
    }
    impl Payload for EcnPayload {
        fn ecn_capable(&self) -> bool {
            true
        }
        fn mark_ce(&mut self) {
            self.ce = true;
        }
        fn is_ce(&self) -> bool {
            self.ce
        }
    }

    #[test]
    fn ecn_marks_above_threshold() {
        let mut q = DropTailQueue::new(QueueConfig::drop_tail(10).with_ecn_threshold(1));
        let mk = || Packet::new(NodeId(0), NodeId(1), FlowId(0), 100, EcnPayload::default());
        q.enqueue(t(0), mk()); // len 1, not > 1: unmarked
        q.enqueue(t(0), mk()); // len 2 > 1: marked
        assert!(!q.dequeue(t(1)).unwrap().payload.is_ce());
        assert!(q.dequeue(t(1)).unwrap().payload.is_ce());
        assert_eq!(q.stats().ecn_marked, 1);
    }

    #[test]
    fn red_drops_early_and_deterministically() {
        let red = RedConfig {
            min_th: 2.0,
            max_th: 6.0,
            max_p: 1.0,
            wq: 0.5, // fast-moving average for the test
            ecn: false,
            seed: 7,
        };
        let run = || {
            let mut q = DropTailQueue::new(QueueConfig::drop_tail(100).with_red(red));
            for _ in 0..50 {
                q.enqueue(t(0), pkt(100));
            }
            (q.stats().dropped, q.stats().red_events, q.len())
        };
        let (dropped, red_events, len) = run();
        assert!(dropped > 0, "RED must drop before the 100-packet limit");
        assert_eq!(dropped, red_events);
        assert!(len < 50);
        assert_eq!(run(), (dropped, red_events, len), "deterministic");
    }

    #[test]
    fn red_early_drop_reports_the_average() {
        let red = RedConfig {
            min_th: 1.0,
            max_th: 2.0,
            max_p: 1.0,
            wq: 1.0, // average == instantaneous length
            ecn: false,
            seed: 1,
        };
        let mut q = DropTailQueue::new(QueueConfig::drop_tail(100).with_red(red));
        let mut early = None;
        for _ in 0..10 {
            if let EnqueueOutcome::EarlyDropped { avg_queue } = q.enqueue(t(0), pkt(100)) {
                early = Some(avg_queue);
                break;
            }
        }
        let avg = early.expect("RED with max_p=1 above max_th must early-drop");
        assert!(avg >= red.max_th, "early drop above max_th, got avg {avg}");
    }

    #[test]
    fn red_ecn_marks_instead_of_dropping() {
        let red = RedConfig {
            min_th: 1.0,
            max_th: 3.0,
            max_p: 1.0,
            wq: 0.9,
            ecn: true,
            seed: 3,
        };
        let mut q = DropTailQueue::new(QueueConfig::drop_tail(100).with_red(red));
        let mk = || Packet::new(NodeId(0), NodeId(1), FlowId(0), 100, EcnPayload::default());
        for _ in 0..30 {
            q.enqueue(t(0), mk());
        }
        assert_eq!(q.stats().dropped, 0, "ECN-capable traffic is marked");
        assert!(q.stats().ecn_marked > 0);
        assert_eq!(q.len(), 30);
    }

    #[test]
    fn red_below_min_th_never_drops() {
        let red = RedConfig::default();
        let mut q = DropTailQueue::new(QueueConfig::drop_tail(100).with_red(red));
        for _ in 0..10 {
            q.enqueue(t(0), pkt(100));
            q.dequeue(t(1));
        }
        assert_eq!(q.stats().dropped, 0);
        assert_eq!(q.stats().red_events, 0);
    }

    /// Table-driven known answers for the min/max-threshold interpolation
    /// of `p_b` (Floyd & Jacobson Eq. 1-2).
    #[test]
    fn red_base_probability_known_answers() {
        let red = RedConfig {
            min_th: 10.0,
            max_th: 30.0,
            max_p: 0.2,
            ..RedConfig::default()
        };
        let table: &[(f64, f64)] = &[
            (0.0, 0.0),   // empty queue
            (10.0, 0.0),  // exactly min_th: still accept-all
            (15.0, 0.05), // quarter of the band
            (20.0, 0.1),  // midpoint: max_p / 2
            (25.0, 0.15), // three quarters
            (30.0, 1.0),  // at max_th: hard drop region
            (99.0, 1.0),  // far above
        ];
        for &(avg, want) in table {
            let got = red.base_probability(avg);
            assert!(
                (got - want).abs() < 1e-12,
                "p_b({avg}) = {got}, want {want}"
            );
        }
    }

    /// Known answers for one EWMA averaging step.
    #[test]
    fn red_ewma_known_answers() {
        let red = RedConfig {
            wq: 0.002,
            ..RedConfig::default()
        };
        let table: &[(f64, usize, f64)] = &[
            (0.0, 0, 0.0),
            (10.0, 20, 10.02), // 0.998*10 + 0.002*20
            (10.0, 10, 10.0),  // fixed point
            (100.0, 0, 99.8),  // decay toward an empty queue
        ];
        for &(avg, len, want) in table {
            let got = red.ewma(avg, len);
            assert!(
                (got - want).abs() < 1e-9,
                "ewma({avg}, {len}) = {got}, want {want}"
            );
        }
        let fast = RedConfig {
            wq: 1.0,
            ..RedConfig::default()
        };
        assert_eq!(
            fast.ewma(3.0, 7),
            7.0,
            "wq=1 tracks the instantaneous length"
        );
    }

    /// Known answers for the count-since-last-drop correction: with
    /// `p_b = 1/4` the corrected probability climbs 1/4, 1/3, 1/2, 1 —
    /// a drop is certain within `1/p_b` packets (even spacing instead of
    /// the geometric tail of raw Bernoulli trials).
    #[test]
    fn red_count_correction_known_answers() {
        let red = RedConfig {
            min_th: 0.0,
            max_th: 40.0,
            max_p: 1.0,
            ..RedConfig::default()
        };
        let avg = 10.0; // p_b = 1.0 * 10/40 = 0.25
        assert!((red.base_probability(avg) - 0.25).abs() < 1e-12);
        let table: &[(u64, f64)] = &[
            (0, 0.25),
            (1, 1.0 / 3.0),
            (2, 0.5),
            (3, 1.0), // 1 - 3*0.25 = 0.25 = p_b: certain drop
            (9, 1.0), // far past the clamp
        ];
        for &(count, want) in table {
            let got = red.drop_probability(avg, count);
            assert!(
                (got - want).abs() < 1e-12,
                "p_a(count={count}) = {got}, want {want}"
            );
        }
    }

    /// The count correction resets after every early event: observed
    /// inter-drop gaps under a constant p_b are bounded by 1/p_b.
    #[test]
    fn red_count_spacing_bounds_inter_drop_gaps() {
        let red = RedConfig {
            min_th: 1.0,
            max_th: 41.0,
            max_p: 1.0,
            wq: 1.0, // average tracks the instantaneous length exactly
            ecn: false,
            seed: 11,
        };
        // Hold the queue at a constant length of 11 packets: every
        // arrival then sees avg = 10 after the dequeue, i.e.
        // p_b = (10 - 1) / 40 = 0.225, so the count correction reaches
        // certainty (1 - 4·p_b < p_b) after 4 accepted packets.
        let mut q = DropTailQueue::new(QueueConfig::drop_tail(100).with_red(red));
        while q.len() < 11 {
            let _ = q.enqueue(t(0), pkt(100)); // fill may early-drop; retry
        }
        let mut gap = 0u64;
        let mut max_gap = 0u64;
        let mut drops = 0u64;
        for _ in 0..400 {
            q.dequeue(t(1));
            match q.enqueue(t(1), pkt(100)) {
                EnqueueOutcome::Accepted => gap += 1,
                _ => {
                    max_gap = max_gap.max(gap);
                    gap = 0;
                    drops += 1;
                }
            }
            while q.len() < 11 {
                let _ = q.enqueue(t(1), pkt(100)); // refill to the fixed length
            }
        }
        assert!(drops > 10, "expected steady early drops, got {drops}");
        assert!(
            max_gap <= 4,
            "count correction guarantees a drop within 4 accepted packets \
             at p_b = 0.225, saw a gap of {max_gap}"
        );
    }

    #[test]
    fn forced_drops_hit_exact_arrivals() {
        let mut q = DropTailQueue::new(QueueConfig::drop_tail(10));
        q.inject_drops([1, 3]);
        let mut kept = Vec::new();
        for i in 0..5 {
            let mut p = pkt(100);
            p.payload = TagPayload(i);
            if q.enqueue(t(0), p) == EnqueueOutcome::Accepted {
                kept.push(i);
            }
        }
        assert_eq!(kept, vec![0, 2, 4]);
        assert_eq!(q.stats().dropped, 2);
        // Injected indices are consumed: re-offering does not drop again.
        assert_eq!(q.enqueue(t(1), pkt(100)), EnqueueOutcome::Accepted);
    }

    #[test]
    fn non_ect_packets_never_marked() {
        let mut q = DropTailQueue::new(QueueConfig::drop_tail(10).with_ecn_threshold(0));
        q.enqueue(t(0), pkt(100));
        assert_eq!(q.stats().ecn_marked, 0);
        assert!(!q.dequeue(t(1)).unwrap().payload.is_ce());
    }

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
        assert_eq!(codel_control_law(t0, i, 1), SimTime::from_nanos(1_000_000));
        assert_eq!(codel_control_law(t0, i, 4), SimTime::from_nanos(500_000));
        assert_eq!(codel_control_law(t0, i, 100), SimTime::from_nanos(100_000));
    }

    #[test]
    fn early_drop_counts_as_drop_outcome() {
        let red = RedConfig {
            min_th: 0.5,
            max_th: 1.0,
            max_p: 1.0,
            wq: 1.0,
            ecn: false,
            seed: 2,
        };
        let mut q = DropTailQueue::new(QueueConfig::drop_tail(100).with_red(red));
        q.enqueue(t(0), pkt(100));
        q.enqueue(t(0), pkt(100));
        let outcome = q.enqueue(t(0), pkt(100));
        assert!(
            is_drop(outcome),
            "avg 2 >= max_th 1 must drop, got {outcome:?}"
        );
        assert!(matches!(outcome, EnqueueOutcome::EarlyDropped { .. }));
    }
}
