//! Switch output queues: drop-tail FIFO plus RED and CoDel disciplines,
//! optional ECN marking, and occupancy statistics.
//!
//! The discipline is selected per queue via [`QueueDiscipline`]:
//!
//! - [`QueueDiscipline::DropTail`] — the paper's switches: accept until
//!   the capacity limit, then drop arrivals.
//! - [`QueueDiscipline::Red`] — Random Early Detection, decided at
//!   enqueue time (`red.rs`).
//! - [`QueueDiscipline::CoDel`] — Controlled Delay, decided at dequeue
//!   time (`codel.rs`). Dequeue-time drops surface through
//!   [`DropTailQueue::take_sojourn_drops`] so the engine can account for
//!   them.
//!
//! [`DropTailQueue`] itself is the part every discipline shares: the
//! FIFO, the capacity backstop, instantaneous-threshold ECN marking and
//! statistics. It carries the state of the one discipline it runs and
//! nothing of the others. A queue-length time series is recorded from
//! the engine's `Enqueued`/`Dequeued` monitor events
//! ([`crate::trace::QueueRecorder`]), not by the queue.
//!
//! Both AQMs support ECN-style early-mark-as-drop semantics: when `ecn`
//! is set and the packet is ECN-capable, the discipline CE-marks instead
//! of dropping and the packet is still delivered.

use std::collections::VecDeque;

use crate::hash::FastHashSet;
use crate::packet::{Packet, Payload};
use crate::time::{Dur, SimTime};
use crate::units::QueueCapacity;

mod codel;
mod red;

pub use codel::{CoDelConfig, SojournDrop};
pub use red::RedConfig;

use codel::CoDelState;
use red::{RedState, RedVerdict};

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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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

/// The FIFO proper: queued packets with their enqueue timestamps (CoDel
/// sojourn) and their byte total.
#[derive(Debug)]
struct Fifo<P> {
    items: VecDeque<(SimTime, Packet<P>)>,
    bytes: u64,
}

impl<P> Fifo<P> {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn push(&mut self, now: SimTime, pkt: Packet<P>) {
        self.bytes += pkt.size as u64;
        self.items.push_back((now, pkt));
    }

    fn pop(&mut self) -> Option<(SimTime, Packet<P>)> {
        let (enq, pkt) = self.items.pop_front()?;
        self.bytes -= pkt.size as u64;
        Some((enq, pkt))
    }
}

/// The running state of a queue's discipline, built from
/// [`QueueConfig::aqm`]. An AQM's state is boxed, so a drop-tail queue
/// is not sized by it.
#[derive(Debug)]
enum Discipline<P> {
    DropTail,
    Red(Box<RedState>),
    CoDel(Box<CoDelState<P>>),
}

/// Injected faults of one queue; allocated on first injection.
#[derive(Debug, Default)]
struct Faults {
    /// 0-based indices (in arrival order) of packets to drop
    /// deterministically, regardless of occupancy.
    forced_drops: FastHashSet<u64>,
    /// Packets that may still be admitted beyond the configured
    /// capacity.
    overadmit_budget: u64,
}

/// A FIFO queue with a configurable discipline (drop-tail backstop plus
/// optional RED or CoDel) and statistics.
#[derive(Debug)]
pub struct DropTailQueue<P> {
    capacity: QueueCapacity,
    ecn_threshold: Option<usize>,
    discipline: Discipline<P>,
    fifo: Fifo<P>,
    stats: QueueStats,
    last_change: SimTime,
    faults: Option<Box<Faults>>,
    /// Packets offered since the queue was created; the index forced
    /// drops are keyed by.
    arrivals: u64,
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
            capacity: config.capacity,
            ecn_threshold: config.ecn_threshold,
            discipline: match config.aqm {
                QueueDiscipline::DropTail => Discipline::DropTail,
                QueueDiscipline::Red(red) => Discipline::Red(RedState::new(red).into()),
                QueueDiscipline::CoDel(codel) => Discipline::CoDel(CoDelState::new(codel).into()),
            },
            fifo: Fifo {
                items: VecDeque::new(),
                bytes: 0,
            },
            stats: QueueStats::default(),
            last_change: SimTime::ZERO,
            faults: None,
            arrivals: 0,
        }
    }

    /// Fault injection: deterministically drop the packets whose 0-based
    /// arrival index (counting every packet offered to this queue) is in
    /// `indices`, regardless of occupancy. Used to construct exact loss
    /// patterns in tests — e.g. "lose the whole tail of a window" to
    /// force an RTO rather than a fast retransmit.
    pub fn inject_drops(&mut self, indices: impl IntoIterator<Item = u64>) {
        let faults = self.faults.get_or_insert_with(Box::default);
        faults.forced_drops.extend(indices);
    }

    /// Fault injection: lets the queue admit up to `extra` packets beyond
    /// its configured capacity (each over-capacity admission consumes one
    /// unit of the budget). This deliberately *breaks* the queue-bound
    /// invariant; it exists so the invariant monitors can be shown to
    /// catch a real over-admission, and has no other legitimate use.
    pub fn inject_overadmit(&mut self, extra: u64) {
        let faults = self.faults.get_or_insert_with(Box::default);
        faults.overadmit_budget += extra;
    }

    /// The queue's configuration.
    pub fn config(&self) -> QueueConfig {
        QueueConfig {
            capacity: self.capacity,
            ecn_threshold: self.ecn_threshold,
            aqm: match &self.discipline {
                Discipline::DropTail => QueueDiscipline::DropTail,
                Discipline::Red(red) => QueueDiscipline::Red(red.cfg),
                Discipline::CoDel(codel) => QueueDiscipline::CoDel(codel.cfg),
            },
        }
    }

    /// Current length in packets.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the queue holds no packets.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Current occupancy in bytes.
    pub fn bytes(&self) -> u64 {
        self.fifo.bytes
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
    pub fn enqueue(&mut self, now: SimTime, pkt: Packet<P>) -> EnqueueOutcome {
        match self.admit(now, pkt) {
            Ok(pkt) => {
                self.fifo.push(now, pkt);
                self.stats.enqueued += 1;
                self.stats.max_len = self.stats.max_len.max(self.fifo.len());
                EnqueueOutcome::Accepted
            }
            Err(dropped) => dropped,
        }
    }

    /// Offers a packet to an empty queue whose transmitter is idle and
    /// hands it back to transmit if admitted (a drop is the error).
    /// Observably [`Self::enqueue`] then [`Self::dequeue`] at `now`, but
    /// the packet never enters the ring, so a queue that nothing waits
    /// in never allocates one.
    pub(crate) fn bypass(
        &mut self,
        now: SimTime,
        pkt: Packet<P>,
    ) -> Result<Packet<P>, EnqueueOutcome> {
        debug_assert!(self.is_empty(), "an idle transmitter has nothing queued");
        let pkt = self.admit(now, pkt)?;
        self.stats.enqueued += 1;
        self.stats.dequeued += 1;
        self.stats.dequeued_bytes += pkt.size as u64;
        self.stats.max_len = self.stats.max_len.max(1);
        if let Discipline::CoDel(codel) = &mut self.discipline {
            codel.reset();
        }
        Ok(pkt)
    }

    /// The admission step of every arrival: injected faults, capacity,
    /// RED and ECN marking. Returns the packet to store or the drop.
    fn admit(&mut self, now: SimTime, mut pkt: Packet<P>) -> Result<Packet<P>, EnqueueOutcome> {
        self.advance_clock(now);
        let arrival = self.arrivals;
        self.arrivals += 1;
        if let Some(faults) = &mut self.faults {
            if faults.forced_drops.remove(&arrival) {
                self.stats.dropped += 1;
                return Err(EnqueueOutcome::Dropped);
            }
        }
        if !self
            .capacity
            .admits(self.fifo.len(), self.fifo.bytes, pkt.size)
        {
            if let Some(faults) = self.faults.as_mut().filter(|f| f.overadmit_budget > 0) {
                // Injected fault: admit beyond capacity (skipping the AQM
                // and ECN steps) so the queue-bound monitor has something
                // real to catch.
                faults.overadmit_budget -= 1;
                return Ok(pkt);
            }
            self.stats.dropped += 1;
            return Err(EnqueueOutcome::Dropped);
        }
        if let Discipline::Red(red) = &mut self.discipline {
            match red.on_arrival(self.fifo.len(), pkt.payload.ecn_capable()) {
                RedVerdict::Accept => {}
                RedVerdict::Mark => {
                    self.stats.red_events += 1;
                    pkt.payload.mark_ce();
                    self.stats.ecn_marked += 1;
                }
                RedVerdict::EarlyDrop { avg } => {
                    self.stats.red_events += 1;
                    self.stats.dropped += 1;
                    return Err(EnqueueOutcome::EarlyDropped { avg_queue: avg });
                }
            }
        }
        if let Some(thresh) = self.ecn_threshold {
            if pkt.payload.ecn_capable() && self.fifo.len() + 1 > thresh {
                pkt.payload.mark_ce();
                self.stats.ecn_marked += 1;
            }
        }
        Ok(pkt)
    }

    /// Removes the packet at the head, if any. Under CoDel this may first
    /// drop head packets whose sojourn stayed above target; the dropped
    /// packets wait in [`Self::take_sojourn_drops`] for engine accounting.
    /// The last remaining packet is never sojourn-dropped, so a dequeue
    /// directly after a successful enqueue always yields a packet.
    pub fn dequeue(&mut self, now: SimTime) -> Option<Packet<P>> {
        self.advance_clock(now);
        let pkt = match &mut self.discipline {
            Discipline::CoDel(codel) => codel.dequeue(now, &mut self.fifo, &mut self.stats),
            Discipline::DropTail | Discipline::Red(_) => self.fifo.pop().map(|(_, p)| p),
        };
        let pkt = pkt?;
        self.stats.dequeued += 1;
        self.stats.dequeued_bytes += pkt.size as u64;
        Some(pkt)
    }

    /// Drains the packets CoDel dropped during recent dequeues. Always
    /// empty for drop-tail and RED queues.
    pub fn take_sojourn_drops(&mut self) -> Vec<SojournDrop<P>> {
        match &mut self.discipline {
            Discipline::CoDel(codel) => std::mem::take(&mut codel.drops),
            Discipline::DropTail | Discipline::Red(_) => Vec::new(),
        }
    }

    /// Whether any sojourn drops await [`Self::take_sojourn_drops`].
    pub fn has_sojourn_drops(&self) -> bool {
        matches!(&self.discipline, Discipline::CoDel(codel) if !codel.drops.is_empty())
    }

    fn advance_clock(&mut self, now: SimTime) {
        let span = now.saturating_since(self.last_change);
        self.stats.occupancy_integral += self.fifo.len() as u128 * span.as_nanos() as u128;
        if now > self.last_change {
            self.last_change = now;
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact values are the expected results")]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, TagPayload};

    pub(super) fn pkt(size: u32) -> Packet<TagPayload> {
        Packet::new(NodeId(0), NodeId(1), FlowId(0), size, TagPayload(0))
    }

    pub(super) fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    /// A queue is paid for twice per link, 2 x 10^5 times in a 100k-host
    /// star: it holds the state of the discipline it runs and a pointer
    /// for the faults it almost never has, not every discipline's state.
    #[test]
    fn queue_fits_in_320_bytes() {
        let size = std::mem::size_of::<DropTailQueue<TagPayload>>();
        assert!(size <= 320, "DropTailQueue is {size} bytes");
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

    #[derive(Clone, Copy, Debug, Default)]
    pub(super) struct EcnPayload {
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

    /// A queue whose every packet finds the transmitter idle never
    /// allocates its ring; in a 100k-host star that is most queues.
    #[test]
    fn bypass_only_queue_keeps_a_zero_capacity_ring() {
        let mut q = DropTailQueue::new(QueueConfig::drop_tail(10));
        for i in 0..100 {
            assert!(q.bypass(t(i), pkt(100)).is_ok());
        }
        assert_eq!(q.fifo.items.capacity(), 0);
        assert_eq!((q.stats().enqueued, q.stats().dequeued), (100, 100));
        assert_eq!(q.enqueue(t(100), pkt(100)), EnqueueOutcome::Accepted);
        assert!(q.fifo.items.capacity() > 0, "a packet that waits is stored");
    }

    /// ECN-capable or not, per packet, so one stream sees marks and drops.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Ect {
        capable: bool,
        ce: bool,
    }
    impl Payload for Ect {
        fn ecn_capable(&self) -> bool {
            self.capable
        }
        fn mark_ce(&mut self) {
            self.ce = true;
        }
        fn is_ce(&self) -> bool {
            self.ce
        }
    }

    /// A packet handed out by a twin, as `(uid, size, payload)`.
    type Out = Option<(u64, u32, Ect)>;

    fn out(pkt: Option<Packet<Ect>>) -> Out {
        pkt.map(|p| (p.uid, p.size, p.payload))
    }

    /// Sojourn drops as `(uid, sojourn)`.
    fn drained(q: &mut DropTailQueue<Ect>) -> Vec<(u64, Dur)> {
        let drops = q.take_sojourn_drops();
        drops.iter().map(|d| (d.pkt.uid, d.sojourn)).collect()
    }

    /// What the streams of one configuration exercised, summed over runs.
    #[derive(Debug, Default)]
    struct Seen {
        idle: u64,
        idle_refused: u64,
        idle_behind_sojourn_drops: u64,
        stats: QueueStats,
    }

    /// Drives twin queues built from `cfg` (and `setup`, for faults)
    /// through pseudo-random streams that alternate filling and
    /// draining stretches. An offer to an empty queue finds the
    /// transmitter idle two times in three: one twin then takes
    /// `bypass`, the other `enqueue` + `dequeue`. Every result,
    /// `stats()`, `len()`, `bytes()`, the pending sojourn
    /// drops and the discipline's whole state (RED's average, count and
    /// PRNG position; CoDel's control law) must agree after every
    /// operation.
    fn differential(name: &str, cfg: QueueConfig, setup: fn(&mut DropTailQueue<Ect>)) -> Seen {
        let mut seen = Seen::default();
        for seed in 1..=8 {
            let mut fast = DropTailQueue::new(cfg);
            let mut twin = DropTailQueue::new(cfg);
            for q in [&mut fast, &mut twin] {
                setup(q);
            }
            let mut rng = seed;
            let mut next = |n: u64| {
                rng = crate::hash::mix64(rng);
                rng % n
            };
            let mut now = SimTime::ZERO;
            for step in 0..1_500u64 {
                let at = format!("{name}, seed {seed}, step {step}");
                now += Dur::from_nanos(next(4) * 700);
                let filling = (step / 60) % 2 == 0;
                let roll = next(100);
                if roll < if filling { 65 } else { 30 } {
                    let ect = Ect {
                        capable: next(2) == 0,
                        ce: false,
                    };
                    let size = 40 + next(1_461) as u32;
                    let mut pkt = Packet::new(NodeId(0), NodeId(1), FlowId(0), size, ect);
                    pkt.uid = step;
                    if fast.is_empty() && next(3) > 0 {
                        seen.idle += 1;
                        seen.idle_behind_sojourn_drops += u64::from(fast.has_sojourn_drops());
                        let got = fast.bypass(now, pkt.clone());
                        let want = match twin.enqueue(now, pkt) {
                            EnqueueOutcome::Accepted => Ok(out(twin.dequeue(now))),
                            dropped => Err(dropped),
                        };
                        seen.idle_refused += u64::from(got.is_err());
                        assert_eq!(got.map(|p| out(Some(p))), want, "{at}");
                    } else {
                        let got = fast.enqueue(now, pkt.clone());
                        assert_eq!(got, twin.enqueue(now, pkt), "{at}");
                    }
                } else if roll < 90 {
                    assert_eq!(out(fast.dequeue(now)), out(twin.dequeue(now)), "{at}");
                } else {
                    assert_eq!(drained(&mut fast), drained(&mut twin), "{at}");
                }
                assert_eq!(fast.stats(), twin.stats(), "{at}");
                assert_eq!(
                    (fast.len(), fast.bytes()),
                    (twin.len(), twin.bytes()),
                    "{at}"
                );
                assert_eq!(fast.has_sojourn_drops(), twin.has_sojourn_drops(), "{at}");
                let aqm = |q: &DropTailQueue<Ect>| format!("{:?}", q.discipline);
                assert_eq!(aqm(&fast), aqm(&twin), "{at}");
            }
            // Whatever state the stream left behind drains identically.
            while !twin.is_empty() {
                now += Dur::from_micros(3);
                assert_eq!(out(fast.dequeue(now)), out(twin.dequeue(now)), "{name}");
            }
            assert_eq!(drained(&mut fast), drained(&mut twin), "{name}");
            assert_eq!(fast.stats(), twin.stats(), "{name}");
            let s = fast.stats();
            seen.stats.dropped += s.dropped;
            seen.stats.ecn_marked += s.ecn_marked;
            seen.stats.red_events += s.red_events;
            seen.stats.sojourn_events += s.sojourn_events;
            seen.stats.max_len = seen.stats.max_len.max(s.max_len);
        }
        seen
    }

    /// A packet that finds the transmitter idle, passed straight
    /// through, is exactly an enqueue followed by a dequeue: same
    /// outcome, same packet, same statistics and AQM state for
    /// every later operation, under every discipline and fault.
    #[test]
    fn bypass_is_exactly_an_enqueue_then_a_dequeue() {
        let red = RedConfig {
            min_th: 0.5,
            max_th: 4.0,
            max_p: 0.5,
            wq: 0.5,
            ecn: true,
            seed: 9,
        };
        let codel = CoDelConfig {
            target: Dur::from_micros(2),
            interval: Dur::from_micros(8),
            ecn: false,
        };
        let bytes = QueueConfig {
            capacity: QueueCapacity::Bytes(4_000),
            ..QueueConfig::default()
        };
        type Setup = fn(&mut DropTailQueue<Ect>);
        let cases: [(&str, QueueConfig, Setup); 9] = [
            ("drop-tail packets", QueueConfig::drop_tail(6), |_| {}),
            ("drop-tail bytes", bytes, |_| {}),
            (
                "ecn threshold 0",
                QueueConfig::drop_tail(8).with_ecn_threshold(0),
                |_| {},
            ),
            (
                "ecn threshold 2",
                QueueConfig::drop_tail(8).with_ecn_threshold(2),
                |_| {},
            ),
            ("red", QueueConfig::drop_tail(16).with_red(red), |_| {}),
            (
                "codel",
                QueueConfig::drop_tail(64).with_codel(codel),
                |_| {},
            ),
            (
                "codel ecn",
                QueueConfig::drop_tail(64).with_codel(CoDelConfig { ecn: true, ..codel }),
                |_| {},
            ),
            ("forced drops", QueueConfig::drop_tail(6), |q| {
                q.inject_drops((0..1_500).step_by(5));
            }),
            ("over-admit", QueueConfig::drop_tail(0), |q| {
                q.inject_overadmit(150)
            }),
        ];
        for (name, cfg, setup) in cases {
            let seen = differential(name, cfg, setup);
            assert!(seen.idle > 500, "{name}: {seen:?}");
            let s = seen.stats;
            let exercised = match name {
                "drop-tail packets" | "drop-tail bytes" => s.dropped > 0,
                "ecn threshold 0" | "ecn threshold 2" => s.ecn_marked > 0,
                "red" => s.red_events > s.ecn_marked && s.ecn_marked > 0 && seen.idle_refused > 0,
                "codel" => s.sojourn_events > 0 && seen.idle_behind_sojourn_drops > 0,
                "codel ecn" => s.sojourn_events > s.ecn_marked && s.ecn_marked > 0,
                "forced drops" => seen.idle_refused > 0,
                _ => s.max_len > 0 && seen.idle_refused > 0,
            };
            assert!(exercised, "{name}: the streams missed the case, {seen:?}");
        }
    }
}
