//! Random Early Detection (Floyd & Jacobson 1993): drop or mark
//! arrivals probabilistically from an EWMA queue estimate, with the
//! classic count-since-last-drop correction so early events space out
//! evenly. Randomness comes from a seeded per-queue splitmix64 stream,
//! so runs stay byte-identical.

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

/// What RED decided about one arrival.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) enum RedVerdict {
    Accept,
    /// Early event on an ECN-capable packet: CE-mark it and accept.
    Mark,
    /// Early event: drop, reporting the average that drove the decision.
    EarlyDrop {
        avg: f64,
    },
}

/// The per-queue RED state: configuration, EWMA of the queue length,
/// packets accepted since the last early event, and the PRNG stream
/// position.
#[derive(Clone, Copy, Debug)]
pub(super) struct RedState {
    pub(super) cfg: RedConfig,
    avg: f64,
    count: u64,
    rng: u64,
}

impl RedState {
    pub(super) fn new(cfg: RedConfig) -> Self {
        RedState {
            cfg,
            avg: 0.0,
            count: 0,
            rng: cfg.seed,
        }
    }

    /// Decides the fate of a packet arriving at a queue of `len`
    /// packets that has room for it.
    pub(super) fn on_arrival(&mut self, len: usize, ecn_capable: bool) -> RedVerdict {
        self.avg = self.cfg.ewma(self.avg, len);
        if self.avg <= self.cfg.min_th {
            self.count = 0;
            return RedVerdict::Accept;
        }
        let p = self.cfg.drop_probability(self.avg, self.count);
        // Deterministic PRNG: splitmix64 stream.
        let u = crate::hash::mix64(self.rng) as f64 / u64::MAX as f64;
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        if u < p {
            self.count = 0;
            if self.cfg.ecn && ecn_capable {
                RedVerdict::Mark
            } else {
                RedVerdict::EarlyDrop { avg: self.avg }
            }
        } else {
            self.count += 1;
            RedVerdict::Accept
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, Packet};
    use crate::queue::tests::{pkt, t, EcnPayload};
    use crate::queue::{DropTailQueue, EnqueueOutcome, QueueConfig};

    fn is_drop(outcome: EnqueueOutcome) -> bool {
        !matches!(outcome, EnqueueOutcome::Accepted)
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
