//! RFC 6298-style retransmission-timeout estimation.

use netsim::time::Dur;

/// SRTT/RTTVAR estimator with the standard gains (1/8, 1/4) and a
/// configurable floor and ceiling.
#[derive(Clone, Copy, Debug)]
pub struct RtoEstimator {
    srtt: Option<f64>,
    rttvar: f64,
    min: Dur,
    max: Dur,
}

impl RtoEstimator {
    /// Creates an estimator; before any sample [`Self::rto`] returns the
    /// floor `min`.
    ///
    /// # Panics
    ///
    /// Panics if `min` is zero or `max < min`.
    pub fn new(min: Dur, max: Dur) -> Self {
        assert!(min > Dur::ZERO, "RTO floor must be positive");
        assert!(max >= min, "RTO ceiling below floor");
        RtoEstimator {
            srtt: None,
            rttvar: 0.0,
            min,
            max,
        }
    }

    /// Feeds a round-trip sample.
    pub fn observe(&mut self, rtt: Dur) {
        let r = rtt.as_nanos() as f64;
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * r);
            }
        }
    }

    /// The current retransmission timeout: `SRTT + 4*RTTVAR`, clamped to
    /// `[min, max]`.
    pub fn rto(&self) -> Dur {
        match self.srtt {
            None => self.min,
            Some(srtt) => {
                let raw = srtt + 4.0 * self.rttvar;
                Dur::from_nanos(raw.round() as u64)
                    .max(self.min)
                    .min(self.max)
            }
        }
    }

    /// The smoothed RTT, if any sample has arrived.
    pub fn srtt(&self) -> Option<Dur> {
        self.srtt.map(|s| Dur::from_nanos(s.round() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RtoEstimator {
        RtoEstimator::new(Dur::from_millis(1), Dur::from_secs(60))
    }

    #[test]
    fn initial_rto_is_floor() {
        assert_eq!(est().rto(), Dur::from_millis(1));
    }

    #[test]
    fn first_sample_sets_srtt_and_var() {
        let mut e = est();
        e.observe(Dur::from_millis(10));
        assert_eq!(e.srtt(), Some(Dur::from_millis(10)));
        // RTO = 10ms + 4*5ms = 30ms.
        assert_eq!(e.rto(), Dur::from_millis(30));
    }

    #[test]
    fn converges_on_steady_input() {
        let mut e = est();
        for _ in 0..200 {
            e.observe(Dur::from_micros(100));
        }
        let srtt = e.srtt().unwrap();
        assert!((srtt.as_nanos() as i64 - 100_000).abs() < 100);
        // Variance decays, so RTO approaches the floor.
        assert_eq!(e.rto(), Dur::from_millis(1));
    }

    #[test]
    fn jitter_raises_rto() {
        let mut e = est();
        for i in 0..100 {
            let us = if i % 2 == 0 { 100 } else { 10_000 };
            e.observe(Dur::from_micros(us));
        }
        assert!(e.rto() > Dur::from_millis(10));
    }

    #[test]
    fn respects_ceiling() {
        let mut e = RtoEstimator::new(Dur::from_millis(1), Dur::from_millis(5));
        e.observe(Dur::from_secs(10));
        assert_eq!(e.rto(), Dur::from_millis(5));
    }

    #[test]
    #[should_panic]
    fn zero_floor_rejected() {
        let _ = RtoEstimator::new(Dur::ZERO, Dur::from_secs(1));
    }

    /// The RFC 6298 recurrence, hand-computed: first sample sets
    /// `SRTT = R, RTTVAR = R/2`; later samples use gains 1/8 and 1/4;
    /// RTO = SRTT + 4*RTTVAR clamped to `[min, max]`. All inputs are
    /// dyadic, so the f64 arithmetic is exact.
    #[test]
    fn rfc6298_recurrence_table() {
        struct Case {
            name: &'static str,
            min_ns: u64,
            max_ns: u64,
            samples: &'static [u64],
            srtt_ns: u64,
            rto_ns: u64,
        }
        const MS: u64 = 1_000_000;
        let cases = [
            Case {
                name: "first sample: srtt = R, rttvar = R/2",
                min_ns: MS,
                max_ns: 60_000 * MS,
                samples: &[10 * MS],
                srtt_ns: 10 * MS,
                rto_ns: 30 * MS,
            },
            Case {
                name: "steady input decays the variance",
                min_ns: MS,
                max_ns: 60_000 * MS,
                samples: &[10 * MS, 10 * MS],
                srtt_ns: 10 * MS,
                rto_ns: 25 * MS, // rttvar = 0.75 * 5 ms
            },
            Case {
                name: "one jump: gains 1/8 (srtt) and 1/4 (rttvar)",
                min_ns: MS,
                max_ns: 60_000 * MS,
                samples: &[10 * MS, 20 * MS],
                srtt_ns: 11_250_000,
                rto_ns: 36_250_000,
            },
            Case {
                name: "two jumps",
                min_ns: MS,
                max_ns: 60_000 * MS,
                samples: &[10 * MS, 20 * MS, 20 * MS],
                srtt_ns: 12_343_750,
                rto_ns: 39_843_750,
            },
            Case {
                name: "floor clamps a small raw RTO",
                min_ns: MS,
                max_ns: 60_000 * MS,
                samples: &[100_000],
                srtt_ns: 100_000,
                rto_ns: MS, // raw 300 us < 1 ms floor
            },
            Case {
                name: "ceiling clamps a large raw RTO",
                min_ns: MS,
                max_ns: 5 * MS,
                samples: &[10_000 * MS],
                srtt_ns: 10_000 * MS,
                rto_ns: 5 * MS,
            },
        ];
        for c in &cases {
            let mut e = RtoEstimator::new(Dur::from_nanos(c.min_ns), Dur::from_nanos(c.max_ns));
            for &s in c.samples {
                e.observe(Dur::from_nanos(s));
            }
            assert_eq!(e.srtt(), Some(Dur::from_nanos(c.srtt_ns)), "{}", c.name);
            assert_eq!(e.rto(), Dur::from_nanos(c.rto_ns), "{}", c.name);
        }
    }
}
