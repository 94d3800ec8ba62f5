//! L2DCT (Munir et al., INFOCOM 2013): DCTCP-style ECN control whose
//! aggressiveness follows Least-Attained-Service — short flows grow faster
//! and back off less than long flows. The paper's second data-center
//! comparison protocol (Fig. 12, Table I).
//!
//! The weight schedule follows the L2DCT paper's shape: the increase
//! weight `w_c` decays from `W_MAX` to `W_MIN` as the flow's attained
//! service grows, and the decrease penalty `b_c` grows with attained
//! service toward full DCTCP back-off.

use netsim::time::SimTime;

use super::{AckInfo, CcAlgo, WindowState};

const G: f64 = 1.0 / 16.0;
/// Maximum additive-increase weight (short flows).
const W_MAX: f64 = 2.5;
/// Minimum additive-increase weight (long flows).
const W_MIN: f64 = 0.125;
/// Attained service (in packets) at which a flow is considered "long";
/// 1 MB of 1460-byte packets, matching the evaluation's flow sizes.
const SERVICE_SCALE_PKTS: f64 = 700.0;

/// L2DCT congestion control.
#[derive(Debug)]
pub struct L2dct {
    alpha: f64,
    acked: u64,
    marked: u64,
    window_end: u64,
    reduced_this_window: bool,
    /// Packets acknowledged over the flow's lifetime (attained service).
    attained_pkts: u64,
}

impl L2dct {
    /// Creates an L2DCT controller.
    pub fn new() -> Self {
        L2dct {
            alpha: 1.0,
            acked: 0,
            marked: 0,
            window_end: 0,
            reduced_this_window: false,
            attained_pkts: 0,
        }
    }

    /// The smoothed marked fraction.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The current additive-increase weight `w_c` in `[W_MIN, W_MAX]`.
    pub fn increase_weight(&self) -> f64 {
        let frac = (self.attained_pkts as f64 / SERVICE_SCALE_PKTS).min(1.0);
        W_MAX - (W_MAX - W_MIN) * frac
    }

    /// The current decrease penalty `b_c` in `[0.5, 1]`.
    pub fn decrease_penalty(&self) -> f64 {
        let frac = (self.attained_pkts as f64 / SERVICE_SCALE_PKTS).min(1.0);
        0.5 + 0.5 * frac
    }
}

impl Default for L2dct {
    fn default() -> Self {
        L2dct::new()
    }
}

impl CcAlgo for L2dct {
    fn name(&self) -> &'static str {
        "l2dct"
    }

    fn uses_ecn(&self) -> bool {
        true
    }

    fn on_ack(&mut self, w: &mut WindowState, info: &AckInfo) {
        self.attained_pkts += info.newly_acked;
        self.acked += info.newly_acked;
        if info.ece {
            self.marked += info.newly_acked.max(1);
            if !self.reduced_this_window {
                let cut = self.alpha * self.decrease_penalty() / 2.0;
                w.cwnd *= 1.0 - cut;
                w.ssthresh = w.cwnd;
                w.clamp_cwnd();
                self.reduced_this_window = true;
            }
        } else {
            let wc = self.increase_weight();
            for _ in 0..info.newly_acked {
                if w.cwnd < w.ssthresh {
                    w.cwnd += 1.0;
                } else {
                    w.cwnd += wc / w.cwnd;
                }
            }
            w.clamp_cwnd();
        }
        if info.ack_seq >= self.window_end {
            let f = if self.acked > 0 {
                (self.marked as f64 / self.acked as f64).min(1.0)
            } else {
                0.0
            };
            self.alpha = (1.0 - G) * self.alpha + G * f;
            self.acked = 0;
            self.marked = 0;
            self.window_end = info.next_seq;
            self.reduced_this_window = false;
        }
    }

    fn on_fast_retransmit(&mut self, w: &mut WindowState, flight: u64, _now: SimTime) {
        super::reno_halve(w, flight);
    }

    fn on_timeout(&mut self, w: &mut WindowState, flight: u64, _now: SimTime) {
        w.ssthresh = (flight as f64 / 2.0).max(w.min_cwnd);
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact values are the expected results")]
mod tests {
    use super::*;
    use netsim::time::Dur;

    fn info(newly: u64, ack_seq: u64, next_seq: u64, ece: bool) -> AckInfo {
        AckInfo {
            now: SimTime::ZERO,
            rtt: Some(Dur::from_micros(100)),
            newly_acked: newly,
            ack_seq,
            next_seq,
            flight: 0,
            ece,
            probe_echo: false,
        }
    }

    #[test]
    fn short_flows_grow_faster_than_long() {
        let mut short = L2dct::new();
        let mut long = L2dct::new();
        long.attained_pkts = 10_000;
        assert!(short.increase_weight() > long.increase_weight());
        assert_eq!(long.increase_weight(), W_MIN);
        // In congestion avoidance, the short flow gains more per ACK.
        let mut w_short = WindowState::new(10.0, 5.0, 2.0, 1e9);
        let mut w_long = w_short;
        short.on_ack(&mut w_short, &info(1, 1, 10, false));
        long.on_ack(&mut w_long, &info(1, 1, 10, false));
        assert!(w_short.cwnd > w_long.cwnd);
    }

    #[test]
    fn long_flows_back_off_harder() {
        let mut short = L2dct::new();
        let mut long = L2dct::new();
        long.attained_pkts = 10_000;
        assert!(short.decrease_penalty() < long.decrease_penalty());
        assert_eq!(long.decrease_penalty(), 1.0);
        let mut w_short = WindowState::new(100.0, 50.0, 2.0, 1e9);
        let mut w_long = w_short;
        short.on_ack(&mut w_short, &info(1, 1, 100, true));
        long.on_ack(&mut w_long, &info(1, 1, 100, true));
        assert!(w_short.cwnd > w_long.cwnd);
    }

    #[test]
    fn weight_bounds() {
        let mut cc = L2dct::new();
        assert_eq!(cc.increase_weight(), W_MAX);
        cc.attained_pkts = u64::MAX / 2;
        assert_eq!(cc.increase_weight(), W_MIN);
        assert!(cc.decrease_penalty() <= 1.0);
    }

    #[test]
    fn alpha_updates_per_window() {
        let mut w = WindowState::new(10.0, 1e9, 2.0, 1e9);
        let mut cc = L2dct::new();
        let mut seq = 0;
        for _ in 0..50 {
            seq += 10;
            cc.on_ack(&mut w, &info(10, seq, seq + 10, false));
        }
        assert!(cc.alpha() < 0.05);
    }
}
