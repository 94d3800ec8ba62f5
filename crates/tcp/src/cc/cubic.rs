//! CUBIC congestion control (RFC 8312 shape, simplified: no HyStart), used
//! for the testbed comparison of Fig. 13 where the paper pits TCP-TRIM
//! against Linux's default CUBIC.

use netsim::time::SimTime;

use super::{AckInfo, CcAlgo, WindowState};

const C_CUBIC: f64 = 0.4;
const BETA: f64 = 0.7;

/// CUBIC window growth with a TCP-friendly region.
#[derive(Debug)]
pub struct Cubic {
    w_max: f64,
    epoch_start: Option<SimTime>,
    k: f64,
    w_est: f64,
    acked_in_epoch: f64,
}

impl Cubic {
    /// Creates a CUBIC controller.
    pub fn new() -> Self {
        Cubic {
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            w_est: 0.0,
            acked_in_epoch: 0.0,
        }
    }

    fn reset_epoch(&mut self, now: SimTime, cwnd: f64) {
        self.epoch_start = Some(now);
        if cwnd < self.w_max {
            self.k = ((self.w_max - cwnd) / C_CUBIC).cbrt();
        } else {
            self.k = 0.0;
            self.w_max = cwnd;
        }
        self.w_est = cwnd;
        self.acked_in_epoch = 0.0;
    }
}

impl Default for Cubic {
    fn default() -> Self {
        Cubic::new()
    }
}

impl CcAlgo for Cubic {
    fn name(&self) -> &'static str {
        "cubic"
    }

    fn on_ack(&mut self, w: &mut WindowState, info: &AckInfo) {
        if info.newly_acked == 0 {
            return;
        }
        if w.cwnd < w.ssthresh {
            // Standard slow start until the first loss event.
            w.cwnd += info.newly_acked as f64;
            w.clamp_cwnd();
            return;
        }
        if self.epoch_start.is_none() {
            self.reset_epoch(info.now, w.cwnd);
        }
        #[expect(
            clippy::expect_used,
            reason = "reset_epoch on the previous line set it"
        )]
        let start = self.epoch_start.expect("epoch initialized above");
        let t = info.now.saturating_since(start).as_secs_f64();
        let target = C_CUBIC * (t - self.k).powi(3) + self.w_max;
        // TCP-friendly estimate: Reno-equivalent growth within the epoch.
        self.acked_in_epoch += info.newly_acked as f64;
        let rtt = info.rtt.map(|r| r.as_secs_f64()).unwrap_or(0.0);
        if rtt > 0.0 {
            // W_est per RFC 8312: grows 3(1-beta)/(1+beta) segments per RTT.
            self.w_est += 3.0 * (1.0 - BETA) / (1.0 + BETA) * info.newly_acked as f64 / w.cwnd;
        }
        let next = target.max(self.w_est);
        if next > w.cwnd {
            // Approach the target over roughly one RTT of ACKs.
            w.cwnd += (next - w.cwnd).min(info.newly_acked as f64) / w.cwnd.max(1.0)
                * info.newly_acked as f64;
            if w.cwnd < next {
                w.cwnd += (next - w.cwnd) / w.cwnd.max(1.0);
            }
        }
        w.clamp_cwnd();
    }

    fn on_fast_retransmit(&mut self, w: &mut WindowState, _flight: u64, now: SimTime) {
        self.w_max = w.cwnd;
        w.cwnd = (w.cwnd * BETA).max(w.min_cwnd);
        w.ssthresh = w.cwnd;
        self.reset_epoch(now, w.cwnd);
        w.clamp_cwnd();
    }

    fn on_timeout(&mut self, w: &mut WindowState, _flight: u64, _now: SimTime) {
        self.w_max = w.cwnd;
        w.ssthresh = (w.cwnd * BETA).max(w.min_cwnd);
        self.epoch_start = None;
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact values are the expected results")]
mod tests {
    use super::*;
    use netsim::time::Dur;

    fn info_at(ms: u64, acked: u64) -> AckInfo {
        AckInfo {
            now: SimTime::from_nanos(ms * 1_000_000),
            rtt: Some(Dur::from_micros(100)),
            newly_acked: acked,
            ack_seq: 0,
            next_seq: 0,
            flight: 0,
            ece: false,
            probe_echo: false,
        }
    }

    #[test]
    fn slow_start_before_first_loss() {
        let mut w = WindowState::new(2.0, 1e9, 2.0, 1e9);
        let mut cc = Cubic::new();
        cc.on_ack(&mut w, &info_at(0, 2));
        assert_eq!(w.cwnd, 4.0);
    }

    #[test]
    fn loss_reduces_by_beta() {
        let mut w = WindowState::new(100.0, 1e9, 2.0, 1e9);
        let mut cc = Cubic::new();
        cc.on_fast_retransmit(&mut w, 100, SimTime::ZERO);
        assert!((w.cwnd - 70.0).abs() < 1e-9);
        assert!((cc.w_max - 100.0).abs() < 1e-9);
        assert!(cc.k > 0.0);
    }

    #[test]
    fn concave_growth_toward_w_max() {
        let mut w = WindowState::new(100.0, 1e9, 2.0, 1e9);
        let mut cc = Cubic::new();
        cc.on_fast_retransmit(&mut w, 100, SimTime::ZERO);
        let after_loss = w.cwnd;
        // Feed steady ACKs for ~2 simulated seconds.
        for ms in 1..2000 {
            cc.on_ack(&mut w, &info_at(ms, 1));
        }
        assert!(w.cwnd > after_loss, "window should recover");
        assert!(
            w.cwnd >= 95.0,
            "after K seconds cwnd approaches w_max, got {}",
            w.cwnd
        );
    }

    #[test]
    fn timeout_clears_epoch() {
        let mut w = WindowState::new(50.0, 25.0, 2.0, 1e9);
        let mut cc = Cubic::new();
        cc.on_ack(&mut w, &info_at(0, 1));
        assert!(cc.epoch_start.is_some());
        cc.on_timeout(&mut w, 50, SimTime::from_secs(1));
        assert!(cc.epoch_start.is_none());
        assert!((w.ssthresh - 35.0).abs() < 0.1, "ssthresh={}", w.ssthresh);
    }
}
