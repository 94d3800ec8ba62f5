//! TCP Reno: slow start, congestion avoidance, halving on loss. This is
//! the "TCP" baseline of every figure in the paper.

use netsim::time::SimTime;

use super::{reno_halve, reno_increase, AckInfo, CcAlgo, WindowState};

/// Classic Reno congestion control.
#[derive(Debug, Default)]
pub struct Reno {
    _private: (),
}

impl Reno {
    /// Creates a Reno controller.
    pub fn new() -> Self {
        Reno::default()
    }
}

impl CcAlgo for Reno {
    fn name(&self) -> &'static str {
        "reno"
    }

    fn on_ack(&mut self, w: &mut WindowState, info: &AckInfo) {
        reno_increase(w, info.newly_acked);
    }

    fn on_fast_retransmit(&mut self, w: &mut WindowState, flight: u64, _now: SimTime) {
        reno_halve(w, flight);
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

    fn info(newly_acked: u64) -> AckInfo {
        AckInfo {
            now: SimTime::ZERO,
            rtt: Some(Dur::from_micros(100)),
            newly_acked,
            ack_seq: 0,
            next_seq: 0,
            flight: 0,
            ece: false,
            probe_echo: false,
        }
    }

    #[test]
    fn slow_start_doubles_per_window() {
        let mut w = WindowState::new(2.0, 1e9, 2.0, 1e9);
        let mut cc = Reno::new();
        cc.on_ack(&mut w, &info(2));
        assert_eq!(w.cwnd, 4.0);
        cc.on_ack(&mut w, &info(4));
        assert_eq!(w.cwnd, 8.0);
    }

    #[test]
    fn congestion_avoidance_linear() {
        let mut w = WindowState::new(10.0, 5.0, 2.0, 1e9);
        let mut cc = Reno::new();
        // 10 acks of one window: cwnd grows by ~1.
        for _ in 0..10 {
            cc.on_ack(&mut w, &info(1));
        }
        assert!((w.cwnd - 11.0).abs() < 0.06);
    }

    #[test]
    fn loss_halves_window() {
        let mut w = WindowState::new(64.0, 1e9, 2.0, 1e9);
        let mut cc = Reno::new();
        cc.on_fast_retransmit(&mut w, 64, SimTime::ZERO);
        assert_eq!(w.cwnd, 32.0);
        assert_eq!(w.ssthresh, 32.0);
    }

    #[test]
    fn timeout_sets_ssthresh_only() {
        let mut w = WindowState::new(64.0, 1e9, 2.0, 1e9);
        let mut cc = Reno::new();
        cc.on_timeout(&mut w, 40, SimTime::ZERO);
        assert_eq!(w.ssthresh, 20.0);
        // The connection resets cwnd to `MIN_CWND` itself.
        assert_eq!(w.cwnd, 64.0);
    }
}
