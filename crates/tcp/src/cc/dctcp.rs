//! DCTCP (Alizadeh et al., SIGCOMM 2010): ECN-fraction-proportional window
//! reduction. One of the paper's two data-center comparison protocols
//! (Fig. 12, Table I); parameters follow the DCTCP paper as the text
//! states.

use netsim::time::SimTime;

use super::{reno_increase, AckInfo, CcAlgo, WindowState};

/// EWMA gain for the marked fraction (the DCTCP paper's `g = 1/16`).
const G: f64 = 1.0 / 16.0;

/// DCTCP congestion control.
#[derive(Debug)]
pub struct Dctcp {
    /// Smoothed fraction of CE-marked packets.
    alpha: f64,
    /// Packets acked since the current observation window began.
    acked: u64,
    /// Of those, packets whose ACKs carried ECE.
    marked: u64,
    /// End of the current observation window (one window of data).
    window_end: u64,
    /// Whether a reduction was already applied in this window.
    reduced_this_window: bool,
}

impl Dctcp {
    /// Creates a DCTCP controller with `alpha = 1` (conservative start,
    /// per the DCTCP paper).
    pub fn new() -> Self {
        Dctcp {
            alpha: 1.0,
            acked: 0,
            marked: 0,
            window_end: 0,
            reduced_this_window: false,
        }
    }

    /// The smoothed marked fraction.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Default for Dctcp {
    fn default() -> Self {
        Dctcp::new()
    }
}

impl CcAlgo for Dctcp {
    fn name(&self) -> &'static str {
        "dctcp"
    }

    fn uses_ecn(&self) -> bool {
        true
    }

    fn on_ack(&mut self, w: &mut WindowState, info: &AckInfo) {
        self.acked += info.newly_acked;
        if info.ece {
            self.marked += info.newly_acked.max(1);
            if !self.reduced_this_window {
                // Cut once per window by alpha/2 (DCTCP Eq. 2).
                w.cwnd *= 1.0 - self.alpha / 2.0;
                w.ssthresh = w.cwnd;
                w.clamp_cwnd();
                self.reduced_this_window = true;
            }
        } else {
            reno_increase(w, info.newly_acked);
        }
        if info.ack_seq >= self.window_end {
            // One window of data acknowledged: fold the observed fraction
            // into alpha and start the next observation window.
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
    fn no_marks_behaves_like_reno() {
        let mut w = WindowState::new(2.0, 1e9, 2.0, 1e9);
        let mut cc = Dctcp::new();
        cc.on_ack(&mut w, &info(2, 2, 4, false));
        assert_eq!(w.cwnd, 4.0);
    }

    #[test]
    fn alpha_decays_without_marks() {
        let mut w = WindowState::new(10.0, 1e9, 2.0, 1e9);
        let mut cc = Dctcp::new();
        let mut seq = 0;
        for _ in 0..100 {
            seq += 10;
            cc.on_ack(&mut w, &info(10, seq, seq + 10, false));
        }
        assert!(cc.alpha() < 0.01, "alpha should decay, got {}", cc.alpha());
    }

    #[test]
    fn persistent_marks_drive_alpha_to_one_and_halve() {
        let mut w = WindowState::new(100.0, 50.0, 2.0, 1e9);
        let mut cc = Dctcp::new();
        let before = w.cwnd;
        cc.on_ack(&mut w, &info(1, 1, 100, true));
        // alpha starts at 1: full halving on first mark.
        assert!((w.cwnd - before / 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_reduction_per_window() {
        let mut w = WindowState::new(100.0, 50.0, 2.0, 1e9);
        let mut cc = Dctcp::new();
        cc.window_end = 1000; // keep the whole test inside one window
        cc.on_ack(&mut w, &info(1, 1, 100, true));
        let after_first = w.cwnd;
        cc.on_ack(&mut w, &info(1, 2, 100, true));
        assert_eq!(w.cwnd, after_first, "second mark in same window ignored");
    }

    #[test]
    fn fractional_marking_gives_gentle_cut() {
        let mut w = WindowState::new(100.0, 50.0, 2.0, 1e9);
        let mut cc = Dctcp::new();
        // Drive alpha down first with many unmarked windows.
        let mut seq = 0;
        for _ in 0..60 {
            seq += 10;
            cc.on_ack(&mut w, &info(10, seq, seq + 10, false));
        }
        let alpha = cc.alpha();
        assert!(alpha < 0.05);
        w.cwnd = 100.0;
        w.ssthresh = 100.0;
        cc.on_ack(&mut w, &info(1, seq + 1, seq + 200, true));
        let expected = 100.0 * (1.0 - alpha / 2.0);
        assert!(
            (w.cwnd - expected).abs() < 1.0,
            "gentle cut: {} vs {}",
            w.cwnd,
            expected
        );
    }
}
