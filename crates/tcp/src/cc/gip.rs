//! GIP-style baseline (Zhang et al., ICNP 2013, as discussed in the
//! paper's related work): every packet train restarts at the minimum
//! congestion window, with no probing. The paper argues this conservative
//! restart underutilizes the bottleneck when capacity is plentiful —
//! this controller exists to reproduce that ablation.

use netsim::time::SimTime;
use trim_core::estimator::RttTracker;

use super::{reno_halve, reno_increase, AckInfo, CcAlgo, PreSendAction, WindowState};

/// Fixed-restart controller: on an inter-train gap, set `cwnd` to the
/// floor and continue (no probes, no suspension).
#[derive(Debug)]
pub struct Gip {
    rtt: RttTracker,
    last_send_ns: Option<u64>,
}

impl Gip {
    /// Creates the controller with the paper's smoothing weight (0.25).
    pub fn new() -> Self {
        Gip {
            rtt: RttTracker::new(0.25),
            last_send_ns: None,
        }
    }
}

impl Default for Gip {
    fn default() -> Self {
        Gip::new()
    }
}

impl CcAlgo for Gip {
    fn name(&self) -> &'static str {
        "gip"
    }

    fn on_ack(&mut self, w: &mut WindowState, info: &AckInfo) {
        if let Some(rtt) = info.rtt {
            self.rtt.observe(rtt.as_nanos());
        }
        reno_increase(w, info.newly_acked);
    }

    fn on_fast_retransmit(&mut self, w: &mut WindowState, flight: u64, _now: SimTime) {
        reno_halve(w, flight);
    }

    fn on_timeout(&mut self, w: &mut WindowState, flight: u64, _now: SimTime) {
        w.ssthresh = (flight as f64 / 2.0).max(w.min_cwnd);
    }

    fn pre_send(&mut self, w: &mut WindowState, now: SimTime, _available: u64) -> PreSendAction {
        if let (Some(last), Some(smooth)) = (self.last_send_ns, self.rtt.smooth_ns()) {
            if now.as_nanos().saturating_sub(last) > smooth && w.cwnd > w.min_cwnd {
                // Restart conservatively; slow start will rebuild.
                w.ssthresh = (w.cwnd / 2.0).max(w.min_cwnd);
                w.cwnd = w.min_cwnd;
            }
        }
        PreSendAction::Continue
    }

    fn note_sent(&mut self, now: SimTime) {
        self.last_send_ns = Some(now.as_nanos());
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact values are the expected results")]
mod tests {
    use super::*;
    use netsim::time::Dur;

    fn ack(rtt_us: u64, newly: u64) -> AckInfo {
        AckInfo {
            now: SimTime::ZERO,
            rtt: Some(Dur::from_micros(rtt_us)),
            newly_acked: newly,
            ack_seq: 0,
            next_seq: 0,
            flight: 0,
            ece: false,
            probe_echo: false,
        }
    }

    #[test]
    fn restart_on_gap_without_probe() {
        let mut w = WindowState::new(100.0, 1e9, 2.0, 1e9);
        let mut c = Gip::new();
        c.on_ack(&mut w, &ack(100, 0));
        c.note_sent(SimTime::from_nanos(0));
        let act = c.pre_send(&mut w, SimTime::from_nanos(10_000_000), 50);
        assert_eq!(act, PreSendAction::Continue, "GIP never probes");
        assert_eq!(w.cwnd, 2.0, "window restarted at floor");
        assert_eq!(w.ssthresh, 50.0);
    }

    #[test]
    fn no_restart_within_smooth_rtt() {
        let mut w = WindowState::new(100.0, 1e9, 2.0, 1e9);
        let mut c = Gip::new();
        c.on_ack(&mut w, &ack(100, 0));
        c.note_sent(SimTime::from_nanos(0));
        let _ = c.pre_send(&mut w, SimTime::from_nanos(50_000), 50);
        assert_eq!(w.cwnd, 100.0);
    }
}
