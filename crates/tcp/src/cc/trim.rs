//! The TCP-TRIM controller: Reno-style growth plus the two TRIM
//! mechanisms from `trim-core` — probe-based window inheritance on
//! inter-train gaps (Algorithm 1) and delay-based queuing control
//! (Algorithm 2).

use netsim::time::{Dur, SimTime};
use trim_core::{SendDecision, Trim, TrimConfig, WindowAction};

use super::{reno_halve, reno_increase, AckInfo, CcAlgo, PreSendAction, WindowState};

/// TCP-TRIM congestion control.
#[derive(Debug)]
pub struct TrimCc {
    trim: Trim,
}

impl TrimCc {
    /// Creates a TRIM controller.
    ///
    /// # Errors
    ///
    /// Returns the validation message when `cfg` is out of range.
    pub fn new(cfg: TrimConfig) -> Result<Self, String> {
        Ok(TrimCc {
            trim: Trim::new(cfg)?,
        })
    }

    /// The underlying algorithm state (for diagnostics and tests).
    pub fn state(&self) -> &Trim {
        &self.trim
    }

    fn apply(&self, w: &mut WindowState, action: WindowAction) {
        match action {
            WindowAction::None => {}
            WindowAction::SetAndResume(cwnd) => {
                w.cwnd = cwnd;
                w.suspended = false;
                w.clamp_cwnd();
                // The tuned window is a congestion-derived operating
                // point: continue in congestion avoidance, not slow
                // start (as every TCP reduction moves ssthresh).
                w.ssthresh = w.cwnd;
            }
            WindowAction::FallbackAndResume(cwnd) => {
                // Deadline miss: collapse the window but keep ssthresh so
                // the connection slow-starts back, as after an RTO.
                w.cwnd = cwnd;
                w.suspended = false;
                w.clamp_cwnd();
            }
            WindowAction::Scale(f) => {
                w.cwnd *= f;
                w.clamp_cwnd();
                w.ssthresh = w.cwnd;
            }
        }
    }
}

impl CcAlgo for TrimCc {
    fn name(&self) -> &'static str {
        "trim"
    }

    fn on_ack(&mut self, w: &mut WindowState, info: &AckInfo) {
        // Normal Reno growth first; TRIM's delay-based reduction then
        // applies on top (probe ACKs skip growth — the probe result sets
        // the window outright).
        if !info.probe_echo {
            reno_increase(w, info.newly_acked);
        }
        if let Some(rtt) = info.rtt {
            let action = self
                .trim
                .on_ack(info.now.as_nanos(), rtt.as_nanos(), info.probe_echo);
            self.apply(w, action);
        }
    }

    fn on_fast_retransmit(&mut self, w: &mut WindowState, flight: u64, _now: SimTime) {
        reno_halve(w, flight);
    }

    fn on_timeout(&mut self, w: &mut WindowState, flight: u64, _now: SimTime) {
        w.ssthresh = (flight as f64 / 2.0).max(w.min_cwnd);
        self.trim.on_rto();
        w.suspended = false;
    }

    fn pre_send(&mut self, w: &mut WindowState, now: SimTime, available: u64) -> PreSendAction {
        match self.trim.on_send_attempt(now.as_nanos(), w.cwnd) {
            SendDecision::Continue => PreSendAction::Continue,
            SendDecision::StartProbe {
                probe_cwnd,
                deadline_ns,
            } => {
                let probes = (self.trim.config().probe_packets as u64).min(available.max(1)) as u32;
                self.trim.begin_probe(w.cwnd, probes);
                w.cwnd = probe_cwnd;
                w.clamp_cwnd();
                PreSendAction::StartProbe {
                    probes,
                    deadline: Dur::from_nanos(deadline_ns),
                }
            }
        }
    }

    fn note_sent(&mut self, now: SimTime) {
        self.trim.note_sent(now.as_nanos());
    }

    fn on_probe_deadline(&mut self, w: &mut WindowState) {
        let action = self.trim.on_probe_deadline();
        self.apply(w, action);
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact values are the expected results")]
mod tests {
    use super::*;

    fn cc() -> TrimCc {
        TrimCc::new(TrimConfig::default().with_capacity(1_000_000_000, 1460)).unwrap()
    }

    fn win() -> WindowState {
        WindowState::new(2.0, 1e9, 2.0, 1e9)
    }

    fn ack_at(now_us: u64, rtt_us: u64, newly: u64, probe: bool) -> AckInfo {
        AckInfo {
            now: SimTime::from_nanos(now_us * 1000),
            rtt: Some(Dur::from_micros(rtt_us)),
            newly_acked: newly,
            ack_seq: 0,
            next_seq: 0,
            flight: 0,
            ece: false,
            probe_echo: probe,
        }
    }

    #[test]
    fn grows_like_reno_without_congestion() {
        let mut w = win();
        let mut c = cc();
        c.on_ack(&mut w, &ack_at(100, 100, 2, false));
        assert_eq!(w.cwnd, 4.0);
    }

    #[test]
    fn full_probe_cycle_through_trait() {
        let mut w = win();
        let mut c = cc();
        w.cwnd = 500.0;
        w.ssthresh = 1.0; // avoid slow-start noise
                          // Seed the estimators.
        c.on_ack(&mut w, &ack_at(100, 100, 0, false));
        c.note_sent(SimTime::from_nanos(200_000));
        // 10ms later: gap.
        let act = c.pre_send(&mut w, SimTime::from_nanos(10_200_000), 100);
        match act {
            PreSendAction::StartProbe { probes, deadline } => {
                assert_eq!(probes, 2);
                assert_eq!(deadline, Dur::from_micros(100));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(w.cwnd, 2.0, "window shrunk for probing");
        w.suspended = true; // connection does this after sending the probes
                            // First probe ACK: still suspended.
        c.on_ack(&mut w, &ack_at(10_400, 110, 1, true));
        assert!(w.suspended);
        // Second probe ACK: resumed with the tuned window (factor 0.9).
        c.on_ack(&mut w, &ack_at(10_500, 110, 1, true));
        assert!(!w.suspended);
        assert!((w.cwnd - 450.0).abs() < 1.0, "cwnd={}", w.cwnd);
    }

    #[test]
    fn probe_deadline_resumes_at_floor() {
        let mut w = win();
        let mut c = cc();
        w.cwnd = 300.0;
        c.on_ack(&mut w, &ack_at(100, 100, 0, false));
        c.note_sent(SimTime::from_nanos(200_000));
        let _ = c.pre_send(&mut w, SimTime::from_nanos(50_200_000), 100);
        w.suspended = true;
        c.on_probe_deadline(&mut w);
        assert!(!w.suspended);
        assert_eq!(w.cwnd, 2.0);
    }

    #[test]
    fn delay_backoff_applies_after_growth() {
        let mut w = win();
        let mut c = cc();
        w.cwnd = 100.0;
        w.ssthresh = 1.0;
        // min_RTT = 100us -> K ~ 275us; a 1000us RTT triggers back-off.
        c.on_ack(&mut w, &ack_at(100, 100, 0, false));
        c.on_ack(&mut w, &ack_at(500, 1000, 1, false));
        // Growth: 100 + 1/100 = 100.01, then scaled by (1 - ep/2) < 1.
        assert!(w.cwnd < 100.0, "cwnd={}", w.cwnd);
        assert!(w.cwnd > 50.0, "no more than halving");
        assert_eq!(c.state().queue_backoffs(), 1);
    }

    #[test]
    fn timeout_aborts_probe_and_unsuspends() {
        let mut w = win();
        let mut c = cc();
        w.cwnd = 300.0;
        c.on_ack(&mut w, &ack_at(100, 100, 0, false));
        c.note_sent(SimTime::from_nanos(200_000));
        let _ = c.pre_send(&mut w, SimTime::from_nanos(50_200_000), 100);
        w.suspended = true;
        c.on_timeout(&mut w, 2, SimTime::from_nanos(60_000_000));
        assert!(!w.suspended);
        assert!(!c.state().is_probing());
    }

    #[test]
    fn delay_reduction_never_drops_cwnd_below_floor() {
        let mut w = win();
        let mut c = cc();
        w.cwnd = 2.1; // just above the floor of 2 packets
        w.ssthresh = 1.0;
        c.on_ack(&mut w, &ack_at(100, 100, 0, false));
        // A pathological RTT drives ep toward 1, so the raw scale would
        // land near 1.05 — below min_cwnd. The clamp must hold the floor.
        c.on_ack(&mut w, &ack_at(500, 100_000, 0, false));
        assert_eq!(c.state().queue_backoffs(), 1, "back-off must have fired");
        assert_eq!(w.cwnd, 2.0, "delay-based reduction broke the cwnd floor");
        assert_eq!(w.ssthresh, 2.0, "ssthresh follows the clamped window");
    }

    #[test]
    fn no_probe_without_gap() {
        let mut w = win();
        let mut c = cc();
        w.cwnd = 100.0;
        c.on_ack(&mut w, &ack_at(100, 100, 0, false));
        c.note_sent(SimTime::from_nanos(200_000));
        // 50us later, well within smooth RTT.
        let act = c.pre_send(&mut w, SimTime::from_nanos(250_000), 100);
        assert_eq!(act, PreSendAction::Continue);
    }
}
