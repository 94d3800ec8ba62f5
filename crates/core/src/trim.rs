//! The TCP-TRIM sender-side state machine: inter-train gap detection
//! (Algorithm 1) and the ACK action (Algorithm 2).
//!
//! [`Trim`] is a *pure* state machine: it holds no sockets and sets no
//! timers. The embedding TCP sender feeds it send attempts, transmissions
//! and ACKs, and applies the returned decisions — set the window, scale the
//! window, arm or satisfy a probe deadline. This keeps the algorithm
//! testable in isolation and reusable across transports.

use crate::config::{TrimConfig, MIN_CWND};
use crate::estimator::RttTracker;
use crate::kmodel;

/// Minimum queueing headroom, in packets, built into the derived
/// threshold: `K >= min_RTT + K_MARGIN_PKTS / C`. Eq. 22 degenerates to
/// `K = D` when the bandwidth-delay product is small (e.g. the 100 Mbps
/// testbed), which would make TRIM back off on its own packets'
/// serialization delay and starve the link; a few packets of allowed
/// queueing restore the model's intent (a small positive target queue).
/// Not applied when [`TrimConfig::k_override_ns`] is set.
const K_MARGIN_PKTS: f64 = 4.0;

/// What the sender must do before transmitting the next new data packet
/// (Algorithm 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SendDecision {
    /// No inter-train gap detected: transmit normally.
    Continue,
    /// A gap larger than the smoothed RTT was detected. The sender must
    /// save its window, shrink `cwnd` to the probe window, transmit up to
    /// [`TrimConfig::probe_packets`] packets flagged as probes, suspend
    /// further new data, and arm a deadline of `deadline_ns` from now.
    StartProbe {
        /// Window to use while probing (the paper's 2 packets).
        probe_cwnd: f64,
        /// How long to wait for the probe ACKs: one smoothed RTT.
        deadline_ns: u64,
    },
}

/// Window instruction produced by an ACK or a probe deadline (Algorithm 2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WindowAction {
    /// Leave the window alone.
    None,
    /// Probe ACKs measured the path: set the congestion window to the
    /// tuned value (Eq. 1) and resume. The tuned window is a
    /// congestion-derived operating point, so the embedding TCP should
    /// continue in congestion avoidance from it.
    SetAndResume(f64),
    /// The probe deadline elapsed: fall back to the minimum window and
    /// resume. Unlike [`WindowAction::SetAndResume`], the slow-start
    /// threshold should be left alone so the connection can slow-start
    /// back (mirroring TCP's timeout recovery).
    FallbackAndResume(f64),
    /// Multiply the congestion window by this factor in `(1/2, 1)`
    /// (queuing-control back-off, Eq. 3).
    Scale(f64),
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    Normal,
    /// Probing after an inter-train gap: waiting for `expected` probe ACKs.
    Probing {
        saved_cwnd: f64,
        expected: u32,
        acked: u32,
        rtt_sum_ns: u64,
    },
}

/// The TCP-TRIM algorithm state for one connection.
///
/// ```
/// use trim_core::{Trim, TrimConfig, SendDecision, WindowAction};
///
/// let cfg = TrimConfig::default().with_capacity(1_000_000_000, 1460);
/// let mut trim = Trim::new(cfg)?;
///
/// // Warm up the RTT estimators with two ACKs 100us apart.
/// trim.on_ack(0, 100_000, false);
/// assert_eq!(trim.smooth_rtt_ns(), Some(100_000));
///
/// // A send 10ms later is an inter-train gap: probe first.
/// trim.note_sent(1_000_000);
/// let d = trim.on_send_attempt(11_000_000, 900.0);
/// assert!(matches!(d, SendDecision::StartProbe { .. }));
/// if let SendDecision::StartProbe { .. } = d {
///     trim.begin_probe(900.0, 2);
/// }
///
/// // Both probe ACKs return with modest queueing: the saved window is
/// // reinstated, scaled down by the queueing delay ratio (Eq. 1).
/// trim.on_ack(0, 110_000, true);
/// let act = trim.on_ack(0, 110_000, true);
/// match act {
///     WindowAction::SetAndResume(w) => assert!(w > 2.0 && w < 900.0),
///     other => panic!("expected SetAndResume, got {other:?}"),
/// }
/// # Ok::<(), String>(())
/// ```
#[derive(Clone, Debug)]
pub struct Trim {
    cfg: TrimConfig,
    rtt: RttTracker,
    k_ns: Option<u64>,
    last_send_ns: Option<u64>,
    phase: Phase,
    /// Earliest time the next queuing-control reduction may apply, when
    /// rate-limited to once per RTT.
    backoff_gate_ns: u64,
    /// Counters for diagnostics and tests.
    probes_started: u64,
    probe_timeouts: u64,
    queue_backoffs: u64,
}

impl Trim {
    /// Creates the state machine for one connection.
    ///
    /// # Errors
    ///
    /// Returns the validation message when `cfg` is out of range (see
    /// [`TrimConfig::validate`]).
    pub fn new(cfg: TrimConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(Trim {
            rtt: RttTracker::new(cfg.alpha),
            cfg,
            k_ns: cfg.k_override_ns,
            last_send_ns: None,
            phase: Phase::Normal,
            backoff_gate_ns: 0,
            probes_started: 0,
            probe_timeouts: 0,
            queue_backoffs: 0,
        })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &TrimConfig {
        &self.cfg
    }

    /// The smoothed RTT (the inter-train gap threshold), once measured.
    pub fn smooth_rtt_ns(&self) -> Option<u64> {
        self.rtt.smooth_ns()
    }

    /// The RTT threshold `K` currently in force, once derivable.
    pub fn k_ns(&self) -> Option<u64> {
        self.k_ns
    }

    /// Whether the connection is suspended waiting for probe ACKs.
    pub fn is_probing(&self) -> bool {
        matches!(self.phase, Phase::Probing { .. })
    }

    /// Number of probe phases entered so far.
    pub fn probes_started(&self) -> u64 {
        self.probes_started
    }

    /// Number of probe phases that ended by deadline instead of ACKs.
    pub fn probe_timeouts(&self) -> u64 {
        self.probe_timeouts
    }

    /// Number of queuing-control window reductions applied (Eq. 3).
    pub fn queue_backoffs(&self) -> u64 {
        self.queue_backoffs
    }

    /// Algorithm 1: call before transmitting a new (non-retransmitted)
    /// data packet at time `now_ns` with current window `cwnd`.
    ///
    /// Returns [`SendDecision::StartProbe`] when the time since the last
    /// transmission exceeds the smoothed RTT. The caller must then invoke
    /// [`Trim::begin_probe`] with the number of probes it will actually
    /// send (possibly fewer than configured when little data is pending).
    pub fn on_send_attempt(&mut self, now_ns: u64, cwnd: f64) -> SendDecision {
        if self.is_probing() {
            return SendDecision::Continue;
        }
        let (Some(last), Some(smooth)) = (self.last_send_ns, self.rtt.smooth_ns()) else {
            return SendDecision::Continue;
        };
        let gap = now_ns.saturating_sub(last);
        if gap > smooth && cwnd > MIN_CWND {
            SendDecision::StartProbe {
                probe_cwnd: MIN_CWND,
                deadline_ns: smooth,
            }
        } else {
            SendDecision::Continue
        }
    }

    /// Enters the probe phase, saving the accumulated window. `expected`
    /// is how many probe packets the sender will transmit (at most
    /// [`TrimConfig::probe_packets`]).
    ///
    /// # Panics
    ///
    /// Panics if `expected` is zero or a probe phase is already active.
    pub fn begin_probe(&mut self, saved_cwnd: f64, expected: u32) {
        assert!(expected > 0, "must send at least one probe");
        assert!(!self.is_probing(), "probe phase already active");
        self.probes_started += 1;
        self.phase = Phase::Probing {
            saved_cwnd,
            expected: expected.min(self.cfg.probe_packets),
            acked: 0,
            rtt_sum_ns: 0,
        };
    }

    /// Records that a data packet left the host at `now_ns`; keeps the
    /// inter-train gap detector current.
    pub fn note_sent(&mut self, now_ns: u64) {
        self.last_send_ns = Some(now_ns);
    }

    /// Algorithm 2: processes the RTT sample of an ACK arriving at
    /// `now_ns`. `is_probe` marks ACKs of probe packets.
    ///
    /// Updates `smooth_RTT`, `min_RTT` and `K`; returns the window action:
    /// - probe ACK completing the probe phase → window per Eq. 1,
    /// - normal ACK with `RTT >= K` → multiplicative back-off per Eq. 3,
    ///   applied at most once per RTT when
    ///   [`TrimConfig::backoff_per_rtt`] is set (the default),
    /// - otherwise no change.
    ///
    /// # Panics
    ///
    /// Panics if `rtt_ns` is zero.
    pub fn on_ack(&mut self, now_ns: u64, rtt_ns: u64, is_probe: bool) -> WindowAction {
        let min_changed = self.rtt.observe(rtt_ns);
        if min_changed || self.k_ns.is_none() {
            self.update_k();
        }
        match (&mut self.phase, is_probe) {
            (
                Phase::Probing {
                    saved_cwnd,
                    expected,
                    acked,
                    rtt_sum_ns,
                },
                true,
            ) => {
                *acked += 1;
                *rtt_sum_ns += rtt_ns;
                if *acked >= *expected {
                    let probe_rtt = *rtt_sum_ns as f64 / *acked as f64;
                    let saved = *saved_cwnd;
                    self.phase = Phase::Normal;
                    #[expect(
                        clippy::expect_used,
                        reason = "observe() on this sample guarantees a minimum exists"
                    )]
                    let min = self
                        .rtt
                        .min_ns()
                        .expect("observe() above guarantees a minimum")
                        as f64;
                    // Eq. 1: cwnd = s_cwnd * (1 - (probe_RTT - min)/min),
                    // clamped to [MIN_CWND, s_cwnd] per Section III.C.
                    let tuned = saved * (1.0 - (probe_rtt - min) / min);
                    let tuned = tuned.clamp(MIN_CWND, saved.max(MIN_CWND));
                    WindowAction::SetAndResume(tuned)
                } else {
                    WindowAction::None
                }
            }
            (Phase::Probing { .. }, false) | (Phase::Normal, true) => {
                // Stray ACK relative to the probe phase (e.g. a pre-gap
                // packet's ACK arriving late): only the estimators update.
                WindowAction::None
            }
            (Phase::Normal, false) => {
                let Some(k) = self.k_ns else {
                    return WindowAction::None;
                };
                if rtt_ns >= k && (!self.cfg.backoff_per_rtt || now_ns >= self.backoff_gate_ns) {
                    // Eq. 2-3, at most once per window of data.
                    let ep = (rtt_ns - k) as f64 / rtt_ns as f64;
                    self.queue_backoffs += 1;
                    self.backoff_gate_ns = now_ns + rtt_ns;
                    WindowAction::Scale(1.0 - ep / 2.0)
                } else {
                    WindowAction::None
                }
            }
        }
    }

    /// The probe deadline elapsed without all probe ACKs: fall back to the
    /// minimum window (Algorithm 2, lines 11–13). Returns
    /// [`WindowAction::None`] when the probe already completed.
    pub fn on_probe_deadline(&mut self) -> WindowAction {
        if self.is_probing() {
            self.phase = Phase::Normal;
            self.probe_timeouts += 1;
            WindowAction::FallbackAndResume(MIN_CWND)
        } else {
            WindowAction::None
        }
    }

    /// A retransmission timeout voids any probe in progress (the probes
    /// themselves were lost); the embedding TCP applies its own timeout
    /// response.
    pub fn on_rto(&mut self) {
        if self.is_probing() {
            self.probe_timeouts += 1;
            self.phase = Phase::Normal;
        }
    }

    fn update_k(&mut self) {
        if self.cfg.k_override_ns.is_some() {
            return; // fixed by configuration
        }
        let Some(min) = self.rtt.min_ns() else {
            return;
        };
        self.k_ns = Some(match self.cfg.capacity_pps {
            Some(c) => {
                let margin = (K_MARGIN_PKTS / c * 1e9).round() as u64;
                kmodel::k_lower_bound_ns(c, min).max(min + margin)
            }
            None => (min as f64 * self.cfg.k_fallback_factor).round() as u64,
        });
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact values are the expected results")]
mod tests {
    use super::*;

    fn trim_1g() -> Trim {
        Trim::new(TrimConfig::default().with_capacity(1_000_000_000, 1460)).unwrap()
    }

    #[test]
    fn no_probe_before_first_rtt_sample() {
        let mut t = trim_1g();
        t.note_sent(0);
        assert_eq!(t.on_send_attempt(50_000_000, 100.0), SendDecision::Continue);
    }

    #[test]
    fn gap_larger_than_smooth_rtt_triggers_probe() {
        let mut t = trim_1g();
        t.on_ack(0, 100_000, false);
        t.note_sent(1_000_000);
        // Gap of 99us < smooth 100us: continue.
        assert_eq!(t.on_send_attempt(1_099_000, 100.0), SendDecision::Continue);
        // Gap of 101us > 100us: probe.
        match t.on_send_attempt(1_101_000, 100.0) {
            SendDecision::StartProbe {
                probe_cwnd,
                deadline_ns,
            } => {
                assert_eq!(probe_cwnd, 2.0);
                assert_eq!(deadline_ns, 100_000);
            }
            other => panic!("expected probe, got {other:?}"),
        }
    }

    #[test]
    fn no_probe_when_window_already_minimal() {
        let mut t = trim_1g();
        t.on_ack(0, 100_000, false);
        t.note_sent(0);
        // cwnd == 2: probing would be a no-op, keep sending.
        assert_eq!(t.on_send_attempt(10_000_000, 2.0), SendDecision::Continue);
    }

    #[test]
    fn probe_acks_restore_scaled_window() {
        let mut t = trim_1g();
        t.on_ack(0, 100_000, false);
        t.note_sent(0);
        assert!(matches!(
            t.on_send_attempt(1_000_000, 800.0),
            SendDecision::StartProbe { .. }
        ));
        t.begin_probe(800.0, 2);
        assert!(t.is_probing());
        assert_eq!(t.on_ack(0, 120_000, true), WindowAction::None);
        // probe_rtt = 120us, min = 100us: factor 1 - 0.2 = 0.8.
        match t.on_ack(0, 120_000, true) {
            WindowAction::SetAndResume(w) => assert!((w - 640.0).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
        assert!(!t.is_probing());
        assert_eq!(t.probes_started(), 1);
        assert_eq!(t.probe_timeouts(), 0);
    }

    #[test]
    fn probe_with_huge_rtt_clamps_to_min_window() {
        let mut t = trim_1g();
        t.on_ack(0, 100_000, false);
        t.note_sent(0);
        t.on_send_attempt(1_000_000, 800.0);
        t.begin_probe(800.0, 2);
        t.on_ack(0, 250_000, true); // > 2x min_RTT: Eq. 1 would go negative
        match t.on_ack(0, 250_000, true) {
            WindowAction::SetAndResume(w) => assert_eq!(w, 2.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn probe_never_exceeds_saved_window() {
        let mut t = trim_1g();
        t.on_ack(0, 100_000, false);
        t.note_sent(0);
        t.on_send_attempt(1_000_000, 10.0);
        t.begin_probe(10.0, 2);
        // Probe RTTs at exactly min_RTT: factor 1.0 -> full restore.
        t.on_ack(0, 100_000, true);
        match t.on_ack(0, 100_000, true) {
            WindowAction::SetAndResume(w) => assert_eq!(w, 10.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn probe_deadline_falls_back_to_min_window() {
        let mut t = trim_1g();
        t.on_ack(0, 100_000, false);
        t.note_sent(0);
        t.on_send_attempt(1_000_000, 500.0);
        t.begin_probe(500.0, 2);
        t.on_ack(0, 110_000, true); // only one of two probes acked
        assert_eq!(t.on_probe_deadline(), WindowAction::FallbackAndResume(2.0));
        assert!(!t.is_probing());
        assert_eq!(t.probe_timeouts(), 1);
        // A second deadline is inert.
        assert_eq!(t.on_probe_deadline(), WindowAction::None);
    }

    #[test]
    fn single_packet_train_probes_with_one_packet() {
        let mut t = trim_1g();
        t.on_ack(0, 100_000, false);
        t.note_sent(0);
        t.on_send_attempt(1_000_000, 300.0);
        t.begin_probe(300.0, 1);
        match t.on_ack(0, 100_000, true) {
            WindowAction::SetAndResume(w) => assert_eq!(w, 300.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn queue_control_scales_window_above_k() {
        let mut t = Trim::new(TrimConfig {
            k_override_ns: Some(200_000),
            ..TrimConfig::default()
        })
        .unwrap();
        t.on_ack(0, 100_000, false);
        // RTT below K: nothing.
        assert_eq!(t.on_ack(0, 150_000, false), WindowAction::None);
        // RTT 400us, K 200us: ep = 0.5, factor 0.75.
        match t.on_ack(0, 400_000, false) {
            WindowAction::Scale(f) => assert!((f - 0.75).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        assert_eq!(t.queue_backoffs(), 1);
    }

    #[test]
    fn scale_factor_never_below_half() {
        let mut t = Trim::new(TrimConfig {
            k_override_ns: Some(1),
            ..TrimConfig::default()
        })
        .unwrap();
        t.on_ack(0, 50, false);
        for rtt in [2u64, 100, 1_000_000, u32::MAX as u64] {
            match t.on_ack(0, rtt, false) {
                WindowAction::Scale(f) => {
                    assert!(f > 0.5 && f <= 1.0, "factor {f} out of range")
                }
                WindowAction::None => {}
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn k_derived_from_capacity_and_min_rtt() {
        let c: f64 = 1e9 / (1460.0 * 8.0);
        let margin = (4.0 / c * 1e9).round() as u64;
        let mut t = trim_1g();
        assert_eq!(t.k_ns(), None);
        t.on_ack(0, 200_000, false);
        // At min_RTT = 200us the Eq. 22 term dominates the margin floor.
        let expected = kmodel::k_lower_bound_ns(c, 200_000);
        assert!(expected > 200_000 + margin);
        assert_eq!(t.k_ns(), Some(expected));
        // A lower min re-derives K; here the margin floor dominates.
        t.on_ack(0, 100_000, false);
        let expected2 = kmodel::k_lower_bound_ns(c, 100_000).max(100_000 + margin);
        assert_eq!(t.k_ns(), Some(expected2));
        assert_eq!(expected2, 100_000 + margin);
    }

    #[test]
    fn k_margin_floors_low_bdp_paths() {
        // 100 Mbps, 1 ms base RTT: Eq. 22 alone would give K = D.
        let c: f64 = 1e8 / (1460.0 * 8.0);
        let mut t = Trim::new(TrimConfig::default().with_capacity(100_000_000, 1460)).unwrap();
        t.on_ack(0, 1_000_000, false);
        let k = t.k_ns().unwrap();
        assert!(k > 1_000_000, "K must allow some queueing, got {k}");
        let margin = (4.0 / c * 1e9).round() as u64;
        assert_eq!(k, 1_000_000 + margin);
    }

    #[test]
    fn k_fallback_without_capacity() {
        let mut t = Trim::new(TrimConfig::default()).unwrap();
        t.on_ack(0, 100_000, false);
        assert_eq!(t.k_ns(), Some(200_000)); // 2.0 * min_RTT
    }

    #[test]
    fn rto_aborts_probe_phase() {
        let mut t = trim_1g();
        t.on_ack(0, 100_000, false);
        t.note_sent(0);
        t.on_send_attempt(1_000_000, 500.0);
        t.begin_probe(500.0, 2);
        t.on_rto();
        assert!(!t.is_probing());
        assert_eq!(t.probe_timeouts(), 1);
        // Deadline after the RTO is inert.
        assert_eq!(t.on_probe_deadline(), WindowAction::None);
    }

    #[test]
    fn no_reprobe_while_probing() {
        let mut t = trim_1g();
        t.on_ack(0, 100_000, false);
        t.note_sent(0);
        t.on_send_attempt(1_000_000, 500.0);
        t.begin_probe(500.0, 2);
        assert_eq!(t.on_send_attempt(99_000_000, 2.0), SendDecision::Continue);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn double_begin_probe_panics() {
        let mut t = trim_1g();
        t.begin_probe(10.0, 2);
        t.begin_probe(10.0, 2);
    }

    fn trim_with_k(k_ns: u64) -> Trim {
        Trim::new(TrimConfig {
            k_override_ns: Some(k_ns),
            ..TrimConfig::default()
        })
        .unwrap()
    }

    /// Eq. 2-3 boundary: at RTT == K the backpressure term ep is exactly
    /// zero, so the "reduction" is a no-op Scale(1.0); one nanosecond
    /// below K the delay branch must not fire at all.
    #[test]
    fn rtt_equal_to_k_is_the_zero_reduction_boundary() {
        const K: u64 = 200_000;
        let mut t = trim_with_k(K);
        t.on_ack(0, 100_000, false); // seed min_RTT, below K
        assert_eq!(t.on_ack(0, K - 1, false), WindowAction::None);
        match t.on_ack(0, K, false) {
            WindowAction::Scale(f) => assert_eq!(f, 1.0, "ep must be exactly 0 at RTT == K"),
            other => panic!("expected Scale at the boundary, got {other:?}"),
        }
        // The boundary hit still consumes the once-per-RTT backoff budget.
        assert_eq!(t.queue_backoffs(), 1);
        assert_eq!(t.on_ack(0, K, false), WindowAction::None);
    }

    /// Eq. 2-3 asymptote: as RTT -> infinity, ep -> 1 and the scale
    /// factor approaches Reno's 1/2 halving from above — the cut is
    /// never deeper than a halving. (In exact arithmetic the factor
    /// stays strictly above 1/2; at RTT = u64::MAX the f64 quotient
    /// rounds ep to exactly 1.0, so the factor bottoms out at 0.5.)
    #[test]
    fn huge_rtt_caps_the_cut_at_reno_halving() {
        const K: u64 = 1_000;
        let mut last = 1.0_f64;
        for rtt in [1_000_000u64, 1_000_000_000, u64::MAX] {
            // Fresh instance per sample: the once-per-RTT gate would
            // otherwise swallow the later, larger samples.
            let mut t = trim_with_k(K);
            t.on_ack(0, 500, false); // seed min_RTT, below K
            match t.on_ack(0, rtt, false) {
                WindowAction::Scale(f) => {
                    assert!(f >= 0.5, "rtt {rtt}: factor {f} cuts deeper than halving");
                    assert!(f < last, "factor must shrink toward 1/2 as RTT grows");
                    last = f;
                }
                other => panic!("rtt {rtt}: {other:?}"),
            }
        }
        assert!(last - 0.5 < 1e-9, "cut not capped at halving: {last}");
    }
}
