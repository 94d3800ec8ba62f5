//! Pluggable congestion control.
//!
//! A [`CcAlgo`] owns the *policy* — how the window grows and shrinks —
//! while the [`Conn`](crate::conn::Conn) owns the *mechanism*:
//! sequencing, loss detection, retransmission, and timers. The two
//! communicate through the shared [`WindowState`].

use std::fmt;

use netsim::time::{Dur, SimTime};

pub mod cubic;
pub mod dctcp;
pub mod gip;
pub mod l2dct;
pub mod reno;
pub mod trim;

pub use cubic::Cubic;
pub use dctcp::Dctcp;
pub use gip::Gip;
pub use l2dct::L2dct;
pub use reno::Reno;
pub use trim::TrimCc;

/// Window variables shared between a connection and its congestion
/// controller.
#[derive(Clone, Copy, Debug)]
pub struct WindowState {
    /// Congestion window in packets.
    pub cwnd: f64,
    /// Slow-start threshold in packets.
    pub ssthresh: f64,
    /// Floor for `cwnd`.
    pub min_cwnd: f64,
    /// Ceiling for `cwnd`.
    pub max_cwnd: f64,
    /// While `true`, the connection sends no new data (TCP-TRIM's probe
    /// suspension, Algorithm 1 line 6). Cleared by the controller when the
    /// probe phase resolves.
    pub suspended: bool,
}

impl WindowState {
    /// Creates the initial window state.
    pub fn new(init_cwnd: f64, init_ssthresh: f64, min_cwnd: f64, max_cwnd: f64) -> Self {
        WindowState {
            cwnd: init_cwnd,
            ssthresh: init_ssthresh,
            min_cwnd,
            max_cwnd,
            suspended: false,
        }
    }

    /// Clamps `cwnd` into `[min_cwnd, max_cwnd]`.
    pub fn clamp_cwnd(&mut self) {
        self.cwnd = self.cwnd.clamp(self.min_cwnd, self.max_cwnd);
    }
}

/// Everything a controller may want to know about an arriving ACK.
#[derive(Clone, Copy, Debug)]
pub struct AckInfo {
    /// Arrival time.
    pub now: SimTime,
    /// Round-trip sample from the echoed timestamp; `None` when the echo
    /// came from a retransmission (Karn's rule).
    pub rtt: Option<Dur>,
    /// How many packets this cumulative ACK newly acknowledged (0 for a
    /// duplicate ACK).
    pub newly_acked: u64,
    /// The cumulative acknowledgment (next expected packet).
    pub ack_seq: u64,
    /// Highest sequence sent so far plus one.
    pub next_seq: u64,
    /// Packets in flight after this ACK.
    pub flight: u64,
    /// ECN Echo flag.
    pub ece: bool,
    /// The ACK echoes a TCP-TRIM probe packet.
    pub probe_echo: bool,
}

/// Decision returned by [`CcAlgo::pre_send`] before a new data packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PreSendAction {
    /// Transmit normally.
    Continue,
    /// TCP-TRIM detected an inter-train gap: send `probes` probe packets,
    /// then suspend until the controller resumes the window or `deadline`
    /// elapses (the connection then calls
    /// [`CcAlgo::on_probe_deadline`]).
    StartProbe {
        /// Number of probe packets to flag.
        probes: u32,
        /// Deadline for the probe ACKs.
        deadline: Dur,
    },
}

/// A congestion-control policy.
///
/// Implementations mutate the shared [`WindowState`]; the connection
/// enforces the floor/ceiling afterwards via [`WindowState::clamp_cwnd`].
pub trait CcAlgo: fmt::Debug + 'static {
    /// Short name for reports ("reno", "dctcp", "trim", ...).
    fn name(&self) -> &'static str;

    /// A new cumulative ACK arrived outside fast recovery: grow (or, for
    /// delay/ECN-based policies, shrink) the window.
    fn on_ack(&mut self, w: &mut WindowState, info: &AckInfo);

    /// Entering fast recovery after the duplicate-ACK threshold: apply the
    /// multiplicative decrease. The connection adds the standard window
    /// inflation afterwards.
    fn on_fast_retransmit(&mut self, w: &mut WindowState, flight: u64, now: SimTime);

    /// A retransmission timeout fired: collapse the window.
    fn on_timeout(&mut self, w: &mut WindowState, flight: u64, now: SimTime);

    /// Called before transmitting each *new* (non-retransmitted) data
    /// packet; lets TCP-TRIM interpose its inter-train gap probe.
    /// `available` is the number of unsent packets queued.
    fn pre_send(&mut self, _w: &mut WindowState, _now: SimTime, _available: u64) -> PreSendAction {
        PreSendAction::Continue
    }

    /// Called after each data packet actually leaves the host.
    fn note_sent(&mut self, _now: SimTime) {}

    /// The probe deadline armed by [`PreSendAction::StartProbe`] elapsed.
    fn on_probe_deadline(&mut self, _w: &mut WindowState) {}

    /// Whether data packets should be sent ECN-capable (DCTCP family).
    fn uses_ecn(&self) -> bool {
        false
    }
}

/// Selects and configures a congestion-control policy; the factory for
/// [`CcAlgo`] trait objects.
#[derive(Clone, Debug)]
pub enum CcKind {
    /// TCP Reno / NewReno — the paper's "TCP" baseline.
    Reno,
    /// CUBIC, the Linux default the testbed compares against (Fig. 13).
    Cubic,
    /// DCTCP with ECN fraction estimation (comparison protocol, Fig. 12).
    Dctcp,
    /// L2DCT: DCTCP-style control weighted by attained service (Fig. 12).
    L2dct,
    /// TCP-TRIM with the given algorithm configuration.
    Trim(trim_core::TrimConfig),
    /// GIP-style baseline: restart every packet train at the minimum
    /// window without probing (related-work ablation).
    Gip,
}

impl CcKind {
    /// TCP-TRIM with defaults and the bottleneck capacity of Eq. 22.
    pub fn trim_with_capacity(bits_per_sec: u64, packet_bytes: u32) -> Self {
        CcKind::Trim(trim_core::TrimConfig::default().with_capacity(bits_per_sec, packet_bytes))
    }

    /// Instantiates the policy.
    ///
    /// # Panics
    ///
    /// Panics if a [`CcKind::Trim`] configuration fails validation.
    pub fn build(&self) -> Box<dyn CcAlgo> {
        match self {
            CcKind::Reno => Box::new(Reno::new()),
            CcKind::Cubic => Box::new(Cubic::new()),
            CcKind::Dctcp => Box::new(Dctcp::new()),
            CcKind::L2dct => Box::new(L2dct::new()),
            CcKind::Trim(cfg) => Box::new(TrimCc::new(*cfg).expect("invalid TRIM config")), // trim-lint: allow(no-panic-in-library, reason = "configs are validated when the experiment spec is built")
            CcKind::Gip => Box::new(Gip::new()),
        }
    }

    /// The policy's report name without building it.
    pub fn name(&self) -> &'static str {
        match self {
            CcKind::Reno => "reno",
            CcKind::Cubic => "cubic",
            CcKind::Dctcp => "dctcp",
            CcKind::L2dct => "l2dct",
            CcKind::Trim(_) => "trim",
            CcKind::Gip => "gip",
        }
    }
}

/// Standard Reno multiplicative decrease shared by several policies.
pub(crate) fn reno_halve(w: &mut WindowState, flight: u64) {
    w.ssthresh = (flight as f64 / 2.0).max(w.min_cwnd);
    w.cwnd = w.ssthresh;
    w.clamp_cwnd();
}

/// Standard Reno additive increase shared by several policies.
pub(crate) fn reno_increase(w: &mut WindowState, newly_acked: u64) {
    for _ in 0..newly_acked {
        if w.cwnd < w.ssthresh {
            w.cwnd += 1.0; // slow start
        } else {
            w.cwnd += 1.0 / w.cwnd; // congestion avoidance
        }
    }
    w.clamp_cwnd();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_names() {
        for kind in [
            CcKind::Reno,
            CcKind::Cubic,
            CcKind::Dctcp,
            CcKind::L2dct,
            CcKind::Trim(trim_core::TrimConfig::default()),
            CcKind::Gip,
        ] {
            let algo = kind.build();
            assert_eq!(algo.name(), kind.name());
        }
    }

    #[test]
    fn trim_with_capacity_sets_c() {
        let kind = CcKind::trim_with_capacity(1_000_000_000, 1460);
        match kind {
            CcKind::Trim(cfg) => assert!(cfg.capacity_pps.unwrap() > 0.0),
            _ => unreachable!(),
        }
    }

    #[test]
    fn ecn_usage_by_family() {
        assert!(!CcKind::Reno.build().uses_ecn());
        assert!(CcKind::Dctcp.build().uses_ecn());
        assert!(CcKind::L2dct.build().uses_ecn());
        assert!(!CcKind::Trim(trim_core::TrimConfig::default())
            .build()
            .uses_ecn());
    }

    #[test]
    fn reno_helpers() {
        let mut w = WindowState::new(10.0, 8.0, 2.0, 100.0);
        // CA: cwnd >= ssthresh, +1/cwnd per ack.
        reno_increase(&mut w, 1);
        assert!((w.cwnd - 10.1).abs() < 1e-9);
        reno_halve(&mut w, 10);
        assert_eq!(w.cwnd, 5.0);
        assert_eq!(w.ssthresh, 5.0);
        // Slow start below ssthresh.
        w.cwnd = 2.0;
        reno_increase(&mut w, 2);
        assert_eq!(w.cwnd, 4.0);
        // Floor respected.
        reno_halve(&mut w, 1);
        assert_eq!(w.cwnd, 2.0);
    }
}
