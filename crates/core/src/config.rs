//! TCP-TRIM configuration.

/// Tunable parameters of the TCP-TRIM algorithm.
///
/// Defaults follow Section IV of the paper: `alpha = 0.25`, minimum
/// congestion window of 2 packets, and two probe packets per idle restart.
#[derive(Clone, Copy, Debug)]
pub struct TrimConfig {
    /// EWMA weight for the new RTT sample when computing `smooth_RTT`
    /// (Algorithm 2, line 2). The paper uses 0.25 throughout.
    pub alpha: f64,
    /// Floor for the congestion window in packets; the paper keeps TCP's
    /// default of 2.
    pub min_cwnd: f64,
    /// Number of probe packets sent when an inter-train gap is detected
    /// (Algorithm 1 sends `cwnd = 2` probes). Exposed for the ablation
    /// study; the connection may send fewer when less data is pending.
    pub probe_packets: u32,
    /// Bottleneck capacity in packets per second — the `C` of Eq. 22. When
    /// known, the RTT threshold `K` is derived from the guideline
    /// `K >= max(((sqrt(2CD)-1)^2)/C, D)` each time `min_RTT` changes.
    pub capacity_pps: Option<f64>,
    /// Fixed RTT threshold `K` in nanoseconds, overriding the guideline.
    pub k_override_ns: Option<u64>,
    /// Fallback multiplier on `min_RTT` used for `K` when neither
    /// `capacity_pps` nor `k_override_ns` is set.
    pub k_fallback_factor: f64,
    /// Minimum queueing headroom, in packets, built into the derived
    /// threshold: `K >= min_RTT + k_margin_pkts / C`. Eq. 22 degenerates
    /// to `K = D` when the bandwidth-delay product is small (e.g. the
    /// 100 Mbps testbed), which would make TRIM back off on its own
    /// packets' serialization delay and starve the link; a few packets of
    /// allowed queueing restore the model's intent (a small positive
    /// target queue). Ignored when `k_override_ns` is set.
    pub k_margin_pkts: f64,
    /// Apply the queuing-control reduction (Eq. 3) at most once per RTT.
    ///
    /// Section III.A stipulates that TCP-TRIM's reduction "can not be more
    /// aggressive than that of the legacy TCP", and legacy TCP halves at
    /// most once per window of data; the steady-state model (Eq. 10)
    /// likewise counts one decrement per connection per round. Setting
    /// this to `false` applies Algorithm 2 literally on every ACK, which
    /// compounds the factor and collapses the window — kept as an
    /// ablation.
    pub backoff_per_rtt: bool,
}

impl Default for TrimConfig {
    fn default() -> Self {
        TrimConfig {
            alpha: 0.25,
            min_cwnd: 2.0,
            probe_packets: 2,
            capacity_pps: None,
            k_override_ns: None,
            k_fallback_factor: 2.0,
            k_margin_pkts: 4.0,
            backoff_per_rtt: true,
        }
    }
}

impl TrimConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field when a parameter is out
    /// of range (`alpha` outside `(0, 1]`, non-positive windows or factors,
    /// zero probe count, non-positive capacity).
    #[expect(
        clippy::neg_cmp_op_on_partial_ord,
        reason = "deliberate: `!(x >= 1.0)` rejects NaN, which `x < 1.0` would accept"
    )]
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(format!("alpha must be in (0, 1], got {}", self.alpha));
        }
        if !(self.min_cwnd >= 1.0) {
            return Err(format!("min_cwnd must be >= 1, got {}", self.min_cwnd));
        }
        if self.probe_packets == 0 {
            return Err("probe_packets must be >= 1".to_string());
        }
        if let Some(c) = self.capacity_pps {
            if !(c > 0.0) {
                return Err(format!("capacity_pps must be positive, got {c}"));
            }
        }
        if !(self.k_fallback_factor >= 1.0) {
            return Err(format!(
                "k_fallback_factor must be >= 1, got {}",
                self.k_fallback_factor
            ));
        }
        if !(self.k_margin_pkts >= 0.0) {
            return Err(format!(
                "k_margin_pkts must be non-negative, got {}",
                self.k_margin_pkts
            ));
        }
        Ok(())
    }

    /// Sets the bottleneck capacity from a link rate and packet size, the
    /// usual way experiments configure `C`.
    pub fn with_capacity(mut self, bits_per_sec: u64, packet_bytes: u32) -> Self {
        self.capacity_pps = Some(bits_per_sec as f64 / (packet_bytes as f64 * 8.0));
        self
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact values are the expected results")]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let cfg = TrimConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.alpha, 0.25);
        assert_eq!(cfg.min_cwnd, 2.0);
        assert_eq!(cfg.probe_packets, 2);
    }

    #[test]
    fn with_capacity_converts_units() {
        let cfg = TrimConfig::default().with_capacity(1_000_000_000, 1460);
        let c = cfg.capacity_pps.unwrap();
        assert!((c - 85_616.438).abs() < 0.01);
    }

    #[test]
    fn invalid_fields_rejected() {
        let mut cfg = TrimConfig {
            alpha: 0.0,
            ..TrimConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.alpha = 1.5;
        assert!(cfg.validate().is_err());
        cfg.alpha = 0.25;
        cfg.min_cwnd = 0.5;
        assert!(cfg.validate().is_err());
        cfg.min_cwnd = 2.0;
        cfg.probe_packets = 0;
        assert!(cfg.validate().is_err());
        cfg.probe_packets = 2;
        cfg.capacity_pps = Some(-1.0);
        assert!(cfg.validate().is_err());
        cfg.capacity_pps = None;
        cfg.k_fallback_factor = 0.5;
        assert!(cfg.validate().is_err());
    }
}
