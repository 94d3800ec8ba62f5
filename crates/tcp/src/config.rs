//! TCP connection configuration.

use netsim::time::Dur;

/// Parameters of a simulated TCP connection.
///
/// Defaults match the paper's NS2 setup: 1460-byte packets, minimum
/// congestion window of 2, an initial retransmission timeout of 200 ms, and
/// ACK-per-packet receivers.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Data packet wire size in bytes (the paper sets 1460).
    pub mss_bytes: u32,
    /// ACK wire size in bytes.
    pub ack_bytes: u32,
    /// Initial congestion window in packets.
    pub init_cwnd: f64,
    /// Floor for the congestion window in packets.
    pub min_cwnd: f64,
    /// Congestion window used when restarting after a retransmission
    /// timeout.
    pub restart_cwnd: f64,
    /// Ceiling for the congestion window in packets.
    pub max_cwnd: f64,
    /// Initial slow-start threshold in packets.
    pub init_ssthresh: f64,
    /// Retransmission timeout before any RTT sample, and also the RTO
    /// floor (the paper varies this per experiment: 200 ms, 20 ms, 1 ms).
    pub min_rto: Dur,
    /// Upper bound on the backed-off RTO.
    pub max_rto: Dur,
    /// Duplicate-ACK threshold for fast retransmit.
    pub dupack_threshold: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss_bytes: 1460,
            ack_bytes: 40,
            init_cwnd: 2.0,
            min_cwnd: 2.0,
            restart_cwnd: 2.0,
            max_cwnd: 1e9,
            init_ssthresh: 1e9,
            min_rto: Dur::from_millis(200),
            max_rto: Dur::from_secs(60),
            dupack_threshold: 3,
        }
    }
}

impl TcpConfig {
    /// Sets the minimum retransmission timeout (also the pre-sample RTO).
    pub fn with_min_rto(mut self, rto: Dur) -> Self {
        self.min_rto = rto;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field when a parameter is
    /// out of range.
    #[expect(
        clippy::neg_cmp_op_on_partial_ord,
        reason = "`!(x >= y)` deliberately rejects NaN, unlike `x < y`"
    )]
    pub fn validate(&self) -> Result<(), String> {
        if self.mss_bytes == 0 {
            return Err("mss_bytes must be positive".into());
        }
        if self.ack_bytes == 0 {
            return Err("ack_bytes must be positive".into());
        }
        if !(self.min_cwnd >= 1.0) {
            return Err(format!("min_cwnd must be >= 1, got {}", self.min_cwnd));
        }
        if !(self.init_cwnd >= self.min_cwnd && self.restart_cwnd >= 1.0) {
            return Err("initial/restart windows must respect the floor".into());
        }
        if !(self.max_cwnd >= self.init_cwnd) {
            return Err("max_cwnd below init_cwnd".into());
        }
        if !(self.init_ssthresh >= 1.0) {
            return Err(format!(
                "init_ssthresh must be >= 1, got {}",
                self.init_ssthresh
            ));
        }
        if self.min_rto == Dur::ZERO || self.max_rto < self.min_rto {
            return Err("RTO bounds invalid".into());
        }
        if self.dupack_threshold == 0 {
            return Err("dupack_threshold must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_valid() {
        TcpConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_bad_fields() {
        let mut c = TcpConfig {
            mss_bytes: 0,
            ..TcpConfig::default()
        };
        assert!(c.validate().is_err());
        c.mss_bytes = 1460;
        c.min_cwnd = 0.0;
        assert!(c.validate().is_err());
        c.min_cwnd = 2.0;
        c.max_rto = Dur::from_millis(1);
        assert!(c.validate().is_err());

        // NaN windows fail every comparison, so each must be rejected
        // explicitly; an unbounded ceiling or threshold stays legal.
        let nan = [
            TcpConfig {
                init_cwnd: f64::NAN,
                ..TcpConfig::default()
            },
            TcpConfig {
                max_cwnd: f64::NAN,
                ..TcpConfig::default()
            },
            TcpConfig {
                restart_cwnd: f64::NAN,
                ..TcpConfig::default()
            },
            TcpConfig {
                init_ssthresh: f64::NAN,
                ..TcpConfig::default()
            },
        ];
        for c in nan {
            assert!(c.validate().is_err(), "{c:?}");
        }
        let unbounded = TcpConfig {
            max_cwnd: f64::INFINITY,
            init_ssthresh: f64::INFINITY,
            ..TcpConfig::default()
        };
        unbounded.validate().unwrap();
    }

    #[test]
    fn with_min_rto_builder() {
        let c = TcpConfig::default().with_min_rto(Dur::from_millis(20));
        assert_eq!(c.min_rto, Dur::from_millis(20));
    }
}
