//! TCP connection configuration.

use netsim::time::Dur;
use trim_core::MIN_CWND;

/// Data packet wire size in bytes: the paper's 1460, the default
/// [`TcpConfig::mss_bytes`].
pub const MSS_BYTES: u32 = 1460;

/// Upper bound on the backed-off retransmission timeout, and so on any
/// configured [`TcpConfig::min_rto`].
pub const MAX_RTO: Dur = Dur::from_secs(60);

/// Parameters of a simulated TCP connection.
///
/// Defaults match the paper's NS2 setup: 1460-byte packets, an initial
/// window of 2 and an initial retransmission timeout of 200 ms. What the
/// paper never varies is a constant beside the code that reads it: the
/// window floor [`trim_core::MIN_CWND`] (also the restart window after a
/// timeout), the RTO ceiling [`MAX_RTO`], and the receiver's one 40-byte
/// ACK per data packet.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Data packet wire size in bytes (the paper sets 1460).
    pub mss_bytes: u32,
    /// Initial congestion window in packets.
    pub init_cwnd: f64,
    /// Ceiling for the congestion window in packets.
    pub max_cwnd: f64,
    /// Retransmission timeout before any RTT sample, and also the RTO
    /// floor (the paper varies this per experiment: 200 ms, 20 ms, 1 ms).
    pub min_rto: Dur,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss_bytes: MSS_BYTES,
            init_cwnd: 2.0,
            max_cwnd: 1e9,
            min_rto: Dur::from_millis(200),
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
        if !(self.init_cwnd >= MIN_CWND) {
            return Err(format!(
                "init_cwnd must be >= {MIN_CWND}, got {}",
                self.init_cwnd
            ));
        }
        if !(self.max_cwnd >= self.init_cwnd) {
            return Err("max_cwnd below init_cwnd".into());
        }
        if self.min_rto == Dur::ZERO || self.min_rto > MAX_RTO {
            return Err(format!(
                "min_rto must be in (0, {MAX_RTO}], got {}",
                self.min_rto
            ));
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
        let bad = [
            TcpConfig {
                mss_bytes: 0,
                ..TcpConfig::default()
            },
            TcpConfig {
                init_cwnd: MIN_CWND - 0.5,
                ..TcpConfig::default()
            },
            TcpConfig {
                min_rto: Dur::ZERO,
                ..TcpConfig::default()
            },
            TcpConfig {
                min_rto: MAX_RTO + Dur::from_nanos(1),
                ..TcpConfig::default()
            },
            // NaN windows fail every comparison, so each must be rejected
            // explicitly.
            TcpConfig {
                init_cwnd: f64::NAN,
                ..TcpConfig::default()
            },
            TcpConfig {
                max_cwnd: f64::NAN,
                ..TcpConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?}");
        }
        // An unbounded ceiling and an RTO floor at the ceiling stay legal.
        let edge = TcpConfig {
            max_cwnd: f64::INFINITY,
            min_rto: MAX_RTO,
            ..TcpConfig::default()
        };
        edge.validate().unwrap();
    }

    #[test]
    fn with_min_rto_builder() {
        let c = TcpConfig::default().with_min_rto(Dur::from_millis(20));
        assert_eq!(c.min_rto, Dur::from_millis(20));
    }
}
