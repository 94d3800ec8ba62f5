//! Link bandwidth and buffer-capacity units.

use core::fmt;

use crate::time::Dur;

/// Link bandwidth in bits per second.
///
/// ```
/// use netsim::units::Bandwidth;
/// use netsim::time::Dur;
///
/// let gbps = Bandwidth::gbps(1);
/// // A 1500-byte packet serializes in 12 microseconds at 1 Gbps.
/// assert_eq!(gbps.serialization_time(1500), Dur::from_micros(12));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Creates a bandwidth from bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_sec` is zero; a zero-rate link never drains.
    pub fn bps(bits_per_sec: u64) -> Self {
        assert!(bits_per_sec > 0, "bandwidth must be positive");
        Bandwidth(bits_per_sec)
    }

    /// Creates a bandwidth from megabits per second.
    pub fn mbps(mbits: u64) -> Self {
        Bandwidth::bps(mbits * 1_000_000)
    }

    /// Creates a bandwidth from gigabits per second.
    pub fn gbps(gbits: u64) -> Self {
        Bandwidth::bps(gbits * 1_000_000_000)
    }

    /// The rate in bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Time to serialize `bytes` onto the wire at this rate, rounded up to
    /// the next nanosecond so that back-to-back packets never overlap.
    pub fn serialization_time(self, bytes: u32) -> Dur {
        // bits x 1e9 fits a u64 up to ~2.3 GB, so the per-packet case
        // never needs the 128-bit division.
        let ns = match u64::from(bytes).checked_mul(8_000_000_000) {
            Some(bit_ns) => bit_ns.div_ceil(self.0),
            None => (u128::from(bytes) * 8_000_000_000).div_ceil(u128::from(self.0)) as u64,
        };
        Dur::from_nanos(ns)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000_000_000) {
            write!(f, "{}Gbps", self.0 / 1_000_000_000)
        } else if self.0.is_multiple_of(1_000_000) {
            write!(f, "{}Mbps", self.0 / 1_000_000)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

/// Capacity of a switch queue.
///
/// The paper sizes buffers in packets for the 1 Gbps scenarios (100 packets)
/// and in bytes for the fat-tree scenario (350 KB), so both units are
/// supported.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueueCapacity {
    /// At most this many packets may be queued (excluding the one in
    /// transmission).
    Packets(usize),
    /// At most this many bytes may be queued (excluding the packet in
    /// transmission).
    Bytes(u64),
}

impl QueueCapacity {
    /// Whether a queue currently holding `pkts` packets / `bytes` bytes can
    /// accept one more packet of `incoming_bytes`.
    pub fn admits(self, pkts: usize, bytes: u64, incoming_bytes: u32) -> bool {
        match self {
            QueueCapacity::Packets(cap) => pkts < cap,
            QueueCapacity::Bytes(cap) => bytes + incoming_bytes as u64 <= cap,
        }
    }
}

impl fmt::Display for QueueCapacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueCapacity::Packets(p) => write!(f, "{p}pkts"),
            QueueCapacity::Bytes(b) => write!(f, "{b}B"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_exact() {
        // 1460 B at 1 Gbps = 11.68 us.
        assert_eq!(
            Bandwidth::gbps(1).serialization_time(1460),
            Dur::from_nanos(11_680)
        );
        // 100 Mbps is 10x slower.
        assert_eq!(
            Bandwidth::mbps(100).serialization_time(1460),
            Dur::from_nanos(116_800)
        );
    }

    #[test]
    fn serialization_time_rounds_up() {
        // 1 byte at 3 bps: 8/3 s = 2.666..s -> rounds up.
        let t = Bandwidth::bps(3).serialization_time(1);
        assert_eq!(t.as_nanos(), 2_666_666_667);
    }

    /// The 64-bit path and the 128-bit fallback are one function: both
    /// equal the all-128-bit formula on either side of the switch-over
    /// (`bytes x 8e9` overflows a `u64` above 2 305 843 009 bytes),
    /// including where the division rounds up.
    #[test]
    fn serialization_time_paths_agree() {
        let wide = |bps: u64, bytes: u32| {
            (u128::from(bytes) * 8_000_000_000).div_ceil(u128::from(bps)) as u64
        };
        let last_narrow = (u64::MAX / 8_000_000_000) as u32;
        assert_eq!(last_narrow, 2_305_843_009);
        // Known answers on both sides: at 8 Gbps a byte takes 1 ns.
        let gbps8 = Bandwidth::gbps(8);
        for bytes in [last_narrow, last_narrow + 1, u32::MAX] {
            assert_eq!(gbps8.serialization_time(bytes).as_nanos(), bytes as u64);
        }
        // 7 bps never divides 8e9 x bytes evenly for these sizes.
        assert_eq!(
            Bandwidth::bps(7).serialization_time(1).as_nanos(),
            1_142_857_143
        );
        let rates = [
            1,
            3,
            7,
            999_999_937,
            1_000_000_000,
            10_000_000_000,
            40_000_000_001,
            u64::MAX,
        ];
        let sizes = [
            0,
            1,
            40,
            1460,
            1500,
            65_535,
            last_narrow - 1,
            last_narrow,
            last_narrow + 1,
            u32::MAX - 1,
            u32::MAX,
        ];
        for bps in rates {
            for bytes in sizes {
                assert_eq!(
                    Bandwidth::bps(bps).serialization_time(bytes).as_nanos(),
                    wide(bps, bytes),
                    "{bytes} B at {bps} bps"
                );
            }
        }
    }

    #[test]
    fn capacity_packets() {
        let cap = QueueCapacity::Packets(2);
        assert!(cap.admits(0, 0, 1500));
        assert!(cap.admits(1, 1500, 1500));
        assert!(!cap.admits(2, 3000, 1500));
    }

    #[test]
    fn capacity_bytes() {
        let cap = QueueCapacity::Bytes(3000);
        assert!(cap.admits(0, 0, 1500));
        assert!(cap.admits(5, 1500, 1500));
        assert!(!cap.admits(1, 1501, 1500));
    }

    #[test]
    fn display() {
        assert_eq!(Bandwidth::gbps(10).to_string(), "10Gbps");
        assert_eq!(Bandwidth::mbps(100).to_string(), "100Mbps");
        assert_eq!(QueueCapacity::Packets(100).to_string(), "100pkts");
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_rejected() {
        let _ = Bandwidth::bps(0);
    }
}
