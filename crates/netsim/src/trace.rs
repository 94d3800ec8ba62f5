//! Time-series helpers for experiment output: throughput meters,
//! fixed-width binning, and the packet-event trace.

use crate::packet::{ChannelId, FlowId, NodeId};
use crate::time::{Dur, SimTime};

/// What happened to a packet, for the packet-event trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketEventKind {
    /// A host handed the packet to its uplink.
    Sent {
        /// The sending host.
        node: NodeId,
    },
    /// The packet arrived at its destination host.
    Delivered {
        /// The receiving host.
        node: NodeId,
    },
    /// A queue dropped the packet.
    Dropped {
        /// The channel whose queue overflowed.
        channel: ChannelId,
    },
}

/// One record in the packet-event trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PacketEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: PacketEventKind,
    /// Source host of the packet.
    pub src: NodeId,
    /// Destination host of the packet.
    pub dst: NodeId,
    /// Flow label.
    pub flow: FlowId,
    /// Wire size in bytes.
    pub size: u32,
}

/// A bounded in-memory packet-event recorder (pcap-style, without
/// payloads). Enabled per simulator via
/// [`Simulator::enable_packet_trace`](crate::sim::Simulator::enable_packet_trace).
#[derive(Clone, Debug)]
pub struct PacketTrace {
    events: Vec<PacketEvent>,
    cap: usize,
    dropped_events: u64,
}

impl PacketTrace {
    pub(crate) fn new(cap: usize) -> Self {
        PacketTrace {
            events: Vec::new(),
            cap,
            dropped_events: 0,
        }
    }

    pub(crate) fn record(&mut self, ev: PacketEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped_events += 1;
        }
    }

    /// The recorded events, in simulation order.
    pub fn events(&self) -> &[PacketEvent] {
        &self.events
    }

    /// Whether the capacity was reached and later events were discarded.
    pub fn is_truncated(&self) -> bool {
        self.dropped_events > 0
    }

    /// How many events were discarded after the capacity was reached.
    /// `events().len() + dropped_events()` is the number of packet
    /// events the simulation actually produced, so a test can assert
    /// that a trace captured everything (`dropped_events() == 0`) or
    /// size the gap when it did not.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }
}

/// Accumulates byte arrivals into fixed-width time bins and reports
/// per-bin throughput. This is how the paper's throughput-vs-time plots
/// (Fig. 4(a), 6(a), 10) are produced.
///
/// ```
/// use netsim::time::{Dur, SimTime};
/// use netsim::trace::ThroughputMeter;
///
/// let mut m = ThroughputMeter::new(Dur::from_millis(10));
/// m.record(SimTime::from_secs_f64(0.001), 1_250_000); // 1.25 MB in bin 0
/// m.record(SimTime::from_secs_f64(0.015), 2_500_000); // 2.5 MB in bin 1
/// let series = m.mbps_series();
/// assert_eq!(series.len(), 2);
/// assert!((series[0].1 - 1000.0).abs() < 1e-9); // 1.25MB/10ms = 1 Gbps
/// assert!((series[1].1 - 2000.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct ThroughputMeter {
    bin: Dur,
    bytes: Vec<u64>,
}

impl ThroughputMeter {
    /// Creates a meter with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn new(bin: Dur) -> Self {
        assert!(bin > Dur::ZERO, "bin width must be positive");
        ThroughputMeter {
            bin,
            bytes: Vec::new(),
        }
    }

    /// Records `bytes` arriving at time `at`.
    pub fn record(&mut self, at: SimTime, bytes: u64) {
        let idx = (at.as_nanos() / self.bin.as_nanos()) as usize;
        if idx >= self.bytes.len() {
            self.bytes.resize(idx + 1, 0);
        }
        self.bytes[idx] += bytes;
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Per-bin throughput as `(bin start time, Mbps)` pairs.
    pub fn mbps_series(&self) -> Vec<(SimTime, f64)> {
        let bin_s = self.bin.as_secs_f64();
        self.bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                (
                    SimTime::from_nanos(i as u64 * self.bin.as_nanos()),
                    b as f64 * 8.0 / bin_s / 1e6,
                )
            })
            .collect()
    }
}

/// A generic `(time, value)` series sampled by protocol code, e.g. the
/// congestion-window evolution plots (Fig. 4(b), 6(b)).
#[derive(Clone, Debug, Default)]
pub struct Series {
    points: Vec<(SimTime, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new() -> Self {
        Series::default()
    }

    /// Appends a point. Points should be appended in time order.
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.points.push((at, value));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The maximum value, or `None` when empty.
    pub fn max_value(&self) -> Option<f64> {
        self.points.iter().map(|(_, v)| *v).fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.max(v),
            })
        })
    }

    /// The last value at or before `at`, or `None` if the series has no
    /// point that early.
    pub fn value_at(&self, at: SimTime) -> Option<f64> {
        match self.points.partition_point(|(t, _)| *t <= at) {
            0 => None,
            i => Some(self.points[i - 1].1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_bins_and_totals() {
        let mut m = ThroughputMeter::new(Dur::from_millis(1));
        m.record(SimTime::from_nanos(0), 100);
        m.record(SimTime::from_nanos(999_999), 100);
        m.record(SimTime::from_nanos(1_000_000), 100);
        assert_eq!(m.total_bytes(), 300);
        let s = m.mbps_series();
        assert_eq!(s.len(), 2);
        assert!((s[0].1 - 1.6).abs() < 1e-9); // 200 B/ms = 1.6 Mbps
        assert!((s[1].1 - 0.8).abs() < 1e-9);
    }

    #[test]
    fn series_queries() {
        let mut s = Series::new();
        assert!(s.is_empty());
        assert_eq!(s.value_at(SimTime::from_secs(1)), None);
        s.push(SimTime::from_secs(1), 10.0);
        s.push(SimTime::from_secs(2), 30.0);
        s.push(SimTime::from_secs(3), 20.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.max_value(), Some(30.0));
        assert_eq!(s.value_at(SimTime::from_secs(2)), Some(30.0));
        assert_eq!(s.value_at(SimTime::from_nanos(2_500_000_000)), Some(30.0));
        assert_eq!(s.value_at(SimTime::from_nanos(500_000_000)), None);
    }

    #[test]
    #[should_panic]
    fn zero_bin_rejected() {
        let _ = ThroughputMeter::new(Dur::ZERO);
    }
}
