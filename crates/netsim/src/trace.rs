//! Recorders: [`InvariantMonitor`]s that turn a run's monitor events
//! into the time series the experiments plot, and the containers they
//! fill. Each declares the kinds it reads, so the engine builds those
//! events only while a recorder is attached, and none flags anything:
//! each ignores the [`Findings`] it is handed. Attach one with
//! [`Simulator::attach_monitor`](crate::sim::Simulator::attach_monitor)
//! before the run and read it back with
//! [`Simulator::monitor`](crate::sim::Simulator::monitor).

use std::collections::BTreeMap;

use crate::monitor::{interest, Findings, InvariantMonitor, MonitorEvent};
use crate::packet::{ChannelId, FlowId};
use crate::time::{Dur, SimTime};

/// A bounded, pcap-style packet-event trace: the first `cap`
/// `Injected`/`Delivered`/`Dropped` events with their times.
#[derive(Clone, Debug)]
pub struct PacketTrace {
    events: Vec<(SimTime, MonitorEvent)>,
    cap: usize,
    dropped_events: u64,
}

impl PacketTrace {
    /// A trace that keeps at most `cap` events.
    pub fn new(cap: usize) -> Self {
        PacketTrace {
            events: Vec::new(),
            cap,
            dropped_events: 0,
        }
    }

    /// The recorded events with their times, in simulation order.
    pub fn events(&self) -> &[(SimTime, MonitorEvent)] {
        &self.events
    }

    /// How many events were discarded after the capacity was reached:
    /// `events().len() + dropped_events()` is the number of packet
    /// events the simulation produced.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }
}

impl InvariantMonitor for PacketTrace {
    fn name(&self) -> &'static str {
        "packet-trace"
    }

    fn interests(&self) -> u32 {
        interest::INJECTED | interest::DELIVERED | interest::DROPPED
    }

    fn observe(&mut self, at: SimTime, ev: &MonitorEvent, _: &mut Findings<'_>) {
        if self.events.len() < self.cap {
            self.events.push((at, ev.clone()));
        } else {
            self.dropped_events += 1;
        }
    }
}

/// A point in a recorded queue-length time series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueueSample {
    /// When the sample was taken.
    pub at: SimTime,
    /// Queue length in packets at that instant.
    pub len: usize,
}

/// The queue length of chosen channels at every change (Fig. 9(a)):
/// from `(ZERO, 0)`, one `(at, len_after)` per `Enqueued` and
/// `Dequeued`. A packet that finds its transmitter idle adds a `1` and
/// a `0` at one instant.
#[derive(Clone, Debug)]
pub struct QueueRecorder(BTreeMap<ChannelId, Vec<QueueSample>>);

impl QueueRecorder {
    /// A recorder of `channels`' queues.
    pub fn new(channels: impl IntoIterator<Item = ChannelId>) -> Self {
        let start = QueueSample {
            at: SimTime::ZERO,
            len: 0,
        };
        QueueRecorder(channels.into_iter().map(|ch| (ch, vec![start])).collect())
    }

    /// The length series of `ch`, if it is recorded.
    pub fn samples(&self, ch: ChannelId) -> Option<&[QueueSample]> {
        self.0.get(&ch).map(Vec::as_slice)
    }
}

impl InvariantMonitor for QueueRecorder {
    fn name(&self) -> &'static str {
        "queue-recorder"
    }

    fn interests(&self) -> u32 {
        interest::ENQUEUED | interest::DEQUEUED
    }

    fn observe(&mut self, at: SimTime, ev: &MonitorEvent, _: &mut Findings<'_>) {
        if let MonitorEvent::Enqueued {
            channel, len_after, ..
        }
        | MonitorEvent::Dequeued {
            channel, len_after, ..
        } = *ev
        {
            if let Some(series) = self.0.get_mut(&channel) {
                series.push(QueueSample { at, len: len_after });
            }
        }
    }
}

/// The congestion window of chosen flows, one point per `CwndUpdate`
/// (Fig. 4(b), 6(b)).
#[derive(Clone, Debug)]
pub struct CwndRecorder(BTreeMap<FlowId, Series>);

impl CwndRecorder {
    /// A recorder of `flows`' windows.
    pub fn new(flows: impl IntoIterator<Item = FlowId>) -> Self {
        CwndRecorder(flows.into_iter().map(|f| (f, Series::default())).collect())
    }

    /// The window series of `flow` (empty if it never updated), if it is
    /// recorded.
    pub fn series(&self, flow: FlowId) -> Option<&Series> {
        self.0.get(&flow)
    }
}

impl InvariantMonitor for CwndRecorder {
    fn name(&self) -> &'static str {
        "cwnd-recorder"
    }

    fn interests(&self) -> u32 {
        interest::CWND_UPDATE
    }

    fn observe(&mut self, at: SimTime, ev: &MonitorEvent, _: &mut Findings<'_>) {
        if let MonitorEvent::CwndUpdate { flow, cwnd, .. } = *ev {
            if let Some(series) = self.0.get_mut(&flow) {
                series.push(at, cwnd);
            }
        }
    }
}

/// The in-order goodput of chosen flows in fixed-width bins, from
/// `Goodput` (Fig. 4(a), 6(a), 10).
#[derive(Clone, Debug)]
pub struct ThroughputRecorder(BTreeMap<FlowId, ThroughputMeter>);

impl ThroughputRecorder {
    /// A recorder of `flows`' goodput in bins of `bin`.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn new(bin: Dur, flows: impl IntoIterator<Item = FlowId>) -> Self {
        let meter = |f| (f, ThroughputMeter::new(bin));
        ThroughputRecorder(flows.into_iter().map(meter).collect())
    }

    /// The goodput meter of `flow`, if it is metered.
    pub fn meter(&self, flow: FlowId) -> Option<&ThroughputMeter> {
        self.0.get(&flow)
    }
}

impl InvariantMonitor for ThroughputRecorder {
    fn name(&self) -> &'static str {
        "throughput-recorder"
    }

    fn interests(&self) -> u32 {
        interest::GOODPUT
    }

    fn observe(&mut self, at: SimTime, ev: &MonitorEvent, _: &mut Findings<'_>) {
        if let MonitorEvent::Goodput { flow, bytes } = *ev {
            if let Some(meter) = self.0.get_mut(&flow) {
                meter.record(at, bytes);
            }
        }
    }
}

/// Accumulates byte arrivals into fixed-width time bins and reports
/// per-bin throughput.
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

/// A `(time, value)` series, e.g. a congestion window's evolution.
#[derive(Clone, Debug, Default)]
pub struct Series {
    points: Vec<(SimTime, f64)>,
}

impl Series {
    /// Appends a point. Points should be appended in time order.
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.points.push((at, value));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
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
    use crate::agent::SinkAgent;
    use crate::packet::{Packet, TagPayload};
    use crate::queue::QueueConfig;
    use crate::sim::Simulator;
    use crate::units::Bandwidth;

    fn sample(us: u64, len: usize) -> QueueSample {
        QueueSample {
            at: SimTime::from_nanos(us * 1_000),
            len,
        }
    }

    /// Three packets sent at once down a 1 Gbps link, 10 us each: the
    /// first finds the transmitter idle (in and out at once), the others
    /// wait and leave one serialization time apart.
    #[test]
    fn queue_recorder_captures_changes() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let a = sim.add_host(Box::new(SinkAgent::default()));
        let b = sim.add_host(Box::new(SinkAgent::default()));
        let cfg = QueueConfig::drop_tail(10);
        let (ab, ba) = sim.connect(a, b, Bandwidth::gbps(1), Dur::from_micros(5), cfg);
        sim.attach_monitor(Box::new(QueueRecorder::new([ab, ba])));
        for _ in 0..3 {
            sim.inject(a, Packet::new(a, b, FlowId(0), 1_250, TagPayload(0)));
        }
        sim.run();
        let rec = sim.monitor::<QueueRecorder>().expect("attached");
        assert_eq!(
            rec.samples(ab).expect("recorded"),
            &[
                sample(0, 0),
                sample(0, 1),
                sample(0, 0),
                sample(0, 1),
                sample(0, 2),
                sample(10, 1),
                sample(20, 0),
            ]
        );
        assert_eq!(rec.samples(ba), Some(&[sample(0, 0)][..]), "nothing sent");
        assert_eq!(rec.samples(ChannelId(7)), None, "not recorded");
    }

    /// Hands `ev` to `rec` as the engine would; a recorder flags nothing.
    fn feed(rec: &mut impl InvariantMonitor, at: SimTime, ev: &MonitorEvent) {
        let mut found = Vec::new();
        rec.observe(at, ev, &mut Findings::new(rec.name(), at, &mut found));
        assert!(found.is_empty(), "{found:?}");
    }

    fn cwnd(flow: u64, cwnd: f64) -> MonitorEvent {
        MonitorEvent::CwndUpdate {
            flow: FlowId(flow),
            cwnd,
            min_cwnd: 2.0,
            max_cwnd: 64.0,
        }
    }

    /// Every chosen flow has a series, empty until its first update;
    /// other flows are ignored.
    #[test]
    fn cwnd_recorder_keeps_chosen_flows_only() {
        let mut rec = CwndRecorder::new([FlowId(0), FlowId(1)]);
        feed(&mut rec, SimTime::from_secs(1), &cwnd(0, 4.0));
        feed(&mut rec, SimTime::from_secs(2), &cwnd(2, 9.0));
        feed(&mut rec, SimTime::from_secs(3), &cwnd(0, 8.0));
        let points = rec.series(FlowId(0)).map(Series::points);
        let want = [(SimTime::from_secs(1), 4.0), (SimTime::from_secs(3), 8.0)];
        assert_eq!(points, Some(&want[..]));
        assert!(rec.series(FlowId(1)).is_some_and(|s| s.points().is_empty()));
        assert!(rec.series(FlowId(2)).is_none());
    }

    #[test]
    fn throughput_recorder_meters_chosen_flows_only() {
        let mut rec = ThroughputRecorder::new(Dur::from_millis(1), [FlowId(3)]);
        let goodput = |flow, bytes| MonitorEvent::Goodput {
            flow: FlowId(flow),
            bytes,
        };
        feed(&mut rec, SimTime::from_nanos(10), &goodput(3, 100));
        feed(&mut rec, SimTime::from_nanos(20), &goodput(4, 100));
        feed(&mut rec, SimTime::from_nanos(1_500_000), &goodput(3, 50));
        let meter = rec.meter(FlowId(3)).expect("metered");
        assert_eq!(meter.total_bytes(), 150);
        assert_eq!(meter.mbps_series().len(), 2);
        assert!(rec.meter(FlowId(4)).is_none());
    }

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
        let mut s = Series::default();
        assert!(s.points().is_empty());
        assert_eq!(s.value_at(SimTime::from_secs(1)), None);
        s.push(SimTime::from_secs(1), 10.0);
        s.push(SimTime::from_secs(2), 30.0);
        s.push(SimTime::from_secs(3), 20.0);
        assert_eq!(s.points().len(), 3);
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
