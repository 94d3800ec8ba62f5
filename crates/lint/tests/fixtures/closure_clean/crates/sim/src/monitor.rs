//! Event catalog: every variant is both emitted and consumed.

/// Telemetry emitted by the fixture sim.
pub enum MonitorEvent {
    /// Emitted by the engine and consumed by the observer.
    Enqueued {
        /// Queue depth after the enqueue.
        pkts: u64,
    },
    /// Also emitted and consumed.
    Drained,
}
