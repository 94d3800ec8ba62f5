//! The event catalog under the TL205 coverage audit.

/// Telemetry emitted by the fixture sim.
pub enum MonitorEvent {
    /// Emitted by the engine and consumed by the observer: covered.
    Enqueued {
        /// Queue depth after the enqueue.
        pkts: u64,
    },
    /// Emitted but consumed nowhere: dead telemetry (TL205).
    Orphaned {
        /// Packets lost with nobody watching.
        pkts: u64,
    },
    /// Consumed but emitted nowhere: an invariant nobody feeds (TL205).
    Phantom,
}
