//! Consumption sites covering the whole catalog.

use crate::monitor::MonitorEvent;

/// Scores an event.
pub fn observe(ev: &MonitorEvent) -> u64 {
    match ev {
        MonitorEvent::Enqueued { pkts } => *pkts,
        MonitorEvent::Drained => 0,
    }
}
