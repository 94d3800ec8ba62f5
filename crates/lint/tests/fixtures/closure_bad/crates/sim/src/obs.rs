//! Consumption sites: pattern position in a monitor.

use crate::monitor::MonitorEvent;

/// Scores an event; never sees `Orphaned`.
pub fn observe(ev: &MonitorEvent) -> u64 {
    match ev {
        MonitorEvent::Enqueued { pkts } => *pkts,
        MonitorEvent::Phantom => 0,
        _ => 1,
    }
}
