//! Emission sites covering the whole catalog.

use crate::monitor::MonitorEvent;

/// Pushes every catalog variant.
pub fn emit_all(sink: &mut Vec<MonitorEvent>) {
    sink.push(MonitorEvent::Enqueued { pkts: 1 });
    sink.push(MonitorEvent::Drained);
}
