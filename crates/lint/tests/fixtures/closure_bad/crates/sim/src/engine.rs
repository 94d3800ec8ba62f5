//! Emission sites: expression position, outside tests.

use crate::monitor::MonitorEvent;

/// Pushes one covered and one orphaned event.
pub fn emit_all(sink: &mut Vec<MonitorEvent>) {
    sink.push(MonitorEvent::Enqueued { pkts: 1 });
    sink.push(MonitorEvent::Orphaned { pkts: 2 });
}
