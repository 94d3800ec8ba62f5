//! # tcp-trim — reproduction of TCP-TRIM (ICDCS 2016)
//!
//! A facade over the workspace crates that reproduce *"Tuning the
//! Aggressive TCP Behavior for Highly Concurrent HTTP Connections in Data
//! Center"*:
//!
//! - [`trim_core`] (re-exported as `core`) — the TCP-TRIM algorithm (probe-based window
//!   inheritance, delay-based queuing control) and the steady-state model
//!   for the threshold `K`.
//! - [`netsim`] — the packet-level discrete-event network simulator
//!   (links, drop-tail/ECN switches, data-center topologies).
//! - [`trim_tcp`] (re-exported as `tcp`) — a packet-level TCP with pluggable congestion
//!   control: Reno, CUBIC, DCTCP, L2DCT, and TCP-TRIM.
//! - [`trim_workload`] (re-exported as `workload`) — HTTP ON/OFF packet-train workloads and
//!   the scenario builders used by the paper's evaluation.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use tcp_trim::prelude::*;
//!
//! // Five senders race packet trains into one front-end over a 1 Gbps
//! // bottleneck, once with Reno and once with TCP-TRIM.
//! let trim = CcKind::trim_with_capacity(1_000_000_000, 1460);
//! for cc in [CcKind::Reno, trim] {
//!     let mut scenario = ScenarioBuilder::many_to_one(5)
//!         .congestion_control(cc)
//!         .build();
//!     for s in 0..5 {
//!         scenario.send_train(s, TrainSpec::at_secs(0.1, 64 * 1024));
//!     }
//!     let report = scenario.run_for_secs(1.0);
//!     assert_eq!(report.completed_trains(), 5);
//! }
//! ```

#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::print_stdout))]

pub use netsim;
pub use trim_core as core;
pub use trim_tcp as tcp;
pub use trim_workload as workload;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use netsim::prelude::*;
    pub use trim_core::{kmodel, SendDecision, Trim, TrimConfig, WindowAction};
    pub use trim_tcp::{CcKind, TcpConfig};
    pub use trim_workload::scenario::{ScenarioBuilder, TrainSpec};
}
