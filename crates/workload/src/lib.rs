//! # trim-workload — HTTP ON/OFF workloads and evaluation scenarios
//!
//! The workload layer of the TCP-TRIM reproduction:
//!
//! - [`distributions`] — the paper's published packet-train size and
//!   inter-train gap CDFs (Fig. 2), sampled reproducibly;
//! - [`trace`] — packet-train extraction (the Jain & Routhier definition
//!   used in Section II.A) and synthetic trace generation standing in for
//!   the proprietary campus trace;
//! - [`http`] — schedule generators for each evaluation workload
//!   (impairment, SPT/LPT concurrency, large-scale, fat-tree, testbed);
//! - [`scenario`] — the runnable many-to-one scenario with reports, plus
//!   generic flow-wiring helpers for arbitrary topologies;
//! - [`incast`] — partition/aggregate query fan-in with query-completion
//!   metrics (an extension beyond the paper's figures);
//! - [`scale`] — engine-scale incast (up to 100k flows) backing the
//!   repo benchmark's incast workloads and the `large_scale_100k` campaign;
//! - [`metrics`] — completion-time summaries (ACT/ARCT, tails, CDFs).
//!
//! ```
//! use trim_workload::scenario::{ScenarioBuilder, TrainSpec};
//!
//! // Two senders, TCP-TRIM, one 64 KB response each.
//! let mut sc = ScenarioBuilder::many_to_one(2).trim().build();
//! sc.send_train(0, TrainSpec::at_secs(0.01, 64 * 1024));
//! sc.send_train(1, TrainSpec::at_secs(0.01, 64 * 1024));
//! let report = sc.run_for_secs(0.5);
//! assert_eq!(report.completed_trains(), 2);
//! assert_eq!(report.total_timeouts(), 0);
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::dbg_macro,
        clippy::print_stdout,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod distributions;
pub mod http;
pub mod incast;
pub mod metrics;
pub mod scale;
pub mod scenario;
pub mod spec;
pub mod trace;

pub use distributions::EmpiricalCdf;
pub use metrics::Summary;
pub use scenario::{Report, Scenario, ScenarioBuilder, SenderReport, TrainSpec};
pub use spec::{ScenarioSpec, SpecCc, SpecFault, SpecOutcome, SpecTrain};
