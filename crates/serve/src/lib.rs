//! # trim-serve — production web-serving workload with session SLOs
//!
//! The serving layer of the TCP-TRIM reproduction: an open-loop
//! user-session workload over a load-balanced fat-tree, with the
//! session-level service metrics an operator would watch, and a
//! mean-field fast path for fleet-scale what-if sweeps.
//!
//! - [`session`] — Poisson session arrivals, per-session think times and
//!   request-size draws, all deterministic in the seed;
//! - [`run`] — the packet-level serving run: sessions ride persistent
//!   connections across a k-ary fat-tree, and the report carries
//!   p50/p99/p999 ARCT, goodput, session accounting, peak concurrency,
//!   and last-hop queue occupancy;
//! - [`crossval`] — the differential harness that gates the
//!   [`trim_core::fluid`] mean-field model against the packet simulator
//!   (mean ARCT within 10 % on every committed instance).
//!
//! ```
//! use trim_serve::session::SessionModel;
//! use trim_serve::run::{run, ServeConfig};
//!
//! let mut model = SessionModel::new(42, 32);
//! model.arrival_window = netsim::time::Dur::from_millis(50);
//! model.think_min = netsim::time::Dur::from_millis(100);
//! model.think_mean_excess = netsim::time::Dur::from_millis(20);
//! let report = run(&ServeConfig::new(model).trim());
//! assert_eq!(report.sessions_completed, 32);
//! assert!(report.arct.p999 >= report.arct.p50);
//! ```

#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::print_stdout))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod crossval;
pub mod run;
pub mod session;

pub use crossval::{cross_validate, instances, CrossVal, CvCc, Instance};
pub use run::{run, ServeConfig, ServeReport};
pub use session::{generate, SessionModel, SessionPlan};
