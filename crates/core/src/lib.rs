//! # trim-core — the TCP-TRIM algorithm
//!
//! This crate implements the contribution of *"Tuning the Aggressive TCP
//! Behavior for Highly Concurrent HTTP Connections in Data Center"*
//! (ICDCS 2016): the sender-side TCP-TRIM mechanism that
//!
//! 1. detects **inter-train gaps** on persistent HTTP connections and,
//!    instead of blindly inheriting the congestion window from the previous
//!    ON period, probes the path with two packets (Algorithm 1);
//! 2. reinstates the saved window scaled by the probes' observed queueing
//!    delay (Eq. 1), or falls back to the minimum window when the probes'
//!    ACKs miss a smoothed-RTT deadline;
//! 3. applies **delay-based queuing control**: whenever an ACK's RTT
//!    exceeds the threshold `K`, the window shrinks by half the congestion
//!    proportion `ep = (RTT - K)/RTT` (Eq. 2–3);
//! 4. derives `K` from the steady-state model of Section III.B:
//!    `K >= max(((sqrt(2CD) - 1)^2)/C, D)` (Eq. 22).
//!
//! The crate is **pure**: no I/O, no clocks, no simulator types — times are
//! plain nanosecond integers. [`Trim`] is the per-connection state machine;
//! [`kmodel`] is the analytical steady-state model. The companion crate
//! `trim-tcp` embeds [`Trim`] into a packet-level TCP for the `netsim`
//! simulator.
//!
//! ## Example
//!
//! ```
//! use trim_core::{kmodel, Trim, TrimConfig, WindowAction};
//!
//! // A 1 Gbps bottleneck with 1460-byte packets.
//! let cfg = TrimConfig::default().with_capacity(1_000_000_000, 1460);
//! let mut trim = Trim::new(cfg)?;
//!
//! // ACKs feed the estimators; K is derived from min_RTT and capacity.
//! trim.on_ack(0, 200_000, false); // 200us RTT
//! let k = trim.k_ns().unwrap();
//! assert_eq!(k, kmodel::k_lower_bound_ns(1e9 / (1460.0 * 8.0), 200_000));
//!
//! // A congested ACK (RTT above K) asks for a gentle back-off.
//! match trim.on_ack(1, 2 * k, false) {
//!     WindowAction::Scale(f) => assert!(f > 0.5 && f < 1.0),
//!     other => panic!("unexpected action {other:?}"),
//! }
//! # Ok::<(), String>(())
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

pub mod config;
pub mod estimator;
pub mod fluid;
pub mod kmodel;
pub mod trim;

pub use config::{TrimConfig, MIN_CWND};
pub use trim::{SendDecision, Trim, WindowAction};
