//! # trim-tcp — packet-level TCP for `netsim`
//!
//! A NS2-style TCP implementation used to evaluate TCP-TRIM:
//!
//! - packet-granularity sequencing with cumulative ACKs, timestamp echo,
//!   duplicate-ACK fast retransmit, NewReno partial-ACK recovery, and
//!   go-back-N RTO recovery ([`conn`]);
//! - receivers that ACK every packet, echoing its timestamp, probe flag
//!   and CE mark ([`receiver`]);
//! - a host agent multiplexing many connections ([`host`]), their state
//!   held one [`Conn`] per flow, inline in a recycling flow slab ([`slab`]);
//! - pluggable congestion control ([`cc`]): Reno, CUBIC, DCTCP, L2DCT, the
//!   GIP-style restart baseline, and **TCP-TRIM** (embedding
//!   [`trim_core::Trim`]).
//!
//! See the [`host::TcpHost`] example for end-to-end usage.

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

pub mod cc;
pub mod config;
pub mod conn;
pub mod host;
pub mod receiver;
pub mod rto;
pub mod segment;
pub mod slab;

pub use cc::{AckInfo, CcAlgo, CcKind, PreSendAction, WindowState};
pub use config::{TcpConfig, MAX_RTO, MSS_BYTES};
pub use conn::{Conn, ConnStats, TrainRecord};
pub use host::TcpHost;
pub use receiver::{Receiver, ReceiverStats};
pub use segment::{SegKind, Segment};
pub use slab::{FlowSlab, SlabAudit};
