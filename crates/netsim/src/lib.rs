//! # netsim — a packet-level discrete-event network simulator
//!
//! `netsim` is the simulation substrate for the TCP-TRIM reproduction: an
//! NS2-style packet-level simulator with
//!
//! - integer-nanosecond simulated time ([`time`]),
//! - duplex links built from per-direction drop-tail queues with optional
//!   ECN marking ([`queue`], [`channel`]),
//! - output-queued switches with shortest-path forwarding and deterministic
//!   per-flow ECMP ([`sim`]; the forwarding table is `route.rs`),
//! - host [`agent::Agent`]s that receive packets and timers and reply
//!   through a [`sim::Ctx`],
//! - the paper's topologies: many-to-one, two-tier, multi-hop and fat-tree
//!   ([`topology`]),
//! - measurement helpers: queue statistics, queue-length recording, and
//!   throughput/series tracing ([`trace`]).
//!
//! Determinism: event ordering is exact (`(time, insertion-sequence)`
//! keys), so a simulation is a pure function of its inputs. Packet events
//! and timers wait in two instances of one heap ([`eventq`]) that draw
//! from one sequence counter, and [`sim`]'s run loop pops whichever holds
//! the smaller key.
//!
//! ## Example
//!
//! ```
//! use netsim::prelude::*;
//!
//! let mut sim: Simulator<TagPayload> = Simulator::new();
//! let net = topology::many_to_one(
//!     &mut sim,
//!     3,
//!     topology::LinkSpec::new(
//!         Bandwidth::gbps(1),
//!         Dur::from_micros(50),
//!         QueueConfig::drop_tail(100),
//!     ),
//!     |_role| Box::new(SinkAgent::default()),
//! );
//! for &s in &net.senders {
//!     sim.inject(s, Packet::new(s, net.front_end, FlowId(0), 1460, TagPayload(0)));
//! }
//! sim.run();
//! assert_eq!(sim.host::<SinkAgent>(net.front_end).received, 3);
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

pub mod agent;
pub mod arena;
pub mod channel;
pub mod eventq;
pub mod hash;
pub mod monitor;
mod observe;
pub mod packet;
pub mod queue;
mod route;
pub mod sim;
pub mod time;
pub mod topology;
pub mod trace;
pub mod units;

pub use agent::{Agent, SinkAgent};
pub use arena::{PacketArena, PacketRef};
pub use eventq::EventQueue;
pub use hash::{mix64, FastHashMap, FastHashSet};
pub use monitor::{AuditStats, InvariantMonitor, MonitorEvent, ProbeTransition, Violation};
pub use packet::{ChannelId, FlowId, NodeId, Packet, Payload, TagPayload};
pub use queue::{CoDelConfig, QueueConfig, QueueDiscipline, QueueSample, QueueStats, RedConfig};
pub use sim::{Ctx, Simulator, TimerId};
pub use time::{Dur, SimTime};
pub use trace::{PacketEvent, PacketEventKind, PacketTrace, Series, ThroughputMeter};
pub use units::{Bandwidth, QueueCapacity};

/// Convenient glob import for simulator users.
pub mod prelude {
    pub use crate::agent::{Agent, SinkAgent};
    pub use crate::monitor::{
        AuditStats, InvariantMonitor, MonitorEvent, ProbeTransition, Violation,
    };
    pub use crate::packet::{ChannelId, FlowId, NodeId, Packet, Payload, TagPayload};
    pub use crate::queue::{CoDelConfig, QueueConfig, QueueDiscipline, QueueStats, RedConfig};
    pub use crate::sim::{Ctx, Simulator, TimerId};
    pub use crate::time::{Dur, SimTime};
    pub use crate::topology;
    pub use crate::trace::{PacketEvent, PacketEventKind, PacketTrace, Series, ThroughputMeter};
    pub use crate::units::{Bandwidth, QueueCapacity};
}
