//! Host agents: the interface between the simulator and protocol code.

use std::any::Any;

use crate::packet::{Packet, Payload};
use crate::sim::Ctx;

/// Protocol logic attached to a host node.
///
/// The simulator calls these hooks with a [`Ctx`] through which the agent
/// reads the clock, sends packets, and manages timers. Agents must be
/// `'static` (and implement [`Any`]) so experiment code can downcast them
/// back to their concrete type after a run via
/// [`Simulator::host`](crate::sim::Simulator::host).
///
/// Switches are not agents: forwarding is handled inside the engine.
pub trait Agent<P: Payload>: Any {
    /// Called once, at time zero, before any event is processed. Schedule
    /// initial timers and send initial packets here.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, P>) {}

    /// Called when a packet addressed to this host arrives.
    fn on_packet(&mut self, ctx: &mut Ctx<'_, P>, pkt: Packet<P>);

    /// Called when a timer set via [`Ctx::set_timer`] (or moved by
    /// [`Ctx::rearm_timer`]) fires. `token` is the value passed when the
    /// timer was last set or moved; its meaning is private to the agent.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, P>, token: u64);
}

/// An agent that drops every packet; useful as a passive sink in tests.
#[derive(Debug, Default)]
pub struct SinkAgent {
    /// Packets received so far.
    pub received: u64,
    /// Bytes received so far.
    pub received_bytes: u64,
}

impl<P: Payload> Agent<P> for SinkAgent {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_, P>, pkt: Packet<P>) {
        self.received += 1;
        self.received_bytes += pkt.size as u64;
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, P>, _token: u64) {}
}
