//! The per-host structs of a large incast, pinned at their sizes.
//!
//! `incast_storm` builds 100 001 hosts, 200 002 channels and 100 000
//! connections, so a byte on one of these structs is paid for 10⁵ times
//! over. DESIGN.md's footprint table is built from these numbers: a
//! change that moves one updates the table and the pin together.

use std::mem::size_of;

use netsim::channel::Channel;
use trim_tcp::cc::TrimCc;
use trim_tcp::{Conn, Receiver, Segment, TcpHost};

#[test]
fn channel_of_segment_is_240_bytes() {
    assert_eq!(size_of::<Channel<Segment>>(), 240);
}

#[test]
fn conn_is_336_bytes() {
    assert_eq!(size_of::<Conn>(), 336);
}

/// A TRIM connection's controller, boxed beside its `Conn`.
#[test]
fn trim_cc_is_192_bytes() {
    assert_eq!(size_of::<TrimCc>(), 192);
}

#[test]
fn tcp_host_is_272_bytes() {
    assert_eq!(size_of::<TcpHost>(), 272);
}

#[test]
fn receiver_is_80_bytes() {
    assert_eq!(size_of::<Receiver>(), 80);
}
