//! Packet-train analysis and synthesis (Section II.A, Fig. 1–2).
//!
//! A *packet train* (Jain & Routhier) is a burst of packets on one
//! connection whose inter-packet spacing never exceeds an inter-train gap
//! threshold. [`extract_trains`] applies that definition to a packet
//! timeline; [`synthesize_trace`] generates a timeline from the paper's
//! published distributions so the Fig. 1/2 methodology can be reproduced
//! without the proprietary 2 TB campus trace.

use netsim::monitor::MonitorEvent;
use netsim::time::{Dur, SimTime};
use rand::Rng;

use trim_tcp::MSS_BYTES;

use crate::distributions::{pt_interval, pt_size_bytes};

/// One packet observation in a trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TracePacket {
    /// Observation time.
    pub at: SimTime,
    /// Wire bytes.
    pub bytes: u32,
}

/// A packet train recovered from a trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Train {
    /// Time of the first packet.
    pub start: SimTime,
    /// Time of the last packet.
    pub end: SimTime,
    /// Packets in the train.
    pub pkts: u64,
    /// Total bytes in the train.
    pub bytes: u64,
}

impl Train {
    /// Whether this is a long packet train at the paper's threshold
    /// (>= 128 KB, Section II.B).
    pub fn is_long(&self) -> bool {
        self.bytes >= 128 * 1024
    }
}

/// Splits a time-ordered packet sequence into trains: a new train starts
/// whenever the gap since the previous packet exceeds `gap`.
///
/// # Panics
///
/// Panics if the packets are not in non-decreasing time order.
pub fn extract_trains(pkts: &[TracePacket], gap: Dur) -> Vec<Train> {
    let mut trains = Vec::new();
    let mut current: Option<Train> = None;
    let mut last_at = SimTime::ZERO;
    for (i, p) in pkts.iter().enumerate() {
        if i > 0 {
            assert!(p.at >= last_at, "trace not time-ordered at index {i}");
        }
        match &mut current {
            Some(t) if p.at.saturating_since(last_at) <= gap => {
                t.end = p.at;
                t.pkts += 1;
                t.bytes += p.bytes as u64;
            }
            _ => {
                if let Some(t) = current.take() {
                    trains.push(t);
                }
                current = Some(Train {
                    start: p.at,
                    end: p.at,
                    pkts: 1,
                    bytes: p.bytes as u64,
                });
            }
        }
        last_at = p.at;
    }
    if let Some(t) = current {
        trains.push(t);
    }
    trains
}

/// The gaps between consecutive trains (end of one to start of the next).
pub fn train_intervals(trains: &[Train]) -> Vec<Dur> {
    trains
        .windows(2)
        .map(|w| w[1].start.saturating_since(w[0].end))
        .collect()
}

/// Spacing of packets inside a synthesized train: about one
/// serialization time of a 1460-byte packet at 1 Gbps.
const INTRA_TRAIN_SPACING: Dur = Dur::from_micros(12);

/// Converts a simulator packet-event trace (the events a
/// [`netsim::PacketTrace`] recorded) into the packet timeline this
/// module analyses: the `Delivered` events of one flow whose wire size is
/// at least `min_bytes` (use the MSS to select data packets and exclude
/// ACKs). This closes the loop on the paper's Section II.A methodology —
/// the same train extraction that characterized the campus trace can be
/// applied to traffic the simulator generated.
pub fn packets_from_events(
    events: &[(SimTime, MonitorEvent)],
    flow: netsim::FlowId,
    min_bytes: u32,
) -> Vec<TracePacket> {
    events
        .iter()
        .filter_map(|&(at, ref ev)| match *ev {
            MonitorEvent::Delivered { flow: f, size, .. } if f == flow && size >= min_bytes => {
                Some(TracePacket { at, bytes: size })
            }
            _ => None,
        })
        .collect()
}

/// Generates a packet timeline of `trains` trains with the paper's ON/OFF
/// structure: Fig. 2(a)-sized bursts of MSS-sized packets separated by
/// Fig. 2(b) gaps.
pub fn synthesize_trace<R: Rng + ?Sized>(rng: &mut R, trains: usize) -> Vec<TracePacket> {
    let (size_dist, gap_dist) = (pt_size_bytes(), pt_interval());
    let mut pkts = Vec::new();
    let mut now = SimTime::ZERO;
    for _ in 0..trains {
        let bytes = size_dist.sample(rng).round() as u64;
        let n = bytes.div_ceil(u64::from(MSS_BYTES)).max(1);
        for _ in 0..n {
            pkts.push(TracePacket {
                at: now,
                bytes: MSS_BYTES,
            });
            now += INTRA_TRAIN_SPACING;
        }
        let gap_ns = gap_dist.sample(rng).round() as u64;
        now += Dur::from_nanos(gap_ns);
    }
    pkts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pkt(us: u64) -> TracePacket {
        TracePacket {
            at: SimTime::from_nanos(us * 1000),
            bytes: 1460,
        }
    }

    #[test]
    fn splits_on_gap() {
        let pkts = vec![pkt(0), pkt(10), pkt(20), pkt(500), pkt(510)];
        let trains = extract_trains(&pkts, Dur::from_micros(100));
        assert_eq!(trains.len(), 2);
        assert_eq!(trains[0].pkts, 3);
        assert_eq!(trains[0].bytes, 3 * 1460);
        assert_eq!(trains[1].pkts, 2);
        assert_eq!(trains[1].start, SimTime::from_nanos(500_000));
    }

    #[test]
    fn gap_exactly_at_threshold_stays_in_train() {
        let pkts = vec![pkt(0), pkt(100)];
        let trains = extract_trains(&pkts, Dur::from_micros(100));
        assert_eq!(trains.len(), 1);
        let trains = extract_trains(&pkts, Dur::from_micros(99));
        assert_eq!(trains.len(), 2);
    }

    #[test]
    fn empty_and_single_packet_traces() {
        assert!(extract_trains(&[], Dur::from_micros(1)).is_empty());
        let one = extract_trains(&[pkt(5)], Dur::from_micros(1));
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].pkts, 1);
    }

    #[test]
    fn intervals_between_trains() {
        let pkts = vec![pkt(0), pkt(500), pkt(1500)];
        let trains = extract_trains(&pkts, Dur::from_micros(100));
        let gaps = train_intervals(&trains);
        assert_eq!(gaps, vec![Dur::from_micros(500), Dur::from_micros(1000)]);
    }

    #[test]
    fn long_train_classification() {
        let t = Train {
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            pkts: 90,
            bytes: 131_072,
        };
        assert!(t.is_long());
        let s = Train { bytes: 4096, ..t };
        assert!(!s.is_long());
    }

    #[test]
    fn synthesis_round_trips_through_extraction() {
        let mut rng = StdRng::seed_from_u64(11);
        let pkts = synthesize_trace(&mut rng, 200);
        // The extraction threshold sits between the intra-train spacing
        // and the minimum gap, so synthesis and extraction agree.
        let trains = extract_trains(&pkts, Dur::from_micros(50));
        assert_eq!(trains.len(), 200);
        // Size distribution matches Fig. 2(a) support.
        for t in &trains {
            assert!(t.bytes >= 512 && t.bytes <= 263_000, "train {t:?}");
        }
        let long = trains.iter().filter(|t| t.is_long()).count();
        let frac = long as f64 / trains.len() as f64;
        assert!(frac > 0.02 && frac < 0.25, "LPT fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "not time-ordered")]
    fn unordered_trace_rejected() {
        let pkts = vec![pkt(10), pkt(0)];
        extract_trains(&pkts, Dur::from_micros(1));
    }
}
