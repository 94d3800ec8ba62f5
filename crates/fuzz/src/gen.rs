//! Seed-driven scenario generation.
//!
//! Every spec is a pure function of `(seed, iteration)` — the fuzzer is
//! fully deterministic, so a failure report of the form "seed 7,
//! iteration 132" is already a repro even before shrinking.
//!
//! Three families are generated:
//!
//! - **burst** (the default): randomized fan-in, link rate, delay,
//!   buffer, congestion control (Reno / TRIM-guideline / TRIM with a
//!   random `K` override), per-sender packet trains with start jitter.
//!   Exercises the monitor suite and the goodput-conservation oracle.
//! - **saturation** (every [`GenConfig::saturate_every`]-th iteration):
//!   TRIM with the Eq. 4 guideline `K` under persistent offered load
//!   well above the bottleneck capacity — the precondition of the
//!   full-utilization oracle.
//! - **session** (every [`GenConfig::session_every`]-th iteration,
//!   saturation taking precedence on a collision): persistent-HTTP
//!   sessions — per-sender response sequences with think times —
//!   exercising the request/response lifecycle, the think-time
//!   scheduler, and the session-aware goodput accounting.
//! - **aqm** (every [`GenConfig::aqm_every`]-th iteration, saturation
//!   and session taking precedence): RED or CoDel on every queue with
//!   randomized integer-quantized parameters over small buffers,
//!   exercising early-drop, ECN-marking, and sojourn-drop paths under
//!   the full monitor suite.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use trim_workload::spec::{ScenarioSpec, SpecAqm, SpecCc, SpecFault, SpecSession, SpecTrain};

use crate::MSS;

/// Knobs bounding the generated scenario space. The defaults suit the
/// release-mode CI smoke run; debug-mode tests pass smaller budgets.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Upper bound on fan-in.
    pub max_senders: usize,
    /// Aggregate offered-load cap for burst specs, in bytes.
    pub max_total_bytes: u64,
    /// Generate a saturation spec every Nth iteration (0 = never).
    pub saturate_every: u64,
    /// Generate a session spec every Nth iteration (0 = never);
    /// saturation wins when an iteration matches both.
    pub session_every: u64,
    /// Generate an AQM (RED/CoDel) spec every Nth iteration (0 =
    /// never); saturation and session both win on a collision.
    pub aqm_every: u64,
    /// Attach a queue over-admission fault to every burst spec (the
    /// detector self-test mode).
    pub fault_overadmit: bool,
    /// Attach the stability oracles (cwnd limit-cycle, standing queue)
    /// to every generated scenario — the instability-hunting mode.
    pub stability: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_senders: 16,
            max_total_bytes: 600_000,
            saturate_every: 4,
            session_every: 5,
            aqm_every: 3,
            fault_overadmit: false,
            stability: false,
        }
    }
}

/// Derives the per-iteration RNG seed from the campaign seed.
fn iteration_seed(seed: u64, iteration: u64) -> u64 {
    // SplitMix64-style mix so neighbouring iterations decorrelate.
    let mut z = seed ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick<T: Copy>(rng: &mut StdRng, choices: &[T]) -> T {
    choices[rng.random_range(0..choices.len() as u64) as usize]
}

/// Generates the spec for `(seed, iteration)` under `cfg`.
pub fn gen_spec(seed: u64, iteration: u64, cfg: &GenConfig) -> ScenarioSpec {
    let mut rng = StdRng::seed_from_u64(iteration_seed(seed, iteration));
    let saturate =
        cfg.saturate_every != 0 && iteration % cfg.saturate_every == cfg.saturate_every - 1;
    let session = cfg.session_every != 0 && iteration % cfg.session_every == cfg.session_every - 1;
    let aqm = cfg.aqm_every != 0 && iteration % cfg.aqm_every == cfg.aqm_every - 1;
    let mut spec = if saturate {
        gen_saturation(&mut rng, seed, cfg)
    } else if session {
        gen_session(&mut rng, seed, cfg)
    } else if aqm {
        gen_aqm(&mut rng, seed, cfg)
    } else {
        gen_burst(&mut rng, seed, cfg)
    };
    spec.stability = cfg.stability;
    debug_assert!(spec.validate().is_ok(), "generator produced invalid spec");
    spec
}

fn gen_burst(rng: &mut StdRng, seed: u64, cfg: &GenConfig) -> ScenarioSpec {
    let senders = rng.random_range(1..=cfg.max_senders.max(1) as u64) as usize;
    let link_mbps = pick(rng, &[100, 200, 500, 1000, 2000, 10000]);
    let delay_us = pick(rng, &[10, 25, 50, 100, 250]);
    let buffer_pkts = rng.random_range(4..=200) as usize;
    let base_rtt_ns = 4 * delay_us * 1_000;
    let cc = match rng.random_range(0..3u64) {
        0 => SpecCc::Reno,
        1 => SpecCc::TrimGuideline,
        _ => SpecCc::TrimOverrideNs(rng.random_range(base_rtt_ns..=10 * base_rtt_ns)),
    };
    let min_rto_us = pick(rng, &[10_000, 50_000, 200_000]);
    let horizon_ms = rng.random_range(200..=1000);
    let fault = cfg.fault_overadmit.then(|| SpecFault::QueueOveradmit {
        extra: rng.random_range(1..=6),
    });

    let mut trains = Vec::new();
    let mut budget = cfg.max_total_bytes;
    'outer: for sender in 0..senders {
        for _ in 0..rng.random_range(1..=3u64) {
            if budget < MSS {
                break 'outer;
            }
            let bytes = rng.random_range(MSS..=40 * MSS).min(budget);
            budget -= bytes;
            trains.push(SpecTrain {
                sender,
                // Start jitter within the first tenth of the horizon, so
                // every train has time to complete or at least run.
                at_us: rng.random_range(0..=horizon_ms * 100),
                bytes,
            });
        }
    }
    if trains.is_empty() {
        trains.push(SpecTrain {
            sender: 0,
            at_us: 0,
            bytes: MSS,
        });
    }

    ScenarioSpec {
        seed,
        senders,
        link_mbps,
        delay_us,
        buffer_pkts,
        cc,
        min_rto_us,
        horizon_ms,
        fault,
        aqm: SpecAqm::DropTail,
        stability: false,
        expect: None,
        trains,
        sessions: Vec::new(),
    }
}

/// Persistent-HTTP sessions: every sender serves one response sequence
/// with think times, under a randomized link and congestion control.
fn gen_session(rng: &mut StdRng, seed: u64, cfg: &GenConfig) -> ScenarioSpec {
    let senders = rng.random_range(1..=cfg.max_senders.clamp(1, 8) as u64) as usize;
    let link_mbps = pick(rng, &[100, 500, 1000, 2000]);
    let delay_us = pick(rng, &[25, 50, 100]);
    let buffer_pkts = rng.random_range(16..=200) as usize;
    let base_rtt_ns = 4 * delay_us * 1_000;
    let cc = match rng.random_range(0..3u64) {
        0 => SpecCc::Reno,
        1 => SpecCc::TrimGuideline,
        _ => SpecCc::TrimOverrideNs(rng.random_range(base_rtt_ns..=10 * base_rtt_ns)),
    };
    let horizon_ms = rng.random_range(300..=1000);
    let mut sessions = Vec::with_capacity(senders);
    let mut budget = cfg.max_total_bytes;
    for sender in 0..senders {
        if budget < MSS {
            break;
        }
        let mut sizes = Vec::new();
        for _ in 0..rng.random_range(1..=4u64) {
            if budget < MSS {
                break;
            }
            let bytes = rng.random_range(MSS..=20 * MSS).min(budget);
            budget -= bytes;
            sizes.push(bytes);
        }
        if sizes.is_empty() {
            break;
        }
        sessions.push(SpecSession {
            sender,
            // Start within the first tenth of the horizon so every
            // session has time to make progress.
            at_us: rng.random_range(0..=horizon_ms * 100),
            think_us: rng.random_range(0..=20_000),
            sizes,
        });
    }
    if sessions.is_empty() {
        sessions.push(SpecSession {
            sender: 0,
            at_us: 0,
            think_us: 1_000,
            sizes: vec![MSS],
        });
    }
    ScenarioSpec {
        seed,
        senders,
        link_mbps,
        delay_us,
        buffer_pkts,
        cc,
        min_rto_us: pick(rng, &[10_000, 50_000, 200_000]),
        horizon_ms,
        fault: None,
        aqm: SpecAqm::DropTail,
        stability: false,
        expect: None,
        trains: Vec::new(),
        sessions,
    }
}

/// AQM bottlenecks: RED or CoDel with randomized integer-quantized
/// parameters over small buffers, under persistent synchronized trains
/// that keep the queue busy enough to exercise early drops, CE marks,
/// and sojourn-time drops.
fn gen_aqm(rng: &mut StdRng, seed: u64, cfg: &GenConfig) -> ScenarioSpec {
    let senders = rng.random_range(2..=12.min(cfg.max_senders.max(2) as u64)) as usize;
    let link_mbps: u64 = pick(rng, &[100, 1000]);
    let delay_us: u64 = pick(rng, &[50, 100, 250]);
    let buffer_pkts = rng.random_range(8..=64) as usize;
    let aqm = if rng.random_range(0..2u64) == 0 {
        let min_th = rng.random_range(1..=buffer_pkts as u64 / 2).max(1) as u32;
        let band = rng.random_range(1..=buffer_pkts as u64) as u32;
        SpecAqm::Red {
            min_th,
            max_th: min_th + band,
            max_p_milli: pick(rng, &[20, 100, 200, 500, 1000]),
            wq_micro: pick(rng, &[2_000, 10_000, 50_000, 200_000]),
            ecn: rng.random_range(0..4u64) == 0,
        }
    } else {
        let target_us = pick(rng, &[20, 50, 100, 500]);
        SpecAqm::Codel {
            target_us,
            interval_us: target_us * pick(rng, &[4, 10, 20]),
            ecn: rng.random_range(0..4u64) == 0,
        }
    };
    let base_rtt_ns = 4 * delay_us * 1_000;
    let cc = match rng.random_range(0..3u64) {
        0 => SpecCc::Reno,
        1 => SpecCc::TrimGuideline,
        _ => SpecCc::TrimOverrideNs(rng.random_range(base_rtt_ns..=10 * base_rtt_ns)),
    };
    let horizon_ms: u64 = rng.random_range(200..=600);
    // Persistent load: offer ~1.5x the bottleneck capacity over the
    // horizon so the AQM sees a standing queue worth regulating.
    let capacity_bytes = link_mbps * 125 * horizon_ms;
    let per_sender = (3 * capacity_bytes / (2 * senders as u64))
        .div_ceil(MSS)
        .max(1)
        * MSS;
    let trains = (0..senders)
        .map(|sender| SpecTrain {
            sender,
            at_us: rng.random_range(0..=200),
            bytes: per_sender,
        })
        .collect();
    ScenarioSpec {
        seed,
        senders,
        link_mbps,
        delay_us,
        buffer_pkts,
        cc,
        min_rto_us: pick(rng, &[10_000, 50_000, 200_000]),
        horizon_ms,
        fault: None,
        aqm,
        stability: false,
        expect: None,
        trains,
        sessions: Vec::new(),
    }
}

fn gen_saturation(rng: &mut StdRng, seed: u64, cfg: &GenConfig) -> ScenarioSpec {
    let senders = rng.random_range(2..=6.min(cfg.max_senders.max(2) as u64)) as usize;
    let link_mbps: u64 = pick(rng, &[100, 500, 1000]);
    let delay_us: u64 = pick(rng, &[25, 50]);
    let horizon_ms: u64 = rng.random_range(100..=250);
    // Offer twice what the bottleneck can carry over the horizon, split
    // evenly, so every sender still has data queued when the run ends.
    let capacity_bytes = link_mbps * 125 * horizon_ms; // Mbit/s -> bytes/ms
    let per_sender = (2 * capacity_bytes / senders as u64).div_ceil(MSS).max(1) * MSS;
    let trains = (0..senders)
        .map(|sender| SpecTrain {
            sender,
            at_us: rng.random_range(0..=100),
            bytes: per_sender,
        })
        .collect();
    ScenarioSpec {
        seed,
        senders,
        link_mbps,
        delay_us,
        buffer_pkts: rng.random_range(100..=200) as usize,
        cc: SpecCc::TrimGuideline,
        min_rto_us: 200_000,
        horizon_ms,
        fault: None,
        aqm: SpecAqm::DropTail,
        stability: false,
        expect: None,
        trains,
        sessions: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        let cfg = GenConfig::default();
        for i in 0..50 {
            let a = gen_spec(7, i, &cfg);
            let b = gen_spec(7, i, &cfg);
            assert_eq!(a, b, "iteration {i} not deterministic");
            assert_eq!(a.to_text(), b.to_text());
            a.validate().unwrap();
        }
    }

    #[test]
    fn different_seeds_or_iterations_diverge() {
        let cfg = GenConfig::default();
        let a = gen_spec(7, 0, &cfg);
        assert_ne!(a, gen_spec(8, 0, &cfg));
        assert_ne!(a, gen_spec(7, 1, &cfg));
    }

    #[test]
    fn saturation_family_offers_more_than_the_link_carries() {
        let cfg = GenConfig {
            saturate_every: 1,
            ..Default::default()
        };
        for i in 0..10 {
            let spec = gen_spec(42, i, &cfg);
            assert_eq!(spec.cc, SpecCc::TrimGuideline);
            let offered: u64 = (0..spec.senders)
                .map(|s| spec.offered_padded_bytes(s))
                .sum();
            let carriable = spec.link_mbps * 125 * spec.horizon_ms;
            assert!(offered >= 2 * carriable, "iteration {i} not saturating");
        }
    }

    #[test]
    fn fault_mode_attaches_the_overadmit_fault_to_burst_specs() {
        let cfg = GenConfig {
            fault_overadmit: true,
            saturate_every: 0,
            session_every: 0,
            aqm_every: 0,
            ..Default::default()
        };
        for i in 0..10 {
            let spec = gen_spec(3, i, &cfg);
            assert!(matches!(
                spec.fault,
                Some(SpecFault::QueueOveradmit { extra }) if extra >= 1
            ));
        }
    }

    #[test]
    fn burst_budget_caps_total_offered_bytes() {
        let cfg = GenConfig {
            max_total_bytes: 50_000,
            saturate_every: 0,
            aqm_every: 0,
            ..Default::default()
        };
        for i in 0..20 {
            let spec = gen_spec(9, i, &cfg);
            let total: u64 = spec.trains.iter().map(|t| t.bytes).sum::<u64>()
                + spec
                    .sessions
                    .iter()
                    .flat_map(|s| s.sizes.iter())
                    .sum::<u64>();
            assert!(total <= 50_000 + MSS, "iteration {i}: {total}");
        }
    }

    #[test]
    fn aqm_family_generates_red_and_codel_bottlenecks() {
        let cfg = GenConfig {
            saturate_every: 0,
            session_every: 0,
            aqm_every: 1,
            ..Default::default()
        };
        let (mut red, mut codel) = (0, 0);
        for i in 0..20 {
            let spec = gen_spec(11, i, &cfg);
            spec.validate().unwrap();
            match spec.aqm {
                SpecAqm::Red { .. } => red += 1,
                SpecAqm::Codel { .. } => codel += 1,
                SpecAqm::DropTail => panic!("iteration {i} fell back to drop-tail"),
            }
            assert!(spec.buffer_pkts <= 64, "iteration {i}: tiny buffers only");
            // The text form round-trips the discipline exactly.
            let parsed = ScenarioSpec::from_text(&spec.to_text()).unwrap();
            assert_eq!(parsed, spec);
        }
        assert!(red > 0 && codel > 0, "both disciplines generated");
    }

    #[test]
    fn session_family_generates_valid_session_specs() {
        let cfg = GenConfig {
            saturate_every: 0,
            session_every: 1,
            ..Default::default()
        };
        for i in 0..10 {
            let spec = gen_spec(21, i, &cfg);
            spec.validate().unwrap();
            assert!(spec.trains.is_empty(), "iteration {i} mixed in trains");
            assert!(!spec.sessions.is_empty(), "iteration {i} has no sessions");
            // The text form round-trips the sessions exactly.
            let parsed = ScenarioSpec::from_text(&spec.to_text()).unwrap();
            assert_eq!(parsed, spec);
        }
        // Saturation takes precedence when an iteration matches both.
        let both = GenConfig {
            saturate_every: 1,
            session_every: 1,
            ..Default::default()
        };
        let spec = gen_spec(21, 0, &both);
        assert!(spec.sessions.is_empty());
        assert_eq!(spec.cc, SpecCc::TrimGuideline);
    }
}
