//! Greedy structural shrinking of failing scenario specs.
//!
//! Unlike a generic integer shrinker (see the compat `proptest` shim,
//! which deliberately ships none), this shrinker is domain-aware: each
//! pass proposes a *valid* simpler spec — halve the fan-in, drop trains
//! and sessions, shorten response sequences, shorten the horizon, align
//! start jitter, round parameters toward the paper's defaults — and
//! keeps it only if the failure predicate still holds. Validity floors
//! (at least one sender, one train or session, one segment, one
//! response) mean shrinking terminates on a minimal reproducible
//! scenario, never on a degenerate all-zeros spec.
//!
//! Termination: every accepted candidate strictly shrinks a bounded
//! quantity (sender count, train count, session count, response count,
//! byte totals, think times, horizon, jitter sum, fault magnitude) or
//! is an idempotent rounding no later pass undoes, so the pass loop
//! reaches a fixpoint; a hard cap on accepted steps backstops the
//! argument.

use trim_workload::spec::{ScenarioSpec, SpecAqm, SpecFault, SpecSession, SpecTrain};

use crate::MSS;

/// How a shrink run went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Candidates accepted (each one re-ran the scenario and still
    /// failed).
    pub accepted: usize,
    /// Candidates rejected (ran but no longer failed).
    pub rejected: usize,
}

/// Hard cap on accepted shrink steps; reaching it would indicate a
/// non-terminating pass, so shrinking stops there regardless.
const MAX_ACCEPTED: usize = 1_000;

/// Shrinks `spec` while `still_fails` keeps returning `true` for the
/// candidate, returning the smallest failing spec found and the
/// accept/reject counts. `still_fails` is only called with valid specs.
pub fn shrink(
    spec: &ScenarioSpec,
    mut still_fails: impl FnMut(&ScenarioSpec) -> bool,
) -> (ScenarioSpec, ShrinkStats) {
    let mut best = spec.clone();
    let mut stats = ShrinkStats::default();
    loop {
        let mut improved = false;
        for candidate in candidates(&best) {
            debug_assert!(candidate.validate().is_ok());
            if candidate == best {
                continue;
            }
            if still_fails(&candidate) {
                best = candidate;
                stats.accepted += 1;
                improved = true;
                if stats.accepted >= MAX_ACCEPTED {
                    return (best, stats);
                }
                // Restart the pass list: earlier, coarser passes may
                // apply again to the smaller spec.
                break;
            }
            stats.rejected += 1;
        }
        if !improved {
            return (best, stats);
        }
    }
}

/// The ordered shrink candidates for `spec`, coarsest first. Every
/// returned spec is valid; candidates equal to `spec` are filtered by
/// the caller.
fn candidates(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();

    // 1. Halve the fan-in: keep the first half of the senders and their
    //    trains.
    if spec.senders > 1 {
        out.extend(keep_senders(spec, spec.senders / 2));
        // 2. Then inch down one sender at a time, so the minimum isn't
        //    limited to powers of two.
        out.extend(keep_senders(spec, spec.senders - 1));
    }

    // 3. Compact away senders with no trains: hosts are symmetric, so
    //    renumbering the used senders down to 0..n preserves behavior.
    out.extend(compact_senders(spec));

    // 4. Drop the second half of the trains, then individual trains.
    if !spec.trains.is_empty() {
        out.extend(without_trains(
            spec,
            spec.trains.len() / 2..spec.trains.len(),
        ));
        for i in (0..spec.trains.len()).rev() {
            out.extend(without_trains(spec, i..i + 1));
        }
    }

    // 5. Drop the second half of the sessions, then individual sessions.
    if !spec.sessions.is_empty() {
        out.extend(without_sessions(
            spec,
            spec.sessions.len() / 2..spec.sessions.len(),
        ));
        for i in (0..spec.sessions.len()).rev() {
            out.extend(without_sessions(spec, i..i + 1));
        }
    }

    // 6. Shorten response sequences: keep the first half of every
    //    session's sizes (floor: one response).
    if spec.sessions.iter().any(|s| s.sizes.len() > 1) {
        let mut s = spec.clone();
        for sess in &mut s.sessions {
            sess.sizes.truncate((sess.sizes.len() / 2).max(1));
        }
        out.push(s);
    }

    // 7. Shorten the horizon (floor: past the last train/session start).
    if spec.horizon_ms > 1 {
        let mut s = spec.clone();
        let last_start_ms = spec
            .trains
            .iter()
            .map(|t| t.at_us)
            .chain(spec.sessions.iter().map(|sess| sess.at_us))
            .max()
            .unwrap_or(0)
            / 1_000;
        s.horizon_ms = (spec.horizon_ms / 2).max(last_start_ms + 1);
        out.push(s);
    }

    // 8. Halve train and response sizes, rounded to whole segments
    //    (floor: one MSS).
    let halve = |b: u64| ((b / 2).div_ceil(MSS) * MSS).max(MSS);
    if spec.trains.iter().any(|t| t.bytes > MSS)
        || spec
            .sessions
            .iter()
            .any(|s| s.sizes.iter().any(|&b| b > MSS))
    {
        let mut s = spec.clone();
        for t in &mut s.trains {
            t.bytes = halve(t.bytes);
        }
        for sess in &mut s.sessions {
            for b in &mut sess.sizes {
                *b = halve(*b);
            }
        }
        out.push(s);
    }

    // 9. Halve think times (floor: zero — back-to-back responses).
    if spec.sessions.iter().any(|s| s.think_us > 0) {
        let mut s = spec.clone();
        for sess in &mut s.sessions {
            sess.think_us /= 2;
        }
        out.push(s);
    }

    // 10. Remove start jitter: align every train and session to the
    //     earliest start.
    let min_at = spec
        .trains
        .iter()
        .map(|t| t.at_us)
        .chain(spec.sessions.iter().map(|s| s.at_us))
        .min()
        .unwrap_or(0);
    if spec.trains.iter().any(|t| t.at_us != min_at)
        || spec.sessions.iter().any(|s| s.at_us != min_at)
    {
        let mut s = spec.clone();
        for t in &mut s.trains {
            t.at_us = min_at;
        }
        for sess in &mut s.sessions {
            sess.at_us = min_at;
        }
        out.push(s);
    }

    // 11. Round link parameters toward the paper's defaults (idempotent).
    for f in [
        |s: &mut ScenarioSpec| s.delay_us = 50,
        |s: &mut ScenarioSpec| s.link_mbps = 1000,
        |s: &mut ScenarioSpec| s.min_rto_us = 200_000,
    ] {
        let mut s = spec.clone();
        f(&mut s);
        out.push(s);
    }

    // 12. Canonicalize AQM parameters toward the defaults (idempotent
    //     roundings, like pass 11). The discipline itself is never
    //     shrunk to drop-tail: an AQM repro must stay an AQM repro, and
    //     removing the discipline would usually erase the failure.
    if let SpecAqm::Red {
        min_th,
        max_th,
        max_p_milli,
        wq_micro,
        ecn,
    } = spec.aqm
    {
        for aqm in [
            SpecAqm::Red {
                min_th,
                max_th,
                max_p_milli: 100,
                wq_micro,
                ecn,
            },
            SpecAqm::Red {
                min_th,
                max_th,
                max_p_milli,
                wq_micro: 2_000,
                ecn,
            },
            SpecAqm::Red {
                min_th,
                max_th,
                max_p_milli,
                wq_micro,
                ecn: false,
            },
        ] {
            let mut s = spec.clone();
            s.aqm = aqm;
            out.push(s);
        }
    }
    if let SpecAqm::Codel {
        target_us,
        interval_us,
        ecn,
    } = spec.aqm
    {
        for aqm in [
            SpecAqm::Codel {
                target_us: 50,
                interval_us: interval_us.max(50),
                ecn,
            },
            SpecAqm::Codel {
                target_us,
                interval_us: target_us.saturating_mul(20),
                ecn,
            },
            SpecAqm::Codel {
                target_us,
                interval_us,
                ecn: false,
            },
        ] {
            let mut s = spec.clone();
            s.aqm = aqm;
            out.push(s);
        }
    }

    // 13. Weaken the fault to the smallest over-admission.
    if let Some(SpecFault::QueueOveradmit { extra }) = spec.fault {
        if extra > 1 {
            let mut s = spec.clone();
            s.fault = Some(SpecFault::QueueOveradmit { extra: 1 });
            out.push(s);
        }
    }

    out.retain(|s| s.validate().is_ok());
    out
}

/// `spec` restricted to its first `keep` senders, or `None` if that
/// leaves no workload at all.
fn keep_senders(spec: &ScenarioSpec, keep: usize) -> Option<ScenarioSpec> {
    let keep = keep.max(1);
    let trains: Vec<SpecTrain> = spec
        .trains
        .iter()
        .filter(|t| t.sender < keep)
        .copied()
        .collect();
    let sessions: Vec<SpecSession> = spec
        .sessions
        .iter()
        .filter(|s| s.sender < keep)
        .cloned()
        .collect();
    if trains.is_empty() && sessions.is_empty() {
        return None;
    }
    let mut s = spec.clone();
    s.senders = keep;
    s.trains = trains;
    s.sessions = sessions;
    Some(s)
}

/// `spec` with unused sender slots removed and the workload renumbered
/// onto `0..n_used`, or `None` when every sender already has a train or
/// session.
fn compact_senders(spec: &ScenarioSpec) -> Option<ScenarioSpec> {
    let mut used: Vec<usize> = spec
        .trains
        .iter()
        .map(|t| t.sender)
        .chain(spec.sessions.iter().map(|s| s.sender))
        .collect();
    used.sort_unstable();
    used.dedup();
    if used.len() == spec.senders {
        return None;
    }
    let mut s = spec.clone();
    s.senders = used.len();
    for t in &mut s.trains {
        t.sender = used.binary_search(&t.sender).expect("sender is used");
    }
    for sess in &mut s.sessions {
        sess.sender = used.binary_search(&sess.sender).expect("sender is used");
    }
    Some(s)
}

/// `spec` without the trains at `range`, or `None` if that leaves no
/// workload at all.
fn without_trains(spec: &ScenarioSpec, range: std::ops::Range<usize>) -> Option<ScenarioSpec> {
    if range.len() >= spec.trains.len() && spec.sessions.is_empty() {
        return None;
    }
    let mut s = spec.clone();
    s.trains = spec
        .trains
        .iter()
        .enumerate()
        .filter(|(i, _)| !range.contains(i))
        .map(|(_, t)| *t)
        .collect();
    Some(s)
}

/// `spec` without the sessions at `range`, or `None` if that leaves no
/// workload at all.
fn without_sessions(spec: &ScenarioSpec, range: std::ops::Range<usize>) -> Option<ScenarioSpec> {
    if range.len() >= spec.sessions.len() && spec.trains.is_empty() {
        return None;
    }
    let mut s = spec.clone();
    s.sessions = spec
        .sessions
        .iter()
        .enumerate()
        .filter(|(i, _)| !range.contains(i))
        .map(|(_, sess)| sess.clone())
        .collect();
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trim_workload::spec::SpecCc;

    fn big_spec() -> ScenarioSpec {
        ScenarioSpec {
            seed: 1,
            senders: 16,
            link_mbps: 2000,
            delay_us: 100,
            buffer_pkts: 64,
            cc: SpecCc::Reno,
            min_rto_us: 50_000,
            horizon_ms: 800,
            fault: Some(SpecFault::QueueOveradmit { extra: 5 }),
            aqm: SpecAqm::DropTail,
            stability: false,
            expect: None,
            trains: (0..16)
                .flat_map(|sender| {
                    (0..2).map(move |j| SpecTrain {
                        sender,
                        at_us: 100 * (sender as u64) + j,
                        bytes: 29_200,
                    })
                })
                .collect(),
            sessions: Vec::new(),
        }
    }

    fn session_spec() -> ScenarioSpec {
        ScenarioSpec {
            senders: 8,
            trains: (4..8)
                .map(|sender| SpecTrain {
                    sender,
                    at_us: 500,
                    bytes: 29_200,
                })
                .collect(),
            sessions: (0..4)
                .map(|sender| SpecSession {
                    sender,
                    at_us: 100 * sender as u64,
                    think_us: 8_000,
                    sizes: vec![29_200, 14_600, 43_800, 2_920],
                })
                .collect(),
            ..big_spec()
        }
    }

    #[test]
    fn shrinks_to_the_predicate_floor_not_to_a_degenerate_spec() {
        // "Fails" whenever at least 3 senders have trains: the minimal
        // failing spec has exactly 3 senders — not 0.
        let (small, stats) = shrink(&big_spec(), |s| s.senders >= 3);
        small.validate().unwrap();
        assert_eq!(small.senders, 3);
        assert!(!small.trains.is_empty());
        assert!(stats.accepted > 0);
        assert!(stats.rejected > 0);
    }

    #[test]
    fn shrinking_canonicalizes_parameters_and_fault() {
        let (small, _) = shrink(&big_spec(), |_| true);
        // Everything shrinkable reaches its floor when the predicate
        // always holds.
        assert_eq!(small.senders, 1);
        assert_eq!(small.trains.len(), 1);
        assert_eq!(small.trains[0].bytes, MSS);
        assert_eq!(small.delay_us, 50);
        assert_eq!(small.link_mbps, 1000);
        assert_eq!(small.min_rto_us, 200_000);
        assert_eq!(small.fault, Some(SpecFault::QueueOveradmit { extra: 1 }));
        assert_eq!(small.trains[0].at_us, 0);
        assert_eq!(small.horizon_ms, 1);
    }

    #[test]
    fn session_specs_shrink_to_their_own_floor() {
        // Everything shrinkable reaches its floor: the trains go first
        // (sessions can carry a spec alone), then one session with one
        // MSS-sized response, zero think, zero start.
        let (small, _) = shrink(&session_spec(), |_| true);
        small.validate().unwrap();
        assert!(small.trains.is_empty());
        assert_eq!(small.senders, 1);
        assert_eq!(small.sessions.len(), 1);
        assert_eq!(small.sessions[0].sizes, vec![MSS]);
        assert_eq!(small.sessions[0].think_us, 0);
        assert_eq!(small.sessions[0].at_us, 0);
    }

    #[test]
    fn shrinking_preserves_a_session_predicate() {
        // "Fails" while some session still has >= 2 responses: the
        // minimum keeps exactly one such session.
        let (small, stats) = shrink(&session_spec(), |s| {
            s.sessions.iter().any(|sess| sess.sizes.len() >= 2)
        });
        small.validate().unwrap();
        assert_eq!(small.sessions.len(), 1);
        assert_eq!(small.sessions[0].sizes.len(), 2);
        assert!(stats.accepted > 0);
    }

    #[test]
    fn aqm_parameters_canonicalize_but_the_discipline_survives() {
        let mut spec = big_spec();
        spec.aqm = SpecAqm::Red {
            min_th: 3,
            max_th: 17,
            max_p_milli: 730,
            wq_micro: 123_456,
            ecn: true,
        };
        let (small, _) = shrink(&spec, |_| true);
        assert_eq!(
            small.aqm,
            SpecAqm::Red {
                min_th: 3,
                max_th: 17,
                max_p_milli: 100,
                wq_micro: 2_000,
                ecn: false,
            },
            "parameters round to defaults without losing the discipline"
        );
        let mut spec = big_spec();
        spec.aqm = SpecAqm::Codel {
            target_us: 37,
            interval_us: 9_999,
            ecn: true,
        };
        let (small, _) = shrink(&spec, |_| true);
        assert_eq!(
            small.aqm,
            SpecAqm::Codel {
                target_us: 50,
                interval_us: 1_000,
                ecn: false,
            }
        );
    }

    #[test]
    fn shrink_never_proposes_invalid_specs_and_terminates() {
        let mut calls = 0usize;
        let (small, stats) = shrink(&big_spec(), |s| {
            calls += 1;
            s.validate().unwrap();
            s.trains.len() >= 4
        });
        assert_eq!(small.trains.len(), 4);
        assert!(calls < 10_000);
        assert_eq!(calls, stats.accepted + stats.rejected);
    }

    #[test]
    fn unshrinkable_failure_returns_the_original() {
        let spec = ScenarioSpec {
            senders: 1,
            trains: vec![SpecTrain {
                sender: 0,
                at_us: 0,
                bytes: MSS,
            }],
            delay_us: 50,
            link_mbps: 1000,
            min_rto_us: 200_000,
            horizon_ms: 1,
            fault: None,
            ..big_spec()
        };
        let (small, stats) = shrink(&spec, |_| true);
        assert_eq!(small, spec);
        assert_eq!(stats.accepted, 0);
    }
}
