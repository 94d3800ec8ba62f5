//! Differential oracles: post-run checks that compare a finished
//! scenario against what the paper's model says must have happened.
//!
//! Runtime invariants (per-ACK reduction bound, probe window, queue
//! bounds, ...) live in `trim-check`'s monitor suite and watch the
//! event stream; the oracles here need the whole run — offered load vs
//! delivered goodput, measured bottleneck utilization vs the Eq. 4
//! full-utilization prediction — so they run on the [`SpecOutcome`].

use trim_check::OracleFailure;
use trim_core::kmodel;
use trim_workload::spec::{ScenarioSpec, SpecCc, SpecOutcome};

use crate::MSS;

/// The subject every fuzz oracle inspects: the spec that ran and what
/// came out.
#[derive(Debug)]
pub struct SpecRun<'a> {
    /// The scenario that was run.
    pub spec: &'a ScenarioSpec,
    /// Its report and violations.
    pub outcome: &'a SpecOutcome,
}

/// Runs every fuzz oracle against a finished run and collects the
/// failures. An oracle does not panic; it appends one [`OracleFailure`]
/// per independent problem so a single run surfaces them all.
pub fn check_oracles(spec: &ScenarioSpec, outcome: &SpecOutcome) -> Vec<OracleFailure> {
    let run = SpecRun { spec, outcome };
    let mut failures = Vec::new();
    goodput_conservation(&run, &mut failures);
    k_full_utilization(&run, &mut failures);
    failures
}

/// Goodput conservation: the front-end can never deliver more in-order
/// payload than a sender offered (padded to whole segments), and a
/// sender that finished — no data outstanding at the horizon — must
/// have delivered exactly its offered load.
///
/// Session senders need a looser idle rule: a connection sitting in a
/// think gap is idle while later responses are still pending, so the
/// exact-equality check only applies once every response in the
/// sequence completed. Instead the completed prefix gives a floor —
/// the sender must have delivered at least the padded bytes of every
/// response it reports complete.
pub fn goodput_conservation(run: &SpecRun<'_>, failures: &mut Vec<OracleFailure>) {
    let mut fail = |detail: String| {
        failures.push(OracleFailure {
            oracle: "goodput-conservation",
            detail,
        })
    };
    for s in &run.outcome.report.senders {
        let offered = run.spec.offered_padded_bytes(s.sender);
        let session = run.spec.session_for(s.sender);
        // Exact equality needs the whole offered load to have been
        // issued: always true for trains, true for a session only
        // once all of its responses completed.
        let fully_issued = match session {
            None => true,
            Some(sess) => s.trains.len() == sess.sizes.len(),
        };
        if s.goodput_bytes > offered {
            fail(format!(
                "sender {} delivered {} bytes but only offered {}",
                s.sender, s.goodput_bytes, offered
            ));
        } else if !s.unfinished && fully_issued && s.goodput_bytes != offered {
            fail(format!(
                "sender {} is idle but delivered {} of {} offered bytes",
                s.sender, s.goodput_bytes, offered
            ));
        }
        if let Some(sess) = session {
            let pad = |b: u64| b.div_ceil(MSS) * MSS;
            let completed_floor: u64 = sess
                .sizes
                .iter()
                .take(s.trains.len())
                .map(|&b| pad(b))
                .sum();
            if s.goodput_bytes < completed_floor {
                fail(format!(
                    "sender {} completed {} responses ({} padded bytes) \
                     but delivered only {}",
                    s.sender,
                    s.trains.len(),
                    completed_floor,
                    s.goodput_bytes
                ));
            }
        }
        if s.goodput_bytes % MSS != 0 {
            fail(format!(
                "sender {} goodput {} is not whole segments",
                s.sender, s.goodput_bytes
            ));
        }
    }
}

/// Measured utilization below which the full-utilization oracle fires.
/// Saturated TRIM-guideline runs measure >= 0.97 across the generator's
/// parameter space; the slack absorbs slow-start warmup on the shortest
/// horizons.
pub const UTILIZATION_FLOOR: f64 = 0.90;

/// Whether the spec is in [`k_full_utilization`]'s jurisdiction.
pub fn qualifies_for_full_utilization(spec: &ScenarioSpec) -> bool {
    let streaming = spec.trains.len() == spec.senders
        && (0..spec.senders).all(|s| spec.trains.iter().any(|t| t.sender == s))
        && spec.trains.iter().all(|t| t.at_us <= 1_000);
    let offered_bytes: u64 = (0..spec.senders)
        .map(|s| spec.offered_padded_bytes(s))
        .sum();
    let carriable_bytes = spec.bottleneck_bps() / 8 * spec.horizon_ms / 1_000;
    spec.cc == SpecCc::TrimGuideline
        && spec.fault.is_none()
        && spec.sessions.is_empty()
        && streaming
        && offered_bytes >= 2 * carriable_bytes
}

/// The measured bottleneck utilization of a run: delivered payload
/// over what the link could carry in the horizon.
pub fn measured_utilization(spec: &ScenarioSpec, outcome: &SpecOutcome) -> f64 {
    let delivered: u64 = outcome.report.senders.iter().map(|s| s.goodput_bytes).sum();
    let carriable = spec.bottleneck_bps() as f64 / 8.0 * spec.horizon_ms as f64 / 1_000.0;
    delivered as f64 / carriable
}

/// Eq. 4 differential: when TRIM runs with the guideline `K` under
/// persistent offered load beyond the bottleneck capacity, the paper
/// predicts full utilization. Checked twice: the closed-form
/// steady-state model must claim `full_utilization`, and the measured
/// bottleneck utilization must stay above [`UTILIZATION_FLOOR`].
///
/// Only *qualifying* specs ([`qualifies_for_full_utilization`]) are
/// judged — TRIM-guideline, no injected fault, every sender streaming
/// one train from (near) time zero, and aggregate offered load at least
/// twice what the link can carry over the horizon — so the oracle never
/// flakes on bursty or underloaded scenarios.
pub fn k_full_utilization(run: &SpecRun<'_>, failures: &mut Vec<OracleFailure>) {
    if !qualifies_for_full_utilization(run.spec) {
        return;
    }
    let mut fail = |detail: String| {
        failures.push(OracleFailure {
            oracle: "k-full-utilization",
            detail,
        })
    };
    let capacity_pps = run.spec.bottleneck_bps() as f64 / (8.0 * MSS as f64);
    let base_rtt_ns = run.spec.base_rtt_ns();
    let k_ns = kmodel::k_lower_bound_ns(capacity_pps, base_rtt_ns);
    let st = kmodel::steady_state(capacity_pps, base_rtt_ns, k_ns, run.spec.senders as u32);
    if !st.full_utilization {
        fail(format!(
            "steady-state model denies full utilization at the \
             guideline K = {k_ns}ns (C = {capacity_pps:.0} pps, \
             D = {base_rtt_ns}ns, N = {})",
            run.spec.senders
        ));
    }
    let measured = measured_utilization(run.spec, run.outcome);
    if measured < UTILIZATION_FLOOR {
        fail(format!(
            "measured bottleneck utilization {measured:.3} below \
             {UTILIZATION_FLOOR} despite guideline K and saturating load"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trim_workload::spec::{SpecSession, SpecTrain};

    fn saturating_spec() -> ScenarioSpec {
        ScenarioSpec {
            seed: 0,
            senders: 2,
            link_mbps: 100,
            delay_us: 50,
            buffer_pkts: 100,
            cc: SpecCc::TrimGuideline,
            min_rto_us: 200_000,
            horizon_ms: 60,
            fault: None,
            aqm: trim_workload::spec::SpecAqm::DropTail,
            stability: false,
            expect: None,
            trains: (0..2)
                .map(|sender| SpecTrain {
                    sender,
                    at_us: 0,
                    bytes: 1_000_000,
                })
                .collect(),
            sessions: Vec::new(),
        }
    }

    #[test]
    fn qualification_requires_trim_guideline_and_saturation() {
        let spec = saturating_spec();
        assert!(qualifies_for_full_utilization(&spec));
        let mut reno = spec.clone();
        reno.cc = SpecCc::Reno;
        assert!(!qualifies_for_full_utilization(&reno));
        let mut light = spec.clone();
        light.trains[0].bytes = 1_460;
        light.trains[1].bytes = 1_460;
        assert!(!qualifies_for_full_utilization(&light));
        let mut late = spec;
        late.trains[0].at_us = 30_000;
        assert!(!qualifies_for_full_utilization(&late));
    }

    #[test]
    fn saturated_trim_guideline_run_passes_both_oracles() {
        let spec = saturating_spec();
        let out = spec.run().unwrap();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        let failures = check_oracles(&spec, &out);
        assert!(failures.is_empty(), "{failures:?}");
        let u = measured_utilization(&spec, &out);
        assert!(u > UTILIZATION_FLOOR, "utilization {u}");
    }

    #[test]
    fn goodput_oracle_fires_on_fabricated_excess_delivery() {
        let spec = saturating_spec();
        let mut out = spec.run().unwrap();
        out.report.senders[0].goodput_bytes = spec.offered_padded_bytes(0) + MSS;
        let failures = check_oracles(&spec, &out);
        assert!(failures
            .iter()
            .any(|f| f.oracle == "goodput-conservation" && f.detail.contains("only offered")));
    }

    /// A session whose think gaps outlast the horizon: the last
    /// response never gets issued, so the connection is idle at the
    /// report yet delivered less than the full offered load.
    fn cutoff_session_spec() -> ScenarioSpec {
        ScenarioSpec {
            horizon_ms: 8,
            trains: Vec::new(),
            sessions: vec![SpecSession {
                sender: 0,
                at_us: 0,
                think_us: 8_000,
                sizes: vec![14_600, 14_600, 14_600],
            }],
            ..saturating_spec()
        }
    }

    #[test]
    fn session_cut_mid_think_is_not_a_goodput_violation() {
        let spec = cutoff_session_spec();
        let out = spec.run().unwrap();
        let s = &out.report.senders[0];
        assert!(
            s.trains.len() < 3,
            "horizon must cut the session for this test to bite"
        );
        assert!(!s.unfinished, "cut mid-think means the connection is idle");
        assert!(s.goodput_bytes < spec.offered_padded_bytes(0));
        let failures = check_oracles(&spec, &out);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn goodput_oracle_fires_when_a_session_delivers_less_than_it_completed() {
        let spec = cutoff_session_spec();
        let mut out = spec.run().unwrap();
        out.report.senders[0].goodput_bytes = 0;
        let failures = check_oracles(&spec, &out);
        assert!(failures
            .iter()
            .any(|f| f.oracle == "goodput-conservation" && f.detail.contains("delivered only")));
    }
}
