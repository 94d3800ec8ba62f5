//! Replays every committed `corpus/*.spec` as an ordinary test case:
//! a spec with an `expect = monitor:<name>` / `oracle:<name>` line must
//! reproduce exactly that verdict, fault-carrying repros must still trip
//! `queue-bound`, clean specs must stay clean under the full monitor +
//! oracle suite, and replays must be deterministic.

use std::path::PathBuf;

use trim_fuzz::check_spec;
use trim_workload::spec::ScenarioSpec;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

fn load(name: &str) -> ScenarioSpec {
    let path = corpus_dir().join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    ScenarioSpec::from_text(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

#[test]
fn every_corpus_spec_replays_with_its_expected_outcome() {
    let mut seen = 0;
    for entry in std::fs::read_dir(corpus_dir()).expect("corpus directory exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != "spec") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = ScenarioSpec::from_text(&text)
            .unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
        let verdict = check_spec(&spec).unwrap();
        let expected: Option<String> = spec
            .expect
            .clone()
            .or_else(|| spec.fault.map(|_| "monitor:queue-bound".to_string()));
        match expected {
            Some(key) => assert_eq!(
                verdict.key().as_deref(),
                Some(key.as_str()),
                "{}: repro no longer produces its expected verdict: {}",
                path.display(),
                verdict.headline()
            ),
            None => assert!(
                !verdict.failed(),
                "{}: clean spec now fails: {}",
                path.display(),
                verdict.headline()
            ),
        }
    }
    assert!(
        seen >= 5,
        "expected the committed corpus, found {seen} specs"
    );
}

#[test]
fn shrunk_overadmit_repro_replays_deterministically() {
    let spec = load("overadmit_min.spec");
    assert!(spec.senders <= 4, "repro must stay minimal");
    let a = spec.run().unwrap();
    let b = spec.run().unwrap();
    assert!(!a.violations.is_empty());
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.report.at, b.report.at);
    for (x, y) in a.report.senders.iter().zip(&b.report.senders) {
        assert_eq!(x.goodput_bytes, y.goodput_bytes);
        assert_eq!(x.stats, y.stats);
    }
    // The violation the shrinker preserved is the injected over-admission.
    assert!(a.violations.iter().all(|v| v.monitor == "queue-bound"));
}

#[test]
fn probe_gap_spec_actually_probes() {
    let spec = load("probe_gap_trim.spec");
    let out = spec.run().unwrap();
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    let probes: u64 = out.report.senders.iter().map(|s| s.stats.probes_sent).sum();
    assert!(
        probes > 0,
        "the idle gaps must trigger Algorithm-1 probes for the \
         probe-window monitor to be exercised"
    );
}

#[test]
fn session_spec_exercises_the_mid_think_cutoff() {
    let spec = load("session_mixed.spec");
    let out = spec.run().unwrap();
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    // Sender 1's think gap outlasts the horizon: the second response is
    // never issued, leaving the connection idle with partial goodput —
    // exactly the case the session-aware goodput rule must tolerate.
    let s1 = &out.report.senders[1];
    assert_eq!(s1.trains.len(), 1, "the long think must cut response 2");
    assert!(!s1.unfinished, "mid-think means idle at the horizon");
    assert!(s1.goodput_bytes < spec.offered_padded_bytes(1));
    // Sender 0's full sequence completes; conservation is exact there.
    let s0 = &out.report.senders[0];
    assert_eq!(s0.trains.len(), 3);
    assert_eq!(s0.goodput_bytes, spec.offered_padded_bytes(0));
}

#[test]
fn saturation_spec_exercises_the_utilization_oracle() {
    let spec = load("saturate_trim_guideline.spec");
    assert!(trim_fuzz::oracle::qualifies_for_full_utilization(&spec));
    let out = spec.run().unwrap();
    let u = trim_fuzz::oracle::measured_utilization(&spec, &out);
    assert!(
        u >= trim_fuzz::oracle::UTILIZATION_FLOOR,
        "utilization {u} under the oracle floor"
    );
}

#[test]
fn aqm_instability_repro_fires_the_stability_oracle_deterministically() {
    let spec = load("aqm_red_limit_cycle.spec");
    assert!(spec.stability, "repro must attach the stability oracles");
    assert_eq!(spec.expect.as_deref(), Some("monitor:cwnd-limit-cycle"));
    assert!(
        !matches!(spec.aqm, trim_workload::spec::SpecAqm::DropTail),
        "repro must keep its AQM discipline"
    );
    let a = spec.run().unwrap();
    let v = a
        .violations
        .iter()
        .find(|v| v.monitor == "cwnd-limit-cycle")
        .unwrap_or_else(|| panic!("limit cycle no longer detected: {:?}", a.violations));
    // The oracle's report is actionable: it names the oscillating flow
    // and the simulation time the cycle qualified.
    assert!(v.flow.is_some(), "violation carries the flow: {v}");
    assert!(
        v.at > netsim::SimTime::ZERO,
        "violation carries sim time: {v}"
    );
    // No other invariant breaks: the oscillation is the only finding.
    assert!(
        a.violations
            .iter()
            .all(|v| v.monitor == "cwnd-limit-cycle" || v.monitor == "standing-queue"),
        "unexpected violations: {:?}",
        a.violations
    );
    let b = spec.run().unwrap();
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.report.completion_times(), b.report.completion_times());
}
