//! Golden-trace regression: canonical campaigns re-run
//! deterministically, independent of worker count, and reproduce the
//! committed CSVs under `results/` byte for byte.
//!
//! Five campaigns cover the artifact families: `trace` (simulation
//! driven — exercises the event engine end to end, so any ordering or
//! arithmetic drift in the engine shows up here), `kmodel`
//! (analytical — exercises the harness/reduce path without a
//! simulator), `serve_slo` (the web-serving session workload over
//! the fat-tree, whose A/B jobs share a seed key), `aqm_matrix`
//! (the RED/CoDel tiny-buffer sweep plus the RED stability
//! cross-validation — exercises the AQM drop paths and the
//! oscillation monitors), and `million_flow` (the packed incast with
//! hundreds of senders per host — drives the timer queue's RTO storm
//! path and the flow slab's per-event row lookup). Each
//! runs at `--jobs 1` and `--jobs 8`; worker count must not leak into
//! artifacts at all.

use std::path::{Path, PathBuf};

use trim_experiments::{registry, Effort};
use trim_harness::{engine, ExecConfig};

fn run_campaign_into(id: &str, dir: &Path, jobs: usize) -> Vec<String> {
    let spec = registry::find(id).unwrap_or_else(|| panic!("{id} is registered"));
    let cfg = ExecConfig {
        jobs,
        force: true,
        results_dir: dir.to_path_buf(),
        quiet: true,
    };
    let outcome = engine::execute((spec.campaign)(Effort::Quick), &cfg).expect("campaign runs");
    outcome.reduced.iter().map(|(n, _)| n.clone()).collect()
}

/// Panics unless `actual` holds exactly the bytes of `expected`, naming
/// the first line that differs.
fn assert_same_bytes(expected: &Path, actual: &Path, what: &str) {
    let read = |p: &Path| std::fs::read(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
    let (want, got) = (read(expected), read(actual));
    if want == got {
        return;
    }
    // Splitting at every newline keeps all bytes, so unequal files
    // differ in some piece.
    let want: Vec<&[u8]> = want.split(|&b| b == b'\n').collect();
    let got: Vec<&[u8]> = got.split(|&b| b == b'\n').collect();
    let i = (0..)
        .find(|&i| want.get(i) != got.get(i))
        .expect("unequal files differ in a line");
    let show = |line: Option<&&[u8]>| line.map(|l| String::from_utf8_lossy(l).into_owned());
    panic!(
        "{what}: line {} differs\n  {}: {:?}\n  {}: {:?}",
        i + 1,
        expected.display(),
        show(want.get(i)),
        actual.display(),
        show(got.get(i))
    );
}

fn assert_campaign_reproduces_goldens(id: &str) {
    let scratch = std::env::temp_dir().join(format!("trim-golden-{id}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let serial = scratch.join("jobs1");
    let parallel = scratch.join("jobs8");
    let names = run_campaign_into(id, &serial, 1);
    assert_eq!(
        names,
        run_campaign_into(id, &parallel, 8),
        "{id}: artifact set differs by jobs"
    );
    assert!(!names.is_empty(), "{id} produces reduce artifacts");

    let golden_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for name in &names {
        let f1 = serial.join(format!("{name}.csv"));
        let f8 = parallel.join(format!("{name}.csv"));
        // Worker count must not leak into artifacts at all.
        assert_same_bytes(&f1, &f8, &format!("{id}/{name}: jobs=1 vs jobs=8"));
        // And the re-run must reproduce the committed golden.
        let g = golden_root.join(format!("{name}.csv"));
        assert_same_bytes(&g, &f1, &format!("{name} vs its committed golden"));
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn trace_campaign_is_jobs_invariant_and_matches_committed_goldens() {
    assert_campaign_reproduces_goldens("trace");
}

#[test]
fn kmodel_campaign_is_jobs_invariant_and_matches_committed_goldens() {
    assert_campaign_reproduces_goldens("kmodel");
}

#[test]
fn serve_campaign_is_jobs_invariant_and_matches_committed_goldens() {
    assert_campaign_reproduces_goldens("serve_slo");
}

#[test]
fn aqm_campaign_is_jobs_invariant_and_matches_committed_goldens() {
    assert_campaign_reproduces_goldens("aqm_matrix");
}

#[test]
fn million_flow_campaign_is_jobs_invariant_and_matches_committed_goldens() {
    assert_campaign_reproduces_goldens("million_flow");
}
