//! The self-test the whole PR hangs on: the real workspace, under the
//! real `Lint.toml`, is clean in both modes. A regression anywhere in
//! the repo — a stray `Instant::now`, an undocumented experiment, an
//! orphaned results CSV, a corpus spec that stops round-tripping —
//! fails this test without running a single simulation.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/lint/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has two ancestors")
        .to_path_buf()
}

#[test]
fn source_rules_pass_on_the_workspace() {
    let root = workspace_root();
    let cfg = trim_lint::load_config(&root).expect("Lint.toml parses");
    let report = trim_lint::run_workspace(&root, &cfg).expect("scan succeeds");
    assert!(
        report.files_scanned > 100,
        "scan saw only {} files — walker is broken",
        report.files_scanned
    );
    assert!(
        report.diagnostics.is_empty(),
        "workspace must lint clean:\n{}",
        trim_lint::diag::render_text(&report.diagnostics, report.files_scanned)
    );
    // The clean result is not vacuous. TL206 read the manifest of every
    // scoped crate and resolved `workspace = true` entries through the
    // root manifest…
    let closure = trim_lint::workspace::sim_closure(&root, &cfg).expect("manifests read");
    assert!(
        closure.manifests.len() >= 7,
        "only {:?} read — scope list looks broken",
        closure.manifests
    );
    assert!(
        closure
            .deps
            .iter()
            .any(|d| d.manifest == "crates/workload/Cargo.toml"
                && d.name == "rand"
                && d.dir == "crates/compat/rand"),
        "trim-workload -> rand not resolved: {:#?}",
        closure.deps
    );
    // …and TL205 sees the whole event catalog.
    let monitor = "crates/netsim/src/monitor.rs";
    let text = std::fs::read_to_string(root.join(monitor)).expect("monitor.rs reads");
    let src = trim_lint::context::SourceFile::analyze(monitor, text);
    let variants = trim_lint::workspace::enum_variants(&src, "MonitorEvent").expect("enum found");
    assert_eq!(variants.len(), 15, "{variants:?}");
}

#[test]
fn artifact_cross_checks_pass_on_the_workspace() {
    let root = workspace_root();
    let report = trim_lint::run_artifacts(&root).expect("artifact check runs");
    assert!(
        report.diagnostics.is_empty(),
        "artifacts must cross-check clean:\n{}",
        trim_lint::diag::render_text(&report.diagnostics, 0)
    );
}

#[test]
fn lint_toml_is_valid_and_scopes_the_expected_rules() {
    let root = workspace_root();
    let cfg = trim_lint::load_config(&root).expect("Lint.toml parses");
    // The determinism rules stay scoped to simulation paths.
    assert!(cfg.rule_applies("no-wall-clock", "crates/netsim/src/sim.rs"));
    assert!(!cfg.rule_applies("no-wall-clock", "crates/harness/src/engine.rs"));
    assert!(cfg.rule_applies("no-unordered-iteration", "crates/check/src/monitors.rs"));
    assert!(!cfg.rule_applies("no-unordered-iteration", "crates/netsim/src/hash.rs"));
    // The scope covers the whole dependency closure and the serving crate.
    for rule in ["no-unordered-iteration", "unseeded-randomness"] {
        assert!(cfg.rule_applies(rule, "crates/compat/rand/src/lib.rs"));
        assert!(cfg.rule_applies(rule, "crates/serve/src/session.rs"));
    }
    assert!(!cfg.rule_applies("no-panic-in-library", "crates/serve/src/session.rs"));
    assert!(!cfg.rule_applies("no-panic-in-library", "crates/harness/src/engine.rs"));
    assert!(cfg.rule_applies("no-panic-in-library", "crates/tcp/src/conn.rs"));
    // Fixtures are excluded from the scan.
    assert!(cfg.is_excluded("crates/lint/tests/fixtures/wall_clock.rs"));
}
