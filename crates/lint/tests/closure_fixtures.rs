//! Sim-closure fixture tests: the `closure_bad` mini-workspace has a
//! simulation crate (`sim`, audited) calling into a helper crate
//! (`util`, not audited) that reads the wall clock, iterates a std
//! `HashMap` and seeds from ambient entropy — the scenario the retired
//! call-graph taint rules were built for. TL206 must name the
//! `sim -> util` edge as committed, and widening the scopes to `util`
//! must surface the three source lines through the ordinary token rules.
//! `closure_clean` is the twin with nothing to report. The fixtures are
//! self-contained workspaces (own `Lint.toml`, own crate manifests).

use std::path::PathBuf;

use trim_lint::{Config, Report};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(name: &str) -> Report {
    let root = fixture_root(name);
    let cfg = trim_lint::load_config(&root).expect("fixture Lint.toml parses");
    trim_lint::run_workspace(&root, &cfg).expect("scan succeeds")
}

/// `(code, path, line)` of every diagnostic, in report order.
fn sites(report: &Report) -> Vec<(&str, &str, u32)> {
    report
        .diagnostics
        .iter()
        .map(|d| (d.code, d.path.as_str(), d.line))
        .collect()
}

#[test]
fn bad_workspace_fires_every_closure_rule() {
    let report = run("closure_bad");
    let count = |code: &str| report.diagnostics.iter().filter(|d| d.code == code).count();
    // TL206: sim's one [dependencies] entry leaves the scope.
    assert_eq!(count("TL206"), 1, "diags: {:#?}", report.diagnostics);
    // TL203: static mut, Atomic* static, thread_local!, Rc, RefCell, Cell.
    assert_eq!(count("TL203"), 6, "diags: {:#?}", report.diagnostics);
    // TL204, per token: the `OsRng` use, its struct and its impl.
    assert_eq!(count("TL204"), 3, "diags: {:#?}", report.diagnostics);
    // TL205: Orphaned never consumed, Phantom never emitted.
    assert_eq!(count("TL205"), 2, "diags: {:#?}", report.diagnostics);
    // TL008: the stale shard-safety suppression, out of check_file.
    assert_eq!(count("TL008"), 1, "diags: {:#?}", report.diagnostics);
    // util is outside every scope: nothing else, and nothing in util.
    assert_eq!(report.diagnostics.len(), 13);
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.path.starts_with("crates/sim/")));
}

#[test]
fn dependency_closure_names_the_edge() {
    let report = run("closure_bad");
    let tl206 = report
        .diagnostics
        .iter()
        .find(|d| d.code == "TL206")
        .expect("TL206 present");
    // Reported at the manifest line that declares the dependency, naming
    // both the dependency and the directory it resolves to.
    assert_eq!(
        (tl206.path.as_str(), tl206.line),
        ("crates/sim/Cargo.toml", 7)
    );
    assert!(tl206.message.contains("`util`"), "{}", tl206.message);
    assert!(tl206.message.contains("crates/util"), "{}", tl206.message);
}

#[test]
fn scoping_the_dependency_surfaces_the_hidden_sources() {
    // The same tree with `crates/util` added to the determinism scopes:
    // the edge is now inside the set, and the three lines the taint
    // chains used to end at are plain token-rule findings.
    let root = fixture_root("closure_bad");
    let cfg = Config::parse(
        "[no-wall-clock]\napply-paths = [\"crates/sim\", \"crates/util\"]\n\
         [no-unordered-iteration]\napply-paths = [\"crates/sim\", \"crates/util\"]\n\
         [unseeded-randomness]\napply-paths = [\"crates/sim\", \"crates/util\"]\n\
         [shard-safety]\napply-paths = [\"crates/sim\"]\n\
         [monitor-coverage]\napply-paths = [\"crates/sim\"]\n",
    )
    .expect("config parses");
    let report = trim_lint::run_workspace(&root, &cfg).expect("scan succeeds");
    assert!(
        report.diagnostics.iter().all(|d| d.code != "TL206"),
        "diags: {:#?}",
        report.diagnostics
    );
    let util: Vec<_> = sites(&report)
        .into_iter()
        .filter(|(_, path, _)| *path == "crates/util/src/lib.rs")
        .collect();
    assert_eq!(
        util,
        [
            // wall_now: `Instant::now`.
            ("TL001", "crates/util/src/lib.rs", 8),
            // count_keys: `HashMap` twice on the line.
            ("TL002", "crates/util/src/lib.rs", 14),
            ("TL002", "crates/util/src/lib.rs", 14),
            // entropy_seed: the `thread_rng` call, then the fn it names.
            ("TL204", "crates/util/src/lib.rs", 20),
            ("TL204", "crates/util/src/lib.rs", 24),
        ]
    );
    // The sim-side findings are unchanged apart from the edge.
    assert_eq!(report.diagnostics.len(), 12 + util.len());
}

#[test]
fn shard_safety_audit_skips_test_regions() {
    let report = run("closure_bad");
    // state.rs has a RefCell inside #[cfg(test)] on line 36; only the
    // six non-test sites may be reported.
    let lines: Vec<u32> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == "TL203")
        .map(|d| {
            assert_eq!(d.path, "crates/sim/src/state.rs");
            d.line
        })
        .collect();
    assert_eq!(lines, [5, 8, 10, 16, 23, 29]);
}

#[test]
fn clean_workspace_is_clean_including_used_suppressions() {
    let report = run("closure_clean");
    assert!(
        report.diagnostics.is_empty(),
        "expected no diagnostics, got: {:#?}",
        report.diagnostics
    );
}
