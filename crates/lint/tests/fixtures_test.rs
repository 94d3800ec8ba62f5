//! Per-rule fixture tests: each bad fixture must produce exactly the
//! expected diagnostic codes, each clean one must stay silent, and the
//! suppression machinery must accept reasoned annotations and reject
//! bare ones. Fixtures live under `tests/fixtures/` and are excluded
//! from the workspace scan by `Lint.toml`.

use std::path::Path;

use trim_lint::config::Config;
use trim_lint::context::SourceFile;
use trim_lint::rules::check_file;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lints a fixture as if it lived at `rel_path`, under the default
/// (everything-applies) config, returning the sorted diagnostic codes.
fn codes_at(name: &str, rel_path: &str) -> Vec<&'static str> {
    let mut f = SourceFile::analyze(rel_path, fixture(name));
    let mut codes: Vec<_> = check_file(&mut f, &Config::default())
        .into_iter()
        .map(|d| d.code)
        .collect();
    codes.sort_unstable();
    codes
}

#[test]
fn wall_clock_fixture_hits_on_every_mention() {
    // Instant::now() once; SystemTime at the import, the call, and the
    // return type — mentions in the comment and string stay silent.
    assert_eq!(
        codes_at("wall_clock.rs", "crates/netsim/src/fixture.rs"),
        ["TL001", "TL001", "TL001", "TL001"]
    );
}

#[test]
fn wall_clock_fixture_quiet_on_allowlisted_path() {
    let cfg = Config::parse("[no-wall-clock]\nallow-paths = [\"crates/harness\"]\n").unwrap();
    let mut f = SourceFile::analyze("crates/harness/src/fixture.rs", fixture("wall_clock.rs"));
    assert!(check_file(&mut f, &cfg).is_empty());
}

#[test]
fn unordered_fixture_hits_on_sim_path_only() {
    // Default config: the rule applies everywhere — import + 2 uses.
    assert_eq!(
        codes_at("unordered.rs", "crates/netsim/src/fixture.rs"),
        ["TL002", "TL002", "TL002", "TL002"]
    );
    // Scoped config: driver paths are exempt.
    let cfg =
        Config::parse("[no-unordered-iteration]\napply-paths = [\"crates/netsim\"]\n").unwrap();
    let mut f = SourceFile::analyze("crates/harness/src/fixture.rs", fixture("unordered.rs"));
    assert!(check_file(&mut f, &cfg).is_empty());
}

#[test]
fn float_eq_fixture_hits_twice() {
    assert_eq!(
        codes_at("float_eq.rs", "crates/core/src/fixture.rs"),
        ["TL003", "TL003"]
    );
}

#[test]
fn panics_fixture_hits_in_lib_spares_tests_and_bins() {
    assert_eq!(
        codes_at("panics.rs", "crates/core/src/fixture.rs"),
        ["TL004", "TL004", "TL004"]
    );
    assert!(codes_at("panics.rs", "crates/core/tests/fixture.rs").is_empty());
    assert!(codes_at("panics.rs", "crates/core/src/bin/fixture.rs").is_empty());
}

#[test]
fn raw_literal_fixture_hits_once() {
    assert_eq!(
        codes_at("raw_literal.rs", "crates/netsim/src/fixture.rs"),
        ["TL005"]
    );
}

#[test]
fn missing_forbid_fires_only_at_crate_roots() {
    assert_eq!(
        codes_at("no_forbid_root.rs", "crates/core/src/lib.rs"),
        ["TL006"]
    );
    assert!(codes_at("no_forbid_root.rs", "crates/core/src/other.rs").is_empty());
}

#[test]
fn reasoned_suppression_silences_and_counts_as_used() {
    assert!(codes_at("suppress_ok.rs", "crates/netsim/src/fixture.rs").is_empty());
}

#[test]
fn bare_suppression_rejected_and_diagnostic_kept() {
    assert_eq!(
        codes_at("suppress_no_reason.rs", "crates/netsim/src/fixture.rs"),
        ["TL001", "TL007"]
    );
}

#[test]
fn stale_suppression_is_its_own_finding() {
    assert_eq!(
        codes_at("unused_suppress.rs", "crates/netsim/src/fixture.rs"),
        ["TL008"]
    );
}

#[test]
fn clean_fixture_is_silent_everywhere() {
    assert!(codes_at("clean.rs", "crates/netsim/src/fixture.rs").is_empty());
    assert!(codes_at("clean.rs", "crates/tcp/src/fixture.rs").is_empty());
    // As a crate root the same text still needs forbid(unsafe_code).
    assert_eq!(codes_at("clean.rs", "crates/core/src/lib.rs"), ["TL006"]);
}

#[test]
fn json_output_is_stable_and_parseable_shape() {
    let mut f = SourceFile::analyze(
        "crates/netsim/src/fixture.rs",
        fixture("suppress_no_reason.rs"),
    );
    let mut diags = check_file(&mut f, &Config::default());
    trim_lint::diag::sort(&mut diags);
    let json = trim_lint::diag::render_json(&diags, 1);
    // Versioned schema with the fields CI consumers rely on.
    assert!(json.contains("\"version\": 3"), "{json}");
    assert!(json.contains("\"code\": \"TL001\""), "{json}");
    assert!(json.contains("\"code\": \"TL007\""), "{json}");
    assert!(
        json.contains("\"summary\": {\"files\": 1, \"diagnostics\": 2}"),
        "{json}"
    );
    // Rendering twice is byte-identical (deterministic output).
    assert_eq!(json, trim_lint::diag::render_json(&diags, 1));
}
