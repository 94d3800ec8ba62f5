//! Output determinism: the whole point of the tool is policing
//! reproducibility, so its own reports must be byte-reproducible.
//! Two independent runs over the real workspace — fresh file walk,
//! fresh manifests — must render identical JSON.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has two ancestors")
        .to_path_buf()
}

#[test]
fn source_mode_json_is_byte_identical_across_runs() {
    let root = workspace_root();
    let cfg = trim_lint::load_config(&root).expect("Lint.toml parses");
    let r1 = trim_lint::run_workspace(&root, &cfg).expect("first run");
    let r2 = trim_lint::run_workspace(&root, &cfg).expect("second run");
    assert_eq!(
        trim_lint::diag::render_json(&r1.diagnostics, r1.files_scanned),
        trim_lint::diag::render_json(&r2.diagnostics, r2.files_scanned)
    );
}
