//! # trim-lint — determinism & simulation-hygiene static analysis
//!
//! Every guarantee this workspace ships — byte-identical campaign
//! manifests at any `--jobs`, replayable fuzz corpora, golden CSVs —
//! rests on source-level discipline: no wall-clock reads in simulation
//! code, no iteration over randomly-keyed maps, no exact float
//! comparisons in reductions, no panics aborting a half-written
//! campaign. The runtime monitors (`trim-check`) catch such bugs when
//! they corrupt a run; this crate catches the whole bug *class* before
//! anything runs, at the source level.
//!
//! The analyzer is std-only and from scratch: a lossless lexer
//! ([`lexer`]), per-file context extraction ([`context`]: file roles,
//! `#[cfg(test)]` regions, inline suppressions), a rule catalog of
//! per-file token rules ([`rules`]: `TL001`–`TL008`, `TL203`, `TL204`),
//! two workspace-level passes ([`workspace`]: `TL205` monitor coverage
//! and `TL206`, which keeps the simulation crates' dependency closure
//! inside the scope the token rules judge — the reason no call graph is
//! needed), and an experiment-artifact cross-checker ([`artifacts`]:
//! codes `TL101`–`TL104`). Configuration lives in the workspace-root
//! `Lint.toml` ([`config`]); findings render as text or versioned JSON
//! ([`diag`]).
//!
//! Suppressions are inline comments with a mandatory reason:
//!
//! ```text
//! let t0 = Instant::now(); // trim-lint: allow(no-wall-clock, reason = "progress display only")
//! ```
//!
//! Exit-code contract of the `trim-lint` binary: `0` clean, `1` at
//! least one diagnostic, `2` usage or I/O error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(
    not(test),
    deny(clippy::dbg_macro, clippy::print_stdout, clippy::float_cmp)
)]

use std::fs;
use std::path::{Path, PathBuf};

pub mod artifacts;
pub mod config;
pub mod context;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod workspace;

pub use config::Config;
pub use diag::Diagnostic;

/// Result of a workspace scan.
#[derive(Clone, Debug)]
pub struct Report {
    /// Findings, already in deterministic report order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Loads `Lint.toml` from the workspace root, or the permissive default
/// configuration (every rule everywhere) when the file is absent.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("Lint.toml");
    if !path.is_file() {
        return Ok(Config::default());
    }
    let text = fs::read_to_string(&path).map_err(|e| format!("cannot read Lint.toml: {e}"))?;
    Config::parse(&text)
}

/// Collects every `.rs` file under `root` that the config does not
/// exclude, as sorted workspace-relative paths (determinism: two scans
/// of the same tree visit files in the same order).
pub fn collect_files(root: &Path, cfg: &Config) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    walk(root, root, cfg, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, cfg: &Config, out: &mut Vec<String>) -> Result<(), String> {
    let rd = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = rd.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let rel = rel_path(root, &path);
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            // `target` and VCS internals are never interesting; other
            // exclusions come from the config.
            if name == "target" || name.starts_with('.') || cfg.is_excluded(&rel) {
                continue;
            }
            walk(root, &path, cfg, out)?;
        } else if name.ends_with(".rs") && !cfg.is_excluded(&rel) {
            out.push(rel);
        }
    }
    Ok(())
}

/// Workspace-relative path with `/` separators.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let s: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    s.join("/")
}

/// Runs every source rule over the workspace at `root` under `cfg`:
/// the per-file rules on each file, then the two workspace-level passes.
pub fn run_workspace(root: &Path, cfg: &Config) -> Result<Report, String> {
    let mut diagnostics = Vec::new();
    let mut files = Vec::new();
    for rel in collect_files(root, cfg)? {
        let src =
            fs::read_to_string(root.join(&rel)).map_err(|e| format!("cannot read {rel}: {e}"))?;
        let mut file = context::SourceFile::analyze(&rel, src);
        diagnostics.extend(rules::check_file(&mut file, cfg));
        files.push(file);
    }
    workspace::monitor_coverage(cfg, &files, &mut diagnostics);
    workspace::dependency_closure(root, cfg, &mut diagnostics)?;
    diag::sort(&mut diagnostics);
    Ok(Report {
        diagnostics,
        files_scanned: files.len(),
    })
}

/// Runs the artifact cross-checker (`--artifacts`) at `root`.
pub fn run_artifacts(root: &Path) -> Result<Report, String> {
    let mut diagnostics = artifacts::check_artifacts(root)?;
    diag::sort(&mut diagnostics);
    Ok(Report {
        diagnostics,
        files_scanned: 0,
    })
}

/// Ascends from `start` to the nearest directory containing `Lint.toml`
/// (the workspace root marker for this tool).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    for _ in 0..8 {
        if dir.join("Lint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            break;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_path_uses_forward_slashes() {
        let root = Path::new("/a/b");
        assert_eq!(
            rel_path(root, Path::new("/a/b/crates/x/src/l.rs")),
            "crates/x/src/l.rs"
        );
    }

    #[test]
    fn default_config_when_lint_toml_absent() {
        let cfg = load_config(Path::new("/nonexistent-dir-for-trim-lint")).unwrap();
        assert!(cfg.rules.is_empty());
        assert!(cfg.rule_applies("no-wall-clock", "anything.rs"));
    }
}
