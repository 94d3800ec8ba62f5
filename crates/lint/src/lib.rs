//! # trim-lint — the scanners behind the workspace's hygiene tests
//!
//! Most of the workspace's source discipline is clippy lints
//! (`crates/clippy.toml` and `[workspace.lints]`). The rules that need
//! more than one file to decide are tests in the root package's
//! `tests/hygiene.rs`; this crate holds the text scanning they share,
//! so that each piece is tested on its own:
//!
//! - [`lexer`] blanks comments and literals and finds decimal integer
//!   literals;
//! - [`context`] blanks test-only items;
//! - [`workspace`] reads a manifest's dependency table;
//! - [`artifacts`] matches experiment ids and artifact names against
//!   EXPERIMENTS.md headings and experiment sources.
//!
//! There is no syntax tree. Each scanner works on bytes and keeps every
//! byte offset and line number of its input, which is all the checks
//! need. DESIGN.md, "Hygiene lints", maps each rule to its check.

#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::print_stdout))]
#![warn(missing_docs)]

use std::fs;
use std::io;
use std::path::Path;

pub mod artifacts;
pub mod context;
pub mod lexer;
pub mod workspace;

/// Every file under `root/dir` whose root-relative path ends in
/// `suffix`, as sorted root-relative paths.
pub fn files(root: &Path, dir: &str, suffix: &str) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.join(dir)];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let path = entry?.path();
            let rel = rel_path(root, &path);
            if path.is_dir() {
                stack.push(path);
            } else if rel.ends_with(suffix) {
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// `path` relative to `root`, with `/` separators on every platform.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
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
    fn files_walks_sorted_and_filters_by_suffix() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let found = files(root, "src", ".rs").expect("src is readable");
        assert_eq!(
            found,
            [
                "src/artifacts.rs",
                "src/context.rs",
                "src/lexer.rs",
                "src/lib.rs",
                "src/workspace.rs"
            ]
        );
    }
}
