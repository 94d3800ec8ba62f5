//! The two workspace-level passes of source mode, run once after every
//! file has been checked on its own.
//!
//! TL206 (`sim-dependency-closure`) is what lets per-file token rules
//! stand in for an interprocedural analysis: a function in a scoped
//! crate can only call into that crate's dependency closure, so if every
//! crate of the closure is itself scoped, "no sim-path function reaches a
//! nondeterminism source through helpers" is the same statement as "no
//! source token in a scoped file" — which TL001/TL002/TL204 decide. The
//! pass reads the manifests and reports any edge that leaves the set.
//!
//! TL205 (`monitor-coverage`) cross-checks the `MonitorEvent` catalog
//! against its emission and consumption sites across all files.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::config::Config;
use crate::context::SourceFile;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::rules::{diag_at, sig_text};

/// One `[dependencies]` entry of a scoped crate that resolves to a
/// directory in this workspace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathDep {
    /// Workspace-relative manifest declaring it (`crates/tcp/Cargo.toml`).
    pub manifest: String,
    /// 1-based line of the entry in that manifest.
    pub line: u32,
    /// Dependency name as written (`trim-core`).
    pub name: String,
    /// Workspace-relative directory it resolves to (`crates/core`).
    pub dir: String,
}

/// What TL206 looked at: the manifests of the scoped crates and every
/// path dependency they declare.
#[derive(Clone, Debug, Default)]
pub struct Closure {
    /// Manifests read, in `apply-paths` order.
    pub manifests: Vec<String>,
    /// Their path dependencies, in manifest order.
    pub deps: Vec<PathDep>,
}

/// The rule whose `apply-paths` *is* the simulation scope.
const SCOPE_RULE: &str = "no-unordered-iteration";

/// Reads the `[dependencies]` table (never `[dev-dependencies]`: tests
/// may link anything) of every crate directory listed under
/// `[no-unordered-iteration] apply-paths`.
pub fn sim_closure(root: &Path, cfg: &Config) -> Result<Closure, String> {
    let mut out = Closure::default();
    let scope = cfg.rule(SCOPE_RULE).apply_paths.unwrap_or_default();
    if scope.is_empty() {
        return Ok(out);
    }
    let read = |rel: &str| {
        fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
    };
    // `name.workspace = true` resolves through the root manifest (which
    // a workspace without shared dependencies need not have).
    let root_manifest = if root.join("Cargo.toml").is_file() {
        read("Cargo.toml")?
    } else {
        String::new()
    };
    let shared: BTreeMap<String, String> =
        dependency_paths(&root_manifest, "workspace.dependencies")
            .into_iter()
            .filter_map(|(name, _, path)| Some((name, normalize("", &path?))))
            .collect();
    for dir in &scope {
        let manifest = format!("{}/Cargo.toml", dir.trim_end_matches('/'));
        if !root.join(&manifest).is_file() {
            continue; // a file or sub-directory entry, not a crate
        }
        for (name, line, path) in dependency_paths(&read(&manifest)?, "dependencies") {
            let resolved = match path {
                Some(p) => Some(normalize(dir, &p)),
                None => shared.get(&name).cloned(),
            };
            // Registry dependencies have no directory to scope.
            if let Some(dir) = resolved {
                out.deps.push(PathDep {
                    manifest: manifest.clone(),
                    line,
                    name,
                    dir,
                });
            }
        }
        out.manifests.push(manifest);
    }
    Ok(out)
}

/// TL206: every path dependency of a scoped crate must itself be scoped.
pub fn dependency_closure(
    root: &Path,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) -> Result<(), String> {
    const RULE: &str = "sim-dependency-closure";
    for dep in sim_closure(root, cfg)?.deps {
        if cfg.rule_applies(RULE, &dep.manifest) && !cfg.rule_applies(SCOPE_RULE, &dep.dir) {
            out.push(diag_at(
                RULE,
                &dep.manifest,
                dep.line,
                format!(
                    "simulation crate depends on `{}` ({}), which is outside \
                     [{SCOPE_RULE}] apply-paths: its code runs on the sim path \
                     unchecked — add it to the determinism scopes in Lint.toml or \
                     drop the dependency",
                    dep.name, dep.dir
                ),
            ));
        }
    }
    Ok(())
}

/// The entries of one dependency table of a `Cargo.toml`, as
/// `(name, line, path)`: `foo = { path = "../foo" }` carries a path,
/// `foo.workspace = true` / `foo = { workspace = true }` / `foo = "1"`
/// do not. The same hand-rolled-subset philosophy as `Lint.toml`.
fn dependency_paths(manifest: &str, table: &str) -> Vec<(String, u32, Option<String>)> {
    let mut out = Vec::new();
    let mut in_table = false;
    for (n, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(s) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            in_table = s.trim() == table;
            continue;
        }
        if !in_table {
            continue;
        }
        let name = line
            .split(['=', '.'])
            .next()
            .unwrap_or_default()
            .trim()
            .trim_matches('"');
        if name.is_empty() {
            continue;
        }
        let path = line
            .split_once("path")
            .and_then(|(_, rest)| rest.trim_start().strip_prefix('='))
            .and_then(|rest| rest.split('"').nth(1));
        out.push((name.to_string(), n as u32 + 1, path.map(str::to_string)));
    }
    out
}

/// Joins a manifest-relative dependency path onto its crate directory
/// and folds `.`/`..`, giving a workspace-relative directory.
fn normalize(base: &str, path: &str) -> String {
    let mut parts: Vec<&str> = base.split('/').filter(|p| !p.is_empty()).collect();
    for p in path.split('/') {
        match p {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            p => parts.push(p),
        }
    }
    parts.join("/")
}

/// TL205: cross-checks the `MonitorEvent` catalog. Every variant must
/// be **emitted** by at least one non-test sim site (expression
/// position) and **consumed** by at least one monitor or test (pattern
/// position: `match` arm, `if let`/`let … else`, an or-pattern, or the
/// pattern argument of `matches!`). A variant failing either leg is dead
/// telemetry or an invariant nobody checks. Lexical by design.
pub fn monitor_coverage(cfg: &Config, files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    const RULE: &str = "monitor-coverage";
    // The defining file: wherever `enum MonitorEvent` lives (exactly one
    // in this workspace; fixtures define their own).
    let Some((def_src, variants)) = files
        .iter()
        .find_map(|src| Some((src, enum_variants(src, "MonitorEvent")?)))
        .filter(|(src, _)| cfg.rule_applies(RULE, &src.rel_path))
    else {
        return;
    };
    let mut emitted: BTreeMap<&str, bool> = BTreeMap::new();
    let mut consumed: BTreeMap<&str, bool> = BTreeMap::new();
    for (v, _) in &variants {
        emitted.insert(v, false);
        consumed.insert(v, false);
    }
    for src in files {
        scan_event_uses(src, &variants, &mut emitted, &mut consumed, def_src);
    }
    for (v, line) in &variants {
        if !emitted[v.as_str()] {
            out.push(diag_at(
                RULE,
                &def_src.rel_path,
                *line,
                format!(
                    "MonitorEvent::{v} is never emitted by any non-test sim site: \
                     dead telemetry — emit it or retire the variant"
                ),
            ));
        }
        if !consumed[v.as_str()] {
            out.push(diag_at(
                RULE,
                &def_src.rel_path,
                *line,
                format!(
                    "MonitorEvent::{v} is consumed by no monitor or test: the \
                     invariant it reports is checked nowhere — add a trim-check \
                     monitor (or a test) that observes it"
                ),
            ));
        }
    }
}

/// Extracts `(variant, line)` pairs of `enum NAME { … }` from a file,
/// or `None` if the file does not define it.
pub fn enum_variants(src: &SourceFile, name: &str) -> Option<Vec<(String, u32)>> {
    let text = |k: usize| -> Option<&str> { src.sig.get(k).map(|&i| src.text(&src.tokens[i])) };
    let mut k = 0usize;
    loop {
        if text(k)? == "enum" && text(k + 1) == Some(name) {
            break;
        }
        k += 1;
    }
    // Advance to the opening brace (skipping generics, none expected).
    let mut j = k + 2;
    while text(j).is_some_and(|t| t != "{") {
        j += 1;
    }
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut expect_variant = false;
    while let Some(t) = text(j) {
        match t {
            "{" | "(" | "[" => {
                depth += 1;
                if depth == 1 {
                    expect_variant = true;
                }
            }
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => expect_variant = true,
            "#" if depth == 1 => {
                // Skip the attribute's bracket group.
                let mut ad = 0i32;
                j += 1;
                while let Some(at) = text(j) {
                    match at {
                        "[" => ad += 1,
                        "]" => {
                            ad -= 1;
                            if ad == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            _ => {
                if depth == 1 && expect_variant {
                    let tok = &src.tokens[src.sig[j]];
                    if tok.kind == TokenKind::Ident {
                        variants.push((t.to_string(), tok.line));
                    }
                    expect_variant = false;
                }
            }
        }
        j += 1;
    }
    Some(variants)
}

/// Whether significant token `k` sits in the pattern argument of a
/// `matches!(expr, PATTERN)` call: walking outwards through enclosing
/// `(`/`[` groups, some group is `matches!(` and a comma at that
/// group's level separates its opener from `k`.
fn in_matches_pattern(src: &SourceFile, k: usize) -> bool {
    let text = |k: usize| sig_text(src, k);
    let mut depth = 0i32;
    let mut comma = false;
    for j in (0..k).rev() {
        match text(j) {
            Some(")" | "]" | "}") => depth += 1,
            Some("(" | "[" | "{") if depth > 0 => depth -= 1,
            Some("(") => {
                if comma && j >= 2 && text(j - 1) == Some("!") && text(j - 2) == Some("matches") {
                    return true;
                }
                comma = false; // one group further out
            }
            Some("[") => comma = false,
            // Leaving a block or a statement: no macro call encloses `k`.
            Some("{" | ";") if depth == 0 => return false,
            Some(",") if depth == 0 => comma = true,
            _ => {}
        }
    }
    false
}

/// Classifies every `MonitorEvent::Variant` occurrence in one file.
fn scan_event_uses<'v>(
    src: &SourceFile,
    variants: &'v [(String, u32)],
    emitted: &mut BTreeMap<&'v str, bool>,
    consumed: &mut BTreeMap<&'v str, bool>,
    def_src: &SourceFile,
) {
    let text = |k: usize| -> Option<&str> { src.sig.get(k).map(|&i| src.text(&src.tokens[i])) };
    for k in 0..src.sig.len() {
        if text(k) != Some("MonitorEvent") || text(k + 1) != Some("::") {
            continue;
        }
        let Some(v) = text(k + 2) else { continue };
        let Some(entry) = variants.iter().find(|(name, _)| name == v) else {
            continue;
        };
        let vname = entry.0.as_str();
        let pos = src.tokens[src.sig[k]].start;
        let in_test = src.in_test_region(pos);
        // Pattern position? `let`/`|` before, `=>`/`|` after the payload
        // group, or anywhere in the pattern argument of `matches!`.
        let prev = k.checked_sub(1).and_then(text);
        let mut j = k + 3;
        if text(j) == Some("{") || text(j) == Some("(") {
            let open = text(j).unwrap().to_string();
            let close = if open == "{" { "}" } else { ")" };
            let mut depth = 0i32;
            while let Some(t) = text(j) {
                if t == open {
                    depth += 1;
                } else if t == close {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        let next = text(j);
        let is_pattern = prev == Some("let")
            || prev == Some("|")
            || next == Some("=>")
            || next == Some("|")
            || in_matches_pattern(src, k);
        if is_pattern || in_test {
            consumed.insert(vname, true);
        } else if src.rel_path != def_src.rel_path {
            // Expression position outside tests and outside the defining
            // file's own plumbing: an emission site.
            emitted.insert(vname, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_variant_extraction_handles_payloads_and_attrs() {
        let src = SourceFile::analyze(
            "crates/netsim/src/monitor.rs",
            "pub enum MonitorEvent {\n\
             Clock { to: u64 },\n\
             #[allow(dead_code)]\n\
             Dropped(u32),\n\
             Plain,\n\
             }\n\
             pub struct Other { field: u32 }\n"
                .to_string(),
        );
        let v = enum_variants(&src, "MonitorEvent").unwrap();
        let names: Vec<&str> = v.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["Clock", "Dropped", "Plain"]);
    }

    #[test]
    fn event_use_classification() {
        let defsrc = SourceFile::analyze(
            "crates/netsim/src/monitor.rs",
            "pub enum MonitorEvent { A { x: u64 }, B, C { y: u64 }, D { z: u64 } }".to_string(),
        );
        let variants = enum_variants(&defsrc, "MonitorEvent").unwrap();
        let user = SourceFile::analyze(
            "crates/netsim/src/sim.rs",
            "fn emit_site(s: &mut S) { s.emit(MonitorEvent::A { x: 1 }); }\n\
             fn consume(ev: &MonitorEvent) { match ev { MonitorEvent::C { y } => {}, _ => {} } }\n\
             fn watch(ev: &MonitorEvent) -> bool { matches!(ev, MonitorEvent::D { .. }) }\n"
                .to_string(),
        );
        let mut emitted: BTreeMap<&str, bool> =
            variants.iter().map(|(v, _)| (v.as_str(), false)).collect();
        let mut consumed: BTreeMap<&str, bool> =
            variants.iter().map(|(v, _)| (v.as_str(), false)).collect();
        scan_event_uses(&user, &variants, &mut emitted, &mut consumed, &defsrc);
        assert!(emitted["A"] && !consumed["A"]);
        assert!(!emitted["B"] && !consumed["B"]);
        assert!(consumed["C"] && !emitted["C"]);
        assert!(consumed["D"] && !emitted["D"]);
    }

    #[test]
    fn dependency_tables_resolve_to_workspace_directories() {
        let manifest = "[package]\nname = \"sim\"\n\n[dependencies]\n\
                        # comment\n\
                        util = { path = \"../util\" }\n\
                        netsim.workspace = true\n\
                        serde = \"1\"\n\n\
                        [dev-dependencies]\nharness = { path = \"../harness\" }\n";
        let deps = dependency_paths(manifest, "dependencies");
        assert_eq!(
            deps,
            [
                ("util".to_string(), 6, Some("../util".to_string())),
                ("netsim".to_string(), 7, None),
                ("serde".to_string(), 8, None),
            ]
        );
        assert_eq!(normalize("crates/sim", "../util"), "crates/util");
        assert_eq!(normalize("", "crates/compat/rand"), "crates/compat/rand");
        assert_eq!(normalize("crates/sim", "./sub/../x"), "crates/sim/x");
    }
}
