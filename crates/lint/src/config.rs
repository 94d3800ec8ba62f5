//! `Lint.toml` — the analyzer's configuration.
//!
//! A deliberately small TOML subset, parsed by hand (the workspace
//! builds offline; no `toml` crate): top-level `exclude`, then one
//! `[rule-name]` section per rule with `apply-paths` and `allow-paths`
//! keys. Arrays of strings may span lines. Anything the parser does not
//! understand — a key, or a section that names no rule — is a hard
//! error: a silently ignored config line is how a lint rots.
//!
//! Path semantics: every entry is a workspace-relative prefix. A rule
//! with `apply-paths` runs only on files under one of those prefixes; a
//! rule's `allow-paths` carves out files the rule never judges (the
//! documented alternative to inline suppressions for whole components,
//! e.g. the wall-clock allowlist for the harness).

use std::collections::BTreeMap;

use crate::rules;

/// Per-rule configuration.
#[derive(Clone, Debug, Default)]
pub struct RuleConfig {
    /// When set, the rule only runs on files under these prefixes.
    pub apply_paths: Option<Vec<String>>,
    /// Files under these prefixes are exempt.
    pub allow_paths: Vec<String>,
}

/// The whole configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Workspace-relative prefixes never scanned at all.
    pub exclude: Vec<String>,
    /// Rule sections by rule name.
    pub rules: BTreeMap<String, RuleConfig>,
}

impl Config {
    /// Parses `Lint.toml` text.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section: Option<String> = None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((n, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim();
                if rules::RETIRED_RULES.contains(&name) {
                    return Err(format!(
                        "Lint.toml:{}: rule `{name}` was removed from trim-lint; \
                         delete its section",
                        n + 1
                    ));
                }
                if !rules::configurable(name) {
                    return Err(format!(
                        "Lint.toml:{}: unknown section `[{name}]`: no source rule \
                         has that name (see `trim-lint --list-rules`)",
                        n + 1
                    ));
                }
                section = Some(name.to_string());
                cfg.rules.entry(name.to_string()).or_default();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("Lint.toml:{}: expected `key = value`", n + 1));
            };
            let key = key.trim();
            let mut value = value.trim().to_string();
            // Multi-line arrays: keep consuming lines until brackets
            // close (strings in our config never contain brackets).
            while value.starts_with('[') && !brackets_balanced(&value) {
                let Some((_, next)) = lines.next() else {
                    return Err(format!("Lint.toml:{}: unterminated array", n + 1));
                };
                value.push(' ');
                value.push_str(strip_comment(next).trim());
            }
            match (&section, key) {
                (None, "exclude") => cfg.exclude = parse_string_array(&value, n)?,
                (None, k) => {
                    return Err(format!("Lint.toml:{}: unknown top-level key `{k}`", n + 1))
                }
                (Some(rule), k) => {
                    let rc = cfg.rules.entry(rule.clone()).or_default();
                    match k {
                        "apply-paths" => rc.apply_paths = Some(parse_string_array(&value, n)?),
                        "allow-paths" => rc.allow_paths = parse_string_array(&value, n)?,
                        k => {
                            return Err(format!(
                                "Lint.toml:{}: unknown key `{k}` in [{rule}]",
                                n + 1
                            ))
                        }
                    }
                }
            }
        }
        Ok(cfg)
    }

    /// The configuration for one rule (defaults when absent).
    pub fn rule(&self, name: &str) -> RuleConfig {
        self.rules.get(name).cloned().unwrap_or_default()
    }

    /// Whether `rel_path` is excluded from scanning entirely.
    pub fn is_excluded(&self, rel_path: &str) -> bool {
        self.exclude.iter().any(|p| path_under(rel_path, p))
    }

    /// Whether a rule judges a given file, per its section.
    pub fn rule_applies(&self, rule: &str, rel_path: &str) -> bool {
        let rc = self.rule(rule);
        if let Some(apply) = &rc.apply_paths {
            if !apply.iter().any(|p| path_under(rel_path, p)) {
                return false;
            }
        }
        !rc.allow_paths.iter().any(|p| path_under(rel_path, p))
    }
}

/// Prefix match on path components: `crates/tcp` covers
/// `crates/tcp/src/conn.rs` but not `crates/tcp2/...`.
fn path_under(path: &str, prefix: &str) -> bool {
    let prefix = prefix.trim_end_matches('/');
    path == prefix || path.starts_with(&format!("{prefix}/"))
}

fn strip_comment(line: &str) -> &str {
    // `#` starts a comment unless inside a quoted string.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn brackets_balanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_string_array(value: &str, line_no: usize) -> Result<Vec<String>, String> {
    let inner = value
        .trim()
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("Lint.toml:{}: expected a [\"...\"] array", line_no + 1))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue; // trailing comma
        }
        let s = item
            .strip_prefix('"')
            .and_then(|i| i.strip_suffix('"'))
            .ok_or_else(|| format!("Lint.toml:{}: array items must be quoted", line_no + 1))?;
        out.push(s.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# workspace config
exclude = ["target", "crates/lint/tests/fixtures"]

[no-wall-clock]
allow-paths = [
  "crates/harness",   # campaign timing
  "crates/perf",
]

[no-raw-unit-literal]
apply-paths = ["crates/netsim"]
allow-paths = ["crates/netsim/src/units.rs"]
"#;

    #[test]
    fn parses_sections_and_arrays() {
        let c = Config::parse(SAMPLE).unwrap();
        assert!(c.is_excluded("target/debug/foo.rs"));
        assert!(c.is_excluded("crates/lint/tests/fixtures/bad.rs"));
        assert!(!c.is_excluded("crates/lint/tests/fixtures_test.rs"));
        assert!(!c.rule_applies("no-wall-clock", "crates/harness/src/engine.rs"));
        assert!(c.rule_applies("no-wall-clock", "crates/bench/src/lib.rs"));
        assert!(c.rule_applies("no-raw-unit-literal", "crates/netsim/src/time.rs"));
        assert!(!c.rule_applies("no-raw-unit-literal", "crates/netsim/src/units.rs"));
        assert!(!c.rule_applies("no-raw-unit-literal", "crates/tcp/src/conn.rs"));
        assert!(c.rule_applies("no-panic-in-library", "anything.rs"));
    }

    #[test]
    fn prefix_matching_respects_components() {
        assert!(path_under("crates/tcp/src/a.rs", "crates/tcp"));
        assert!(!path_under("crates/tcp2/src/a.rs", "crates/tcp"));
        assert!(path_under("crates/tcp", "crates/tcp"));
    }

    #[test]
    fn unknown_keys_are_hard_errors() {
        assert!(Config::parse("mystery = 3\n").is_err());
        assert!(Config::parse("[no-wall-clock]\ncolor = \"red\"\n").is_err());
        assert!(Config::parse("[no-wall-clock]\nenabled = flase\n").is_err());
    }

    #[test]
    fn unknown_sections_are_hard_errors() {
        // A typo must not parse as a rule nobody runs.
        let e = Config::parse("exclude = []\n[no-wall-clok]\nallow-paths = []\n").unwrap_err();
        assert!(
            e.contains("Lint.toml:2") && e.contains("no-wall-clok"),
            "{e}"
        );
        // Artifact rules read no configuration, so a section is a typo too.
        assert!(Config::parse("[artifact-results-csv]\n").is_err());
        // Retired rules say so instead of "unknown".
        let e = Config::parse("[transitive-wall-clock]\napply-paths = []\n").unwrap_err();
        assert!(e.contains("Lint.toml:1") && e.contains("removed"), "{e}");
    }

    #[test]
    fn multi_line_arrays() {
        let c = Config::parse("exclude = [\n \"a\",\n \"b\",\n]\n").unwrap();
        assert_eq!(c.exclude, ["a", "b"]);
    }
}
