//! Diagnostics: stable codes, deterministic ordering, and the text and
//! JSON renderings.
//!
//! Output must itself be deterministic (this is the determinism linter):
//! diagnostics sort by `(path, line, code, message)` and the JSON schema
//! is versioned and covered by a stability test, so CI consumers can
//! parse it without chasing format drift.

use std::fmt;

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, `TL001`…; artifact checks use `TL1xx`, the
    /// sim-closure checks `TL2xx`.
    pub code: &'static str,
    /// Rule name as used in suppressions and `Lint.toml` sections.
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line (0 for whole-file / whole-workspace findings).
    pub line: u32,
    /// Human-readable description with the how-to-fix.
    pub message: String,
}

impl Diagnostic {
    /// The deterministic report order.
    pub fn sort_key(&self) -> (String, u32, &'static str, String) {
        (
            self.path.clone(),
            self.line,
            self.code,
            self.message.clone(),
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}] {}",
            self.path, self.line, self.code, self.rule, self.message
        )
    }
}

/// Sorts diagnostics into report order.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by_key(|d| d.sort_key());
}

/// Escapes a string for JSON output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable report.
///
/// Schema (version 3 — every finding fails the run, so v2's
/// per-diagnostic level field is gone):
/// ```json
/// {
///   "version": 3,
///   "diagnostics": [
///     {"code": "TL001", "rule": "no-wall-clock", "path": "crates/x/src/a.rs",
///      "line": 12, "message": "..."}
///   ],
///   "summary": {"files": 120, "diagnostics": 1}
/// }
/// ```
/// Diagnostics are pre-sorted; two runs over the same tree produce
/// byte-identical output.
pub fn render_json(diags: &[Diagnostic], files_scanned: usize) -> String {
    let mut out = String::from("{\n  \"version\": 3,\n  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"code\": \"{}\", \"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            d.code,
            d.rule,
            json_escape(&d.path),
            d.line,
            json_escape(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"summary\": {{\"files\": {}, \"diagnostics\": {}}}\n}}\n",
        files_scanned,
        diags.len()
    ));
    out
}

/// Renders the human-readable report (one line per diagnostic plus a
/// summary line).
pub fn render_text(diags: &[Diagnostic], files_scanned: usize) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out.push_str(&format!(
        "trim-lint: {} file(s) scanned, {} diagnostic(s)\n",
        files_scanned,
        diags.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(code: &'static str, rule: &'static str, path: &str, line: u32, msg: &str) -> Diagnostic {
        Diagnostic {
            code,
            rule,
            path: path.to_string(),
            line,
            message: msg.to_string(),
        }
    }

    #[test]
    fn sorting_is_total_and_stable() {
        let mut v = vec![
            d("TL004", "no-panic-in-library", "b.rs", 3, "x"),
            d("TL001", "no-wall-clock", "a.rs", 9, "x"),
            d("TL001", "no-wall-clock", "a.rs", 2, "x"),
        ];
        sort(&mut v);
        assert_eq!(v[0].path, "a.rs");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[2].path, "b.rs");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_report_renders_empty_array() {
        let j = render_json(&[], 5);
        assert!(j.contains("\"diagnostics\": []"));
        assert!(j.contains("\"files\": 5"));
    }
}
