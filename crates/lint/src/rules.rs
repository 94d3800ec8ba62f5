//! The rule catalog and the per-file checking driver.
//!
//! Every rule is a pattern over significant tokens plus file context.
//! The driver runs each enabled rule, applies inline suppressions, and
//! then judges the suppressions themselves: a suppression without a
//! reason is rejected (TL007, and the underlying diagnostic still
//! fires), and a suppression that suppressed nothing is dead weight
//! (TL008).

use crate::config::Config;
use crate::context::{FileRole, SourceFile};
use crate::diag::Diagnostic;
use crate::lexer::{decimal_int_value, TokenKind};

/// Descriptor of one rule, for `--list-rules` and the docs.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable diagnostic code.
    pub code: &'static str,
    /// Name used in `Lint.toml` sections and suppressions.
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// The source-level rules, in code order.
pub const SOURCE_RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "TL001",
        name: "no-wall-clock",
        summary: "Instant::now()/SystemTime are forbidden outside the harness allowlist: \
                  wall-clock reads make runs irreproducible",
    },
    RuleInfo {
        code: "TL002",
        name: "no-unordered-iteration",
        summary: "std HashMap/HashSet are banned on simulation paths: iteration order is \
                  per-process random; use netsim's FastHashMap or a BTreeMap",
    },
    RuleInfo {
        code: "TL003",
        name: "no-float-eq",
        summary: "== / != on float operands; route comparisons through the Tolerance \
                  machinery in trim-check",
    },
    RuleInfo {
        code: "TL004",
        name: "no-panic-in-library",
        summary: "unwrap/expect/panic!/todo!/unimplemented! in library code; return a \
                  typed error or annotate why the panic is unreachable",
    },
    RuleInfo {
        code: "TL005",
        name: "no-raw-unit-literal",
        summary: "large bare numeric literal on a simulation path; construct times via \
                  Dur/SimTime and rates via Bandwidth so units stay visible",
    },
    RuleInfo {
        code: "TL006",
        name: "forbid-unsafe",
        summary: "crate root lacks #![forbid(unsafe_code)]; every crate in this workspace \
                  compiles without unsafe and must stay that way",
    },
    RuleInfo {
        code: "TL007",
        name: "suppression-hygiene",
        summary: "malformed trim-lint suppression: unknown rule name or missing \
                  reason = \"...\" (a justification is mandatory)",
    },
    RuleInfo {
        code: "TL008",
        name: "unused-suppression",
        summary: "suppression that suppressed nothing; remove it so allows stay honest",
    },
];

/// The sim-closure rules, in code order: what keeps the simulation
/// crates' dependency closure free of nondeterminism sources and shared
/// mutable state. TL203/TL204 are per-file token rules like the ones
/// above; TL205/TL206 are workspace-level passes ([`crate::workspace`]).
/// TL201/TL202 (the retired call-graph taint rules) are not reused.
pub const CLOSURE_RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "TL203",
        name: "shard-safety",
        summary: "shared-mutable-state site in a sim crate (static mut, thread_local!, \
                  Rc/RefCell/Cell, interior-mutable static): sim state must be owned by \
                  the simulator it belongs to, never global or aliased",
    },
    RuleInfo {
        code: "TL204",
        name: "unseeded-randomness",
        summary: "ambient-entropy identifier (thread_rng/from_entropy/OsRng/getrandom/\
                  SystemRandom/RandomState) on a simulation path; every PRNG derives \
                  from the splitmix64 seed chain",
    },
    RuleInfo {
        code: "TL205",
        name: "monitor-coverage",
        summary: "MonitorEvent variant not emitted by any sim site or consumed by no \
                  monitor/test: dead telemetry or an invariant nobody checks",
    },
    RuleInfo {
        code: "TL206",
        name: "sim-dependency-closure",
        summary: "crate under [no-unordered-iteration] apply-paths has a [dependencies] \
                  path outside that list: the per-file determinism rules only decide \
                  the sim path if its dependency closure is scoped too",
    },
];

/// Section names of rules this tool once had; `Lint.toml` rejects them
/// with a "was removed" message rather than a generic "unknown".
pub const RETIRED_RULES: &[&str] = &["transitive-wall-clock", "transitive-unordered-iteration"];

/// The artifact cross-checker rules (`--artifacts`), in code order.
pub const ARTIFACT_RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "TL101",
        name: "artifact-experiment-doc",
        summary: "registered experiment has no EXPERIMENTS.md section heading",
    },
    RuleInfo {
        code: "TL102",
        name: "artifact-results-csv",
        summary: "declared results CSV missing from results/, or committed CSV declared \
                  by no experiment",
    },
    RuleInfo {
        code: "TL103",
        name: "artifact-stale-declaration",
        summary: "artifact declared in the registry but never produced by its experiment \
                  module",
    },
    RuleInfo {
        code: "TL104",
        name: "artifact-corpus-spec",
        summary: "corpus spec fails trim_workload::spec validation or text round-trip",
    },
];

/// Rules an inline suppression may name: the first six source rules
/// plus the two per-file closure rules (the hygiene rules themselves
/// are not suppressible; workspace-level and artifact findings are
/// fixed at the site, not waved through by a comment).
fn suppressible_rules() -> impl Iterator<Item = &'static RuleInfo> {
    SOURCE_RULES[..6].iter().chain(&CLOSURE_RULES[..2])
}

/// Whether an inline suppression may name `name`.
pub fn suppressible(name: &str) -> bool {
    suppressible_rules().any(|r| r.name == name)
}

/// A rule that runs under a [`Config`] (artifact checks take none), by
/// name.
fn find(name: &str) -> Option<&'static RuleInfo> {
    SOURCE_RULES
        .iter()
        .chain(CLOSURE_RULES)
        .find(|r| r.name == name)
}

/// Whether `Lint.toml` may carry a `[name]` section.
pub fn configurable(name: &str) -> bool {
    find(name).is_some()
}

/// A finding of source/closure rule `name` at `path:line`.
pub(crate) fn diag_at(name: &'static str, path: &str, line: u32, message: String) -> Diagnostic {
    let ri = find(name).unwrap_or(&SOURCE_RULES[0]);
    Diagnostic {
        code: ri.code,
        rule: ri.name,
        path: path.to_string(),
        line,
        message,
    }
}

fn diag(name: &'static str, file: &SourceFile, line: u32, message: String) -> Diagnostic {
    diag_at(name, &file.rel_path, line, message)
}

/// Checks one file: runs every rule enabled for it, applies inline
/// suppressions, and reports suppression-hygiene findings.
pub fn check_file(file: &mut SourceFile, cfg: &Config) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    if cfg.rule_applies("no-wall-clock", &file.rel_path) {
        no_wall_clock(file, &mut raw);
    }
    if cfg.rule_applies("no-unordered-iteration", &file.rel_path) {
        no_unordered_iteration(file, &mut raw);
    }
    if cfg.rule_applies("no-float-eq", &file.rel_path) {
        no_float_eq(file, &mut raw);
    }
    if cfg.rule_applies("no-panic-in-library", &file.rel_path) {
        no_panic_in_library(file, &mut raw);
    }
    if cfg.rule_applies("no-raw-unit-literal", &file.rel_path) {
        no_raw_unit_literal(file, &mut raw);
    }
    if cfg.rule_applies("forbid-unsafe", &file.rel_path) {
        forbid_unsafe(file, &mut raw);
    }
    if cfg.rule_applies("shard-safety", &file.rel_path) {
        shard_safety(file, &mut raw);
    }
    if cfg.rule_applies("unseeded-randomness", &file.rel_path) {
        unseeded_randomness(file, &mut raw);
    }

    // Apply suppressions: a diagnostic is dropped when a *valid*
    // suppression for its rule covers its line (or the whole file).
    let mut out = Vec::new();
    for d in raw {
        let mut hit = false;
        for s in file.suppressions.iter_mut() {
            if s.reason.is_some() && s.rule == d.rule && (s.file_scope || s.target_line == d.line) {
                s.used = true;
                hit = true;
            }
        }
        if !hit {
            out.push(d);
        }
    }

    // Judge the suppressions themselves.
    for s in &file.suppressions {
        if !suppressible(&s.rule) {
            out.push(diag(
                "suppression-hygiene",
                file,
                s.comment_line,
                format!(
                    "suppression names unknown or non-suppressible rule `{}`; \
                     suppressible rules: {}",
                    s.rule,
                    suppressible_rules()
                        .map(|r| r.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ));
        } else if s.reason.is_none() {
            out.push(diag(
                "suppression-hygiene",
                file,
                s.comment_line,
                format!(
                    "suppression of `{}` has no reason; write \
                     `// trim-lint: allow({}, reason = \"...\")` — the diagnostic \
                     it targets is still reported",
                    s.rule, s.rule
                ),
            ));
        } else if !s.used {
            out.push(diag(
                "unused-suppression",
                file,
                s.comment_line,
                format!(
                    "suppression of `{}` matched no diagnostic on line {}; remove it",
                    s.rule, s.target_line
                ),
            ));
        }
    }
    out
}

/// Iterator over significant tokens as `(sig_index, line, text)`.
fn sig_texts<'a>(file: &'a SourceFile) -> impl Iterator<Item = (usize, u32, &'a str)> + 'a {
    file.sig.iter().enumerate().map(move |(k, &i)| {
        let t = &file.tokens[i];
        (k, t.line, file.text(t))
    })
}

fn sig_kind(file: &SourceFile, k: usize) -> Option<TokenKind> {
    file.sig.get(k).map(|&i| file.tokens[i].kind)
}

pub(crate) fn sig_text(file: &SourceFile, k: usize) -> Option<&str> {
    file.sig.get(k).map(|&i| file.text(&file.tokens[i]))
}

fn sig_start(file: &SourceFile, k: usize) -> usize {
    file.tokens[file.sig[k]].start
}

/// TL001: `Instant::now` call paths and any `SystemTime` mention.
/// Applies to tests too — a wall-clock read in a test is how flaky
/// timing assertions are born; the config allowlist covers the harness
/// components whose job is wall-clock measurement.
fn no_wall_clock(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (k, line, text) in sig_texts(file) {
        let hit = match text {
            "Instant" => {
                sig_text(file, k + 1) == Some("::") && sig_text(file, k + 2) == Some("now")
            }
            "SystemTime" => true,
            _ => false,
        };
        if hit {
            out.push(diag(
                "no-wall-clock",
                file,
                line,
                format!(
                    "wall-clock read (`{text}`): simulation code must derive time from \
                     SimTime only; wall time belongs to the harness/perf allowlist"
                ),
            ));
        }
    }
}

/// TL002: any `HashMap`/`HashSet` identifier on a configured simulation
/// path. `FastHashMap`/`FastHashSet` (deterministically keyed) and
/// `BTreeMap` (ordered) are the sanctioned replacements.
fn no_unordered_iteration(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (_, line, text) in sig_texts(file) {
        if text == "HashMap" || text == "HashSet" {
            out.push(diag(
                "no-unordered-iteration",
                file,
                line,
                format!(
                    "std `{text}` on a simulation path: SipHash keys are per-process \
                     random, so iteration order can silently perturb results; use \
                     netsim::hash::Fast{text} or a BTree{}",
                    if text == "HashMap" { "Map" } else { "Set" }
                ),
            ));
        }
    }
}

/// TL003: `==`/`!=` with a float literal (or float constant path like
/// `f64::NAN`) on either side. Type-blind by design: the lexical cases
/// are the ones a reviewer also sees, and `clippy::float_cmp` (denied in
/// CI for library targets) covers the type-inferred remainder.
fn no_float_eq(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    const FLOAT_CONSTS: &[&str] = &["NAN", "INFINITY", "NEG_INFINITY", "EPSILON"];
    for (k, line, text) in sig_texts(file) {
        if text != "==" && text != "!=" {
            continue;
        }
        let prev_float = k > 0
            && (sig_kind(file, k - 1) == Some(TokenKind::Float)
                || sig_text(file, k - 1).is_some_and(|t| FLOAT_CONSTS.contains(&t)));
        let next_float = sig_kind(file, k + 1) == Some(TokenKind::Float)
            || (sig_text(file, k + 1).is_some_and(|t| t == "f64" || t == "f32")
                && sig_text(file, k + 2) == Some("::"));
        if prev_float || next_float {
            out.push(diag(
                "no-float-eq",
                file,
                line,
                format!(
                    "exact float comparison (`{text}`): floating-point equality is \
                     representation-dependent; compare through trim_check's Tolerance \
                     (or annotate why exactness is the point)"
                ),
            ));
        }
    }
}

/// TL004: panicking constructs in library code (not tests, not
/// binaries). `unwrap_or*` and `expect_err` are distinct identifiers and
/// never match; `assert!`/`debug_assert!` are deliberate invariant
/// checks and stay legal.
fn no_panic_in_library(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.role != FileRole::Lib {
        return;
    }
    for (k, line, text) in sig_texts(file) {
        let pos = sig_start(file, k);
        if file.in_test_region(pos) {
            continue;
        }
        let hit = match text {
            "unwrap" | "expect" => {
                k > 0 && sig_text(file, k - 1) == Some(".") && sig_text(file, k + 1) == Some("(")
            }
            "panic" | "todo" | "unimplemented" => sig_text(file, k + 1) == Some("!"),
            _ => false,
        };
        if hit {
            out.push(diag(
                "no-panic-in-library",
                file,
                line,
                format!(
                    "`{text}` in library code: a poisoned run should surface as a typed \
                     error, not abort the campaign; return Result or annotate why this \
                     cannot fire"
                ),
            ));
        }
    }
}

/// TL005: bare decimal integer literals >= 1_000_000 outside tests on a
/// configured simulation path. Magnitudes that large are invariably
/// nanoseconds, bits-per-second or byte counts; constructing them via
/// `Dur`/`SimTime`/`Bandwidth` keeps the unit in the type. Hex/octal
/// literals (seeds, masks) are exempt.
fn no_raw_unit_literal(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    const THRESHOLD: u128 = 1_000_000;
    for (k, line, text) in sig_texts(file) {
        if sig_kind(file, k) != Some(TokenKind::Int) {
            continue;
        }
        if file.in_test_region(sig_start(file, k)) {
            continue;
        }
        if decimal_int_value(text).is_some_and(|v| v >= THRESHOLD) {
            out.push(diag(
                "no-raw-unit-literal",
                file,
                line,
                format!(
                    "bare literal `{text}` on a simulation path: a magnitude this large \
                     is a unit in disguise; build it with Dur/SimTime/Bandwidth \
                     constructors so the unit is checked"
                ),
            ));
        }
    }
}

/// TL006: crate roots must carry `#![forbid(unsafe_code)]`. A crate
/// that someday needs unsafe downgrades to `deny` plus a documented
/// allow and lists its root under this rule's `allow-paths`.
fn forbid_unsafe(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !file.is_crate_root() {
        return;
    }
    let mut found = false;
    for (k, _, text) in sig_texts(file) {
        if text == "forbid"
            && sig_text(file, k + 1) == Some("(")
            && sig_text(file, k + 2) == Some("unsafe_code")
        {
            found = true;
            break;
        }
    }
    if !found {
        out.push(diag(
            "forbid-unsafe",
            file,
            1,
            "crate root lacks `#![forbid(unsafe_code)]`: this workspace is 100% safe \
             Rust and regressions must be deliberate (deny + documented allow + \
             Lint.toml allow-paths)"
                .to_string(),
        ));
    }
}

/// Type names whose appearance in a `static` makes it interior-mutable
/// shared state.
const INTERIOR_MUT: &[&str] = &[
    "Mutex",
    "RwLock",
    "OnceLock",
    "OnceCell",
    "LazyLock",
    "UnsafeCell",
    "RefCell",
    "Cell",
];

/// TL203: every construct through which two simulators (or two runs in
/// one process) could share mutable state, outside tests. An exhaustive
/// enumeration rather than an analysis: the scoped crates sit at zero
/// sites and CI keeps them there.
fn shard_safety(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (k, line, text) in sig_texts(file) {
        if sig_kind(file, k) != Some(TokenKind::Ident) || file.in_test_region(sig_start(file, k)) {
            continue;
        }
        let found: Option<String> = match text {
            "static" if sig_text(file, k + 1) == Some("mut") => {
                Some("`static mut`: writable global state".to_string())
            }
            "static" => {
                // `static X: Atomic…/Mutex<…> = …` — interior-mutable
                // global. Scan the declared type up to the `=`/`;`.
                (k + 1..=k + 24)
                    .map_while(|j| sig_text(file, j).filter(|&tt| tt != "=" && tt != ";"))
                    .find(|tt| tt.starts_with("Atomic") || INTERIOR_MUT.contains(tt))
                    .map(|tt| format!("interior-mutable `static` (`{tt}`)"))
            }
            "thread_local" if sig_text(file, k + 1) == Some("!") => {
                Some("`thread_local!`: per-thread state outlives the simulator".to_string())
            }
            "Rc" => Some("`Rc`: non-atomic shared ownership".to_string()),
            "RefCell" | "Cell" => Some(format!("`{text}`: single-thread interior mutability")),
            _ => None,
        };
        if let Some(what) = found {
            out.push(diag(
                "shard-safety",
                file,
                line,
                format!(
                    "{what}; sim-crate state must be Ctx-threaded (owned by the \
                     simulator it belongs to) — migrate it or suppress with the audit \
                     reason"
                ),
            ));
        }
    }
}

/// Identifiers that draw from ambient entropy rather than the
/// splitmix64 seed chain.
const ENTROPY_IDENTS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "OsRng",
    "getrandom",
    "SystemRandom",
    "RandomState",
];

/// TL204: any ambient-entropy identifier on a configured simulation
/// path, tests included — a test seeded from the OS is a test that
/// cannot be replayed.
fn unseeded_randomness(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (k, line, text) in sig_texts(file) {
        if sig_kind(file, k) == Some(TokenKind::Ident) && ENTROPY_IDENTS.contains(&text) {
            out.push(diag(
                "unseeded-randomness",
                file,
                line,
                format!(
                    "`{text}` draws from ambient entropy: every stream in this \
                     workspace must derive from the splitmix64 seed chain so runs \
                     replay bit-exactly"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel_path: &str, src: &str) -> Vec<Diagnostic> {
        run_cfg(rel_path, src, &test_config())
    }

    fn run_cfg(rel_path: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
        let mut f = SourceFile::analyze(rel_path, src.to_string());
        check_file(&mut f, cfg)
    }

    fn test_config() -> Config {
        Config::parse(
            r#"
[no-wall-clock]
allow-paths = ["crates/harness"]
[no-unordered-iteration]
apply-paths = ["crates/netsim", "crates/check"]
[no-raw-unit-literal]
apply-paths = ["crates/netsim"]
"#,
        )
        .unwrap()
    }

    #[test]
    fn wall_clock_hits_and_allowlist() {
        let src = "fn f() { let t = Instant::now(); }";
        let d = run("crates/bench/src/drive.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "TL001");
        assert!(run("crates/harness/src/engine.rs", src).is_empty());
        // Mentions in strings/comments never fire.
        assert!(run(
            "crates/bench/src/drive.rs",
            "// Instant::now()\nfn f() { let s = \"SystemTime\"; }"
        )
        .is_empty());
    }

    #[test]
    fn unordered_iteration_scoped_to_sim_paths() {
        let src = "use std::collections::HashMap;\nfn f(m: HashMap<u32, u32>) {}";
        assert_eq!(run("crates/netsim/src/sim.rs", src).len(), 2);
        assert!(run("crates/harness/src/store.rs", src).is_empty());
    }

    #[test]
    fn float_eq_adjacency() {
        let d = run("crates/core/src/x.rs", "fn f(a: f64) -> bool { a == 0.0 }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "TL003");
        assert_eq!(
            run("crates/core/src/x.rs", "fn f(a: f64) { if 1.5 != a {} }").len(),
            1
        );
        assert_eq!(
            run(
                "crates/core/src/x.rs",
                "fn f(a: f64) { let _ = a == f64::NAN; }"
            )
            .len(),
            1
        );
        // Integer comparisons and range patterns stay silent.
        assert!(run("crates/core/src/x.rs", "fn f(a: u64) -> bool { a == 10 }").is_empty());
    }

    #[test]
    fn panic_rule_spares_tests_and_bins() {
        let lib = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(run("crates/core/src/a.rs", lib).len(), 1);
        assert!(run("crates/core/src/bin/tool.rs", lib).is_empty());
        assert!(run("crates/core/tests/it.rs", lib).is_empty());
        let test_mod = "#[cfg(test)]\nmod tests { fn t() { None::<u32>.unwrap(); } }";
        assert!(run("crates/core/src/a.rs", test_mod).is_empty());
        // unwrap_or is a different identifier.
        assert!(run(
            "crates/core/src/a.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }"
        )
        .is_empty());
    }

    #[test]
    fn raw_unit_literal_thresholds() {
        assert_eq!(
            run(
                "crates/netsim/src/chan.rs",
                "fn f() { let ns = 2_000_000; }"
            )
            .len(),
            1
        );
        assert!(run("crates/netsim/src/chan.rs", "fn f() { let n = 999_999; }").is_empty());
        // Hex masks/seeds exempt; other crates exempt.
        assert!(run(
            "crates/netsim/src/chan.rs",
            "fn f() { let s = 0x9e3779b97f4a7c15; }"
        )
        .is_empty());
        assert!(run("crates/tcp/src/conn.rs", "fn f() { let ns = 2_000_000; }").is_empty());
        // Test code exempt.
        assert!(run(
            "crates/netsim/src/chan.rs",
            "#[cfg(test)]\nmod t { fn f() { let ns = 2_000_000; } }"
        )
        .is_empty());
    }

    #[test]
    fn forbid_unsafe_only_on_crate_roots() {
        let d = run("crates/core/src/lib.rs", "pub fn f() {}");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "TL006");
        assert!(run(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}"
        )
        .is_empty());
        assert!(run("crates/core/src/other.rs", "pub fn f() {}").is_empty());
    }

    #[test]
    fn suppression_with_reason_suppresses_and_is_used() {
        let src = "fn f() { let t = Instant::now(); } \
                   // trim-lint: allow(no-wall-clock, reason = \"progress display only\")";
        assert!(run("crates/bench/src/drive.rs", src).is_empty());
    }

    #[test]
    fn suppression_without_reason_rejected_and_diag_kept() {
        let src = "// trim-lint: allow(no-wall-clock)\nfn f() { let t = Instant::now(); }";
        let d = run("crates/bench/src/drive.rs", src);
        let codes: Vec<_> = d.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"TL001"), "{codes:?}");
        assert!(codes.contains(&"TL007"), "{codes:?}");
    }

    #[test]
    fn unknown_rule_suppression_rejected() {
        let d = run(
            "crates/core/src/a.rs",
            "// trim-lint: allow(no-such-rule, reason = \"x\")\nfn f() {}",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "TL007");
    }

    #[test]
    fn unused_suppression_reported() {
        let d = run(
            "crates/core/src/a.rs",
            "// trim-lint: allow(no-wall-clock, reason = \"left over\")\nfn f() {}",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "TL008");
    }

    #[test]
    fn allow_file_covers_every_hit() {
        let src =
            "// trim-lint: allow-file(no-unordered-iteration, reason = \"defines the aliases\")\n\
                   use std::collections::{HashMap, HashSet};\n\
                   fn f(a: HashMap<u32, u32>, b: HashSet<u32>) {}";
        assert!(run("crates/netsim/src/hash.rs", src).is_empty());
    }

    #[test]
    fn rule_codes_are_unique_and_stable() {
        let mut codes: Vec<_> = SOURCE_RULES
            .iter()
            .chain(CLOSURE_RULES)
            .chain(ARTIFACT_RULES)
            .map(|r| r.code)
            .collect();
        let n = codes.len();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), n);
        assert_eq!(SOURCE_RULES[0].code, "TL001");
        assert_eq!(CLOSURE_RULES[0].code, "TL203");
        assert_eq!(ARTIFACT_RULES[0].code, "TL101");
    }

    #[test]
    fn shard_safety_and_entropy_are_suppressible_token_rules() {
        let src = "static HITS: AtomicU64 = AtomicU64::new(0);\n\
                   fn f() -> u64 { thread_rng() }";
        let codes: Vec<_> = run("crates/core/src/a.rs", src)
            .iter()
            .map(|d| (d.code, d.line))
            .collect();
        assert_eq!(codes, [("TL203", 1), ("TL204", 2)]);
        // A plain `static` table is not shared mutable state.
        assert!(run("crates/core/src/a.rs", "static T: [u8; 2] = [1, 2];").is_empty());
        // Both take the ordinary inline suppression, and a leftover one
        // is an ordinary TL008.
        let d = run(
            "crates/core/src/a.rs",
            "// trim-lint: allow(shard-safety, reason = \"audited\")\n\
             thread_local! { static S: u64 = 0; }\n\
             // trim-lint: allow(unseeded-randomness, reason = \"left over\")\nfn f() {}",
        );
        let codes: Vec<_> = d.iter().map(|d| (d.code, d.line)).collect();
        assert_eq!(codes, [("TL008", 3)]);
        // Workspace-level rules cannot be waved through by a comment.
        let d = run(
            "crates/core/src/a.rs",
            "// trim-lint: allow(monitor-coverage, reason = \"x\")\nfn f() {}",
        );
        assert_eq!(d[0].code, "TL007");
    }
}
