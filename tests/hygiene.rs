//! Source and artifact hygiene, checked without running a simulation.
//!
//! Most rules are lints: `crates/clippy.toml` bans wall-clock reads,
//! unordered std maps, ambient entropy and shared mutable state under
//! `crates/`; `[workspace.lints]` forbids `unsafe` and requires every
//! suppression to be an `#[expect]` with a reason; and the sim crates'
//! roots deny panics outside tests. [`clippy_is_clean`] runs that gate.
//! The rest need more than one file to decide and are tests here:
//! raw unit literals, the sim crates' dependency closure, the members'
//! opt-in to the workspace lints, the wall clock in this package (which
//! `crates/clippy.toml` does not govern), and the agreement between the
//! experiment registry, EXPERIMENTS.md and `results/`. The text
//! scanning they share is `trim-lint` (`crates/lint`), tested on its
//! own. DESIGN.md, "Hygiene lints", maps each rule to its check.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use trim_experiments::registry;
use trim_lint::artifacts::{experiment_module, heading_names, module_produces};
use trim_lint::context::non_test;
use trim_lint::lexer::{code_only, decimal_ints};
use trim_lint::workspace::{dependencies, join};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// Every file under `dir` whose workspace-relative path ends in
/// `suffix`, sorted.
fn files(dir: &str, suffix: &str) -> Vec<String> {
    trim_lint::files(root(), dir, suffix).unwrap_or_else(|e| panic!("walk {dir}: {e}"))
}

/// The one gate for every lint-enforced rule: CI's clippy command, in a
/// nested cargo with a target directory of its own (this test's cargo
/// holds the lock on the outer one).
#[test]
fn clippy_is_clean() {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("hygiene-clippy");
    let out = Command::new(cargo)
        .current_dir(root())
        .env("CARGO_TARGET_DIR", &target)
        .args([
            "clippy",
            "--workspace",
            "--all-targets",
            "--offline",
            "--quiet",
        ])
        .args(["--", "-D", "warnings", "-D", "clippy::dbg_macro"])
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "cargo clippy failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// TL005 (no-raw-unit-literal): a decimal literal of 10^6 or more in
/// simulation code is a time, rate or size in disguise; build it with
/// `Dur`/`SimTime`/`Bandwidth` so the unit is checked. Only the
/// conversion tables spell the factors out.
#[test]
fn sim_code_has_no_raw_unit_literals() {
    const ALLOWED: &[(&str, &str, &str)] = &[
        (
            "crates/workload/src/scale.rs",
            "bytes_per_flow: (146_000_000 / flows.max(1) as u64).max(1_460),",
            "total volume (~146 MB) held constant across flow counts; bytes, not time",
        ),
        (
            "crates/workload/src/scale.rs",
            "flows: 1_000_000,",
            "a flow count, not a physical quantity; no unit constructor applies",
        ),
        (
            "crates/workload/src/spec.rs",
            "if !(1..=1_000_000).contains(&wq_micro) {",
            "fixed-point scale of the dimensionless EWMA weight, not a unit",
        ),
        (
            "crates/workload/src/http.rs",
            "let total: u64 = 1_000_000;",
            "1 MB per-server object volume from the Fig. 12 setup; bytes, not time",
        ),
    ];
    let mut found = Vec::new();
    let mut allowed_hits = 0;
    for krate in ["netsim", "tcp", "core", "workload"] {
        for rel in files(&format!("crates/{krate}/src"), ".rs") {
            if rel.ends_with("/units.rs") || rel.ends_with("/time.rs") {
                continue;
            }
            let src = read(&rel);
            let lines: Vec<&str> = src.lines().collect();
            for (line, text, value) in decimal_ints(&non_test(&code_only(&src))) {
                let code = lines[line - 1].trim();
                if value < 1_000_000 {
                    continue;
                }
                if ALLOWED.iter().any(|&(p, l, _)| p == rel && l == code) {
                    allowed_hits += 1;
                } else {
                    found.push(format!("{rel}:{line}: bare literal `{text}`"));
                }
            }
        }
    }
    assert!(found.is_empty(), "raw unit literals:\n{}", found.join("\n"));
    assert_eq!(
        allowed_hits,
        ALLOWED.len(),
        "an allowlist entry matched nothing"
    );
}

/// TL001 (no-wall-clock) for this package: `crates/clippy.toml` covers
/// only `crates/`, and a root one would also govern `benchmark/`.
#[test]
fn root_package_reads_no_wall_clock() {
    let mut found = Vec::new();
    for dir in ["src", "tests", "examples"] {
        for rel in files(dir, ".rs") {
            let code = code_only(&read(&rel));
            for (n, line) in code.lines().enumerate() {
                let squeezed: String = line.split_whitespace().collect();
                if squeezed.contains("Instant::now") || squeezed.contains("SystemTime") {
                    found.push(format!("{rel}:{}: {}", n + 1, line.trim()));
                }
            }
        }
    }
    assert!(found.is_empty(), "wall-clock reads:\n{}", found.join("\n"));
}

/// TL206 (sim-dependency-closure): the simulation crates depend only on
/// each other, so the sim path never reaches a crate that reads the wall
/// clock (`crates/harness`) or is held to no determinism rule.
#[test]
fn sim_crates_depend_only_on_sim_crates() {
    const SCOPE: &[&str] = &[
        "crates/netsim",
        "crates/tcp",
        "crates/core",
        "crates/check",
        "crates/workload",
        "crates/compat/rand",
        "crates/serve",
    ];
    let shared: BTreeMap<String, String> =
        dependencies(&read("Cargo.toml"), "workspace.dependencies")
            .into_iter()
            .filter_map(|(name, path)| Some((name, join("", &path?))))
            .collect();
    let mut edges = Vec::new();
    for dir in SCOPE {
        for (name, path) in dependencies(&read(&format!("{dir}/Cargo.toml")), "dependencies") {
            let target = match path {
                Some(p) => join(dir, &p),
                None => shared[&name].clone(),
            };
            edges.push((dir.to_string(), name, target));
        }
    }
    let outside: Vec<_> = edges
        .iter()
        .filter(|(_, _, target)| !SCOPE.contains(&target.as_str()))
        .collect();
    assert!(
        outside.is_empty(),
        "sim crates depend outside the scope: {outside:?}"
    );
    // Not vacuous: `workspace = true` entries resolved through the root.
    let rand = ["crates/workload", "rand", "crates/compat/rand"].map(String::from);
    assert!(edges.contains(&rand.into()), "{edges:?}");
}

/// TL006 (forbid-unsafe), TL007/TL008 (suppression hygiene): the
/// workspace lints forbid `unsafe` and `#[allow]`, and reach a crate only
/// if its manifest opts in.
#[test]
fn every_member_opts_into_the_workspace_lints() {
    let manifest = read("Cargo.toml");
    for lint in [
        "[workspace.lints.rust]\nunsafe_code = \"forbid\"",
        "allow_attributes = \"deny\"",
        "allow_attributes_without_reason = \"deny\"",
    ] {
        assert!(manifest.contains(lint), "root Cargo.toml lacks `{lint}`");
    }
    // Every package under crates/ is a workspace member.
    let mut manifests = files("crates", "/Cargo.toml");
    manifests.push("Cargo.toml".into());
    assert!(manifests.len() >= 12, "{manifests:?}");
    for rel in manifests {
        assert!(
            read(&rel).contains("\n[lints]\nworkspace = true\n"),
            "{rel} does not opt into the workspace lints"
        );
    }
}

/// TL101–TL103 (artifacts): every registered experiment has an
/// EXPERIMENTS.md section, every artifact it declares is a committed
/// `results/<name>.csv` that its module names (verbatim, or as a
/// format string it fits), and no committed CSV is undeclared.
#[test]
fn registry_experiments_md_and_results_agree() {
    let registry_src = read("crates/bench/src/registry.rs");
    let experiments_md = read("EXPERIMENTS.md");
    let mut problems = Vec::new();
    let mut declared = Vec::new();
    for spec in registry::ALL {
        let id = spec.id;
        if !experiments_md.lines().any(|h| heading_names(h, id)) {
            problems.push(format!("`{id}` has no EXPERIMENTS.md heading naming it"));
        }
        if spec.artifacts.is_empty() {
            problems.push(format!("`{id}` declares no artifacts"));
        }
        let module = experiment_module(&registry_src, id)
            .unwrap_or_else(|| panic!("registry entry `{id}` names no experiments:: module"));
        let module = format!("crates/bench/src/experiments/{module}.rs");
        let module_src = read(&module);
        for &a in spec.artifacts {
            declared.push(a.to_string());
            if !root().join(format!("results/{a}.csv")).is_file() {
                problems.push(format!("`{id}` declares `{a}`; results/{a}.csv is missing"));
            }
            if !module_produces(&module_src, a) {
                problems.push(format!("`{id}` declares `{a}`, which {module} never names"));
            }
        }
    }
    let mut committed: Vec<PathBuf> = fs::read_dir(root().join("results"))
        .expect("results directory")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    committed.sort();
    for path in committed {
        let stem = path.file_stem().expect("file stem").to_string_lossy();
        if !declared.iter().any(|d| *d == stem) {
            problems.push(format!("results/{stem}.csv is declared by no experiment"));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
