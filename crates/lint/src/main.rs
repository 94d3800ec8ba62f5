//! The `trim-lint` CLI.
//!
//! ```text
//! trim-lint                  # source rules over the workspace
//! trim-lint --artifacts      # registry/EXPERIMENTS.md/results/corpus cross-check
//! trim-lint --format json    # machine-readable report (schema v3)
//! trim-lint --list-rules     # the rule catalog with stable codes
//! ```
//!
//! Exit codes: `0` clean, `1` diagnostics found, `2` usage or I/O
//! error — suitable for CI gating.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use trim_lint::{diag, rules};

struct Args {
    root: Option<PathBuf>,
    format: Format,
    artifacts: bool,
    list_rules: bool,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn usage() -> &'static str {
    "usage: trim-lint [--root DIR] [--format text|json] [--artifacts] [--list-rules]\n\
     \n\
     Determinism & simulation-hygiene static analysis for the TCP-TRIM workspace.\n\
     Without flags, runs the source rules over every .rs file under the workspace\n\
     root (the nearest ancestor directory holding Lint.toml): the per-file token\n\
     rules (TL001-TL008, TL203, TL204), then monitor coverage (TL205) and the\n\
     check that every [dependencies] path of a simulation crate is itself in the\n\
     determinism scope (TL206).\n\
     --artifacts instead cross-checks the experiment registry against\n\
     EXPERIMENTS.md, committed results/ CSVs, and corpus/*.spec round-trips\n\
     (TL101-TL104).\n\
     \n\
     Exit codes: 0 clean, 1 diagnostics found, 2 usage/IO error."
}

/// Writes to stdout, treating a closed pipe (`trim-lint ... | head`) as a
/// clean exit rather than a panic.
fn emit(text: &str) {
    use std::io::Write;
    if write!(std::io::stdout(), "{text}").is_err() {
        std::process::exit(0);
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        format: Format::Text,
        artifacts: false,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a directory argument")?;
                args.root = Some(PathBuf::from(v));
            }
            "--format" => {
                let v = it.next().ok_or("--format needs text|json")?;
                args.format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}` (text|json)")),
                };
            }
            "--artifacts" => args.artifacts = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                emit(usage());
                emit("\n");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trim-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for r in rules::SOURCE_RULES
            .iter()
            .chain(rules::CLOSURE_RULES)
            .chain(rules::ARTIFACT_RULES)
        {
            emit(&format!("{}  {:<32}  {}\n", r.code, r.name, r.summary));
        }
        return ExitCode::SUCCESS;
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = match args.root.clone().or_else(|| trim_lint::find_root(&cwd)) {
        Some(r) => r,
        None => {
            eprintln!(
                "trim-lint: no Lint.toml found above {} (pass --root)",
                cwd.display()
            );
            return ExitCode::from(2);
        }
    };

    let report = if args.artifacts {
        trim_lint::run_artifacts(&root)
    } else {
        trim_lint::load_config(&root).and_then(|cfg| trim_lint::run_workspace(&root, &cfg))
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trim-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let rendered = match args.format {
        Format::Json => diag::render_json(&report.diagnostics, report.files_scanned),
        Format::Text => diag::render_text(&report.diagnostics, report.files_scanned),
    };
    emit(&rendered);
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
