//! `trim-fuzz` — the scenario fuzzer's command-line front end.
//!
//! Modes:
//!
//! - **fuzz** (default): `trim-fuzz --iterations 200 --seed 7` runs the
//!   campaign under monitors + oracles. Exit 0 when every scenario is
//!   clean; exit 1 with shrunk repros written to `<out>/fuzz/` when any
//!   fails.
//! - **detector self-test**: `--fault overadmit` injects the
//!   `inject_queue_overadmit` fault into every generated scenario; the
//!   fuzzer must re-find it (as a `queue-bound` violation) and shrink
//!   it. Exit 0 when found, exit 2 when the detector missed it.
//! - **replay**: `--replay <file-or-dir>` re-runs committed corpus
//!   specs: a spec with an `expect = monitor:<name>` / `oracle:<name>`
//!   line must reproduce exactly that verdict; lacking one, specs with
//!   a `fault` line must trip `queue-bound` and clean specs must stay
//!   clean. Exit 0/1.
//!
//! `--family burst|session|saturate|aqm` restricts generation to one
//! scenario family (default: the mixed schedule); `--stability`
//! additionally attaches the stability oracles (cwnd limit-cycle,
//! standing queue) to every generated scenario — the instability-hunting
//! mode, whose findings are often legitimate Reno sawtooths rather than
//! engine bugs, so it is not part of the clean-run CI gate.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use trim_fuzz::{check_spec, run_fuzz, FuzzConfig, GenConfig};
use trim_harness::ResultStore;
use trim_workload::spec::ScenarioSpec;

struct Options {
    iterations: u64,
    seed: u64,
    out: PathBuf,
    fault_overadmit: bool,
    family: Option<String>,
    stability: bool,
    replay: Option<PathBuf>,
    max_failures: usize,
    quiet: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            iterations: 200,
            seed: 7,
            out: PathBuf::from("results"),
            fault_overadmit: false,
            family: None,
            stability: false,
            replay: None,
            max_failures: 3,
            quiet: false,
        }
    }
}

const USAGE: &str = "usage: trim-fuzz [--iterations N] [--seed S] [--out DIR] \
                     [--fault overadmit] [--family burst|session|saturate|aqm] [--stability] \
                     [--replay FILE|DIR] [--max-failures M] [--quiet]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--iterations" => {
                opts.iterations = value("--iterations")?
                    .parse()
                    .map_err(|e| format!("--iterations: {e}"))?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--out" => opts.out = PathBuf::from(value("--out")?),
            "--fault" => match value("--fault")?.as_str() {
                "overadmit" => opts.fault_overadmit = true,
                other => return Err(format!("unknown fault `{other}` (want: overadmit)")),
            },
            "--family" => {
                let family = value("--family")?;
                match family.as_str() {
                    "burst" | "session" | "saturate" | "aqm" => opts.family = Some(family),
                    other => {
                        return Err(format!(
                            "unknown family `{other}` (want: burst, session, saturate, aqm)"
                        ))
                    }
                }
            }
            "--stability" => opts.stability = true,
            "--replay" => opts.replay = Some(PathBuf::from(value("--replay")?)),
            "--max-failures" => {
                opts.max_failures = value("--max-failures")?
                    .parse()
                    .map_err(|e| format!("--max-failures: {e}"))?
            }
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("trim-fuzz: {e}");
            return ExitCode::from(64);
        }
    };
    if let Some(path) = &opts.replay {
        return replay(path, opts.quiet);
    }
    fuzz(&opts)
}

fn fuzz(opts: &Options) -> ExitCode {
    let mut gen = GenConfig {
        fault_overadmit: opts.fault_overadmit,
        stability: opts.stability,
        ..GenConfig::default()
    };
    if opts.fault_overadmit {
        // The detector self-test only makes sense on burst specs.
        gen.saturate_every = 0;
        gen.session_every = 0;
        gen.aqm_every = 0;
    }
    match opts.family.as_deref() {
        None => {}
        Some("burst") => (gen.saturate_every, gen.session_every, gen.aqm_every) = (0, 0, 0),
        Some("session") => (gen.saturate_every, gen.session_every, gen.aqm_every) = (0, 1, 0),
        Some("saturate") => (gen.saturate_every, gen.session_every, gen.aqm_every) = (1, 0, 0),
        Some("aqm") => (gen.saturate_every, gen.session_every, gen.aqm_every) = (0, 0, 1),
        Some(_) => unreachable!("families validated at parse time"),
    }
    let cfg = FuzzConfig {
        iterations: opts.iterations,
        seed: opts.seed,
        gen,
        max_failures: if opts.fault_overadmit {
            1
        } else {
            opts.max_failures
        },
        store: Some(ResultStore::new(&opts.out)),
        quiet: opts.quiet,
    };
    let report = run_fuzz(&cfg);
    println!(
        "trim-fuzz: {} iteration(s), {} failure(s) (seed {})",
        report.iterations_run,
        report.failures.len(),
        opts.seed
    );
    for f in &report.failures {
        println!(
            "  iteration {}: {} — shrunk {} -> {} sender(s), {} -> {} train(s){}",
            f.iteration,
            f.verdict.headline(),
            f.original.senders,
            f.shrunk.senders,
            f.original.trains.len(),
            f.shrunk.trains.len(),
            match &f.artifact {
                Some(rel) => format!(", repro: {}/{rel}", opts.out.display()),
                None => String::new(),
            }
        );
    }
    if opts.fault_overadmit {
        let found = report
            .failures
            .iter()
            .any(|f| f.verdict.key().as_deref() == Some("monitor:queue-bound"));
        if found {
            println!("trim-fuzz: injected over-admission re-found and shrunk");
            ExitCode::SUCCESS
        } else {
            eprintln!("trim-fuzz: detector self-test FAILED: fault never caught");
            ExitCode::from(2)
        }
    } else if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn replay(path: &Path, quiet: bool) -> ExitCode {
    let mut files: Vec<PathBuf> = if path.is_dir() {
        match std::fs::read_dir(path) {
            Ok(rd) => rd
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "spec"))
                .collect(),
            Err(e) => {
                eprintln!("trim-fuzz: cannot read {}: {e}", path.display());
                return ExitCode::from(66);
            }
        }
    } else {
        vec![path.to_path_buf()]
    };
    files.sort();
    if files.is_empty() {
        eprintln!("trim-fuzz: no .spec files under {}", path.display());
        return ExitCode::from(66);
    }
    let mut bad = 0usize;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("trim-fuzz: {}: {e}", file.display());
                bad += 1;
                continue;
            }
        };
        let outcome = ScenarioSpec::from_text(&text).and_then(|spec| {
            let verdict = check_spec(&spec)?;
            Ok((spec, verdict))
        });
        let (spec, verdict) = match outcome {
            Ok(x) => x,
            Err(e) => {
                eprintln!("trim-fuzz: {}: {e}", file.display());
                bad += 1;
                continue;
            }
        };
        // A spec carrying an `expect` line must reproduce exactly that
        // verdict. Lacking one, an injected fault is a regression repro
        // that must trip `queue-bound`, and a clean spec must stay clean.
        let expected: Option<String> = spec
            .expect
            .clone()
            .or_else(|| spec.fault.map(|_| "monitor:queue-bound".to_string()));
        let ok = match &expected {
            Some(key) => verdict.key().as_deref() == Some(key.as_str()),
            None => !verdict.failed(),
        };
        if ok {
            if !quiet {
                println!("replay ok: {} ({})", file.display(), verdict.headline());
            }
        } else {
            eprintln!(
                "replay FAILED: {} — expected {}, got: {}",
                file.display(),
                match &expected {
                    Some(key) => format!("`{key}`"),
                    None => "a clean run".to_string(),
                },
                verdict.headline()
            );
            bad += 1;
        }
    }
    println!(
        "trim-fuzz: replayed {} spec(s), {} problem(s)",
        files.len(),
        bad
    );
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
