//! `trim-check` — the simulator conformance suite.
//!
//! Two layers of checking, both runnable from CI:
//!
//! 1. **Invariant conformance** — monitored reference scenarios (a Reno
//!    and a TRIM 8-way incast) must finish with zero violations under
//!    the full standard monitor set, and a deliberately injected queue
//!    over-admission fault must be caught and attributed to a
//!    simulation time and flow id. The fault run proves the monitors
//!    would actually notice a broken engine, not just stay silent.
//! 2. **Golden-trace regression** — re-runs the selected campaigns
//!    (default `trace,kmodel`, the two fastest) into a scratch
//!    directory at the requested `--jobs` and compares every reduce
//!    CSV field-by-field against the committed goldens under
//!    `--results-dir` (default `results/`) with the documented
//!    tolerance ([`Tolerance::GOLDEN`]).
//!
//! ```text
//! trim-check                       # conformance + trace,kmodel goldens
//! trim-check --jobs 8              # same checks on 8 workers
//! trim-check --only trace          # golden-check a subset
//! trim-check --list                # campaign ids available to --only
//! ```

use netsim::SimTime;
use trim_check::golden::{compare_csv_files, Mismatch, Tolerance};
use trim_check::PacketConservation;
use trim_experiments::registry;
use trim_harness::cli::{self, CliArgs};
use trim_harness::{engine, ExecConfig};
use trim_workload::{ScenarioBuilder, TrainSpec};

/// Campaigns golden-checked when `--only` is not given: the two fastest
/// in the suite, so the conformance run stays CI-cheap.
const DEFAULT_GOLDEN: &[&str] = &["trace", "kmodel"];

fn main() {
    // Conformance must be monitored whatever the build profile; the
    // override is set before any scenario or campaign is built.
    std::env::set_var("TRIM_CHECK_MONITORS", "1");
    let ids = registry::ids();
    let args = cli::parse_env_or_exit("trim-check", &ids);
    if args.list {
        for spec in registry::ALL {
            cli::emit(&format!("{:<14} {}", spec.id, spec.title));
        }
        return;
    }
    let say = |line: &str| {
        if !args.quiet {
            cli::emit(line);
        }
    };
    say("conformance: runtime invariant monitors");
    if let Err(msg) = clean_runs(args.quiet).and_then(|()| fault_is_caught(args.quiet)) {
        eprintln!("trim-check: {msg}");
        std::process::exit(1);
    }
    say("golden-trace regression");
    if let Err(msg) = golden_regression(&args) {
        eprintln!("trim-check: {msg}");
        std::process::exit(1);
    }
    say("trim-check: all checks passed");
}

/// Reference incast scenarios that must run violation-free under the
/// standard monitor set. `Scenario::report` panics on any recorded
/// violation, so a dirty run cannot slip through.
fn clean_runs(quiet: bool) -> Result<(), String> {
    for (label, trim) in [("reno", false), ("trim", true)] {
        let mut builder = ScenarioBuilder::many_to_one(8);
        if trim {
            builder = builder.trim();
        }
        let mut sc = builder.build();
        for s in 0..8 {
            sc.send_train(s, TrainSpec::at_secs(0.001, 300_000));
        }
        if sc.sim_mut().monitor::<PacketConservation>().is_none() {
            return Err("standard monitors were not attached (TRIM_CHECK_MONITORS)".into());
        }
        let report = sc.run_for_secs(5.0);
        if report.completed_trains() != 8 {
            return Err(format!(
                "{label}: expected 8 completed trains, got {}",
                report.completed_trains()
            ));
        }
        let stats = sc.sim_mut().audit_stats();
        if !quiet {
            cli::emit(&format!(
                "  clean {label} incast: 8/8 trains, zero violations \
                 ({} injected / {} delivered / {} dropped)",
                stats.injected, stats.delivered, stats.dropped
            ));
        }
    }
    Ok(())
}

/// The monitors must catch a deliberately injected queue
/// over-admission and attribute it (simulation time + flow id).
fn fault_is_caught(quiet: bool) -> Result<(), String> {
    let mut sc = ScenarioBuilder::many_to_one(8).build();
    for s in 0..8 {
        sc.send_train(s, TrainSpec::at_secs(0.001, 300_000));
    }
    let bottleneck = sc.net().bottleneck;
    let sim = sc.sim_mut();
    sim.inject_queue_overadmit(bottleneck, 4);
    sim.run_until(SimTime::from_secs_f64(5.0));
    let violations = sim.violations();
    let caught = violations
        .iter()
        .find(|v| v.monitor == "queue-bound")
        .ok_or("injected queue over-admission was NOT caught by the queue-bound monitor")?;
    if caught.flow.is_none() {
        return Err(format!("violation lacks a flow id: {caught}"));
    }
    if !quiet {
        cli::emit(&format!("  injected over-admit caught: {caught}"));
    }
    Ok(())
}

/// Re-runs each selected campaign from scratch and compares its reduce
/// CSVs against the committed goldens.
fn golden_regression(args: &CliArgs) -> Result<(), String> {
    let ids: Vec<String> = match &args.only {
        Some(sel) => sel.clone(),
        None => DEFAULT_GOLDEN.iter().map(|s| s.to_string()).collect(),
    };
    let scratch = std::env::temp_dir().join(format!("trim-check-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let cfg = ExecConfig {
        jobs: args.jobs,
        force: true,
        results_dir: scratch.clone(),
        quiet: true,
    };
    let mut mismatches: Vec<Mismatch> = Vec::new();
    let mut compared = 0usize;
    for id in &ids {
        let spec =
            registry::find(id).ok_or_else(|| format!("unknown campaign '{id}' (see --list)"))?;
        let mut campaign = (spec.campaign)(args.effort);
        if let Some(seed) = args.seed {
            campaign = campaign.with_seed(seed);
        }
        let outcome = engine::execute(campaign, &cfg).map_err(|e| format!("{id}: {e}"))?;
        for (name, _) in &outcome.reduced {
            let expected = args.results_dir.join(format!("{name}.csv"));
            let actual = scratch.join(format!("{name}.csv"));
            let diffs = compare_csv_files(&expected, &actual, Tolerance::GOLDEN).map_err(|e| {
                format!("{name}: {e} (missing golden? regenerate with trim-bench --force)")
            })?;
            compared += 1;
            mismatches.extend(diffs);
        }
        if !args.quiet {
            cli::emit(&format!("  {id}: re-run complete, artifacts compared"));
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if mismatches.is_empty() {
        if !args.quiet {
            cli::emit(&format!(
                "  {compared} artifacts within tolerance (rel 1e-9, abs 1e-12)"
            ));
        }
        Ok(())
    } else {
        for m in &mismatches {
            cli::emit(&format!("  MISMATCH {m}"));
        }
        Err(format!(
            "{} golden mismatches across {compared} artifacts",
            mismatches.len()
        ))
    }
}
