//! # trim-experiments — the evaluation suite
//!
//! One module per table/figure of the paper's evaluation (Section IV),
//! each regenerating the corresponding result on the `netsim` + `trim-tcp`
//! stack. Every experiment describes its sweep as a `trim-harness`
//! [`Campaign`]: independent seeded jobs executed on a work-stealing
//! pool, with per-job CSV artifacts, resume, and a run manifest under
//! `results/`.
//!
//! Run everything, or a selection, with the one CLI (`cargo run
//! --release --bin trim-bench -- --only trace,kmodel --jobs 4`). Pass
//! `--full` for paper-scale parameters; the default "quick" effort uses
//! smaller sweeps so the whole suite finishes in minutes.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::dbg_macro, clippy::print_stdout, clippy::float_cmp)
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use trim_harness::{engine, CliArgs, ExecConfig};

pub mod experiments;
pub mod registry;

pub use trim_harness::table;
pub use trim_harness::{Effort, Table};

/// Drives a selection of experiments from parsed CLI options: the
/// `main` of `trim-bench`.
///
/// # Errors
///
/// Returns a message naming any unknown experiment id; I/O errors from
/// the result store are formatted into the message.
pub fn drive(args: &CliArgs) -> Result<(), String> {
    if args.list {
        for spec in registry::ALL {
            trim_harness::cli::emit(&format!("{:<16} {}", spec.id, spec.title));
        }
        return Ok(());
    }
    let selected: Vec<&registry::ExperimentSpec> = match &args.only {
        None => registry::ALL.iter().collect(),
        Some(ids) => ids
            .iter()
            .map(|id| {
                registry::find(id).ok_or_else(|| format!("unknown experiment '{id}' (see --list)"))
            })
            .collect::<Result<_, _>>()?,
    };
    let cfg = ExecConfig {
        jobs: args.jobs,
        force: args.force,
        results_dir: args.results_dir.clone(),
        quiet: args.quiet,
    };
    for spec in selected {
        let t0 = std::time::Instant::now(); // trim-lint: allow(no-wall-clock, reason = "per-experiment wall time for the console summary; never enters results")
        trim_harness::cli::emit(&format!("\n########## {} ##########", spec.title));
        let mut campaign = (spec.campaign)(args.effort);
        if let Some(seed) = args.seed {
            campaign = campaign.with_seed(seed);
        }
        let outcome = engine::execute(campaign, &cfg).map_err(|e| format!("{}: {e}", spec.id))?;
        for table in outcome.into_tables() {
            table.print();
        }
        trim_harness::cli::emit(&format!(
            "[{}: {:.1}s]",
            spec.id,
            t0.elapsed().as_secs_f64()
        ));
    }
    Ok(())
}

/// Formats an `f64` exactly (shortest round-trip); job artifacts use
/// this so the reduce step recovers bit-identical values from CSV.
pub(crate) fn num(x: f64) -> String {
    table::num(x)
}

/// Executes `campaign` from scratch into its own temporary results
/// directory (`force`, so no earlier run's job CSVs can stand in for
/// the code under test) and returns the reduce tables. `tag` must be
/// unique per calling test: tests run on parallel threads.
#[cfg(test)]
pub(crate) fn run_fresh(tag: &str, campaign: trim_harness::Campaign) -> Vec<Table> {
    let dir = std::env::temp_dir().join(format!("trim-exp-{tag}-{}", std::process::id()));
    let cfg = ExecConfig {
        force: true,
        results_dir: dir.clone(),
        quiet: true,
        ..ExecConfig::default()
    };
    let tables = engine::execute(campaign, &cfg)
        .expect("campaign runs")
        .into_tables();
    let _ = std::fs::remove_dir_all(&dir);
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_findable() {
        for spec in registry::ALL {
            assert_eq!(registry::find(spec.id).unwrap().id, spec.id);
        }
        let mut ids: Vec<_> = registry::ALL.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), registry::ALL.len());
    }

    #[test]
    fn drive_rejects_unknown_ids() {
        let args = CliArgs {
            only: Some(vec!["nope".into()]),
            ..CliArgs::default()
        };
        assert!(drive(&args).unwrap_err().contains("nope"));
    }
}
