//! # trim-fuzz — differential scenario fuzzer for the TCP-TRIM
//! reproduction
//!
//! Generates randomized many-to-one scenarios ([`gen`]) from a
//! serializable [`ScenarioSpec`], runs each under the full `trim-check`
//! monitor suite plus the post-run differential oracles ([`oracle`]),
//! and on failure shrinks the spec to a minimal repro ([`shrink`])
//! written to a replayable corpus through the harness
//! [`ResultStore`](trim_harness::ResultStore).
//!
//! Everything is deterministic: a `(seed, iteration)` pair names a
//! scenario, replaying a corpus `.spec` file re-runs it bit-for-bit,
//! and the shrinker's passes are a fixed ordered list. See
//! `EXPERIMENTS.md` ("Fuzzing & differential oracles") for the triage
//! workflow.

#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::print_stdout))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gen;
pub mod oracle;
pub mod shrink;

use netsim::monitor::Violation;
use trim_check::OracleFailure;
use trim_harness::ResultStore;
use trim_workload::spec::ScenarioSpec;

/// [`trim_tcp::MSS_BYTES`] in the `u64` byte units of a spec.
const MSS: u64 = trim_tcp::MSS_BYTES as u64;

pub use gen::{gen_spec, GenConfig};
pub use shrink::{shrink, ShrinkStats};

/// The full judgment on one spec: monitor violations plus oracle
/// failures (either non-empty means the spec fails).
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Violations recorded by the attached invariant monitors.
    pub violations: Vec<Violation>,
    /// Failures reported by the differential oracles.
    pub oracle_failures: Vec<OracleFailure>,
}

impl Verdict {
    /// Whether anything went wrong.
    pub fn failed(&self) -> bool {
        !self.violations.is_empty() || !self.oracle_failures.is_empty()
    }

    /// A stable key naming the *first* problem — used as the shrink
    /// predicate so a spec never shrinks into a different bug, and as
    /// the corpus file name stem.
    pub fn key(&self) -> Option<String> {
        if let Some(v) = self.violations.first() {
            return Some(format!("monitor:{}", v.monitor));
        }
        self.oracle_failures
            .first()
            .map(|f| format!("oracle:{}", f.oracle))
    }

    /// One-line summary of the first problem.
    pub fn headline(&self) -> String {
        if let Some(v) = self.violations.first() {
            return v.to_string();
        }
        match self.oracle_failures.first() {
            Some(f) => f.to_string(),
            None => "clean".into(),
        }
    }
}

/// Runs `spec` under monitors + oracles. A spec the engine refuses to
/// run (invalid after a bad hand-edit) is reported as an `Err`.
pub fn check_spec(spec: &ScenarioSpec) -> Result<Verdict, String> {
    let outcome = spec.run()?;
    let oracle_failures = oracle::check_oracles(spec, &outcome);
    Ok(Verdict {
        violations: outcome.violations,
        oracle_failures,
    })
}

/// One failing fuzz case, before and after shrinking.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The iteration that produced it.
    pub iteration: u64,
    /// The spec as generated.
    pub original: ScenarioSpec,
    /// The minimal spec that still fails with the same [`Verdict::key`].
    pub shrunk: ScenarioSpec,
    /// The shrunk spec's verdict.
    pub verdict: Verdict,
    /// Shrinking effort.
    pub stats: ShrinkStats,
    /// Corpus path the shrunk spec was written to, when an output store
    /// was configured.
    pub artifact: Option<String>,
}

/// Fuzzer configuration.
#[derive(Debug)]
pub struct FuzzConfig {
    /// Number of `(seed, iteration)` scenarios to try.
    pub iterations: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Generator bounds.
    pub gen: GenConfig,
    /// Stop after this many failures (each one is shrunk, which costs
    /// many re-runs).
    pub max_failures: usize,
    /// Where to write shrunk repros (`fuzz/<key>_s<seed>_i<iter>.spec`),
    /// if anywhere.
    pub store: Option<ResultStore>,
    /// Suppress per-iteration progress on stderr.
    pub quiet: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iterations: 200,
            seed: 7,
            gen: GenConfig::default(),
            max_failures: 3,
            store: None,
            quiet: true,
        }
    }
}

/// What a fuzz campaign found.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Iterations actually run.
    pub iterations_run: u64,
    /// Every failure found (shrunk), in discovery order.
    pub failures: Vec<FuzzFailure>,
}

/// Runs the campaign: generate, judge, shrink, persist.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport::default();
    for iteration in 0..cfg.iterations {
        report.iterations_run = iteration + 1;
        let spec = gen_spec(cfg.seed, iteration, &cfg.gen);
        let verdict = match check_spec(&spec) {
            Ok(v) => v,
            Err(e) => {
                // A generator bug, not a scenario bug: surface loudly.
                panic!("generated spec failed to run at iteration {iteration}: {e}");
            }
        };
        if !verdict.failed() {
            continue;
        }
        let key = verdict.key().expect("failed verdict has a key");
        if !cfg.quiet {
            eprintln!(
                "iteration {iteration}: FAIL [{key}] {} — shrinking...",
                verdict.headline()
            );
        }
        let (shrunk, stats) = shrink(&spec, |candidate| {
            check_spec(candidate)
                .map(|v| v.key().as_deref() == Some(key.as_str()))
                .unwrap_or(false)
        });
        let mut shrunk = shrunk;
        let verdict = check_spec(&shrunk).expect("shrunk spec must run");
        // Stamp the expected verdict into the spec so a committed corpus
        // file carries its own replay expectation (`expect = monitor:...`
        // / `oracle:...`) instead of the harness inferring one.
        shrunk.expect = verdict.key();
        let artifact = cfg.store.as_ref().map(|store| {
            let stem = key.replace(':', "_");
            let rel = format!("fuzz/{stem}_s{}_i{iteration}.spec", cfg.seed);
            let header = format!(
                "# shrunk repro: {}\n# found by trim-fuzz --seed {} (iteration {iteration}); \
                 shrink accepted {} / rejected {}\n",
                verdict.headline(),
                cfg.seed,
                stats.accepted,
                stats.rejected
            );
            store
                .write_text_artifact(&rel, &format!("{header}{}", shrunk.to_text()))
                .expect("corpus write");
            rel
        });
        report.failures.push(FuzzFailure {
            iteration,
            original: spec,
            shrunk,
            verdict,
            stats,
            artifact,
        });
        if report.failures.len() >= cfg.max_failures {
            break;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_key_prefers_monitor_violations() {
        let v = Verdict {
            violations: vec![Violation {
                at: netsim::SimTime::from_nanos(5),
                monitor: "queue-bound",
                flow: None,
                detail: "x".into(),
            }],
            oracle_failures: vec![OracleFailure {
                oracle: "goodput-conservation",
                detail: "y".into(),
            }],
        };
        assert!(v.failed());
        assert_eq!(v.key().as_deref(), Some("monitor:queue-bound"));
        let clean = Verdict {
            violations: vec![],
            oracle_failures: vec![],
        };
        assert!(!clean.failed());
        assert_eq!(clean.key(), None);
        assert_eq!(clean.headline(), "clean");
    }
}
