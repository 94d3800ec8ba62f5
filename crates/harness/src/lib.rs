//! # trim-harness — the simulation-campaign engine
//!
//! Turns an experiment's parameter sweep into a set of independent,
//! seeded [`Job`]s, executes them on a work-stealing thread pool, and
//! persists every result as a deterministic artifact:
//!
//! - **Determinism.** Each job's RNG seed derives from the campaign
//!   seed and the job key alone, so artifacts are byte-identical
//!   regardless of worker count or scheduling order.
//! - **Artifacts.** Every job writes its tables as CSV under
//!   `results/jobs/<campaign>/<key>/`; a run manifest
//!   (`results/manifest.json`) records job keys, parameters, seeds,
//!   wall-clock, and row counts.
//! - **Resume.** A completed job's artifacts are reused on the next run
//!   (`--force` recomputes); the reduce step reads job tables back from
//!   the store, so skipped and freshly-run jobs are indistinguishable.
//!
//! The engine knows nothing about TCP or the paper: experiments in
//! `trim-experiments` build [`Campaign`]s and hand them to
//! [`engine::execute`]. The `trim-bench` binary is the user-facing CLI.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::dbg_macro, clippy::print_stdout, clippy::float_cmp)
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod engine;
pub mod job;
pub mod progress;
pub mod store;
pub mod table;

pub use cli::CliArgs;
pub use engine::{execute, CampaignOutcome, ExecConfig};
pub use job::{record_for, Artifacts, Campaign, Job, JobParams, JobRecord};
pub use store::ResultStore;
pub use table::Table;

/// How much work an experiment should do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effort {
    /// Reduced sweeps/repetitions: minutes for the whole suite.
    Quick,
    /// Paper-scale parameters.
    Full,
}

impl Effort {
    /// Picks `quick` or `full` by effort.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Effort::Quick => quick,
            Effort::Full => full,
        }
    }
}

/// FNV-1a over a byte string; the stable hash used for seed derivation.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates structured seed material.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_pick() {
        assert_eq!(Effort::Quick.pick(1, 2), 1);
        assert_eq!(Effort::Full.pick(1, 2), 2);
    }

    #[test]
    fn hashes_are_stable() {
        assert_eq!(fnv1a(b"trace"), fnv1a(b"trace"));
        assert_ne!(fnv1a(b"trace"), fnv1a(b"kmodel"));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
