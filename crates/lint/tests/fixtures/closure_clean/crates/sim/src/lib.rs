//! Audited crate with nothing to report: its only dependency is scoped
//! too, and the event catalog is fully covered.

#![forbid(unsafe_code)]

pub mod engine;
pub mod monitor;
pub mod obs;

/// Deterministic all the way down.
pub fn step() -> u64 {
    util::pure_add(1, 2)
}

/// Wall-clock caller; the justification lives at the read itself.
pub fn banner_elapsed() -> u64 {
    util::wall_now()
}

/// Calls an ordered-map helper.
pub fn dedup(xs: &[u32]) -> usize {
    util::dedup_count(xs)
}
