//! Audited simulation crate: the first three functions reach a source
//! only through `util`, so the token rules stay silent on this file and
//! the dependency-closure rule must name the edge they hide behind.

#![forbid(unsafe_code)]

pub mod engine;
pub mod monitor;
pub mod obs;
pub mod state;

/// Reaches `Instant::now` via `util::wall_now`.
pub fn step() -> u64 {
    util::wall_now()
}

/// Reaches std `HashMap` via `util::count_keys`.
pub fn tally() -> usize {
    util::count_keys()
}

/// Reaches `thread_rng` via `util::entropy_seed`.
pub fn reseed() -> u64 {
    util::entropy_seed()
}

/// TL204: names an ambient-entropy source itself.
pub fn direct_entropy() -> u64 {
    let r = OsRng;
    r.next()
}

/// Clean function carrying a stale suppression (TL008).
pub fn settled() -> u64 {
    // trim-lint: allow(shard-safety, reason = "left over")
    util::pure_add(1, 2)
}

struct OsRng;

impl OsRng {
    fn next(&self) -> u64 {
        7
    }
}
