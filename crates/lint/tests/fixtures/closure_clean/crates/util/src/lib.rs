//! Helper crate inside the scopes: deterministic helpers and one
//! wall-clock reader with an explicit suppression.

#![forbid(unsafe_code)]

/// Deterministic helper: callers of this stay clean.
pub fn pure_add(a: u64, b: u64) -> u64 {
    a.wrapping_add(b)
}

/// Reads the wall clock for an operator-facing banner.
pub fn wall_now() -> u64 {
    let t = std::time::Instant::now(); // trim-lint: allow(no-wall-clock, reason = "operator-facing progress banner, never feeds sim state")
    t.elapsed().as_nanos() as u64
}

/// Counts distinct values through an ordered set.
pub fn dedup_count(xs: &[u32]) -> usize {
    let keys: std::collections::BTreeSet<u32> = xs.iter().copied().collect();
    keys.len()
}
