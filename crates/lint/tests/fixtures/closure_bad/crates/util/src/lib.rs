//! Helper crate where nondeterminism hides: outside every scope as
//! committed, so nothing here is reported until the scopes include it.

#![forbid(unsafe_code)]

/// Reads the wall clock (TL001 once `crates/util` is scoped).
pub fn wall_now() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}

/// Iterates a std HashMap (TL002 once scoped).
pub fn count_keys() -> usize {
    let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    m.len()
}

/// Constructs a PRNG from ambient entropy (TL204 once scoped).
pub fn entropy_seed() -> u64 {
    let r = thread_rng();
    r
}

fn thread_rng() -> u64 {
    4
}

/// Deterministic helper: callers of this stay clean.
pub fn pure_add(a: u64, b: u64) -> u64 {
    a.wrapping_add(b)
}
