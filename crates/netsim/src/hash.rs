//! Fast deterministic hashing for hot-path lookup tables.
//!
//! The standard library's default hasher (SipHash-1-3) is keyed per
//! process and costs tens of cycles per integer key. Simulation hot
//! paths — flow demultiplexing, timer-cancellation sets, forced-drop
//! indices — hash small integers millions of times per run, so they use
//! this fixed-key finalizer instead: a single splitmix64 pass, the same
//! mixer the engine already uses for ECMP and seed derivation.
//!
//! Determinism: the hash of a key is a pure function of the key (no
//! per-process randomness), so any accidental dependence on hash-map
//! internals is at least reproducible across runs and machines. Code
//! must still never iterate these maps where ordering can influence
//! simulation results.

#![expect(
    clippy::disallowed_types,
    reason = "defines the deterministic aliases over the std maps"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The engine's standard 64-bit mixer (splitmix64 finalizer).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A [`Hasher`] that folds the input into a 64-bit accumulator and
/// finishes with one splitmix64 pass. Built for small integer keys
/// (`u32`/`u64`/newtypes thereof); byte-string input is folded 8 bytes
/// at a time, which is adequate for the short keys used here.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    state: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.state = mix64(self.state ^ u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.state = self.state.rotate_left(32) ^ u64::from(i);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = mix64(self.state) ^ i;
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// [`BuildHasherDefault`] over [`FastHasher`]: a drop-in, deterministic
/// `S` parameter for `HashMap`/`HashSet`.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` keyed with [`FastHasher`].
pub type FastHashSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FastHashMap<u64, u32> = FastHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, (i * 2) as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(m[&i], (i * 2) as u32);
        }
        let mut s: FastHashSet<u64> = FastHashSet::default();
        assert!(s.insert(42));
        assert!(!s.insert(42));
        assert!(s.remove(&42));
        assert!(!s.remove(&42));
    }

    #[test]
    fn hashing_is_deterministic_across_hasher_instances() {
        use std::hash::BuildHasher;
        let b = FastBuildHasher::default();
        let h = |x: u64| b.hash_one(x);
        assert_eq!(h(7), h(7));
        assert_ne!(h(7), h(8));
    }

    #[test]
    fn mix64_matches_known_splitmix_values() {
        // splitmix64(seed = 0) first output.
        assert_eq!(mix64(0), 0xe220_a839_7b1d_cdaf);
    }
}
