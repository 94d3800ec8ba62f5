//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! The workspace pins its registry dependencies behind a mirror that is
//! not reachable from air-gapped build environments, so this crate
//! re-implements exactly the subset of the `rand` 0.10 API the
//! workspace uses: [`Rng`], [`RngExt`], [`SeedableRng`], and
//! [`rngs::StdRng`].
//!
//! `StdRng` is xoshiro256++ seeded through SplitMix64 — a small,
//! well-studied generator whose statistical quality is far beyond what
//! the simulations need. It is **not** cryptographically secure, and its
//! streams differ from upstream `rand`'s ChaCha-based `StdRng`; all
//! seeds in this repository were chosen against this implementation.

#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::print_stdout))]
#![warn(missing_docs)]

/// A source of randomness: the core 64-bit generator plus typed draws.
pub trait Rng {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Draws a uniformly distributed value of type `T`.
    ///
    /// For floats the result lies in `[0, 1)`.
    fn random<T: Standard>(&mut self) -> T {
        T::from_rng(self)
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be drawn uniformly from an [`Rng`].
pub trait Standard: Sized {
    /// Draws one value.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Range sampling, the `rng.random_range(lo..hi)` extension.
pub trait RngExt: Rng {
    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// A range that knows how to sample itself uniformly.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Draws from `[0, bound)` without modulo bias (Lemire's method with a
/// rejection fallback kept simple: widening multiply + threshold check).
fn uniform_below<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (bound as u128);
        let low = m as u64;
        if low >= bound && low < bound.wrapping_neg() {
            return (m >> 64) as u64;
        }
        // `low < bound` can be biased only in the narrow band below the
        // rejection threshold; re-check precisely.
        let threshold = bound.wrapping_neg() % bound;
        if low >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in random_range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + uniform_below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let u: $t = Standard::from_rng(rng);
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in random_range");
                let u: $t = Standard::from_rng(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// Deterministic construction from seed material.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ seeded via
    /// SplitMix64. Deterministic across platforms and runs.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngExt, SeedableRng};

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.random_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = r.random_range(5i32..=7);
            assert!((5..=7).contains(&y));
            let f = r.random_range(0.25f64..0.5);
            assert!((0.25..0.5).contains(&f));
            let u: f64 = r.random();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut r = StdRng::seed_from_u64(3);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.random::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let isum: u64 = (0..n).map(|_| r.random_range(0u64..100)).sum();
        let imean = isum as f64 / n as f64;
        assert!((imean - 49.5).abs() < 1.0, "mean {imean}");
    }

    #[test]
    fn works_through_dyn_like_bounds() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.random::<f64>()
        }
        let mut r = StdRng::seed_from_u64(2);
        let v = draw(&mut r);
        assert!((0.0..1.0).contains(&v));
    }

    /// Pins the exact xoshiro256++/SplitMix64 streams. Every campaign
    /// seed in `results/` was chosen against these streams, so any
    /// change to the generator is a breaking change to the goldens —
    /// this test makes that explicit.
    #[test]
    fn stream_is_pinned_for_known_seeds() {
        let expect_0 = [
            0x53175d61490b23df_u64,
            0x61da6f3dc380d507,
            0x5c0fdf91ec9a7bfc,
            0x02eebf8c3bbe5e1a,
        ];
        let expect_42 = [
            0xd0764d4f4476689f_u64,
            0x519e4174576f3791,
            0xfbe07cfb0c24ed8c,
            0xb37d9f600cd835b8,
        ];
        let mut r0 = StdRng::seed_from_u64(0);
        let mut r42 = StdRng::seed_from_u64(42);
        for i in 0..4 {
            assert_eq!(r0.next_u64(), expect_0[i], "seed 0, draw {i}");
            assert_eq!(r42.next_u64(), expect_42[i], "seed 42, draw {i}");
        }
    }

    #[test]
    fn integer_ranges_cover_every_value() {
        // A 4-value range must produce all 4 values quickly if sampling
        // is unbiased (expected ~4 draws per value; 1000 is generous).
        let mut r = StdRng::seed_from_u64(9);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[r.random_range(0usize..4)] = true;
        }
        assert_eq!(seen, [true; 4]);
        // Inclusive ranges reach both endpoints.
        let mut lo_hi = (false, false);
        for _ in 0..1000 {
            match r.random_range(-1i64..=1) {
                -1 => lo_hi.0 = true,
                1 => lo_hi.1 = true,
                _ => {}
            }
        }
        assert_eq!(lo_hi, (true, true));
    }

    #[test]
    fn full_u64_inclusive_range_does_not_loop_forever() {
        let mut r = StdRng::seed_from_u64(11);
        // span == u64::MAX takes the passthrough path.
        let _ = r.random_range(0u64..=u64::MAX);
        let _ = r.random_range(u64::MIN..=u64::MAX);
    }

    #[test]
    fn random_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(5);
        let n = 20_000;
        let hits = (0..n).filter(|_| r.random_bool(0.25)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "P(true) ~ 0.25, got {frac}");
        assert!((0..100).all(|_| !r.random_bool(0.0)));
        assert!((0..100).all(|_| r.random_bool(1.0)));
    }

    #[test]
    fn float_draws_fill_the_unit_interval_uniformly() {
        let mut r = StdRng::seed_from_u64(13);
        let n = 50_000;
        let mut buckets = [0u32; 10];
        for _ in 0..n {
            let u: f64 = r.random();
            assert!((0.0..1.0).contains(&u));
            buckets[(u * 10.0) as usize] += 1;
        }
        let expected = n as f64 / 10.0;
        for (i, &b) in buckets.iter().enumerate() {
            let dev = (b as f64 - expected).abs() / expected;
            assert!(dev < 0.1, "bucket {i}: {b} vs {expected}");
        }
    }
}
