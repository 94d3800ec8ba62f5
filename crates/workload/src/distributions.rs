//! Empirical distributions for HTTP packet-train workloads.
//!
//! The paper characterizes its 2 TB campus trace only through two CDFs
//! (Fig. 2): packet-train size and inter-train gap. [`EmpiricalCdf`]
//! reproduces a published CDF by inverse-transform sampling with
//! log-linear interpolation between the published points;
//! [`pt_size_bytes`] and [`pt_interval`] encode the paper's curves.

use rand::Rng;

/// An empirical distribution defined by `(value, cumulative probability)`
/// points, sampled by inverse transform with log-linear interpolation
/// (appropriate for the paper's log-scaled axes).
///
/// ```
/// use rand::SeedableRng;
/// use trim_workload::distributions::EmpiricalCdf;
///
/// let cdf = EmpiricalCdf::new(vec![(1.0, 0.0), (10.0, 0.5), (100.0, 1.0)])?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = cdf.sample(&mut rng);
/// assert!((1.0..=100.0).contains(&x));
/// assert!((cdf.quantile(0.5) - 10.0).abs() < 1e-9);
/// # Ok::<(), String>(())
/// ```
#[derive(Clone, Debug)]
pub struct EmpiricalCdf {
    points: Vec<(f64, f64)>,
}

impl EmpiricalCdf {
    /// Creates a distribution from CDF points.
    ///
    /// # Errors
    ///
    /// Returns a message when fewer than two points are given, values are
    /// not positive and strictly increasing, probabilities are not
    /// non-decreasing, or the first/last probabilities are not 0 and 1.
    #[expect(
        clippy::neg_cmp_op_on_partial_ord,
        reason = "`!(x > 0.0)` deliberately rejects NaN, unlike `x <= 0.0`"
    )]
    #[expect(
        clippy::float_cmp,
        reason = "CDF endpoints must be exactly 0 and 1; both are exactly representable"
    )]
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, String> {
        if points.len() < 2 {
            return Err("need at least two CDF points".into());
        }
        for w in points.windows(2) {
            if !(w[0].0 > 0.0) || !(w[1].0 > w[0].0) {
                return Err(format!(
                    "values must be positive and strictly increasing: {} then {}",
                    w[0].0, w[1].0
                ));
            }
            if w[1].1 < w[0].1 {
                return Err("probabilities must be non-decreasing".into());
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "new() rejected point sets shorter than two above"
        )]
        let first = points.first().expect("checked").1;
        #[expect(
            clippy::expect_used,
            reason = "new() rejected point sets shorter than two above"
        )]
        let last = points.last().expect("checked").1;

        if first != 0.0 || last != 1.0 {
            return Err(format!(
                "CDF must start at 0 and end at 1, got {first} and {last}"
            ));
        }
        Ok(EmpiricalCdf { points })
    }

    /// The value at cumulative probability `p`, by log-linear
    /// interpolation.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[expect(
        clippy::float_cmp,
        reason = "`c1 == c0` guards the division below; only exact equality divides by zero"
    )]
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        let i = self
            .points
            .partition_point(|&(_, c)| c < p)
            .clamp(1, self.points.len() - 1);
        let (v0, c0) = self.points[i - 1];
        let (v1, c1) = self.points[i];
        if c1 == c0 {
            return v1;
        }
        let t = ((p - c0) / (c1 - c0)).clamp(0.0, 1.0);
        (v0.ln() + t * (v1.ln() - v0.ln())).exp()
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(rng.random::<f64>())
    }

    /// The largest representable value.
    #[expect(
        clippy::expect_used,
        reason = "the constructor rejects empty point sets"
    )]
    pub fn max_value(&self) -> f64 {
        self.points.last().expect("validated non-empty").0
    }
}

/// The packet-train size distribution of Fig. 2(a): sizes from 0.5 KB to
/// 256 KB, with ~20% at or below 4 KB, ~70% between 4 KB and 128 KB, and
/// ~10% above 128 KB.
#[expect(
    clippy::expect_used,
    reason = "compile-time constant table; a typo fails every test"
)]
pub fn pt_size_bytes() -> EmpiricalCdf {
    EmpiricalCdf::new(vec![
        (512.0, 0.0),
        (4.0 * 1024.0, 0.20),
        (16.0 * 1024.0, 0.50),
        (64.0 * 1024.0, 0.78),
        (128.0 * 1024.0, 0.90),
        (256.0 * 1024.0, 1.0),
    ])
    .expect("static points are valid")
}

/// The inter-train gap distribution of Fig. 2(b): hundreds of microseconds
/// to several milliseconds, in nanoseconds.
#[expect(
    clippy::expect_used,
    reason = "compile-time constant table; a typo fails every test"
)]
pub fn pt_interval() -> EmpiricalCdf {
    EmpiricalCdf::new(vec![
        (100_000.0, 0.0),    // 100 us
        (500_000.0, 0.35),   // 500 us
        (1_000_000.0, 0.60), // 1 ms
        (3_000_000.0, 0.85), // 3 ms
        (10_000_000.0, 1.0), // 10 ms
    ])
    .expect("static points are valid")
}

/// A sample from the exponential distribution with the given mean, via
/// inverse transform. Used for the paper's "exponential distribution" SPT
/// start times (Fig. 8) and 1 ms-mean response intervals (Section II.B).
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean > 0.0, "mean must be positive");
    let u = rng.random::<f64>();
    // Guard the log: u in [0,1) -> use 1-u in (0,1].
    -(1.0 - u).ln() * mean
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact values are the expected results")]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quantile_interpolates_in_log_space() {
        let cdf = EmpiricalCdf::new(vec![(1.0, 0.0), (100.0, 1.0)]).unwrap();
        // Halfway in log space between 1 and 100 is 10.
        assert!((cdf.quantile(0.5) - 10.0).abs() < 1e-9);
        assert!((cdf.quantile(0.0) - 1.0).abs() < 1e-12);
        assert!((cdf.quantile(1.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn samples_stay_in_support() {
        let cdf = pt_size_bytes();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = cdf.sample(&mut rng);
            assert!((512.0..=262_144.0).contains(&v), "sample {v}");
        }
    }

    #[test]
    fn pt_size_matches_paper_proportions() {
        let cdf = pt_size_bytes();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mut tiny = 0; // <= 4 KB
        let mut large = 0; // >= 128 KB
        for _ in 0..n {
            let v = cdf.sample(&mut rng);
            if v <= 4096.0 {
                tiny += 1;
            }
            if v >= 131_072.0 {
                large += 1;
            }
        }
        let tiny_frac = tiny as f64 / n as f64;
        let large_frac = large as f64 / n as f64;
        assert!((tiny_frac - 0.20).abs() < 0.02, "tiny fraction {tiny_frac}");
        assert!(
            (large_frac - 0.10).abs() < 0.02,
            "large fraction {large_frac}"
        );
    }

    #[test]
    fn interval_range_matches_paper() {
        let cdf = pt_interval();
        assert!((cdf.quantile(0.0) - 100_000.0).abs() < 1e-6);
        assert_eq!(cdf.max_value(), 10_000_000.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mean: f64 = (0..5000).map(|_| cdf.sample(&mut rng)).sum::<f64>() / 5000.0;
        // Mean gap on the order of a millisecond.
        assert!(mean > 500_000.0 && mean < 3_000_000.0, "mean {mean}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = StdRng::seed_from_u64(9);
        let mean: f64 = (0..20_000).map(|_| exponential(&mut rng, 2.0)).sum::<f64>() / 20_000.0;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn invalid_cdfs_rejected() {
        assert!(EmpiricalCdf::new(vec![(1.0, 0.0)]).is_err());
        assert!(EmpiricalCdf::new(vec![(1.0, 0.0), (1.0, 1.0)]).is_err());
        assert!(EmpiricalCdf::new(vec![(2.0, 0.0), (1.0, 1.0)]).is_err());
        assert!(EmpiricalCdf::new(vec![(1.0, 0.5), (2.0, 1.0)]).is_err());
        assert!(EmpiricalCdf::new(vec![(1.0, 0.0), (2.0, 0.9)]).is_err());
        assert!(EmpiricalCdf::new(vec![(1.0, 0.0), (2.0, 0.5), (3.0, 0.2)]).is_err());
    }

    /// Same seed, same draw sequence — bit-identical, not merely close.
    /// The fuzzer and the campaign engine both lean on this: a scenario
    /// is its seed, so any platform- or run-dependent drift here would
    /// silently break replayable corpora.
    #[test]
    fn same_seed_yields_bit_identical_streams() {
        for seed in [0u64, 7, 42, u64::MAX] {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let sizes = pt_size_bytes();
            let gaps = pt_interval();
            for i in 0..500 {
                let (x, y) = (sizes.sample(&mut a), sizes.sample(&mut b));
                assert_eq!(x.to_bits(), y.to_bits(), "seed {seed} size draw {i}");
                let (x, y) = (gaps.sample(&mut a), gaps.sample(&mut b));
                assert_eq!(x.to_bits(), y.to_bits(), "seed {seed} gap draw {i}");
                let (x, y) = (exponential(&mut a, 1e6), exponential(&mut b, 1e6));
                assert_eq!(x.to_bits(), y.to_bits(), "seed {seed} exp draw {i}");
            }
        }
    }

    /// Different seeds must not collapse onto one stream (a degenerate
    /// seeding bug would also pass the determinism test above).
    #[test]
    fn different_seeds_diverge() {
        let cdf = pt_size_bytes();
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let distinct = (0..32)
            .filter(|_| cdf.sample(&mut a).to_bits() != cdf.sample(&mut b).to_bits())
            .count();
        assert!(distinct > 0, "seeds 1 and 2 produced identical streams");
    }

    /// Empirical means of the published CDFs are themselves stable
    /// facts of (curve, seed): pin them within a tolerance so a quiet
    /// change to interpolation or seeding shows up as a test failure,
    /// not as a shifted experiment.
    #[test]
    fn empirical_means_are_stable_across_seeds() {
        let sizes = pt_size_bytes();
        let gaps = pt_interval();
        let n = 20_000;
        for seed in [5u64, 17, 91] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mean_size: f64 = (0..n).map(|_| sizes.sample(&mut rng)).sum::<f64>() / n as f64;
            // Log-linear interpolation of Fig. 2(a) puts the mean near 40 KB.
            assert!(
                (30_000.0..55_000.0).contains(&mean_size),
                "seed {seed}: mean train size {mean_size}"
            );
            let mean_gap: f64 = (0..n).map(|_| gaps.sample(&mut rng)).sum::<f64>() / n as f64;
            assert!(
                (1_000_000.0..2_000_000.0).contains(&mean_gap),
                "seed {seed}: mean gap {mean_gap}"
            );
        }
    }

    #[test]
    fn quantile_monotone() {
        let cdf = pt_size_bytes();
        let mut prev = 0.0;
        for i in 0..=100 {
            let q = cdf.quantile(i as f64 / 100.0);
            assert!(q >= prev);
            prev = q;
        }
    }
}
