//! Completion-time metrics: the ACT/ARCT summaries and CDFs the paper
//! reports.

use netsim::time::Dur;

/// Summary statistics over a set of completion times.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Mean in seconds (the paper's ACT/ARCT).
    pub mean: f64,
    /// Minimum in seconds.
    pub min: f64,
    /// Maximum in seconds (the paper's tail metric).
    pub max: f64,
    /// Median in seconds.
    pub p50: f64,
    /// 99th percentile in seconds.
    pub p99: f64,
    /// 99.9th percentile in seconds (the SLO tail metric).
    pub p999: f64,
}

impl Summary {
    /// Summarizes a set of durations. Returns the zero summary when the
    /// input is empty.
    pub fn of(samples: &[Dur]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut secs: Vec<f64> = samples.iter().map(|d| d.as_secs_f64()).collect();
        #[expect(clippy::expect_used, reason = "Dur::as_secs_f64 is always finite")]
        secs.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let count = secs.len();
        Summary {
            count,
            mean: secs.iter().sum::<f64>() / count as f64,
            min: secs[0],
            max: secs[count - 1],
            p50: percentile_sorted(&secs, 0.50),
            p99: percentile_sorted(&secs, 0.99),
            p999: percentile_sorted(&secs, 0.999),
        }
    }
}

/// The `p`-th percentile (0..=1) of an ascending-sorted slice, by the
/// nearest-rank method.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "empty sample set");
    assert!((0.0..=1.0).contains(&p), "percentile {p} out of range");
    // Nearest-rank wants ceil of the *exact* product p·n, but the f64
    // product can land one ulp above an integer (0.07 · 100 =
    // 7.000000000000001), and ceiling that overshoots by a whole rank —
    // an off-by-one that matters exactly at the small sample counts SLO
    // reports see. Snap near-integer products back before ceiling.
    let product = p * sorted.len() as f64;
    let nearest = product.round();
    let rank = if (product - nearest).abs() < 1e-9 * nearest.max(1.0) {
        nearest as usize
    } else {
        product.ceil() as usize
    };
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Empirical CDF points `(value_seconds, cumulative_fraction)` suitable
/// for plotting (Fig. 13(e)).
pub fn cdf_points(samples: &[Dur]) -> Vec<(f64, f64)> {
    let mut secs: Vec<f64> = samples.iter().map(|d| d.as_secs_f64()).collect();
    #[expect(clippy::expect_used, reason = "Dur::as_secs_f64 is always finite")]
    secs.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let n = secs.len();
    secs.into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n as f64))
        .collect()
}

/// The fraction of samples at or below `threshold`.
pub fn fraction_below(samples: &[Dur], threshold: Dur) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|&&d| d <= threshold).count() as f64 / samples.len() as f64
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact values are the expected results")]
mod tests {
    use super::*;

    fn ms(v: u64) -> Dur {
        Dur::from_millis(v)
    }

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[ms(10), ms(20), ms(30), ms(40)]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 0.025).abs() < 1e-12);
        assert_eq!(s.min, 0.010);
        assert_eq!(s.max, 0.040);
        assert_eq!(s.p50, 0.020);
        assert_eq!(s.p99, 0.040);
    }

    #[test]
    fn summary_empty() {
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn summary_single() {
        let s = Summary::of(&[ms(7)]);
        assert_eq!(s.count, 1);
        assert_eq!(s.min, s.max);
        assert_eq!(s.p50, 0.007);
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 0.2), 1.0);
        assert_eq!(percentile_sorted(&sorted, 0.21), 2.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 5.0);
    }

    #[test]
    fn percentile_snaps_float_products_to_exact_rank() {
        // 0.07 * 100 = 7.000000000000001 in f64; exact nearest-rank is
        // rank 7 (value 7.0), not rank 8. This regressed before the
        // near-integer snap.
        let sorted: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile_sorted(&sorted, 0.07), 7.0);
        // 0.07 * 200 = 14.000000000000002: rank 14.
        let sorted: Vec<f64> = (1..=200).map(|v| v as f64).collect();
        assert_eq!(percentile_sorted(&sorted, 0.07), 14.0);
        // Just-above-integer percentiles must still round up.
        assert_eq!(percentile_sorted(&sorted, 0.0701), 15.0);
    }

    #[test]
    fn percentile_known_answers_p50_p99_p999() {
        // n = 10, values 1..=10: p50 -> ceil(5) = rank 5; p99 ->
        // ceil(9.9) = rank 10; p999 -> ceil(9.99) = rank 10.
        let ten: Vec<f64> = (1..=10).map(|v| v as f64).collect();
        assert_eq!(percentile_sorted(&ten, 0.50), 5.0);
        assert_eq!(percentile_sorted(&ten, 0.99), 10.0);
        assert_eq!(percentile_sorted(&ten, 0.999), 10.0);
        // n = 1000, values 1..=1000: p50 -> rank 500; p99 -> rank 990;
        // p999 -> rank 999 exactly.
        let k: Vec<f64> = (1..=1000).map(|v| v as f64).collect();
        assert_eq!(percentile_sorted(&k, 0.50), 500.0);
        assert_eq!(percentile_sorted(&k, 0.99), 990.0);
        assert_eq!(percentile_sorted(&k, 0.999), 999.0);
        // n = 101 (not a multiple of anything convenient): p50 ->
        // ceil(50.5) = rank 51; p99 -> ceil(99.99) = rank 100; p999 ->
        // ceil(100.899) = rank 101.
        let odd: Vec<f64> = (1..=101).map(|v| v as f64).collect();
        assert_eq!(percentile_sorted(&odd, 0.50), 51.0);
        assert_eq!(percentile_sorted(&odd, 0.99), 100.0);
        assert_eq!(percentile_sorted(&odd, 0.999), 101.0);
    }

    #[test]
    fn summary_reports_p999() {
        let samples: Vec<Dur> = (1..=1000).map(ms).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.p50, 0.500);
        assert_eq!(s.p99, 0.990);
        assert_eq!(s.p999, 0.999);
        // Small sample sets degrade to the max, never past it.
        let s = Summary::of(&[ms(10), ms(20), ms(30), ms(40)]);
        assert_eq!(s.p999, 0.040);
    }

    #[test]
    fn cdf_points_cover_unit_interval() {
        let pts = cdf_points(&[ms(3), ms(1), ms(2)]);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (0.001, 1.0 / 3.0));
        assert_eq!(pts[2], (0.003, 1.0));
        // Sorted ascending by value.
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn fraction_below_threshold() {
        let samples = [ms(10), ms(20), ms(30)];
        assert_eq!(fraction_below(&samples, ms(20)), 2.0 / 3.0);
        assert_eq!(fraction_below(&samples, ms(5)), 0.0);
        assert_eq!(fraction_below(&[], ms(5)), 0.0);
    }
}
