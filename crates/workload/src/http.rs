//! HTTP ON/OFF workload generators: schedules of [`TrainSpec`]s matching
//! the paper's evaluation scenarios.

use netsim::time::SimTime;
use rand::{Rng, RngExt};

use crate::distributions::{exponential, EmpiricalCdf};
use crate::scenario::TrainSpec;

/// The Section II.B impairment workload for one web server: 200 responses
/// of 2–10 KB starting at 0.1 s with ~1 ms-mean exponential spacing, then
/// a long packet train (>= 128 KB) at 0.5 s.
pub fn impairment_workload<R: Rng + ?Sized>(rng: &mut R) -> Vec<TrainSpec> {
    let mut specs = Vec::with_capacity(201);
    let mut t = 0.1;
    for _ in 0..200 {
        let bytes = rng.random_range(2_000..=10_000);
        specs.push(TrainSpec::at_secs(t, bytes));
        t += exponential(rng, 0.001);
    }
    specs.push(TrainSpec::at_secs(0.5, 150 * 1024));
    specs
}

/// A short packet train of `pkts` MSS-sized packets at `at` seconds
/// (the Fig. 5 SPT burst: 10 packets at 0.3 s).
pub fn spt(at: f64, pkts: u64, mss: u32) -> TrainSpec {
    TrainSpec::at_secs(at, pkts * mss as u64)
}

/// A long packet train running "throughout the test": one large train of
/// `bytes` at `at` seconds.
pub fn lpt(at: f64, bytes: u64) -> TrainSpec {
    TrainSpec::at_secs(at, bytes)
}

/// How SPT start times are spread over the Fig. 8 interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SptSpread {
    /// Uniform over the window.
    Uniform,
    /// Exponential inter-arrivals (truncated to the window).
    Exponential,
}

/// The Fig. 8 per-server SPT workload: `count` trains within
/// `[start, start+window]` seconds, sizes drawn from the Fig. 2(a) CDF,
/// start times spread per `spread`.
pub fn large_scale_workload<R: Rng + ?Sized>(
    rng: &mut R,
    size_dist: &EmpiricalCdf,
    count: usize,
    start: f64,
    window: f64,
    spread: SptSpread,
) -> Vec<TrainSpec> {
    let mut specs = Vec::with_capacity(count);
    let mut t = start;
    for i in 0..count {
        let at = match spread {
            SptSpread::Uniform => start + rng.random_range(0.0..window),
            SptSpread::Exponential => {
                t += exponential(rng, window / count as f64);
                start + (t - start) % window
            }
        };
        let bytes = size_dist.sample(rng).round() as u64;
        let _ = i;
        specs.push(TrainSpec {
            at: SimTime::from_secs_f64(at),
            bytes: bytes.max(1),
        });
    }
    specs.sort_by_key(|s| s.at);
    specs
}

/// The Fig. 12 fat-tree per-server workload: 1 MB split into small
/// objects of 2–6 KB starting at 0.1 s (spaced by `small_gap_mean`
/// exponential gaps) plus the big remainder at 0.5 s.
pub fn fat_tree_workload<R: Rng + ?Sized>(rng: &mut R, small_gap_mean: f64) -> Vec<TrainSpec> {
    let total: u64 = 1_000_000;
    let mut specs = Vec::new();
    let mut used = 0;
    let mut t = 0.1;
    // Small objects consume roughly 10% of the megabyte, as in the
    // paper's "some small objectives ... and a big one (the remained
    // data)".
    while used < total / 10 {
        let bytes = rng.random_range(2_000..=6_000);
        specs.push(TrainSpec::at_secs(t, bytes));
        used += bytes;
        t += exponential(rng, small_gap_mean);
    }
    specs.push(TrainSpec::at_secs(0.5, total - used));
    specs
}

/// The Fig. 13(a) testbed workload: `count` responses of sizes drawn
/// uniformly within ±10% of `mean_bytes`, spaced by `gap_mean`-second
/// exponential gaps from `start`.
pub fn testbed_responses<R: Rng + ?Sized>(
    rng: &mut R,
    count: usize,
    mean_bytes: u64,
    start: f64,
    gap_mean: f64,
) -> Vec<TrainSpec> {
    let lo = (mean_bytes as f64 * 0.9) as u64;
    let hi = (mean_bytes as f64 * 1.1) as u64;
    let mut specs = Vec::with_capacity(count);
    let mut t = start;
    for _ in 0..count {
        specs.push(TrainSpec::at_secs(t, rng.random_range(lo..=hi).max(1)));
        t += exponential(rng, gap_mean);
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::pt_size_bytes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn impairment_has_200_responses_and_one_lpt() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = impairment_workload(&mut rng);
        assert_eq!(w.len(), 201);
        for spec in &w[..200] {
            assert!(spec.bytes >= 2_000 && spec.bytes <= 10_000);
            assert!(spec.at >= SimTime::from_secs_f64(0.1));
            assert!(spec.at < SimTime::from_secs_f64(0.5));
        }
        let lpt = &w[200];
        assert_eq!(lpt.at, SimTime::from_secs_f64(0.5));
        assert!(lpt.bytes >= 128 * 1024);
    }

    #[test]
    fn spt_and_lpt_helpers() {
        let s = spt(0.3, 10, 1460);
        assert_eq!(s.bytes, 14_600);
        assert_eq!(s.at, SimTime::from_secs_f64(0.3));
        let l = lpt(0.1, 1 << 20);
        assert_eq!(l.bytes, 1 << 20);
    }

    #[test]
    fn large_scale_specs_in_window_and_sorted() {
        let mut rng = StdRng::seed_from_u64(8);
        let dist = pt_size_bytes();
        for spread in [SptSpread::Uniform, SptSpread::Exponential] {
            let specs = large_scale_workload(&mut rng, &dist, 50, 0.1, 0.5, spread);
            assert_eq!(specs.len(), 50);
            assert!(specs.windows(2).all(|w| w[0].at <= w[1].at));
            for s in &specs {
                assert!(s.at >= SimTime::from_secs_f64(0.1));
                assert!(s.at <= SimTime::from_secs_f64(0.6 + 1e-9));
                assert!(s.bytes >= 512);
            }
        }
    }

    #[test]
    fn fat_tree_totals_one_megabyte() {
        let mut rng = StdRng::seed_from_u64(2);
        let specs = fat_tree_workload(&mut rng, 0.002);
        let total: u64 = specs.iter().map(|s| s.bytes).sum();
        assert_eq!(total, 1_000_000);
        // Small objects first, big remainder last at 0.5 s.
        let last = specs.last().unwrap();
        assert_eq!(last.at, SimTime::from_secs_f64(0.5));
        assert!(last.bytes > 800_000);
        for s in &specs[..specs.len() - 1] {
            assert!(s.bytes >= 2_000 && s.bytes <= 6_000);
        }
    }

    #[test]
    fn testbed_sizes_within_ten_percent() {
        let mut rng = StdRng::seed_from_u64(4);
        let specs = testbed_responses(&mut rng, 100, 100_000, 0.0, 0.01);
        assert_eq!(specs.len(), 100);
        for s in &specs {
            assert!(s.bytes >= 90_000 && s.bytes <= 110_000);
        }
    }
}
