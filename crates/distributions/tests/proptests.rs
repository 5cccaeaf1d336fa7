//! Property tests for the randomness and statistics substrate.

use dts_distributions::{dist, OnlineStats, Prng, Rng};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn below_always_in_range(n in 1usize..10_000, seed in 0u64..u64::MAX) {
        let mut rng = Prng::seed_from(seed);
        for _ in 0..64 {
            prop_assert!(rng.below(n) < n);
        }
    }

    #[test]
    fn range_f64_stays_inside(lo in -1e6..1e6f64, width in 1e-6..1e6f64, seed in 0u64..u64::MAX) {
        let hi = lo + width;
        let mut rng = Prng::seed_from(seed);
        for _ in 0..64 {
            let x = rng.range_f64(lo, hi);
            prop_assert!((lo..hi).contains(&x), "{x} escaped [{lo}, {hi})");
        }
    }

    #[test]
    fn shuffle_is_permutation(len in 0usize..200, seed in 0u64..u64::MAX) {
        let mut rng = Prng::seed_from(seed);
        let mut xs: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_samples_in_bounds(lo in -1e4..1e4f64, width in 1e-3..1e4f64, seed in 0u64..u64::MAX) {
        let mut rng = Prng::seed_from(seed);
        for _ in 0..32 {
            let x = rng.range_f64(lo, lo + width);
            prop_assert!((lo..lo + width).contains(&x));
        }
    }

    #[test]
    fn normal_samples_finite(mu in -1e5..1e5f64, sigma in 1e-3..1e4f64, seed in 0u64..u64::MAX) {
        let mut rng = Prng::seed_from(seed);
        for _ in 0..32 {
            prop_assert!(dist::normal(&mut rng, mu, sigma).is_finite());
        }
    }

    #[test]
    fn poisson_samples_are_nonneg_integers(lambda in 0.01..500.0f64, seed in 0u64..u64::MAX) {
        let mut rng = Prng::seed_from(seed);
        for _ in 0..16 {
            let x = dist::poisson(&mut rng, lambda);
            // dts-lint: allow(float-eq, "integrality check: Poisson samples are exact non-negative integers, so fract() is exactly 0.0")
            prop_assert!(x >= 0.0 && x.fract() == 0.0, "λ={lambda}: {x}");
        }
    }

    #[test]
    fn exponential_samples_nonnegative(mean in 1e-3..1e5f64, seed in 0u64..u64::MAX) {
        let mut rng = Prng::seed_from(seed);
        for _ in 0..32 {
            prop_assert!(dist::exponential(&mut rng, 1.0 / mean) >= 0.0);
        }
    }

    #[test]
    fn online_stats_match_two_pass(xs in proptest::collection::vec(-1e6..1e6f64, 1..200)) {
        let s: OnlineStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min(), min);
        prop_assert_eq!(s.max(), max);
        prop_assert!(s.variance() >= 0.0);
    }
}
