//! The random draws behind the workload generators and the simulator.
//!
//! The paper's experiments draw task sizes from **uniform** (Figs. 7–9),
//! **normal** (Figs. 5–6), and **Poisson** (Figs. 10–11) distributions and
//! per-link communication costs from normal distributions (§4.3); the
//! dynamic-arrival streams draw exponential gaps. A uniform draw is
//! [`Rng::range_f64`]; the other three are the plain functions here. Each
//! takes its parameters as given (callers check them once, where they are
//! configured) and is built on [`Rng::next_f64`] / [`Rng::next_f64_open`],
//! so a draw consumes the same generator output wherever it is taken.
//!
//! ```
//! use dts_distributions::{dist, Prng};
//!
//! let mut rng = Prng::seed_from(1);
//! // The paper's Fig. 5 task sizes: μ = 1000 MFLOPs, σ² = 9·10⁵.
//! let x = dist::normal(&mut rng, 1000.0, 9.0e5_f64.sqrt());
//! assert!(x.is_finite());
//! let k = dist::poisson(&mut rng, 10.0);
//! assert!(k >= 0.0);
//! ```

use crate::rng::Rng;
use crate::special::ln_factorial;

/// One draw from the normal distribution with mean `mu` and standard
/// deviation `sigma`, by the Box–Muller transform: two uniforms give one
/// standard normal (the sine branch is discarded, so the draw is
/// stateless). Consumes two `u64`s.
#[inline]
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    let u1 = rng.next_f64_open(); // (0, 1]: safe for ln
    let u2 = rng.next_f64();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    mu + sigma * r * theta.cos()
}

/// One draw from the exponential distribution with rate `lambda` (mean
/// `1 / lambda`), by inversion. Consumes one `u64`.
#[inline]
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> f64 {
    -rng.next_f64_open().ln() / lambda
}

/// Threshold between Knuth's method and PTRS. Knuth needs `O(λ)` uniforms
/// per draw, PTRS `O(1)`, with the crossover in practice near 30.
const POISSON_PTRS_THRESHOLD: f64 = 30.0;

/// One draw from the Poisson distribution with mean `lambda`, returned as
/// an integer-valued `f64`.
///
/// * `lambda < 30`: Knuth's product-of-uniforms method, exact and fast for
///   small means (the paper's Fig. 10 uses mean 10).
/// * `lambda ≥ 30`: Hörmann's PTRS transformed-rejection sampler, exact for
///   all practical means (Fig. 11 uses mean 100).
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> f64 {
    if lambda < POISSON_PTRS_THRESHOLD {
        poisson_knuth(rng, lambda)
    } else {
        poisson_ptrs(rng, lambda)
    }
}

fn poisson_knuth<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> f64 {
    let limit = (-lambda).exp();
    let mut k = 0u64;
    let mut prod = rng.next_f64_open();
    while prod > limit {
        k += 1;
        prod *= rng.next_f64_open();
    }
    k as f64
}

/// PTRS: W. Hörmann, "The transformed rejection method for generating
/// Poisson random variables", Insurance: Mathematics and Economics 12
/// (1993). Valid for `lambda ≥ 10`.
fn poisson_ptrs<R: Rng + ?Sized>(rng: &mut R, lam: f64) -> f64 {
    let log_lam = lam.ln();
    let b = 0.931 + 2.53 * lam.sqrt();
    let a = -0.059 + 0.024_83 * b;
    let inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
    let v_r = 0.9277 - 3.6224 / (b - 2.0);
    loop {
        let u = rng.next_f64() - 0.5;
        let v = rng.next_f64_open();
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + lam + 0.43).floor();
        if us >= 0.07 && v <= v_r {
            return k;
        }
        if k < 0.0 || (us < 0.013 && v > us) {
            continue;
        }
        let lhs = (v * inv_alpha / (a / (us * us) + b)).ln();
        let rhs = k * log_lam - lam - ln_factorial(k as u64);
        if lhs <= rhs {
            return k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256PlusPlus;
    use crate::stats::OnlineStats;

    fn moments(n: usize, seed: u64, draw: impl Fn(&mut Xoshiro256PlusPlus) -> f64) -> OnlineStats {
        let mut rng = Xoshiro256PlusPlus::seed_from(seed);
        (0..n).map(|_| draw(&mut rng)).collect()
    }

    /// The first eight draws of each sampler at seed 2005, as `to_bits()`,
    /// followed by the generator's next `u64` (which pins how many words
    /// the eight draws consumed). The golden figure digests rest on these
    /// exact bits, so a rewrite that reorders a kernel's arithmetic or its
    /// draws fails here first.
    #[test]
    fn kernels_match_pinned_bits() {
        fn check(
            name: &str,
            draw: impl Fn(&mut Xoshiro256PlusPlus) -> f64,
            bits: [u64; 8],
            next: u64,
        ) {
            let mut rng = Xoshiro256PlusPlus::seed_from(2005);
            let got: Vec<u64> = (0..8).map(|_| draw(&mut rng).to_bits()).collect();
            assert_eq!(got, bits, "{name}: draws moved");
            assert_eq!(
                rng.next_u64(),
                next,
                "{name}: generator words consumed moved"
            );
        }
        check(
            "normal(1000, σ² = 9e5)",
            |r| normal(r, 1000.0, 9.0e5_f64.sqrt()),
            [
                0x4060_cbab_63b1_3b28,
                0x40a2_1fb1_3acd_34c2,
                0x4085_4d9b_1c67_ce60,
                0x408f_7d3f_e5dc_2c6c,
                0xc084_0a01_8724_0a9e,
                0xc08a_0ccb_82db_272e,
                0x409f_dcd9_64b4_d0ab,
                0x40a3_2d54_1d13_b25e,
            ],
            0x1d58_a665_027d_80d6,
        );
        check(
            "Poisson-stream gap, mean 0.5",
            |r| exponential(r, 1.0 / 0.5),
            [
                0x3ff1_b263_e84d_c6d3,
                0x3fe2_290d_530f_828a,
                0x3ff0_7e8f_76d5_2114,
                0x3ff0_5454_a047_7bfb,
                0x3fb2_970e_7e8c_ead5,
                0x3fcc_4209_d09e_607c,
                0x3fd0_18b8_e28d_9813,
                0x3fc2_4d6e_9865_1d12,
            ],
            0x03f5_a3f5_adcf_e847,
        );
        check(
            "poisson(10), Knuth",
            |r| poisson(r, 10.0),
            [
                0x4020_0000_0000_0000,
                0x4018_0000_0000_0000,
                0x4000_0000_0000_0000,
                0x4028_0000_0000_0000,
                0x402a_0000_0000_0000,
                0x4020_0000_0000_0000,
                0x4024_0000_0000_0000,
                0x4026_0000_0000_0000,
            ],
            0xf424_d430_0562_f27e,
        );
        check(
            "poisson(100), PTRS",
            |r| poisson(r, 100.0),
            [
                0x4055_4000_0000_0000,
                0x4055_c000_0000_0000,
                0x405c_4000_0000_0000,
                0x4059_c000_0000_0000,
                0x4055_c000_0000_0000,
                0x4059_4000_0000_0000,
                0x4057_0000_0000_0000,
                0x4055_8000_0000_0000,
            ],
            0x0017_6d40_48ba_52bc,
        );
        check(
            "uniform[10, 1000)",
            |r| r.range_f64(10.0, 1000.0),
            [
                0x405d_9805_2068_5e0f,
                0x4074_8336_44c4_0566,
                0x4060_fe7d_fe5e_7fdf,
                0x4061_5276_bdeb_834a,
                0x408b_115e_199b_cb42,
                0x4084_34f7_85a7_5ccc,
                0x4083_053f_6e28_4b9c,
                0x4087_8e24_6c0d_0eb6,
            ],
            0x03f5_a3f5_adcf_e847,
        );
    }

    #[test]
    fn uniform_bounds_and_moments() {
        let (lo, hi) = (10.0, 1000.0);
        let mut rng = Xoshiro256PlusPlus::seed_from(7);
        for _ in 0..10_000 {
            let x = rng.range_f64(lo, hi);
            assert!((lo..hi).contains(&x));
        }
        let s = moments(100_000, 7, |r| r.range_f64(lo, hi));
        let (mean, variance) = (0.5 * (lo + hi), (hi - lo) * (hi - lo) / 12.0);
        assert!((s.mean() - mean).abs() / mean < 0.01);
        assert!((s.variance() - variance).abs() / variance < 0.05);
    }

    #[test]
    fn normal_moments_match() {
        // The paper's Fig. 5 parameters.
        let s = moments(200_000, 11, |r| normal(r, 1000.0, 9.0e5_f64.sqrt()));
        assert!((s.mean() - 1000.0).abs() < 10.0, "mean {}", s.mean());
        assert!(
            (s.variance() - 9.0e5).abs() / 9.0e5 < 0.03,
            "variance {}",
            s.variance()
        );
    }

    #[test]
    fn normal_symmetry() {
        let mut rng = Xoshiro256PlusPlus::seed_from(13);
        let n = 100_000;
        let above = (0..n).filter(|_| normal(&mut rng, 0.0, 1.0) > 0.0).count();
        let frac = above as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "P(X>0) = {frac}");
    }

    #[test]
    fn exponential_moments() {
        let s = moments(200_000, 17, |r| exponential(r, 1.0 / 25.0));
        assert!((s.mean() - 25.0).abs() / 25.0 < 0.02);
        assert!((s.variance() - 625.0).abs() / 625.0 < 0.05);
        let mut rng = Xoshiro256PlusPlus::seed_from(18);
        for _ in 0..1000 {
            assert!(exponential(&mut rng, 1.0 / 25.0) >= 0.0);
        }
    }

    #[test]
    fn poisson_small_mean_knuth_branch() {
        // Paper Fig. 10: mean 10 MFLOPs.
        let s = moments(100_000, 19, |r| poisson(r, 10.0));
        assert!((s.mean() - 10.0).abs() < 0.1, "mean {}", s.mean());
        assert!((s.variance() - 10.0).abs() < 0.3, "var {}", s.variance());
    }

    #[test]
    fn poisson_large_mean_ptrs_branch() {
        // Paper Fig. 11: mean 100 MFLOPs — exercises PTRS.
        let s = moments(100_000, 23, |r| poisson(r, 100.0));
        assert!((s.mean() - 100.0).abs() < 0.5, "mean {}", s.mean());
        assert!(
            (s.variance() - 100.0).abs() / 100.0 < 0.05,
            "var {}",
            s.variance()
        );
    }

    #[test]
    fn poisson_samples_are_nonnegative_integers() {
        for lambda in [0.5, 5.0, 29.9, 30.1, 250.0] {
            let mut rng = Xoshiro256PlusPlus::seed_from(29);
            for _ in 0..2_000 {
                let x = poisson(&mut rng, lambda);
                // dts-lint: allow(float-eq, "integrality check: Poisson samples are exact non-negative integers, so fract() is exactly 0.0")
                assert!(x >= 0.0 && x.fract() == 0.0, "λ={lambda}: {x}");
            }
        }
    }

    #[test]
    fn poisson_continuity_across_threshold() {
        // Means just below and above the Knuth/PTRS switch should give
        // statistically indistinguishable moments.
        let lo = moments(150_000, 31, |r| poisson(r, 29.0));
        let hi = moments(150_000, 37, |r| poisson(r, 31.0));
        assert!((lo.mean() - 29.0).abs() < 0.2, "lo mean {}", lo.mean());
        assert!((hi.mean() - 31.0).abs() < 0.2, "hi mean {}", hi.mean());
    }
}
