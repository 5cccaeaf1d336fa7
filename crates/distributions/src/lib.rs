//! Deterministic pseudo-randomness and statistics substrate for the `dts`
//! workspace.
//!
//! Page & Naughton's evaluation (IPPS 2005, §4) generates task sets from
//! **uniform**, **normal**, and **Poisson** distributions, draws per-link
//! communication costs from normal distributions, and averages every plotted
//! point over tens of independent simulation runs. This crate provides all of
//! that machinery from scratch so that the whole reproduction is
//! bit-for-bit deterministic given a master seed:
//!
//! * [`rng`] — a [`SplitMix64`] seeder and the
//!   [xoshiro256++](rng::Xoshiro256PlusPlus) generator, plus the [`Rng`]
//!   trait with range/shuffle helpers (a uniform draw is
//!   [`Rng::range_f64`]).
//! * [`dist`] — the [`normal`](dist::normal) (Box–Muller),
//!   [`exponential`](dist::exponential) and [`poisson`](dist::poisson)
//!   (Knuth product method + Hörmann's PTRS transformed rejection for large
//!   means) draws, plain functions over any [`Rng`].
//! * [`stats`] — Welford online moments and normal-approximation
//!   confidence intervals used by the experiment harness.
//!
//! # Determinism
//!
//! Every stochastic component in the workspace receives an explicit 64-bit
//! seed. Experiments fan independent streams out of a master seed with
//! [`rng::SeedSequence`], so replications can run on any number of threads
//! without perturbing results.
//!
//! # Example
//!
//! ```
//! use dts_distributions::{dist, Prng, Rng};
//!
//! let mut rng = Prng::seed_from(42);
//! let x = dist::normal(&mut rng, 1000.0, 9.0e5_f64.sqrt());
//! assert!(x.is_finite());
//! let y = rng.range_f64(10.0, 1000.0);
//! assert!((10.0..1000.0).contains(&y));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod dist;
pub mod rng;
pub mod special;
pub mod stats;

pub use rng::{Rng, SeedSequence, SplitMix64, Xoshiro256PlusPlus};
pub use stats::OnlineStats;

/// The default generator used throughout the workspace.
///
/// An alias so call sites stay stable if the underlying algorithm is swapped.
pub type Prng = rng::Xoshiro256PlusPlus;
