//! Communication links between clients and the scheduler.
//!
//! Per §4.3: "The horizontal axis … is the mean communication cost for all
//! communication links between all clients and the scheduler. Each
//! communications link has its own randomly generated mean cost, which is
//! normally distributed."
//!
//! We model that two-level structure directly: a [`CommCostSpec`] holds the
//! *global* mean cost `C` and the spread of per-link means around it; each
//! generated [`Link`] holds its own mean `μⱼ ~ Normal(C, C·link_spread)`,
//! and each message on link `j` costs `Normal(μⱼ, μⱼ·message_jitter)`
//! seconds, truncated below at a small positive floor.

use dts_distributions::{dist, Prng};

use crate::processor::ProcessorId;

/// Smallest admissible per-message cost, in seconds. Keeps truncated normal
/// draws strictly positive so event times stay monotone.
pub const MIN_MESSAGE_COST: f64 = 1e-6;

/// Global description of the communication environment.
#[derive(Debug, Clone, PartialEq)]
pub struct CommCostSpec {
    /// Global mean one-way message cost `C`, in seconds.
    pub mean_cost: f64,
    /// Relative spread of per-link means: `μⱼ ~ Normal(C, C·link_spread)`.
    pub link_spread: f64,
    /// Relative jitter of individual messages: cost `~ Normal(μⱼ, μⱼ·jitter)`.
    pub message_jitter: f64,
}

impl CommCostSpec {
    /// A spec with the paper's two-level structure and moderate defaults:
    /// 25 % spread between links, 10 % jitter between messages.
    pub fn with_mean(mean_cost: f64) -> Self {
        assert!(
            mean_cost.is_finite() && mean_cost >= 0.0,
            "invalid mean communication cost {mean_cost}"
        );
        Self {
            mean_cost,
            link_spread: 0.25,
            message_jitter: 0.10,
        }
    }

    /// A zero-cost environment (instantaneous messaging) — the assumption
    /// the paper criticises in earlier work, useful as a control.
    pub fn free() -> Self {
        Self {
            mean_cost: 0.0,
            link_spread: 0.0,
            message_jitter: 0.0,
        }
    }

    /// Draws the per-link mean for one link: a normal truncated below at
    /// [`MIN_MESSAGE_COST`], because a link's mean cost cannot be ≤ 0.
    pub fn draw_link_mean(&self, rng: &mut Prng) -> f64 {
        truncated_normal(rng, self.mean_cost, self.link_spread)
    }
}

/// One draw from `Normal(mean, mean·spread)` truncated below at
/// [`MIN_MESSAGE_COST`], the shape of per-link means and of per-message
/// costs. A free mean (≤ 0) gives 0 and a spread that leaves σ ≤ 0 gives
/// the mean, both without drawing; otherwise the draw is repeated until it
/// exceeds the floor (64-attempt cap, then the floor).
///
/// # Panics
///
/// Panics when the mean or σ is not finite (e.g. a NaN or infinite spread).
fn truncated_normal(rng: &mut Prng, mean: f64, spread: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    let sigma = mean * spread;
    if sigma <= 0.0 {
        return mean;
    }
    assert!(
        mean.is_finite() && sigma.is_finite(),
        "link cost normal(mu={mean}, sigma={sigma}) must be finite"
    );
    for _ in 0..64 {
        let x = dist::normal(rng, mean, sigma);
        if x > MIN_MESSAGE_COST {
            return x;
        }
    }
    MIN_MESSAGE_COST
}

/// One client↔scheduler link with its own mean cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// The processor this link connects to the scheduler.
    pub processor: ProcessorId,
    /// This link's mean one-way message cost `μⱼ`, in seconds.
    pub mean_cost: f64,
    /// Relative per-message jitter.
    pub message_jitter: f64,
}

impl Link {
    /// Creates a link.
    pub fn new(processor: ProcessorId, mean_cost: f64, message_jitter: f64) -> Self {
        assert!(
            mean_cost.is_finite() && mean_cost >= 0.0,
            "invalid link mean cost {mean_cost}"
        );
        Self {
            processor,
            mean_cost,
            message_jitter,
        }
    }

    /// Samples the cost of one message on this link, in seconds.
    ///
    /// Free links (mean 0) always return 0; stochastic links return a
    /// truncated normal draw ≥ [`MIN_MESSAGE_COST`].
    pub fn sample_cost(&self, rng: &mut Prng) -> f64 {
        truncated_normal(rng, self.mean_cost, self.message_jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_distributions::OnlineStats;

    #[test]
    fn free_spec_is_all_zero() {
        let spec = CommCostSpec::free();
        let mut rng = Prng::seed_from(1);
        assert_eq!(spec.draw_link_mean(&mut rng), 0.0);
        let link = Link::new(ProcessorId(0), 0.0, 0.1);
        assert_eq!(link.sample_cost(&mut rng), 0.0);
    }

    #[test]
    fn link_means_scatter_around_global_mean() {
        let spec = CommCostSpec::with_mean(50.0);
        let mut rng = Prng::seed_from(42);
        let stats: OnlineStats = (0..2000).map(|_| spec.draw_link_mean(&mut rng)).collect();
        assert!((stats.mean() - 50.0).abs() < 2.0, "mean {}", stats.mean());
        assert!(stats.std_dev() > 5.0, "links should differ");
        assert!(stats.min() > 0.0, "truncation keeps means positive");
    }

    #[test]
    fn message_costs_positive_and_centered() {
        let link = Link::new(ProcessorId(3), 20.0, 0.1);
        let mut rng = Prng::seed_from(7);
        let stats: OnlineStats = (0..5000).map(|_| link.sample_cost(&mut rng)).collect();
        assert!((stats.mean() - 20.0).abs() < 0.5, "mean {}", stats.mean());
        assert!(stats.min() >= MIN_MESSAGE_COST);
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let link = Link::new(ProcessorId(3), 20.0, 0.0);
        let mut rng = Prng::seed_from(7);
        for _ in 0..10 {
            assert_eq!(link.sample_cost(&mut rng), 20.0);
        }
    }

    #[test]
    #[should_panic]
    fn negative_mean_rejected() {
        let _ = Link::new(ProcessorId(0), -1.0, 0.0);
    }
}
