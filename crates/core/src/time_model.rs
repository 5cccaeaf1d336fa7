//! Modelled GA compute time.
//!
//! The paper dedicates a processor to the scheduler; while the GA evolves,
//! simulated time passes on that host and clients keep draining their
//! queues. To keep simulations deterministic and host-independent we charge
//! a *modelled* cost per generation instead of wall-clock time
//! (ARCHITECTURE.md, "Deviations from the paper"): one generation costs
//!
//! ```text
//! seconds = per_gene · ρ · (H + M − 1) · (passes + rebalance_passes · R)
//! ```
//!
//! where ρ is the population size, `H + M − 1` the chromosome length,
//! `passes` the fixed per-generation work (selection + crossover + fitness
//! evaluation ≈ 3 linear passes), and each §3.5 rebalance costs about one
//! more fitness pass — which is what makes Fig. 4's measured time **linear
//! in the number of rebalances**, a shape this model preserves by
//! construction.

/// Per-generation cost model for the GA scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaTimeModel {
    /// Seconds per (individual × gene × pass). The default was calibrated
    /// against release-build measurements of this crate's GA on a ~2 GHz
    /// core (≈ 15 ns per gene-visit including overheads).
    pub per_gene: f64,
    /// Fixed linear passes per generation (selection, crossover, fitness).
    pub passes: f64,
    /// Additional passes per rebalance per generation.
    pub rebalance_passes: f64,
}

impl Default for GaTimeModel {
    fn default() -> Self {
        Self {
            per_gene: 15e-9,
            passes: 3.0,
            rebalance_passes: 1.0,
        }
    }
}

impl GaTimeModel {
    /// Cost of one generation for batch size `h`, `m` processors,
    /// population `rho` and `rebalances` rebalance attempts per individual.
    pub fn seconds_per_generation(&self, h: usize, m: usize, rho: usize, rebalances: u32) -> f64 {
        let genes = (h + m.saturating_sub(1)) as f64;
        self.per_gene
            * rho as f64
            * genes
            * (self.passes + self.rebalance_passes * rebalances as f64)
    }

    /// Generations affordable within `budget_seconds` (0 if the budget is
    /// non-positive).
    pub fn generations_within(
        &self,
        budget_seconds: f64,
        h: usize,
        m: usize,
        rho: usize,
        rebalances: u32,
    ) -> u32 {
        if budget_seconds <= 0.0 {
            return 0;
        }
        let per_gen = self.seconds_per_generation(h, m, rho, rebalances);
        if per_gen <= 0.0 {
            return u32::MAX;
        }
        (budget_seconds / per_gen).floor().min(u32::MAX as f64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_scales_linearly_in_batch_and_population() {
        let m = GaTimeModel::default();
        let base = m.seconds_per_generation(100, 50, 20, 1);
        // Chromosome lengths are H + M − 1 = 149 and 249 genes.
        let ratio = m.seconds_per_generation(200, 50, 20, 1) / base;
        assert!((ratio - 249.0 / 149.0).abs() < 1e-12);
        // Doubling the population exactly doubles the cost.
        assert!((m.seconds_per_generation(100, 50, 40, 1) / base - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cost_is_linear_in_rebalances() {
        // The Fig. 4 shape: time(R) = a + b·R.
        let m = GaTimeModel::default();
        let t0 = m.seconds_per_generation(100, 50, 20, 0);
        let t1 = m.seconds_per_generation(100, 50, 20, 1);
        let t5 = m.seconds_per_generation(100, 50, 20, 5);
        let slope1 = t1 - t0;
        let slope5 = (t5 - t0) / 5.0;
        assert!((slope1 - slope5).abs() < 1e-15);
        assert!(slope1 > 0.0);
    }

    #[test]
    fn generations_within_budget() {
        let m = GaTimeModel::default();
        let per_gen = m.seconds_per_generation(200, 50, 20, 1);
        assert_eq!(m.generations_within(per_gen * 10.0, 200, 50, 20, 1), 10);
        assert_eq!(m.generations_within(0.0, 200, 50, 20, 1), 0);
        assert_eq!(m.generations_within(-5.0, 200, 50, 20, 1), 0);
    }

    #[test]
    fn default_magnitudes_are_sane() {
        // A paper-sized batch (H=200, M=50, ρ=20, R=1) should cost
        // well under a millisecond per generation — so a full 1000-gen run
        // stays under a second of scheduler-host time.
        let m = GaTimeModel::default();
        let per_gen = m.seconds_per_generation(200, 50, 20, 1);
        assert!(per_gen > 1e-6 && per_gen < 1e-3, "{per_gen}");
    }
}
