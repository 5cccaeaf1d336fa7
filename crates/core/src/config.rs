//! Configuration of the PN scheduler.

use dts_ga::{Evaluator, GaConfig, IslandConfig};

use crate::time_model::GaTimeModel;

/// How the GA's initial population is seeded on each `plan` invocation.
///
/// The paper reseeds every batch from scratch via the §3.3 list-scheduling
/// initialiser. `CarryOver` instead warm-starts each run from the previous
/// batch's fittest schedules: because genes are batch-local slot indices,
/// the carried elites are first *remapped* onto the new batch's shape
/// ([`crate::init::remap_elite`]) — overlapping slots keep their
/// processor-queue positions, new slots are placed earliest-finish — and
/// the remainder of the population is filled with fresh list-scheduled
/// individuals. Warm-starting transfers the evolved load-balance structure
/// across invocations, so the GA needs fewer generations to re-converge in
/// dynamic-arrival scenarios.
///
/// Either strategy is deterministic: the carried population is itself a
/// pure function of the seeds, and the remap draws no randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedStrategy {
    /// Reseed from scratch every invocation (the paper's behaviour).
    #[default]
    Fresh,
    /// Carry the best `elites` schedules of the previous run forward as
    /// warm-start seeds (capped by the population size).
    CarryOver {
        /// How many of the previous run's best schedules to carry.
        elites: usize,
    },
}

impl SeedStrategy {
    /// True for [`SeedStrategy::CarryOver`].
    pub fn is_carry_over(self) -> bool {
        matches!(self, SeedStrategy::CarryOver { .. })
    }
}

/// All knobs of the PN scheduler. [`PnConfig::default`] reproduces the
/// paper's §4.2 setup: micro-GA population of 20, up to 1000 generations,
/// one rebalance per individual per generation with 5 probes, batch size
/// 200, communication estimation enabled.
///
/// Fitness evaluation runs serially by default; set
/// `ga.evaluator` (or call [`PnConfig::with_eval_workers`]) to evaluate
/// each generation's population on a thread pool. The schedule produced is
/// bit-identical either way:
///
/// ```
/// use dts_core::PnConfig;
/// use dts_ga::Evaluator;
///
/// let cfg = PnConfig::default().with_eval_workers(4);
/// assert_eq!(cfg.ga.evaluator, Evaluator::ThreadPool { workers: 4 });
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PnConfig {
    /// The underlying GA engine configuration.
    pub ga: GaConfig,
    /// Rebalance attempts per individual per generation (§3.5; Fig. 3
    /// studies 0, 1 and 50 — the paper settles on 1 "to enable the
    /// algorithm to run quickly").
    pub rebalances_per_generation: u32,
    /// Random probes for a larger task in the heaviest queue per rebalance
    /// attempt ("we only allow a maximum of 5 random searches").
    pub rebalance_probes: u32,
    /// Range of the per-individual fraction of tasks placed randomly by the
    /// list-scheduling initialiser (§3.3 leaves the percentage open; the
    /// remainder is placed earliest-finish).
    pub init_random_fraction: (f64, f64),
    /// Batch size for the first invocation, before any smoothed idle-time
    /// signal exists (the paper's experiments use 200).
    pub initial_batch: usize,
    /// Multiplier applied to the §3.7 rule `H = ⌊√(Γs + 1)⌋`. The raw rule
    /// yields impractically small batches for second-scale `s`; the
    /// multiplier preserves the rule's *shape* (monotone in the smoothed
    /// idle horizon) while letting experiments hit the paper's H ≈ 200
    /// regime. Documented in ARCHITECTURE.md, "Deviations from the paper".
    pub batch_scale: f64,
    /// Hard upper bound on a batch.
    pub max_batch: usize,
    /// Smoothing factor ν for the batch-size signal Γ(s_p) (§3.6–3.7).
    pub batch_nu: f64,
    /// Generations always granted even when a processor is about to idle.
    pub min_generations: u32,
    /// Modelled GA compute time charged to the scheduler host.
    pub time_model: GaTimeModel,
    /// Use smoothed communication estimates in the fitness (the paper's
    /// key differentiator). Disabling gives the `no-comm` ablation.
    pub use_comm_estimates: bool,
    /// How each `plan` invocation seeds its GA population: fresh §3.3
    /// list-scheduling (the paper), or warm-started from the previous
    /// batch's elites.
    pub seed_strategy: SeedStrategy,
    /// Island-model sharding of the GA population
    /// ([`dts_ga::IslandEngine`]). The default (`islands: 1`) is exactly
    /// the paper's monolithic GA; with more islands the same population
    /// budget is partitioned into concurrently evolving shards with
    /// deterministic elite migration.
    pub islands: IslandConfig,
    /// Seed for the scheduler's private RNG stream.
    pub seed: u64,
}

impl Default for PnConfig {
    fn default() -> Self {
        Self {
            ga: GaConfig::default(),
            rebalances_per_generation: 1,
            rebalance_probes: 5,
            init_random_fraction: (0.1, 0.9),
            initial_batch: 200,
            batch_scale: 40.0,
            max_batch: 1000,
            batch_nu: 0.5,
            min_generations: 10,
            time_model: GaTimeModel::default(),
            use_comm_estimates: true,
            seed_strategy: SeedStrategy::Fresh,
            islands: IslandConfig::default(),
            seed: 0x9A6E_2005,
        }
    }
}

impl PnConfig {
    /// Runs fitness evaluation on `workers` threads (1 = serial, 0 = all
    /// available cores). Purely a wall-clock knob: results are
    /// bit-identical at any worker count (`tests/determinism.rs`).
    pub fn with_eval_workers(mut self, workers: usize) -> Self {
        self.ga.evaluator = Evaluator::threads(workers);
        self
    }

    /// Warm-starts every `plan` invocation from the previous batch's best
    /// `elites` schedules (see [`SeedStrategy::CarryOver`]):
    ///
    /// ```
    /// use dts_core::{PnConfig, config::SeedStrategy};
    ///
    /// let cfg = PnConfig::default().with_warm_start(5);
    /// assert_eq!(cfg.seed_strategy, SeedStrategy::CarryOver { elites: 5 });
    /// assert!(cfg.validate().is_ok());
    /// ```
    pub fn with_warm_start(mut self, elites: usize) -> Self {
        self.seed_strategy = SeedStrategy::CarryOver { elites };
        self
    }

    /// Shards the GA population across islands with deterministic elite
    /// migration (see [`dts_ga::IslandEngine`]):
    ///
    /// ```
    /// use dts_core::PnConfig;
    /// use dts_ga::{IslandConfig, Topology};
    ///
    /// let cfg = PnConfig::default().with_islands(IslandConfig {
    ///     islands: 4,
    ///     migration_interval: 5,
    ///     migrants: 1,
    ///     topology: Topology::Ring,
    /// });
    /// assert_eq!(cfg.islands.islands, 4);
    /// assert!(cfg.validate().is_ok());
    /// ```
    pub fn with_islands(mut self, islands: IslandConfig) -> Self {
        self.islands = islands;
        self
    }

    /// Validates cross-field invariants. Called by the scheduler
    /// constructor; exposed for configuration loaders.
    pub fn validate(&self) -> Result<(), String> {
        if self.initial_batch == 0 {
            return Err("initial_batch must be ≥ 1".into());
        }
        if self.max_batch == 0 {
            return Err("max_batch must be ≥ 1".into());
        }
        let (lo, hi) = self.init_random_fraction;
        if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || lo > hi {
            return Err(format!("invalid init_random_fraction ({lo}, {hi})"));
        }
        if !(0.0..=1.0).contains(&self.batch_nu) {
            return Err(format!("batch_nu {} not in [0,1]", self.batch_nu));
        }
        if self.batch_scale.is_nan() || self.batch_scale <= 0.0 {
            return Err(format!("batch_scale {} must be positive", self.batch_scale));
        }
        if self.seed_strategy == (SeedStrategy::CarryOver { elites: 0 }) {
            return Err("carry-over elites must be ≥ 1".into());
        }
        self.islands
            .validate(self.ga.population_size, self.ga.elitism)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = PnConfig::default();
        assert_eq!(c.ga.population_size, 20, "micro-GA");
        assert_eq!(c.ga.max_generations, 1000);
        assert_eq!(c.rebalances_per_generation, 1);
        assert_eq!(c.rebalance_probes, 5);
        assert_eq!(c.initial_batch, 200);
        assert!(c.use_comm_estimates);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_fraction() {
        let mut c = PnConfig {
            init_random_fraction: (0.9, 0.1),
            ..PnConfig::default()
        };
        assert!(c.validate().is_err());
        c.init_random_fraction = (0.0, 1.5);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_zero_batch() {
        let c = PnConfig {
            initial_batch: 0,
            ..PnConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_batch_scale() {
        for bad in [f64::NAN, 0.0, -1.0] {
            let c = PnConfig {
                batch_scale: bad,
                ..PnConfig::default()
            };
            let err = c.validate().unwrap_err();
            assert!(err.contains("batch_scale"), "{bad}: {err}");
        }
    }

    #[test]
    fn validation_catches_bad_nu() {
        let c = PnConfig {
            batch_nu: 2.0,
            ..PnConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_zero_elites() {
        let c = PnConfig::default().with_warm_start(0);
        assert!(c.validate().is_err());
        assert!(PnConfig::default().with_warm_start(5).validate().is_ok());
    }

    #[test]
    fn validation_catches_degenerate_islands() {
        // migrants >= population/islands must be a diagnosable rejection.
        let mut c = PnConfig::default().with_islands(IslandConfig {
            islands: 4,
            migrants: 5,
            ..IslandConfig::default()
        });
        assert!(c.validate().is_err());
        c.islands.migrants = 4;
        assert!(c.validate().is_ok(), "pop 20 / 4 islands leaves room for 4");
        // More islands than the population can shard.
        c.islands = IslandConfig {
            islands: 16,
            migrants: 1,
            ..IslandConfig::default()
        };
        assert!(c.validate().is_err());
        // The default single island stays valid whatever the other knobs.
        assert!(PnConfig::default().validate().is_ok());
    }

    #[test]
    fn seed_strategy_default_is_fresh() {
        assert_eq!(SeedStrategy::default(), SeedStrategy::Fresh);
        assert!(!SeedStrategy::Fresh.is_carry_over());
        assert!(SeedStrategy::CarryOver { elites: 3 }.is_carry_over());
    }
}
