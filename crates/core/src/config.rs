//! Configuration of the PN scheduler.

use dts_ga::{Evaluator, GaConfig};

use crate::fitness::Fitness;
use crate::time_model::GaTimeModel;

/// All knobs of the PN scheduler. [`PnConfig::paper`] is the paper's §4.2
/// setup: micro-GA population of 20, up to 1000 generations, one rebalance
/// per individual per generation with 5 probes, batch size 200,
/// communication estimation enabled.
///
/// [`PnConfig::default`] is the same setup with one more stop: a plan call
/// also ends after 50 generations without an improvement in the best
/// makespan (`ga.plateau_generations`). A plan call then ends at the first
/// of the plateau, the 1000-generation cap and its `PlanBudget` (the §3.4
/// idle-horizon cap). The plateau draws no extra random numbers, so a
/// plateau-stopped run is an exact prefix of the same seed's
/// [`PnConfig::paper`] run; on the online path it ends a converged 30-task
/// batch after ≈ 50 generations instead of 1000 (ARCHITECTURE.md,
/// "Deviations from the paper"). The experiments run [`PnConfig::paper`].
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
    ///
    /// `f64::INFINITY` fixes the batch: `⌊∞ · √(Γ + 1)⌋` saturates to
    /// `usize::MAX`, which the sizer clamps to `max_batch`, so every batch
    /// after the first is `max_batch` (set `initial_batch` to match).
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
    /// The objective the GA maximises: PN's relative error (the default)
    /// or ZO's makespan ratio ([`PnConfig::zo_preset`]). It also names the
    /// scheduler: `PnScheduler::name` is [`Fitness::label`].
    pub fitness: Fitness,
    /// Seed for the scheduler's private RNG stream.
    pub seed: u64,
}

impl Default for PnConfig {
    fn default() -> Self {
        Self {
            ga: GaConfig {
                plateau_generations: Some(50),
                ..GaConfig::default()
            },
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
            fitness: Fitness::RelativeError,
            seed: 0x9A6E_2005,
        }
    }
}

impl PnConfig {
    /// The paper's §4.2 setup exactly: [`PnConfig::default`] without the
    /// plateau stop, so a plan call runs until the 1000-generation cap or
    /// its `PlanBudget`. Every figure and ablation runs this preset.
    ///
    /// ```
    /// use dts_core::PnConfig;
    ///
    /// assert_eq!(PnConfig::default().ga.plateau_generations, Some(50));
    /// assert_eq!(PnConfig::paper().ga.plateau_generations, None);
    /// ```
    pub fn paper() -> Self {
        Self {
            ga: GaConfig::default(),
            ..Self::default()
        }
    }

    /// ZO — Zomaya & Teh's dynamic GA load-balancer (TPDS 2001), the §4.1
    /// baseline the paper calls "the basis for our scheduler" — as a
    /// preset of the one planning pipeline. PN is ZO plus the paper's
    /// contributions, so ZO is PN with each of them switched off:
    ///
    /// | Aspect             | ZO (this preset)                        | PN ([`PnConfig::paper`])     |
    /// |--------------------|-----------------------------------------|------------------------------|
    /// | fitness            | makespan only (`MakespanRatio`)         | relative error incl. Γc      |
    /// | communication      | ignored (`use_comm_estimates: false`)   | predicted via smoothing      |
    /// | batch size         | fixed 200 (`batch_scale: ∞`)            | dynamic (§3.7)               |
    /// | initial population | random (`init_random_fraction: (1, 1)`) | list-scheduling (§3.3)       |
    /// | local improvement  | none (`rebalances_per_generation: 0`)   | rebalancing (§3.5)           |
    ///
    /// Everything else — the GA (micro-population of 20, up to 1000
    /// generations, roulette / cycle crossover / swap), the idle-horizon
    /// budget with its `min_generations` floor — is shared, and ZO stops
    /// as the paper does, with no plateau.
    /// ZO was made heterogeneous as the paper did it, by sizing tasks in
    /// MFLOPs rather than time. It keeps its own seed.
    ///
    /// ```
    /// use dts_core::{Fitness, PnConfig};
    ///
    /// let zo = PnConfig::zo_preset();
    /// assert_eq!(zo.fitness, Fitness::MakespanRatio);
    /// assert_eq!((zo.initial_batch, zo.max_batch), (200, 200));
    /// assert!(zo.validate().is_ok());
    /// ```
    pub fn zo_preset() -> Self {
        Self {
            rebalances_per_generation: 0,
            init_random_fraction: (1.0, 1.0),
            initial_batch: 200,
            batch_scale: f64::INFINITY,
            max_batch: 200,
            use_comm_estimates: false,
            fitness: Fitness::MakespanRatio,
            seed: 0x20_2001,
            ..Self::paper()
        }
    }

    /// Runs fitness evaluation on `workers` threads (1 = serial, 0 = all
    /// available cores). Purely a wall-clock knob: results are
    /// bit-identical at any worker count (`tests/determinism.rs`).
    pub fn with_eval_workers(mut self, workers: usize) -> Self {
        self.ga.evaluator = Evaluator::threads(workers);
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_paper() {
        for c in [PnConfig::paper(), PnConfig::zo_preset()] {
            assert_eq!(c.ga.plateau_generations, None, "§3.4 has no plateau");
            assert_eq!(c.ga.population_size, 20, "micro-GA");
            assert_eq!(c.ga.max_generations, 1000);
            assert_eq!(c.ga.target_makespan, None);
            assert!(c.validate().is_ok());
        }
        let c = PnConfig::paper();
        assert_eq!(c.rebalances_per_generation, 1);
        assert_eq!(c.rebalance_probes, 5);
        assert_eq!(c.initial_batch, 200);
        assert!(c.use_comm_estimates);
    }

    #[test]
    fn default_stops_on_a_plateau() {
        let c = PnConfig::default();
        assert_eq!(c.ga.plateau_generations, Some(50));
        assert_eq!(
            PnConfig {
                ga: GaConfig::default(),
                ..c
            },
            PnConfig::paper(),
            "the plateau is the only difference"
        );
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
}
