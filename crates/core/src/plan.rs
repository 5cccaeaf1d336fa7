//! The one planning pipeline: [`plan_batch`] and [`Planner`].
//!
//! The paper's scheduler is one loop — take a batch (§3.7), evolve it
//! under the §3.4 stopping conditions, append the winner to the processor
//! queues. This module is the only place that loop's middle is written:
//!
//! * [`plan_batch`] is the **one stateless call**: a [`PlanRequest`]
//!   (batch, processor states, operators, warm seeds, precedence, budget,
//!   seed) in, a [`BatchOutcome`] out. It builds the initial population,
//!   constructs the GA engine — the only place outside `dts-ga` that
//!   does, which CI checks — and runs it. Figures, ablations and tests
//!   call it directly.
//! * [`Planner`] is the **one stateful owner** of what persists across
//!   plan calls: the plan-call seed stream and, under
//!   [`SeedStrategy::CarryOver`], the carried elites. Both
//!   [`crate::scheduler::PnScheduler`] (driven by the simulator) and the
//!   online `dts-server` hold a `Planner` and keep only what is their
//!   own: how a batch is chosen, what budget it gets and where the
//!   winning queues are committed. The ZO baseline plans through it too,
//!   as [`PnConfig::zo_preset`].
//!
//! A request's [`PlanBudget`] maps to the two latency regimes of the
//! system:
//!
//! * [`PlanBudget::Generations`] — a *deterministic* bound, used wherever
//!   reproducibility matters (the simulator's §3.4 idle-horizon budget,
//!   the server's replay mode). Same seed ⇒ bit-identical plan on any
//!   host.
//! * [`PlanBudget::TimeLimit`] — a *wall-clock* bound ("best schedule in
//!   ≤ X ms"), used by the online server for live traffic where decision
//!   latency is an SLO. The generation count then depends on host speed —
//!   the one deliberate exception to the determinism contract.
//!
//! Where fitness evaluation executes is controlled by
//! `config.ga.evaluator` (see [`dts_ga::Evaluator`]): the engine opens
//! the evaluation context once per [`plan_batch`] call, so thread-pool
//! workers are spawned once and reused across all generations of the run.
//! The outcome is bit-identical at any worker count.

use std::time::Duration;

use dts_distributions::{Prng, Rng};
use dts_ga::{
    island_sizes, Chromosome, CrossoverOp, CycleCrossover, GaResult, IslandEngine, IslandResult,
    MutationOp, RouletteWheel, SelectionOp, SlotPrecedence, SwapMutation,
};
use dts_model::Task;

use crate::config::{PnConfig, SeedStrategy};
use crate::fitness::{BatchProblem, ProcessorState};
use crate::init::{initial_population, remap_islands};

/// How much search a plan call may spend before it must return.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanBudget {
    /// No extra cap beyond `config.ga.max_generations` (and its early
    /// stops). Deterministic.
    Unlimited,
    /// At most this many generations, further capped by
    /// `config.ga.max_generations` — the §3.4 processor-idle budget.
    /// Deterministic.
    Generations(u32),
    /// Stop at the first generation boundary on or after the deadline
    /// (`StopReason::TimeBudget`), returning the best schedule found so
    /// far. Host-speed dependent — **not** deterministic.
    TimeLimit(Duration),
}

impl PlanBudget {
    /// The generation cap this budget implies, if any.
    fn generation_cap(&self) -> Option<u32> {
        match self {
            PlanBudget::Generations(g) => Some(*g),
            _ => None,
        }
    }

    /// The wall-clock deadline this budget implies, if any.
    fn time_limit(&self) -> Option<Duration> {
        match self {
            PlanBudget::TimeLimit(d) => Some(*d),
            _ => None,
        }
    }
}

/// One batch-scheduling request, ready to hand to [`plan_batch`].
#[derive(Clone, Copy)]
pub struct PlanRequest<'a> {
    /// The tasks to place, one chromosome gene each.
    pub batch: &'a [Task],
    /// Estimated rate, existing load and communication cost per
    /// processor.
    pub procs: &'a [ProcessorState],
    /// Parent selection. [`PlanRequest::new`] sets the paper's roulette
    /// wheel (§3.3).
    pub selection: &'a dyn SelectionOp,
    /// Recombination. [`PlanRequest::new`] sets the paper's cycle
    /// crossover (§3.3).
    pub crossover: &'a dyn CrossoverOp,
    /// Mutation. [`PlanRequest::new`] sets the paper's random swap
    /// (§3.3).
    pub mutation: &'a dyn MutationOp,
    /// Elites carried over from an earlier run, already remapped onto
    /// this batch's shape ([`crate::init::remap_elite`]), best first.
    /// They head the initial population — dealt round-robin over the
    /// islands of a sharded run so every island gets a share — and the
    /// rest is filled with fresh §3.3 list-scheduled individuals. Empty
    /// for a fresh run; seeds whose shape does not match the batch are
    /// skipped, so a stale carry-over can never poison the run.
    pub warm_seeds: &'a [Chromosome],
    /// Warm seeds already split by island: one remapped elite list per
    /// island ([`crate::init::remap_islands`]; a monolithic run has one
    /// island), so islands re-seed independently and elites never mix
    /// across them. This is what [`Planner`] carries. Empty means fresh;
    /// when non-empty it is used instead of `warm_seeds`.
    pub warm_islands: &'a [Vec<Chromosome>],
    /// Batch-local precedence constraints for DAG planning
    /// ([`crate::fitness::slot_precedence`] builds one from a
    /// [`dts_model::TaskGraph`]): the engine repairs every chromosome
    /// into topological order and completion times charge predecessor
    /// finishes. `None` — and, equivalently, an unconstrained table — is
    /// the paper's independent-task model and runs the original pipeline
    /// bit for bit.
    pub precedence: Option<&'a SlotPrecedence>,
    /// The latency budget for this call.
    pub budget: PlanBudget,
    /// Seed of the per-call RNG stream (drives population init and all
    /// GA operators).
    pub seed: u64,
}

impl<'a> PlanRequest<'a> {
    /// A fresh, unbudgeted request with the paper's operators — the
    /// common base the builder-style setters refine.
    pub fn new(batch: &'a [Task], procs: &'a [ProcessorState], seed: u64) -> Self {
        Self {
            batch,
            procs,
            selection: &RouletteWheel,
            crossover: &CycleCrossover,
            mutation: &SwapMutation,
            warm_seeds: &[],
            warm_islands: &[],
            precedence: None,
            budget: PlanBudget::Unlimited,
            seed,
        }
    }

    /// Replaces the paper's operators — the entry point of the
    /// `ablate_selection` and `ablate_crossover` studies.
    pub fn with_ops(
        mut self,
        selection: &'a dyn SelectionOp,
        crossover: &'a dyn CrossoverOp,
        mutation: &'a dyn MutationOp,
    ) -> Self {
        self.selection = selection;
        self.crossover = crossover;
        self.mutation = mutation;
        self
    }

    /// Sets batch-local precedence constraints, turning this into a DAG
    /// planning request.
    pub fn with_precedence(mut self, precedence: &'a SlotPrecedence) -> Self {
        self.precedence = Some(precedence);
        self
    }

    /// Sets the warm-start seeds.
    pub fn with_warm_seeds(mut self, seeds: &'a [Chromosome]) -> Self {
        self.warm_seeds = seeds;
        self
    }

    /// Sets per-island warm-start seeds (one list per island, best
    /// first).
    pub fn with_island_seeds(mut self, seeds: &'a [Vec<Chromosome>]) -> Self {
        self.warm_islands = seeds;
        self
    }

    /// Sets the latency budget.
    pub fn with_budget(mut self, budget: PlanBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Everything a one-batch GA run produces.
///
/// Besides the winning schedule it carries the full GA result, which two
/// of the paper's experiments read directly: **Fig. 3** runs the GA on one
/// batch for 1000 generations and reads the best makespan per generation
/// from `ga.history`; **Fig. 4** measures the wall-clock time of GA runs
/// with 0–20 rebalances per generation.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-processor queues of **batch slot indices** (positions in the
    /// input task slice), in dispatch order.
    pub queues: Vec<Vec<u32>>,
    /// The winning chromosome.
    pub best: Chromosome,
    /// Estimated makespan of the winning schedule (seconds), including δⱼ
    /// and communication estimates.
    pub best_makespan: f64,
    /// Fitness of the winner, in (0, 1].
    pub best_fitness: f64,
    /// Generations evolved.
    pub generations: u32,
    /// Full GA result (history is populated when
    /// `config.ga.record_history` is set). For an island run
    /// (`config.islands.islands > 1`) this is the ensemble aggregate:
    /// best-of-islands schedule, summed memo counters, rank-interleaved
    /// final population, empty history.
    pub ga: GaResult,
    /// Per-island results when the run was sharded
    /// (`config.islands.islands > 1`), in island order; empty for a
    /// monolithic run. Warm-start carry-over reads each island's
    /// `final_population` from here so islands re-seed independently.
    pub islands: Vec<GaResult>,
}

impl BatchOutcome {
    /// Packages what [`dts_ga::IslandEngine`] returned. A one-island
    /// ensemble *is* its island (the engine delegates to the monolithic
    /// GA), so that island's result moves into `ga` whole — history and
    /// final population included — and `islands` stays empty.
    fn from_ensemble(mut result: IslandResult) -> Self {
        let (ga, islands) = if result.islands.len() == 1 {
            (result.islands.swap_remove(0), Vec::new())
        } else {
            let final_population = result.merged_final_population();
            let ga = GaResult {
                best: result.best,
                best_makespan: result.best_makespan,
                best_fitness: result.best_fitness,
                generations: result.generations,
                stop_reason: result.stop_reason,
                history: Vec::new(),
                final_population,
                memo_hits: result.memo_hits,
                memo_misses: result.memo_misses,
            };
            (ga, result.islands)
        };
        Self {
            queues: ga.best.to_queues(),
            best: ga.best.clone(),
            best_makespan: ga.best_makespan,
            best_fitness: ga.best_fitness,
            generations: ga.generations,
            ga,
            islands,
        }
    }

    /// Moves the best `elites` schedules of every island's final
    /// population out of the outcome, one list per island (a monolithic
    /// run yields a single list) — what warm-start carry-over keeps.
    /// Nothing is cloned; the populations left behind are empty.
    fn take_elites(&mut self, elites: usize) -> Vec<Vec<Chromosome>> {
        let per_island = if self.islands.is_empty() {
            std::slice::from_mut(&mut self.ga)
        } else {
            &mut self.islands[..]
        };
        per_island
            .iter_mut()
            .map(|island| {
                let mut pop = std::mem::take(&mut island.final_population);
                pop.truncate(elites);
                pop
            })
            .collect()
    }
}

/// The initial population of one run, one list per island, each exactly
/// its island's size: the request's warm seeds first, then fresh §3.3
/// individuals drawn in island order from the single run RNG —
/// deterministic, and no seed list ever needs cycling.
fn seed_islands(req: &PlanRequest<'_>, config: &PnConfig, rng: &mut Prng) -> Vec<Vec<Chromosome>> {
    let shape_ok = |c: &&Chromosome| {
        c.n_tasks() as usize == req.batch.len()
            && c.n_procs() as usize == req.procs.len()
            && c.validate().is_ok()
    };
    let population = config.ga.population_size;
    let sizes = island_sizes(population, config.islands.islands);
    let mut seeds: Vec<Vec<Chromosome>> = vec![Vec::new(); sizes.len()];
    if req.warm_islands.is_empty() {
        let warm = req.warm_seeds.iter().filter(shape_ok).take(population);
        for (i, c) in warm.enumerate() {
            seeds[i % sizes.len()].push(c.clone());
        }
    } else {
        for ((island, warm), &size) in seeds.iter_mut().zip(req.warm_islands).zip(&sizes) {
            island.extend(warm.iter().filter(shape_ok).take(size).cloned());
        }
    }
    for (island, &size) in seeds.iter_mut().zip(&sizes) {
        let missing = size - island.len();
        if missing > 0 {
            island.extend(initial_population(
                req.batch,
                req.procs,
                missing,
                config.init_random_fraction,
                rng,
            ));
        }
    }
    seeds
}

/// Runs the PN genetic algorithm for one plan request under its budget —
/// the only one-shot entry point. `config.islands` decides whether the
/// population is sharded; [`IslandEngine`] with a single island is the
/// paper's monolithic GA bit for bit, so there is no second code path
/// here.
///
/// # Panics
///
/// Panics on an empty batch or an invalid configuration.
pub fn plan_batch(req: &PlanRequest<'_>, config: &PnConfig) -> BatchOutcome {
    assert!(!req.batch.is_empty(), "cannot schedule an empty batch");
    config.validate().expect("invalid PnConfig");
    let mut rng = Prng::seed_from(req.seed);

    let mut problem = BatchProblem::new(req.batch, req.procs, config);
    if let Some(prec) = req.precedence {
        problem = problem.with_precedence(prec);
    }
    let seeds = seed_islands(req, config, &mut rng);
    let engine = IslandEngine::new(
        req.selection,
        req.crossover,
        req.mutation,
        config.ga.clone(),
        config.islands.clone(),
    )
    .expect("validated PnConfig");
    BatchOutcome::from_ensemble(engine.run_budgeted(
        &problem,
        seeds,
        req.budget.generation_cap(),
        req.budget.time_limit(),
        &mut rng,
    ))
}

/// The stateful half of the planning pipeline: everything that persists
/// from one plan call to the next, and the one sequence that uses it.
///
/// Each [`Planner::plan`] call draws one seed from the plan-call stream
/// (`Prng::seed_from(config.seed)`), and under
/// [`SeedStrategy::CarryOver`] remaps the previous batch's elites onto
/// the new batch's shape, island by island, runs [`plan_batch`] warm
/// started from them, and keeps the top `elites` of each island's final
/// population for the next call. The remap is deterministic, so the whole
/// lifecycle stays a pure function of the seeds. Two `Planner`s built
/// from equal configurations and fed equal batches therefore return
/// identical outcomes — which is what lets the replay oracle compare the
/// server against [`crate::scheduler::PnScheduler`] placement for
/// placement.
pub struct Planner {
    config: PnConfig,
    /// The plan-call seed stream: one `next_u64` per call.
    rng: Prng,
    /// The previous batch's elites (best first), one list per island — a
    /// monolithic run carries a single list. Empty before the first call
    /// and always under [`SeedStrategy::Fresh`].
    carried: Vec<Vec<Chromosome>>,
}

impl Planner {
    /// Creates a planner.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration.
    pub fn new(config: PnConfig) -> Self {
        config.validate().expect("invalid PnConfig");
        let rng = Prng::seed_from(config.seed);
        Self {
            config,
            rng,
            carried: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PnConfig {
        &self.config
    }

    /// The elites retained for the next call, one list per island.
    pub fn carried(&self) -> &[Vec<Chromosome>] {
        &self.carried
    }

    /// Plans one batch under `budget`.
    pub fn plan(
        &mut self,
        batch: &[Task],
        procs: &[ProcessorState],
        budget: PlanBudget,
    ) -> BatchOutcome {
        let seed = self.rng.next_u64();
        let warm = match self.config.seed_strategy {
            SeedStrategy::CarryOver { elites } => {
                remap_islands(&self.carried, elites, batch, procs)
            }
            SeedStrategy::Fresh => Vec::new(),
        };
        let mut outcome = plan_batch(
            &PlanRequest::new(batch, procs, seed)
                .with_island_seeds(&warm)
                .with_budget(budget),
            &self.config,
        );
        if let SeedStrategy::CarryOver { elites } = self.config.seed_strategy {
            self.carried = outcome.take_elites(elites);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_ga::StopReason;
    use dts_model::{SimTime, TaskId};

    fn batch(sizes: &[f64]) -> Vec<Task> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &m)| Task::new(TaskId(i as u32), m, SimTime::ZERO))
            .collect()
    }

    fn procs(rates: &[f64]) -> Vec<ProcessorState> {
        rates
            .iter()
            .map(|&rate| ProcessorState {
                rate,
                existing_load_mflops: 0.0,
                comm_cost: 0.0,
            })
            .collect()
    }

    fn quick_config(max_gens: u32) -> PnConfig {
        let mut c = PnConfig::default();
        c.ga.max_generations = max_gens;
        c
    }

    /// Heterogeneous sizes: equal-size tasks make fresh and warm runs
    /// converge to the same plan, hiding carry-over effects.
    fn varied(n: usize) -> Vec<Task> {
        batch(
            &(0..n)
                .map(|i| 50.0 + (i as f64 * 37.0) % 400.0)
                .collect::<Vec<_>>(),
        )
    }

    fn assert_places_every_task_once(out: &BatchOutcome, n: u32) {
        let mut seen: Vec<u32> = out.queues.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn paper_operators_set_explicitly_are_the_default_request() {
        let b = varied(12);
        let p = procs(&[100.0, 150.0, 80.0]);
        let cfg = quick_config(60);
        let default = plan_batch(&PlanRequest::new(&b, &p, 9), &cfg);
        let explicit = plan_batch(
            &PlanRequest::new(&b, &p, 9).with_ops(&RouletteWheel, &CycleCrossover, &SwapMutation),
            &cfg,
        );
        assert_eq!(explicit.queues, default.queues);
        assert_eq!(
            explicit.best_makespan.to_bits(),
            default.best_makespan.to_bits()
        );
        assert_eq!(explicit.generations, default.generations);
        assert_eq!(explicit.ga.memo_hits, default.ga.memo_hits);
        assert_eq!(explicit.ga.memo_misses, default.ga.memo_misses);
    }

    #[test]
    fn other_operators_still_place_every_task_once() {
        let b = varied(12);
        let p = procs(&[100.0, 150.0, 80.0]);
        let tournament = dts_ga::Tournament::new(3);
        let req = PlanRequest::new(&b, &p, 9).with_ops(
            &tournament,
            &dts_ga::OrderCrossover,
            &dts_ga::InversionMutation,
        );
        let out = plan_batch(&req, &quick_config(40));
        assert_places_every_task_once(&out, 12);
        assert!(out.best.validate().is_ok());
        assert!(out.generations > 0);
    }

    /// The real PN `BatchProblem` (its `epoch_key`, the Zobrist digest)
    /// must serve memo hits through `plan_batch` at the micro-GA shape —
    /// an epoch key that never matches or a digest that never repeats
    /// would leave every other test green — and serving them must not
    /// change the plan.
    #[test]
    fn converged_micro_ga_serves_memo_hits_without_changing_the_plan() {
        let b = varied(30);
        let p = procs(&[
            100.0, 150.0, 80.0, 120.0, 60.0, 200.0, 90.0, 110.0, 170.0, 75.0,
        ]);
        let mut cfg = quick_config(200);
        cfg.ga.population_size = 20;
        let memoised = plan_batch(&PlanRequest::new(&b, &p, 11), &cfg);
        assert!(memoised.ga.memo_hits > 0, "the memo served nothing");

        cfg.ga.memo_capacity = 0;
        let plain = plan_batch(&PlanRequest::new(&b, &p, 11), &cfg);
        assert_eq!(plain.ga.memo_hits, 0);
        assert_eq!(plain.queues, memoised.queues);
        assert_eq!(
            plain.best_makespan.to_bits(),
            memoised.best_makespan.to_bits()
        );
        assert_eq!(plain.generations, memoised.generations);
    }

    /// `CarryOver { elites: 3 }` on a monolithic or two-island population.
    fn carry_config(islands: usize) -> PnConfig {
        let mut cfg = quick_config(50);
        cfg.seed_strategy = SeedStrategy::CarryOver { elites: 3 };
        if islands > 1 {
            cfg = cfg.with_islands(dts_ga::IslandConfig {
                islands,
                migration_interval: 5,
                migrants: 1,
                topology: dts_ga::Topology::Ring,
            });
        }
        cfg
    }

    /// Four plan calls with a shape change (10, 10, 6, 6 tasks).
    fn four_batches(cfg: &PnConfig) -> (Vec<BatchOutcome>, Planner) {
        let p = procs(&[100.0, 150.0, 80.0]);
        let mut planner = Planner::new(cfg.clone());
        let outcomes = [10, 10, 6, 6]
            .into_iter()
            .map(|n| planner.plan(&varied(n), &p, PlanBudget::Generations(25)))
            .collect();
        (outcomes, planner)
    }

    #[test]
    fn equal_configs_plan_identically_across_a_shape_change() {
        for islands in [1, 2] {
            let cfg = carry_config(islands);
            let (a, _) = four_batches(&cfg);
            let (b, _) = four_batches(&cfg);
            for (k, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(x.queues, y.queues, "islands={islands} batch {k}");
                assert_eq!(x.best_makespan.to_bits(), y.best_makespan.to_bits());
                assert_eq!(x.generations, y.generations);
                assert_places_every_task_once(x, [10, 10, 6, 6][k]);
            }
        }
    }

    #[test]
    fn fresh_planner_retains_nothing() {
        let (outcomes, planner) = four_batches(&quick_config(50));
        assert!(planner.carried().is_empty(), "Fresh must not accumulate");
        // Nothing was moved out of the outcomes either.
        let population = planner.config().ga.population_size;
        assert!(outcomes
            .iter()
            .all(|o| o.ga.final_population.len() == population));
    }

    #[test]
    fn carry_over_retains_exactly_the_elites_of_every_island() {
        for islands in [1, 2] {
            let cfg = carry_config(islands);
            let (_, planner) = four_batches(&cfg);
            let carried = planner.carried();
            assert_eq!(carried.len(), islands, "one carried list per island");
            assert!(carried.iter().all(|island| island.len() == 3));
            // The last batch had 6 tasks on 3 processors.
            assert!(carried
                .iter()
                .flatten()
                .all(|c| c.validate().is_ok() && c.n_tasks() == 6 && c.n_procs() == 3));
        }
    }

    #[test]
    fn time_limited_plan_stops_within_budget() {
        let b = batch(&[100.0; 40]);
        let p = procs(&[100.0, 150.0, 80.0, 120.0]);
        let cfg = quick_config(u32::MAX);
        let budget = Duration::from_millis(15);
        let started = std::time::Instant::now();
        let planned = plan_batch(
            &PlanRequest::new(&b, &p, 3).with_budget(PlanBudget::TimeLimit(budget)),
            &cfg,
        );
        let elapsed = started.elapsed();
        assert_eq!(planned.ga.stop_reason, StopReason::TimeBudget);
        assert!(planned.generations > 0);
        assert!(
            elapsed < budget + Duration::from_millis(200),
            "plan call took {elapsed:?} against a {budget:?} budget"
        );
        // The plan is still complete and valid.
        assert_places_every_task_once(&planned, 40);
    }

    fn run(batch: &[Task], procs: &[ProcessorState], config: &PnConfig, seed: u64) -> BatchOutcome {
        plan_batch(&PlanRequest::new(batch, procs, seed), config)
    }

    fn run_warm(
        batch: &[Task],
        procs: &[ProcessorState],
        config: &PnConfig,
        warm_seeds: &[Chromosome],
        seed: u64,
    ) -> BatchOutcome {
        plan_batch(
            &PlanRequest::new(batch, procs, seed).with_warm_seeds(warm_seeds),
            config,
        )
    }

    #[test]
    fn all_tasks_scheduled_exactly_once() {
        let b = batch(&[100.0, 200.0, 50.0, 300.0, 75.0, 25.0, 500.0]);
        let p = procs(&[100.0, 150.0, 80.0]);
        let out = run(&b, &p, &quick_config(100), 1);
        assert_places_every_task_once(&out, 7);
    }

    #[test]
    fn deterministic_per_seed() {
        let b = batch(&[100.0, 200.0, 50.0, 300.0]);
        let p = procs(&[100.0, 150.0]);
        let a = run(&b, &p, &quick_config(50), 7);
        let c = run(&b, &p, &quick_config(50), 7);
        assert_eq!(a.queues, c.queues);
        assert_eq!(a.best_makespan, c.best_makespan);
    }

    #[test]
    fn ga_beats_the_worst_individual() {
        // With heterogeneous rates and sizes, the evolved makespan must be
        // no worse than a naive all-on-one-processor plan.
        let b = batch(&[500.0, 400.0, 300.0, 200.0, 100.0, 50.0, 25.0, 12.0]);
        let p = procs(&[60.0, 120.0, 240.0]);
        let out = run(&b, &p, &quick_config(200), 3);
        let total: f64 = b.iter().map(|t| t.mflops).sum();
        let naive = total / 60.0; // everything on the slowest
        assert!(out.best_makespan < naive);
        // And at least as good as the theoretical optimum allows.
        let ideal = total / (60.0 + 120.0 + 240.0);
        assert!(out.best_makespan >= ideal - 1e-9);
    }

    #[test]
    fn generation_override_is_respected() {
        let b = batch(&[100.0; 20]);
        let p = procs(&[100.0, 100.0]);
        let out = plan_batch(
            &PlanRequest::new(&b, &p, 5).with_budget(PlanBudget::Generations(3)),
            &quick_config(1000),
        );
        assert_eq!(out.generations, 3);
    }

    #[test]
    fn history_recorded_when_requested() {
        let b = batch(&[100.0; 10]);
        let p = procs(&[100.0, 100.0]);
        let mut cfg = quick_config(20);
        cfg.ga.record_history = true;
        let out = run(&b, &p, &cfg, 5);
        assert_eq!(out.ga.history.len(), out.generations as usize + 1);
    }

    #[test]
    fn parallel_evaluation_matches_serial_bitwise() {
        let b = batch(&[520.0, 260.0, 130.0, 390.0, 65.0, 910.0, 45.0, 700.0]);
        let p = procs(&[100.0, 150.0, 80.0]);
        let serial = run(&b, &p, &quick_config(80), 21);
        for workers in [2, 8] {
            let cfg = quick_config(80).with_eval_workers(workers);
            let par = run(&b, &p, &cfg, 21);
            assert_eq!(par.queues, serial.queues, "workers={workers}");
            assert_eq!(par.best, serial.best);
            assert_eq!(par.best_makespan.to_bits(), serial.best_makespan.to_bits());
            assert_eq!(par.best_fitness.to_bits(), serial.best_fitness.to_bits());
            assert_eq!(par.generations, serial.generations);
        }
    }

    #[test]
    fn warm_seeds_enter_the_population() {
        // A 1-generation run with a perfect warm seed: elitism keeps the
        // seed, so the outcome can be no worse than the seeded schedule.
        let b = batch(&[100.0, 100.0, 100.0, 100.0]);
        let p = procs(&[100.0, 100.0]);
        let seeded = Chromosome::from_queues(&[vec![0, 1], vec![2, 3]]);
        let mut cfg = quick_config(1);
        cfg.init_random_fraction = (1.0, 1.0); // fresh fill is all-random
        let out = run_warm(&b, &p, &cfg, std::slice::from_ref(&seeded), 11);
        // The balanced seed achieves the 2.0 s optimum.
        assert!(
            (out.best_makespan - 2.0).abs() < 1e-9,
            "{}",
            out.best_makespan
        );
    }

    #[test]
    fn warm_run_with_empty_seeds_matches_fresh() {
        let b = batch(&[100.0, 200.0, 50.0, 300.0]);
        let p = procs(&[100.0, 150.0]);
        let fresh = run(&b, &p, &quick_config(50), 7);
        let warm = run_warm(&b, &p, &quick_config(50), &[], 7);
        assert_eq!(fresh.queues, warm.queues);
        assert_eq!(fresh.best_makespan.to_bits(), warm.best_makespan.to_bits());
    }

    #[test]
    fn mismatched_warm_seeds_are_skipped() {
        // Seeds shaped for a different batch/cluster must be ignored, not
        // crash or corrupt the run.
        let b = batch(&[100.0, 200.0, 50.0]);
        let p = procs(&[100.0, 150.0]);
        let wrong_tasks = Chromosome::from_queues(&[vec![0, 1, 2, 3], vec![]]);
        let wrong_procs = Chromosome::from_queues(&[vec![0], vec![1], vec![2]]);
        let out = run_warm(&b, &p, &quick_config(20), &[wrong_tasks, wrong_procs], 13);
        assert_places_every_task_once(&out, 3);
    }

    #[test]
    fn outcome_exposes_final_population() {
        let b = batch(&[100.0, 200.0, 50.0, 300.0]);
        let p = procs(&[100.0, 150.0]);
        let out = run(&b, &p, &quick_config(30), 17);
        let pop = &out.ga.final_population;
        assert_eq!(pop.len(), PnConfig::default().ga.population_size);
        assert!(pop.iter().all(|c| c.validate().is_ok()));
    }

    #[test]
    #[should_panic]
    fn empty_batch_rejected() {
        let p = procs(&[100.0]);
        let _ = run(&[], &p, &PnConfig::default(), 1);
    }

    #[test]
    fn single_processor_batch_works() {
        let b = batch(&[10.0, 20.0, 30.0]);
        let p = procs(&[100.0]);
        let out = run(&b, &p, &quick_config(10), 2);
        assert_eq!(out.queues.len(), 1);
        assert_eq!(out.queues[0].len(), 3);
        assert!((out.best_makespan - 0.6).abs() < 1e-9);
    }
}
