//! The one planning pipeline: [`plan_batch`] and [`Planner`].
//!
//! The paper's scheduler is one loop — take a batch (§3.7), evolve it
//! under the §3.4 stopping conditions, append the winner to the processor
//! queues. This module is the only place that loop's middle is written:
//!
//! * [`plan_batch`] is the **one stateless call**: a [`PlanRequest`]
//!   (batch, processor states, operators, precedence, budget, seed) in, a
//!   [`BatchOutcome`] out. It builds the §3.3 initial population,
//!   constructs the GA engine — the only place outside `dts-ga` that
//!   does, which CI checks — and runs it. Figures, ablations and tests
//!   call it directly.
//! * [`Planner`] is the **one stateful owner** of what persists across
//!   plan calls: the plan-call seed stream and the per-processor queues.
//!   It is the one commit path: it builds the processor states (`Lⱼ` =
//!   queued plus in-flight MFLOPs), draws the call's seed, runs
//!   [`plan_batch`] and appends the winner to the queues. Every call
//!   seeds its population fresh, as the paper does. Both
//!   [`crate::scheduler::PnScheduler`] (driven by the simulator) and the
//!   online `dts-server` hold a `Planner` and keep only what is their
//!   own: how a batch is chosen and what budget it gets. The ZO baseline
//!   plans through it too, as [`PnConfig::zo_preset`].
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
    CrossoverOp, CycleCrossover, GaEngine, GaResult, MutationOp, RouletteWheel, SelectionOp,
    SlotPrecedence, SwapMutation,
};
use dts_model::sched::ProcessorView;
use dts_model::{ProcessorId, Task, TaskQueues};

use crate::config::PnConfig;
use crate::fitness::{BatchProblem, ProcessorState};
use crate::init::initial_population;

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
    /// Estimated makespan of the winning schedule (seconds), including δⱼ
    /// and communication estimates.
    pub best_makespan: f64,
    /// Generations evolved.
    pub generations: u32,
    /// Full GA result: the winning chromosome and its fitness, memo
    /// counters, and the history when `config.ga.record_history` is set.
    pub ga: GaResult,
}

impl BatchOutcome {
    /// Packages a finished GA run, keeping its result whole.
    fn new(ga: GaResult) -> Self {
        Self {
            queues: ga.best.to_queues(),
            best_makespan: ga.best_makespan,
            generations: ga.generations,
            ga,
        }
    }
}

/// Runs the PN genetic algorithm for one plan request under its budget —
/// the only one-shot entry point.
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
    let initial = initial_population(
        req.batch,
        req.procs,
        config.ga.population_size,
        config.init_random_fraction,
        &mut rng,
    );
    let engine = GaEngine::new(
        req.selection,
        req.crossover,
        req.mutation,
        config.ga.clone(),
    );
    BatchOutcome::new(engine.run_budgeted(
        &problem,
        initial,
        req.budget.generation_cap(),
        req.budget.time_limit(),
        &mut rng,
    ))
}

/// The stateful half of the planning pipeline: everything that persists
/// from one plan call to the next — the per-processor queues the paper's
/// scheduler holds (§3) and the plan-call seed stream
/// (`Prng::seed_from(config.seed)`) — and the one sequence that uses it.
///
/// Every plan is a pure function of the seeds and the caller's
/// [`ProcessorView`]s, so two `Planner`s built from equal configurations
/// and fed equal batches and views return identical outcomes — which is
/// what lets the replay oracle compare the server against
/// [`crate::scheduler::PnScheduler`] placement for placement.
pub struct Planner {
    config: PnConfig,
    /// The plan-call seed stream: one `next_u64` per call.
    rng: Prng,
    /// Committed placements, with running per-processor MFLOP totals.
    queues: TaskQueues,
}

impl Planner {
    /// Creates a planner for `n_procs` processors.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration or `n_procs == 0`.
    pub fn new(n_procs: usize, config: PnConfig) -> Self {
        assert!(n_procs > 0, "need at least one processor");
        config.validate().expect("invalid PnConfig");
        let rng = Prng::seed_from(config.seed);
        Self {
            config,
            rng,
            queues: TaskQueues::new(n_procs),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PnConfig {
        &self.config
    }

    /// The committed placements, in dispatch order per processor.
    pub fn queues(&self) -> &TaskQueues {
        &self.queues
    }

    /// Pops the head of `p`'s queue (the reply to a work request),
    /// releasing its load from `Lⱼ`.
    pub fn pop(&mut self, p: ProcessorId) -> Option<Task> {
        self.queues.pop(p)
    }

    /// Plans one batch under `budget` and appends the winning assignment
    /// to the queues. `procs` holds one view per processor, indexed by
    /// [`ProcessorId`]; `Lⱼ` is the MFLOPs queued here for `j` plus its
    /// `inflight_mflops`, and its `comm_estimate` counts only under
    /// `config.use_comm_estimates`.
    pub fn plan(
        &mut self,
        batch: &[Task],
        procs: &[ProcessorView],
        budget: PlanBudget,
    ) -> BatchOutcome {
        let states: Vec<ProcessorState> = procs
            .iter()
            .map(|p| ProcessorState {
                rate: p.rate_estimate.max(1e-9),
                existing_load_mflops: self.queues.queued_mflops(p.id) + p.inflight_mflops,
                comm_cost: if self.config.use_comm_estimates {
                    p.comm_estimate
                } else {
                    0.0
                },
            })
            .collect();
        let seed = self.rng.next_u64();
        let outcome = plan_batch(
            &PlanRequest::new(batch, &states, seed).with_budget(budget),
            &self.config,
        );
        for (proc, queue) in outcome.queues.iter().enumerate() {
            let pid = ProcessorId(proc as u16);
            for &slot in queue {
                self.queues.push(pid, batch[slot as usize]);
            }
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

    /// One view per rate, with in-flight work on every other processor
    /// and communication dearer the higher the index.
    fn views(rates: &[f64]) -> Vec<ProcessorView> {
        rates
            .iter()
            .enumerate()
            .map(|(j, &rate)| ProcessorView {
                id: ProcessorId(j as u16),
                rate_estimate: rate,
                inflight_mflops: 150.0 * (j % 2) as f64,
                comm_estimate: 2.0 * j as f64,
            })
            .collect()
    }

    /// The processor states [`Planner::plan`] must build from `views`
    /// given what is already queued.
    fn states(queues: &TaskQueues, views: &[ProcessorView], comm: bool) -> Vec<ProcessorState> {
        views
            .iter()
            .map(|v| ProcessorState {
                rate: v.rate_estimate,
                existing_load_mflops: queues.queued_mflops(v.id) + v.inflight_mflops,
                comm_cost: if comm { v.comm_estimate } else { 0.0 },
            })
            .collect()
    }

    fn quick_config(max_gens: u32) -> PnConfig {
        let mut c = PnConfig::default();
        c.ga.max_generations = max_gens;
        c
    }

    /// Heterogeneous sizes, so that distinct schedules rarely tie.
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
        assert!(out.ga.best.validate().is_ok());
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

    /// Four plan calls with a shape change (10, 10, 6, 6 tasks).
    fn four_batches(cfg: &PnConfig) -> Vec<BatchOutcome> {
        let p = views(&[100.0, 150.0, 80.0]);
        let mut planner = Planner::new(3, cfg.clone());
        [10, 10, 6, 6]
            .into_iter()
            .map(|n| planner.plan(&varied(n), &p, PlanBudget::Generations(25)))
            .collect()
    }

    #[test]
    fn equal_configs_plan_identically_across_a_shape_change() {
        let cfg = quick_config(50);
        let a = four_batches(&cfg);
        let b = four_batches(&cfg);
        for (k, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.queues, y.queues, "batch {k}");
            assert_eq!(x.best_makespan.to_bits(), y.best_makespan.to_bits());
            assert_eq!(x.generations, y.generations);
            assert_places_every_task_once(x, [10, 10, 6, 6][k]);
        }
    }

    /// The one commit path: a plan call appends exactly `batch[slot]` for
    /// each slot of the winning queues, in order, and the next call's
    /// `Lⱼ` is that committed load plus the view's in-flight work.
    #[test]
    fn plan_commits_the_winner_and_charges_it_to_the_next_call() {
        let cfg = quick_config(40);
        let v = views(&[100.0, 150.0, 80.0]);
        let mut planner = Planner::new(3, cfg.clone());
        let first = varied(10);
        let out = planner.plan(&first, &v, PlanBudget::Unlimited);
        assert_places_every_task_once(&out, 10);
        for ((_, held), slots) in planner.queues().iter().zip(&out.queues) {
            let want: Vec<Task> = slots.iter().map(|&s| first[s as usize]).collect();
            assert_eq!(held.iter().copied().collect::<Vec<_>>(), want);
        }

        let mut seeds = Prng::seed_from(cfg.seed);
        seeds.next_u64();
        let seed = seeds.next_u64();
        let second = varied(6);
        let want = run(&second, &states(planner.queues(), &v, true), &cfg, seed);
        let got = planner.plan(&second, &v, PlanBudget::Unlimited);
        assert_eq!(got.queues, want.queues);
        assert_eq!(got.best_makespan.to_bits(), want.best_makespan.to_bits());
        let blind = run(&second, &states(&TaskQueues::new(3), &v, true), &cfg, seed);
        assert!(
            got.best_makespan > blind.best_makespan,
            "first batch's load ignored"
        );
        assert_eq!(planner.queues().total_len(), 16);
    }

    #[test]
    fn comm_estimates_count_only_when_enabled() {
        let mut cfg = quick_config(30);
        cfg.use_comm_estimates = false;
        let v = views(&[100.0, 150.0, 80.0]);
        let b = varied(8);
        let free = states(&TaskQueues::new(3), &v, false);
        let want = run(&b, &free, &cfg, Prng::seed_from(cfg.seed).next_u64());
        let got = Planner::new(3, cfg).plan(&b, &v, PlanBudget::Unlimited);
        assert_eq!(got.queues, want.queues);
        assert_eq!(got.best_makespan.to_bits(), want.best_makespan.to_bits());
    }

    #[test]
    fn time_limited_plan_stops_within_budget() {
        let b = batch(&[100.0; 40]);
        let p = procs(&[100.0, 150.0, 80.0, 120.0]);
        let mut cfg = quick_config(u32::MAX);
        // The subject is the wall-clock stop; a converged run would end
        // on the default plateau first.
        cfg.ga.plateau_generations = None;
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

    /// The default plateau stop draws no random numbers, so at the serve
    /// shape (30 tasks onto 10 loaded processors) the default run is the
    /// paper's run cut short: same history, generation for generation.
    #[test]
    fn plateau_run_is_a_prefix_of_the_paper_run() {
        let b = varied(30);
        let p: Vec<ProcessorState> = (0..10)
            .map(|j| ProcessorState {
                rate: 75.0 + 7.5 * j as f64,
                existing_load_mflops: 400.0 * (j % 3) as f64,
                comm_cost: 0.1,
            })
            .collect();
        let mut cfg = PnConfig::default();
        cfg.ga.record_history = true;
        let short = run(&b, &p, &cfg, 17);
        let mut paper = PnConfig::paper();
        paper.ga.record_history = true;
        let full = run(&b, &p, &paper, 17);

        assert_eq!(short.ga.stop_reason, StopReason::Plateau);
        assert_eq!(full.ga.stop_reason, StopReason::MaxGenerations);
        assert!(short.generations < full.generations);
        let n = short.generations as usize + 1;
        assert_eq!(short.ga.history.len(), n);
        assert_eq!(short.ga.history[..], full.ga.history[..n]);
    }

    fn run(batch: &[Task], procs: &[ProcessorState], config: &PnConfig, seed: u64) -> BatchOutcome {
        plan_batch(&PlanRequest::new(batch, procs, seed), config)
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
            assert_eq!(par.ga.best, serial.ga.best);
            assert_eq!(par.best_makespan.to_bits(), serial.best_makespan.to_bits());
            assert_eq!(
                par.ga.best_fitness.to_bits(),
                serial.ga.best_fitness.to_bits()
            );
            assert_eq!(par.generations, serial.generations);
        }
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
