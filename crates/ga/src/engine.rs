//! The generation loop (Fig. 1 of the paper).
//!
//! ```text
//! initialise population
//! do {
//!     crossover
//!     random mutation
//!     selection
//! } while (stopping conditions not met)
//! return best individual
//! ```
//!
//! The engine is generic over a [`Problem`] (fitness + makespan + optional
//! per-individual local improvement, used by the PN scheduler for the §3.5
//! rebalancing heuristic) and over the selection/crossover/mutation
//! operators, so the paper's configuration and every ablation variant run
//! on the same loop.
//!
//! # Evaluation pipeline
//!
//! Each generation is organised into phases so that fitness evaluation —
//! the GA's hot spot — is batched, skipped for copies, and delta-evaluated
//! without touching the RNG stream (see [`crate::evaluate`]). A run owns
//! two populations of the configured size, allocated once in
//! [`GaEngine::start`]: the current one and a spare one the next
//! generation is bred into.
//!
//! 1. **breed into the spare buffer** (serial, draws RNG): elitism,
//!    selection, crossover. The elite is picked by an nth-element
//!    selection and only it is put in rank order; the selection operator
//!    is readied once per generation ([`SelectionOp::prepare`] — the
//!    roulette wheel's running sums) and each parent is then one draw
//!    ([`SelectionOp::select_prepared`], a binary search). Every spare
//!    slot is overwritten in place: elites and clones are copied into the
//!    slot's own buffers with their cached fitness, crossover writes its
//!    children straight into the next two slots, and a child the
//!    crossover reports as a copy of a parent
//!    ([`crate::crossover::Parent`]) and that repair left unchanged
//!    inherits the parent's fitness, makespan and completion times — late
//!    in convergence most cycle-crossover children are such copies, and
//!    cycle crossover walks only the positions where its parents differ.
//!    The other children are queued by slot. A second child with no slot
//!    left goes to a scratch chromosome and is dropped.
//! 2. **evaluate in place** (parallel-safe, no RNG): the queued offspring
//!    are evaluated as one batch, each in its own slot's buffers. Then the
//!    two populations are **swapped**.
//! 3. **mutate** (serial, draws RNG): mutations are applied in place.
//!    A transposition ([`GeneEdit::Swap`]) is delta-evaluated on the spot
//!    against the individual's cached per-processor completion times; a
//!    mutant that repair changed, or whose swap the problem declines to
//!    delta-evaluate, is marked dirty.
//! 4. **re-evaluate** (parallel-safe, no RNG): only the dirty individuals
//!    are re-evaluated — everything else keeps its incrementally
//!    maintained fitness, makespan, and completions.
//! 5. **improve** (serial, draws RNG): the §3.5 local-improvement hook,
//!    fed the maintained completion times so it never re-walks the whole
//!    chromosome either.
//!
//! Evaluation is pure, an inherited evaluation is the parent's (debug
//! builds check it bitwise against a fresh one), and phases 2 and 4 write
//! back by index, so the population ordering and every subsequent RNG draw
//! are bit-identical whichever [`crate::Evaluator`] executes them, and
//! whether a copy inherits or is evaluated afresh. `tests/determinism.rs`
//! and the engine tests lock this in.
//!
//! Once every buffer has grown to its working size — the first
//! generations — a generation allocates nothing: chromosomes and
//! completion times only ever move between a slot and an evaluation
//! record, or are copied into buffers that already exist.

use dts_distributions::{Prng, Rng};

use crate::crossover::{CrossoverOp, Parent};
use crate::encoding::Chromosome;
use crate::evaluate::{BatchEval, Evaluated, Evaluator};
use crate::mutation::{GeneEdit, MutationOp};
use crate::selection::SelectionOp;

/// The optimisation problem a GA run solves.
pub trait Problem {
    /// Evaluates `c`, returning its `(fitness, makespan)`, and exports the
    /// per-processor completion times `Cⱼ` both derive from — the state
    /// the engine keeps alongside each individual so single-swap edits can
    /// be delta-evaluated ([`Problem::evaluate_swap_delta`]) instead of
    /// re-walking the whole chromosome.
    ///
    /// Fitness is larger-is-better, finite and non-negative: the paper's
    /// PN fitness is `F = 1/E` clamped to `(0, 1]` (§3.2), and ZO uses a
    /// makespan-based fitness. The makespan is the schedule's total
    /// execution time in seconds, smaller is better: the quantity the §3.4
    /// stopping condition and Fig. 3 track.
    ///
    /// Must draw no randomness; the determinism suite compares serial and
    /// parallel evaluation bitwise. On entry, `completions` may still hold
    /// an earlier evaluation's values (the engine reuses each slot's
    /// buffer); on return it holds either one entry per processor or
    /// nothing. A problem without an incremental path clears it and simply
    /// never delta-evaluates.
    fn evaluate_into(&self, c: &Chromosome, completions: &mut Vec<f64>) -> (f64, f64);

    /// Attempts to re-evaluate `c` after a transposition of the genes now
    /// at positions `i` and `j`. The swap is **already applied** to `c`;
    /// `completions` still holds the pre-swap completion times exported by
    /// [`Problem::evaluate_into`].
    ///
    /// On success, updates `completions` in place and returns the new
    /// `(fitness, makespan)`, **bit-identical** to what a fresh
    /// `evaluate_into` of `c` would produce — the determinism contract.
    /// In particular, implementations must re-accumulate the affected
    /// processors' sums in gene order rather than add/subtract terms,
    /// because float addition is not associative. Returning `None` means
    /// the edit is not delta-evaluable (a delimiter moved, or
    /// `completions` is not this problem's export); `completions` must
    /// then be left unchanged and the engine falls back to a full
    /// evaluation. The default always declines.
    fn evaluate_swap_delta(
        &self,
        c: &Chromosome,
        i: usize,
        j: usize,
        completions: &mut [f64],
    ) -> Option<(f64, f64)> {
        let _ = (c, i, j, completions);
        None
    }

    /// Repairs `c` into the problem's feasible region, returning whether
    /// the chromosome changed. The engine calls this on every chromosome
    /// it creates — initial-population clones, crossover offspring, and
    /// mutants — *before* (re-)evaluating it, so feasibility is an
    /// invariant of the evaluated population: clones of already-repaired
    /// parents never need repairing again.
    ///
    /// Implementations must be deterministic, draw no randomness, and be
    /// the identity on already-feasible chromosomes (returning `false`);
    /// precedence-aware problems use
    /// [`crate::repair::repair_topological`]. When a mutation's edit is
    /// repaired away (`true` is returned after a mutation), the engine
    /// discards any incremental edit information and fully re-evaluates
    /// the individual — a repaired chromosome is never delta-evaluated.
    /// The default is a no-op, which preserves the independent-task
    /// engine behaviour bit for bit.
    fn repair(&self, c: &mut Chromosome) -> bool {
        let _ = c;
        false
    }

    /// Optional local improvement applied to every individual in every
    /// generation (the §3.5 rebalancing heuristic). Implementations mutate
    /// `c` in place **only** when the result is fitter, returning the new
    /// `(fitness, makespan)` and updating `completions` to match the
    /// improved chromosome; returning `None` leaves both `c` and
    /// `completions` untouched. `completions` is the state exported by
    /// [`Problem::evaluate_into`] for the current `c` — empty for problems
    /// that do not export completion times, in which case implementations
    /// must recompute whatever they need.
    fn improve(
        &self,
        c: &mut Chromosome,
        current_fitness: f64,
        completions: &mut Vec<f64>,
        rng: &mut Prng,
    ) -> Option<(f64, f64)> {
        let _ = (c, current_fitness, completions, rng);
        None
    }
}

/// Engine configuration.
///
/// Defaults follow §4.2: a micro-GA population of 20, up to 1000
/// generations, single-individual random mutation per generation, elitism
/// of one.
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Population size ρ (paper: 20, "known as a micro GA").
    pub population_size: usize,
    /// Probability that a selected pair is recombined (otherwise cloned).
    pub crossover_rate: f64,
    /// Random mutations applied per generation, each to one uniformly
    /// chosen individual (the paper mutates "a randomly chosen individual").
    pub mutations_per_generation: usize,
    /// Individuals copied to the next generation unchanged, best first.
    pub elitism: usize,
    /// Hard cap on generations (paper: 1000, "the quality of the schedules
    /// returned with more than that number does not justify the increased
    /// computation cost").
    pub max_generations: u32,
    /// Stop as soon as the best makespan drops below this value (§3.4's
    /// "specified minimum").
    pub target_makespan: Option<f64>,
    /// Stop after this many consecutive generations without an improvement
    /// in the best makespan (a convergence plateau). Composes with
    /// [`GaConfig::max_generations`] and the external §3.4 idle-horizon
    /// budget: whichever limit is hit first stops the run. `None` (the
    /// default here, and in the paper's setup) disables the plateau check;
    /// `Some(0)` is rejected. The check draws no random numbers, so a run
    /// that stops on a plateau is an exact prefix of the same run without
    /// one. `dts_core::PnConfig::default()` sets `Some(50)`.
    pub plateau_generations: Option<u32>,
    /// Record per-generation statistics (needed by Fig. 3; costs memory).
    pub record_history: bool,
    /// How fitness batches are executed ([`Evaluator::Serial`] or a scoped
    /// thread pool). Both produce bit-identical runs; the pool is worth it
    /// once `population_size × batch` work dwarfs per-generation
    /// synchronisation.
    pub evaluator: Evaluator,
}

impl Default for GaConfig {
    fn default() -> Self {
        Self {
            population_size: 20,
            crossover_rate: 0.8,
            mutations_per_generation: 1,
            elitism: 1,
            max_generations: 1000,
            target_makespan: None,
            plateau_generations: None,
            record_history: false,
            evaluator: Evaluator::Serial,
        }
    }
}

/// Why the run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Best makespan fell below [`GaConfig::target_makespan`].
    TargetReached,
    /// [`GaConfig::max_generations`] exhausted (or an external budget —
    /// e.g. a processor about to go idle — capped the run).
    MaxGenerations,
    /// [`GaConfig::plateau_generations`] consecutive generations passed
    /// without the best makespan improving.
    Plateau,
    /// The wall-clock budget of a time-budgeted run
    /// ([`GaEngine::run_budgeted`], or a driver calling
    /// [`GaRun::stop_now`]) expired. The result is still the best schedule
    /// found so far — "best schedule in ≤ X ms". Note that generation
    /// counts of time-budgeted runs depend on host speed; they are the one
    /// deliberate exception to the bit-identical determinism contract.
    TimeBudget,
}

/// Per-generation statistics, recorded when
/// [`GaConfig::record_history`] is set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenStats {
    /// Generation number (0 = initial population).
    pub generation: u32,
    /// Best (lowest) makespan in the population.
    pub best_makespan: f64,
    /// Best fitness in the population.
    pub best_fitness: f64,
    /// Mean fitness of the population.
    pub mean_fitness: f64,
}

/// Result of one GA run.
#[derive(Debug, Clone)]
pub struct GaResult {
    /// The best schedule found across *all* generations (the paper returns
    /// "the best schedule found so far" on early stops).
    pub best: Chromosome,
    /// Its makespan.
    pub best_makespan: f64,
    /// Its fitness.
    pub best_fitness: f64,
    /// Generations actually evolved.
    pub generations: u32,
    /// Why the loop stopped.
    pub stop_reason: StopReason,
    /// Per-generation history (empty unless requested).
    pub history: Vec<GenStats>,
    /// Offspring that inherited a parent's evaluation instead of being
    /// evaluated: crossover children reported as copies of a parent. So
    /// `memo_hits + memo_misses` is the number of evaluations the run
    /// *requested*, and `memo_hits` the share of them that cost no walk.
    /// (The name predates inheritance, which replaced a fitness cache.)
    pub memo_hits: u64,
    /// Full evaluations computed: the initial population, offspring that
    /// are not parent copies, and mutants that could not be
    /// delta-evaluated.
    pub memo_misses: u64,
}

struct Individual {
    chrom: Chromosome,
    fitness: f64,
    makespan: f64,
    /// Per-processor completion times from the problem's `evaluate_into`
    /// (empty when the problem does not export them), kept in sync with
    /// `chrom` so swap mutations and the improve hook can delta-evaluate.
    completions: Vec<f64>,
}

/// `clone_from` copies into the slot's own gene and completions buffers, so
/// breeding an elite or a clone into the spare population allocates nothing
/// once the buffers have grown to size.
impl Clone for Individual {
    fn clone(&self) -> Self {
        Self {
            chrom: self.chrom.clone(),
            fitness: self.fitness,
            makespan: self.makespan,
            completions: self.completions.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.chrom.clone_from(&source.chrom);
        self.inherit(source);
    }
}

impl Individual {
    /// Copies `parent`'s evaluation into this individual, whose chromosome
    /// equals the parent's; the completions buffer is reused.
    fn inherit(&mut self, parent: &Individual) {
        self.fitness = parent.fitness;
        self.makespan = parent.makespan;
        self.completions.clone_from(&parent.completions);
    }

    /// Debug builds: the individual's evaluation must be bitwise the one
    /// a fresh [`Problem::evaluate_into`] computes.
    #[cfg(debug_assertions)]
    fn check_against_fresh<P: Problem>(&self, problem: &P) {
        let mut completions = Vec::new();
        let (fitness, makespan) = problem.evaluate_into(&self.chrom, &mut completions);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            (fitness.to_bits(), makespan.to_bits(), bits(&completions)),
            (
                self.fitness.to_bits(),
                self.makespan.to_bits(),
                bits(&self.completions)
            ),
            "inherited evaluation differs from a fresh one"
        );
    }
}

/// Evaluates the slots of `pop` named by `queue`, writing every result into
/// the slot's own buffers: each slot's chromosome and completions buffer
/// move into a record in `jobs`, the records are evaluated in place as one
/// batch, and move back. `jobs` is empty on entry and on return; only its
/// capacity carries over.
fn evaluate_slots(
    eval: &dyn BatchEval,
    pop: &mut [Individual],
    queue: &[usize],
    jobs: &mut Vec<Evaluated>,
) {
    debug_assert!(jobs.is_empty());
    jobs.extend(queue.iter().map(|&index| {
        let ind = &mut pop[index];
        Evaluated {
            index,
            chrom: std::mem::replace(&mut ind.chrom, Chromosome::vacant()),
            completions: std::mem::take(&mut ind.completions),
            ..Evaluated::vacant()
        }
    }));
    eval.eval_in_place(jobs);
    for e in jobs.drain(..) {
        pop[e.index] = Individual {
            chrom: e.chrom,
            fitness: e.fitness,
            makespan: e.makespan,
            completions: e.completions,
        };
    }
}

/// The genetic-algorithm engine: operators + configuration.
pub struct GaEngine<'a> {
    selection: &'a dyn SelectionOp,
    crossover: &'a dyn CrossoverOp,
    mutation: &'a dyn MutationOp,
    config: GaConfig,
}

impl<'a> GaEngine<'a> {
    /// Creates an engine from operators and configuration.
    pub fn new(
        selection: &'a dyn SelectionOp,
        crossover: &'a dyn CrossoverOp,
        mutation: &'a dyn MutationOp,
        config: GaConfig,
    ) -> Self {
        assert!(
            config.population_size >= 2,
            "population needs ≥ 2 individuals"
        );
        assert!(
            config.elitism < config.population_size,
            "elitism must leave room for offspring"
        );
        assert!((0.0..=1.0).contains(&config.crossover_rate));
        assert!(
            config.plateau_generations != Some(0),
            "plateau_generations must be ≥ 1 when set"
        );
        Self {
            selection,
            crossover,
            mutation,
            config,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    /// Runs the GA from an initial population.
    ///
    /// `initial` is truncated or cycled to the configured population size.
    /// `max_generations_override`, when given, further caps the generation
    /// count — the PN scheduler uses it to stop before a processor goes
    /// idle (§3.4).
    ///
    /// Internally this is exactly [`GaEngine::start`] followed by
    /// [`GaRun::step`] until a stopping condition fires — the one-shot and
    /// iterator-driven forms are bit-identical (`stepped_run_matches_run`
    /// locks this in).
    pub fn run<P: Problem + Sync>(
        &self,
        problem: &P,
        initial: Vec<Chromosome>,
        max_generations_override: Option<u32>,
        rng: &mut Prng,
    ) -> GaResult {
        self.run_budgeted(problem, initial, max_generations_override, None, rng)
    }

    /// [`GaEngine::run`] under a wall-clock budget: the run stops with
    /// [`StopReason::TimeBudget`] at the first generation boundary on or
    /// after the deadline, returning the best schedule found so far
    /// ("best schedule in ≤ X ms"). The budget is checked *before* each
    /// generation, so a plan call overshoots by at most one generation's
    /// work. `None` disables the deadline and is exactly [`GaEngine::run`].
    ///
    /// Generation counts of time-budgeted runs depend on host speed — this
    /// is the one deliberate exception to the determinism contract, so
    /// callers that need reproducible plans (the replay oracle) must use a
    /// generation cap instead.
    pub fn run_budgeted<P: Problem + Sync>(
        &self,
        problem: &P,
        initial: Vec<Chromosome>,
        max_generations_override: Option<u32>,
        time_budget: Option<std::time::Duration>,
        rng: &mut Prng,
    ) -> GaResult {
        // The evaluation context (serial, or a scoped worker pool that
        // lives for the whole run) wraps the generation loop.
        self.config.evaluator.with_context(problem, |eval| {
            // dts-lint: allow(wall-clock, "the documented TimeBudget exception: generation counts under a wall-clock budget are host-dependent by design")
            let deadline = time_budget.map(|b| std::time::Instant::now() + b);
            let mut run = self.start(problem, eval, &initial, max_generations_override);
            while run.stopped().is_none() {
                if let Some(d) = deadline {
                    // dts-lint: allow(wall-clock, "TimeBudget deadline check between generations; see run_budgeted docs")
                    if std::time::Instant::now() >= d {
                        run.stop_now(StopReason::TimeBudget);
                        break;
                    }
                }
                run.step(eval, rng);
            }
            run.into_result()
        })
    }

    /// Begins a resumable run: evaluates the initial population and returns
    /// the live [`GaRun`], which advances one generation per
    /// [`GaRun::step`] call. This is the engine's steppable form — the
    /// building block for time-budgeted planning and for any driver that
    /// interleaves generations with its own events (stopping when a
    /// processor asks for work rather than at a predicted generation
    /// count).
    ///
    /// `eval` must come from `self.config().evaluator.with_context(..)`
    /// (or any other [`BatchEval`] that evaluates exactly like the
    /// problem); the caller keeps the context alive for the whole run:
    ///
    /// ```
    /// use dts_ga::{Chromosome, GaConfig, GaEngine, Problem, StopReason};
    /// use dts_ga::{CycleCrossover, RouletteWheel, SwapMutation};
    /// use dts_distributions::Prng;
    ///
    /// struct Balance;
    /// impl Problem for Balance {
    ///     fn evaluate_into(&self, c: &Chromosome, completions: &mut Vec<f64>) -> (f64, f64) {
    ///         completions.clear();
    ///         let makespan = c.queue_lengths().into_iter().max().unwrap_or(0) as f64;
    ///         (1.0 / (1.0 + makespan), makespan)
    ///     }
    /// }
    ///
    /// let config = GaConfig { max_generations: 10, ..GaConfig::default() };
    /// let engine = GaEngine::new(&RouletteWheel, &CycleCrossover, &SwapMutation, config);
    /// let initial = vec![Chromosome::from_queues(&[vec![0, 1, 2, 3], vec![]])];
    /// let mut rng = Prng::seed_from(7);
    /// let result = engine.config().evaluator.with_context(&Balance, |eval| {
    ///     let mut run = engine.start(&Balance, eval, &initial, None);
    ///     while run.stopped().is_none() {
    ///         run.step(eval, &mut rng); // a driver may do work between steps
    ///     }
    ///     run.into_result()
    /// });
    /// assert_eq!(result.stop_reason, StopReason::MaxGenerations);
    /// assert_eq!(result.generations, 10);
    /// ```
    pub fn start<'r, P: Problem>(
        &'r self,
        problem: &'r P,
        eval: &dyn BatchEval,
        initial: &[Chromosome],
        max_generations_override: Option<u32>,
    ) -> GaRun<'r, P> {
        assert!(!initial.is_empty(), "initial population must be non-empty");
        let pop_size = self.config.population_size;
        let max_gens = self
            .config
            .max_generations
            .min(max_generations_override.unwrap_or(u32::MAX));

        // Materialise the working population, cycling the seeds if needed;
        // every seed is repaired into the feasible region (a no-op for
        // problems without constraints) and the whole initial batch is
        // evaluated through the context.
        let mut pop: Vec<Individual> = (0..pop_size)
            .map(|i| {
                let mut chrom = initial[i % initial.len()].clone();
                problem.repair(&mut chrom);
                Individual {
                    chrom,
                    fitness: 0.0,
                    makespan: 0.0,
                    completions: Vec::new(),
                }
            })
            .collect();
        let mut queue: Vec<usize> = (0..pop_size).collect();
        let mut jobs = Vec::with_capacity(pop_size);
        evaluate_slots(eval, &mut pop, &queue, &mut jobs);
        queue.clear();

        let (best_idx, _) = Self::best_of(&pop);
        let best = pop[best_idx].chrom.clone();
        let best_makespan = pop[best_idx].makespan;
        let best_fitness = pop[best_idx].fitness;

        let mut run = GaRun {
            engine: self,
            problem,
            spare: pop.clone(),
            scratch: pop[0].chrom.clone(),
            pop,
            order: Vec::with_capacity(pop_size),
            queue,
            jobs,
            dirty: Vec::new(),
            history: Vec::new(),
            best,
            best_makespan,
            best_fitness,
            generations: 0,
            stale_generations: 0,
            inherited: 0,
            evaluated: pop_size as u64,
            max_gens,
            fitness_buf: Vec::with_capacity(pop_size),
            selection_table: Vec::with_capacity(pop_size),
            stopped: None,
        };
        run.record();

        // Gen-0 stopping conditions, in the same precedence as the
        // per-generation checks: an instantly met target wins over an
        // exhausted (zero) generation budget.
        if let Some(target) = self.config.target_makespan {
            if run.best_makespan <= target {
                run.stopped = Some(StopReason::TargetReached);
            }
        }
        if run.stopped.is_none() && max_gens == 0 {
            run.stopped = Some(StopReason::MaxGenerations);
        }
        run
    }

    /// Index and makespan of the lowest-makespan individual (§3.4: "the
    /// individual with the lowest makespan is selected after each
    /// generation").
    fn best_of(pop: &[Individual]) -> (usize, f64) {
        let mut best = 0;
        for (i, ind) in pop.iter().enumerate() {
            if ind.makespan < pop[best].makespan {
                best = i;
            }
        }
        (best, pop[best].makespan)
    }
}

/// Outcome of one [`GaRun::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaStep {
    /// The generation ran and no stopping condition fired; the run can be
    /// stepped again.
    Continue,
    /// The run is finished (this step's generation may or may not have
    /// run — stepping an already-stopped run is a no-op that returns the
    /// recorded reason). Call [`GaRun::into_result`].
    Stopped(StopReason),
}

/// A live, resumable GA run: [`GaEngine::run`] unrolled into one
/// generation per [`GaRun::step`] call.
///
/// The driver owns the loop, which is what makes time-budgeted planning
/// ("best schedule in ≤ X ms" — check the clock between steps, then
/// [`GaRun::stop_now`]) and event-driven stopping (interleave steps with
/// a simulator's event queue) possible. Stepping draws from the caller's
/// RNG exactly as the one-shot `run()` does, so a run driven to completion
/// by `step()` is bit-identical to `run()` with the same seed.
///
/// The borrow of the engine and problem lasts for the run; the evaluation
/// context passed to each `step` must evaluate exactly like the problem
/// (in practice: the `eval` handed out by
/// `engine.config().evaluator.with_context(problem, ..)`).
pub struct GaRun<'r, P: Problem> {
    engine: &'r GaEngine<'r>,
    problem: &'r P,
    /// The current generation.
    pop: Vec<Individual>,
    /// The next generation is bred here, slot by slot over the previous
    /// occupants' buffers, then swapped with `pop`.
    spare: Vec<Individual>,
    /// Where the second crossover child goes when only one slot is left; it
    /// is never repaired or evaluated.
    scratch: Chromosome,
    /// Indices of `pop`, the elite first and in rank order.
    order: Vec<usize>,
    /// Slots of the generation being bred that await evaluation.
    queue: Vec<usize>,
    /// Evaluation records of the slots being evaluated; empty between
    /// evaluations.
    jobs: Vec<Evaluated>,
    /// Mutants whose cached evaluation is stale.
    dirty: Vec<usize>,
    history: Vec<GenStats>,
    best: Chromosome,
    best_makespan: f64,
    best_fitness: f64,
    generations: u32,
    stale_generations: u32,
    /// Offspring that inherited a parent's evaluation so far.
    inherited: u64,
    /// Full evaluations computed so far.
    evaluated: u64,
    max_gens: u32,
    fitness_buf: Vec<f64>,
    /// The selection operator's per-generation table
    /// ([`SelectionOp::prepare`]).
    selection_table: Vec<f64>,
    stopped: Option<StopReason>,
}

impl<'r, P: Problem> GaRun<'r, P> {
    /// Appends a [`GenStats`] record for the current population, when
    /// history recording is enabled.
    fn record(&mut self) {
        if self.engine.config.record_history {
            let best_ms = self
                .pop
                .iter()
                .map(|i| i.makespan)
                .fold(f64::INFINITY, f64::min);
            let best_f = self.pop.iter().map(|i| i.fitness).fold(0.0f64, f64::max);
            let mean_f = self.pop.iter().map(|i| i.fitness).sum::<f64>() / self.pop.len() as f64;
            self.history.push(GenStats {
                generation: self.generations,
                best_makespan: best_ms,
                best_fitness: best_f,
                mean_fitness: mean_f,
            });
        }
    }

    /// Generations evolved so far (0 right after [`GaEngine::start`]).
    pub fn generations(&self) -> u32 {
        self.generations
    }

    /// The lowest makespan seen so far across all generations.
    pub fn best_makespan(&self) -> f64 {
        self.best_makespan
    }

    /// Why the run stopped, if it has.
    pub fn stopped(&self) -> Option<StopReason> {
        self.stopped
    }

    /// Stops the run from outside the engine's own stopping rules — the
    /// driver's escape hatch for wall-clock deadlines ([`StopReason::
    /// TimeBudget`]) or any other external condition. Idempotent against
    /// an engine-decided stop: if the run already stopped, the original
    /// reason is kept.
    pub fn stop_now(&mut self, reason: StopReason) {
        if self.stopped.is_none() {
            self.stopped = Some(reason);
        }
    }

    /// Advances the run by exactly one generation (breed → evaluate →
    /// mutate → re-evaluate → improve, drawing RNG in the same order as
    /// the one-shot `run()`), then applies the engine's stopping rules.
    /// On an already-stopped run this is a no-op returning the recorded
    /// reason.
    pub fn step(&mut self, eval: &dyn BatchEval, rng: &mut Prng) -> GaStep {
        if let Some(reason) = self.stopped {
            return GaStep::Stopped(reason);
        }

        let engine = self.engine;
        let config = &engine.config;
        let problem = self.problem;
        let pop_size = config.population_size;
        self.generations += 1;

        self.fitness_buf.clear();
        self.fitness_buf.extend(self.pop.iter().map(|i| i.fitness));
        let Self {
            pop,
            spare,
            scratch,
            order,
            queue,
            jobs,
            dirty,
            fitness_buf,
            selection_table,
            inherited,
            evaluated,
            ..
        } = self;

        // --- breed into the spare buffer: elitism + selection + crossover
        // (draws RNG). Every slot is overwritten in place. Clones and
        // children that copy a parent keep or inherit its evaluation; the
        // other offspring are queued by slot.
        queue.clear();
        let mut next = 0;
        let elitism = config.elitism;
        if elitism > 0 {
            // Fitness descending, then makespan ascending: the
            // deterministic tie-break keeps elitism meaningful even when
            // many near-optimal schedules share a fitness value. Remaining
            // ties go to the lower index. Only the elite is put in order:
            // the rest of the ranking is never read.
            let rank = |&a: &usize, &b: &usize| {
                pop[b]
                    .fitness
                    .partial_cmp(&pop[a].fitness)
                    .expect("finite fitness")
                    .then_with(|| {
                        pop[a]
                            .makespan
                            .partial_cmp(&pop[b].makespan)
                            .expect("finite makespan")
                    })
                    .then(a.cmp(&b))
            };
            order.clear();
            order.extend(0..pop.len());
            order.select_nth_unstable_by(elitism - 1, rank);
            order[..elitism - 1].sort_unstable_by(rank);
            for &i in &order[..elitism] {
                spare[next].clone_from(&pop[i]);
                next += 1;
            }
        }
        engine.selection.prepare(fitness_buf, selection_table);
        while next < pop_size {
            let pa = engine
                .selection
                .select_prepared(fitness_buf, selection_table, rng);
            let pb = engine
                .selection
                .select_prepared(fitness_buf, selection_table, rng);
            if rng.chance(config.crossover_rate) {
                // Offspring are repaired into the feasible region before
                // evaluation (identity for unconstrained problems); clones
                // need no repair because their parents already live there.
                // A child reported as a copy of a parent, and left alone by
                // repair, inherits that parent's evaluation; the others are
                // queued. A second child with no slot left lands in the
                // scratch chromosome and is dropped unrepaired: repair
                // draws no RNG, so skipping it changes nothing.
                let (a, b) = (&pop[pa], &pop[pb]);
                let end = (next + 2).min(pop_size);
                let parentage = if let [first, second] = &mut spare[next..end] {
                    let (ca, cb) = (&mut first.chrom, &mut second.chrom);
                    engine.crossover.cross_into(&a.chrom, &b.chrom, ca, cb, rng)
                } else {
                    let ca = &mut spare[next].chrom;
                    engine
                        .crossover
                        .cross_into(&a.chrom, &b.chrom, ca, scratch, rng)
                };
                for (slot, parent) in (next..end).zip(parentage) {
                    let child = &mut spare[slot];
                    let repaired = problem.repair(&mut child.chrom);
                    match parent.filter(|_| !repaired) {
                        Some(parent) => {
                            child.inherit(if parent == Parent::A { a } else { b });
                            #[cfg(debug_assertions)]
                            child.check_against_fresh(problem);
                            *inherited += 1;
                        }
                        None => queue.push(slot),
                    }
                }
                next = end;
            } else {
                spare[next].clone_from(&pop[pa]);
                next += 1;
            }
        }

        // --- evaluate the fresh offspring in their slots, then swap -----
        *evaluated += queue.len() as u64;
        evaluate_slots(eval, spare, queue, jobs);
        std::mem::swap(pop, spare);

        // --- random mutation (draws RNG) -------------------------------
        // A transposition on an individual with valid completion times is
        // delta-evaluated on the spot: only the affected processors' sums
        // are recomputed. Anything else marks the individual dirty for a
        // full batched re-evaluation. Once dirty, always dirty — the
        // cached completions no longer describe the chromosome, so later
        // swaps cannot delta off them.
        dirty.clear();
        for _ in 0..config.mutations_per_generation {
            let idx = rng.below(pop.len());
            let edit = engine.mutation.mutate_tracked(&mut pop[idx].chrom, rng);
            // An unchanged individual is still feasible, and repair draws
            // no RNG, so there is nothing to repair or re-evaluate.
            if edit == GeneEdit::Unchanged {
                continue;
            }
            // A mutation can push the chromosome out of the feasible
            // region; repair pulls it back (no-op for unconstrained
            // problems). A repaired chromosome differs from the tracked
            // edit, so it is never delta-evaluated — it goes dirty.
            let repaired = problem.repair(&mut pop[idx].chrom);
            let already_dirty = dirty.contains(&idx);
            let delta = match edit {
                GeneEdit::Swap { i, j } if !already_dirty && !repaired => {
                    let ind = &mut pop[idx];
                    problem.evaluate_swap_delta(&ind.chrom, i, j, &mut ind.completions)
                }
                _ => None,
            };
            match delta {
                Some((fitness, makespan)) => {
                    let ind = &mut pop[idx];
                    ind.fitness = fitness;
                    ind.makespan = makespan;
                }
                None if !already_dirty => dirty.push(idx),
                None => {}
            }
        }
        // Only dirty individuals are re-evaluated, in slot order; the rest
        // keep their incrementally maintained values.
        dirty.sort_unstable();
        *evaluated += dirty.len() as u64;
        evaluate_slots(eval, pop, dirty, jobs);

        // --- local improvement (rebalancing heuristic, §3.5) -----------
        for ind in pop.iter_mut() {
            if let Some((fitness, makespan)) =
                problem.improve(&mut ind.chrom, ind.fitness, &mut ind.completions, rng)
            {
                ind.fitness = fitness;
                ind.makespan = makespan;
            }
        }

        // --- track the best schedule found so far ----------------------
        let (best_idx, _) = GaEngine::best_of(pop);
        if pop[best_idx].makespan < self.best_makespan {
            self.best.clone_from(&pop[best_idx].chrom);
            self.best_makespan = pop[best_idx].makespan;
            self.best_fitness = pop[best_idx].fitness;
            self.stale_generations = 0;
        } else {
            self.stale_generations += 1;
        }

        self.record();

        // --- stopping rules, in precedence order -----------------------
        if let Some(target) = config.target_makespan {
            if self.best_makespan <= target {
                self.stopped = Some(StopReason::TargetReached);
                return GaStep::Stopped(StopReason::TargetReached);
            }
        }
        if let Some(k) = config.plateau_generations {
            if self.stale_generations >= k {
                self.stopped = Some(StopReason::Plateau);
                return GaStep::Stopped(StopReason::Plateau);
            }
        }
        if self.generations >= self.max_gens {
            self.stopped = Some(StopReason::MaxGenerations);
            return GaStep::Stopped(StopReason::MaxGenerations);
        }
        GaStep::Continue
    }

    /// Finishes the run and assembles the [`GaResult`]. A run abandoned
    /// mid-flight (no stopping condition fired, no [`GaRun::stop_now`])
    /// reports [`StopReason::MaxGenerations`] — the result is still the
    /// best schedule found so far.
    pub fn into_result(self) -> GaResult {
        GaResult {
            best: self.best,
            best_makespan: self.best_makespan,
            best_fitness: self.best_fitness,
            generations: self.generations,
            stop_reason: self.stopped.unwrap_or(StopReason::MaxGenerations),
            history: self.history,
            memo_hits: self.inherited,
            memo_misses: self.evaluated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossover::CycleCrossover;
    use crate::mutation::SwapMutation;
    use crate::selection::RouletteWheel;

    /// A toy problem: tasks have unit size on unit-rate processors; the
    /// makespan is the longest queue, fitness rewards balance.
    struct Balance;

    impl Problem for Balance {
        fn evaluate_into(&self, c: &Chromosome, completions: &mut Vec<f64>) -> (f64, f64) {
            completions.clear();
            let makespan = c.queue_lengths().into_iter().max().unwrap_or(0) as f64;
            (1.0 / (1.0 + makespan), makespan)
        }
    }

    fn skewed_initial(pop: usize) -> Vec<Chromosome> {
        // All 12 tasks piled on processor 0 of 4: maximally unbalanced.
        let queues = vec![(0..12u32).collect::<Vec<_>>(), vec![], vec![], vec![]];
        (0..pop).map(|_| Chromosome::from_queues(&queues)).collect()
    }

    fn engine(config: GaConfig) -> GaEngine<'static> {
        static SEL: RouletteWheel = RouletteWheel;
        static CX: CycleCrossover = CycleCrossover;
        static MU: SwapMutation = SwapMutation;
        GaEngine::new(&SEL, &CX, &MU, config)
    }

    #[test]
    fn ga_improves_balance() {
        let e = engine(GaConfig {
            max_generations: 300,
            mutations_per_generation: 4,
            ..GaConfig::default()
        });
        let mut rng = Prng::seed_from(42);
        let result = e.run(&Balance, skewed_initial(20), None, &mut rng);
        // Initial makespan is 12; optimum is 3. The GA must get close.
        assert!(
            result.best_makespan <= 5.0,
            "makespan {} after {} gens",
            result.best_makespan,
            result.generations
        );
        assert!(result.best.validate().is_ok());
    }

    #[test]
    fn target_makespan_stops_early() {
        let e = engine(GaConfig {
            max_generations: 1000,
            target_makespan: Some(6.0),
            mutations_per_generation: 4,
            ..GaConfig::default()
        });
        let mut rng = Prng::seed_from(43);
        let result = e.run(&Balance, skewed_initial(20), None, &mut rng);
        assert_eq!(result.stop_reason, StopReason::TargetReached);
        assert!(result.best_makespan <= 6.0);
        assert!(result.generations < 1000);
    }

    #[test]
    fn generation_override_caps_run() {
        let e = engine(GaConfig {
            max_generations: 1000,
            ..GaConfig::default()
        });
        let mut rng = Prng::seed_from(44);
        let result = e.run(&Balance, skewed_initial(20), Some(5), &mut rng);
        assert_eq!(result.generations, 5);
        assert_eq!(result.stop_reason, StopReason::MaxGenerations);
    }

    #[test]
    fn history_is_recorded_and_monotone_in_best() {
        let e = engine(GaConfig {
            max_generations: 100,
            record_history: true,
            mutations_per_generation: 4,
            ..GaConfig::default()
        });
        let mut rng = Prng::seed_from(45);
        let result = e.run(&Balance, skewed_initial(20), None, &mut rng);
        assert_eq!(result.history.len(), result.generations as usize + 1);
        // With elitism the per-generation best fitness never degrades.
        for w in result.history.windows(2) {
            assert!(
                w[1].best_fitness >= w[0].best_fitness - 1e-12,
                "elitism violated: {w:?}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let e = engine(GaConfig {
            max_generations: 50,
            ..GaConfig::default()
        });
        let mut r1 = Prng::seed_from(7);
        let mut r2 = Prng::seed_from(7);
        let a = e.run(&Balance, skewed_initial(20), None, &mut r1);
        let b = e.run(&Balance, skewed_initial(20), None, &mut r2);
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_makespan, b.best_makespan);
    }

    #[test]
    fn improve_hook_is_applied() {
        /// A problem whose "improvement" instantly balances one step by
        /// moving a task from the longest to the shortest queue.
        struct Greedy;
        impl Problem for Greedy {
            fn evaluate_into(&self, c: &Chromosome, completions: &mut Vec<f64>) -> (f64, f64) {
                Balance.evaluate_into(c, completions)
            }
            fn improve(
                &self,
                c: &mut Chromosome,
                current: f64,
                _completions: &mut Vec<f64>,
                _rng: &mut Prng,
            ) -> Option<(f64, f64)> {
                let mut queues = c.to_queues();
                let (longest, shortest) = {
                    let mut longest = 0;
                    let mut shortest = 0;
                    for i in 0..queues.len() {
                        if queues[i].len() > queues[longest].len() {
                            longest = i;
                        }
                        if queues[i].len() < queues[shortest].len() {
                            shortest = i;
                        }
                    }
                    (longest, shortest)
                };
                if queues[longest].len() <= queues[shortest].len() + 1 {
                    return None;
                }
                let t = queues[longest].pop().unwrap();
                queues[shortest].push(t);
                let candidate = Chromosome::from_queues(&queues);
                let (f, ms) = self.evaluate_into(&candidate, &mut Vec::new());
                if f > current {
                    *c = candidate;
                    Some((f, ms))
                } else {
                    None
                }
            }
        }

        let e = engine(GaConfig {
            max_generations: 20,
            crossover_rate: 0.0,
            mutations_per_generation: 0,
            ..GaConfig::default()
        });
        let mut rng = Prng::seed_from(46);
        let result = e.run(&Greedy, skewed_initial(20), None, &mut rng);
        // Improvement alone must fully balance 12 tasks over 4 processors.
        assert_eq!(result.best_makespan, 3.0);
    }

    #[test]
    fn parallel_evaluation_is_bit_identical() {
        let run = |evaluator: Evaluator| {
            let e = engine(GaConfig {
                max_generations: 60,
                mutations_per_generation: 4,
                record_history: true,
                evaluator,
                ..GaConfig::default()
            });
            let mut rng = Prng::seed_from(48);
            e.run(&Balance, skewed_initial(20), None, &mut rng)
        };
        let serial = run(Evaluator::Serial);
        for workers in [2, 8] {
            let par = run(Evaluator::ThreadPool { workers });
            assert_eq!(par.best, serial.best, "workers={workers}");
            assert_eq!(par.best_makespan.to_bits(), serial.best_makespan.to_bits());
            assert_eq!(par.best_fitness.to_bits(), serial.best_fitness.to_bits());
            assert_eq!(par.generations, serial.generations);
            assert_eq!(par.history.len(), serial.history.len());
            for (a, b) in par.history.iter().zip(&serial.history) {
                assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
                assert_eq!(a.mean_fitness.to_bits(), b.mean_fitness.to_bits());
            }
        }
    }

    /// Inheritance is invisible: the real cycle crossover, whose parent
    /// copies inherit their evaluation, and one that reports no parentage,
    /// so that every child is evaluated, give bit-identical runs. The
    /// counters show the difference: the same evaluations are requested,
    /// and inheritance serves some of them without a walk.
    #[test]
    fn memo_on_and_off_are_bit_identical() {
        let run = |crossover: &'static dyn CrossoverOp| {
            static SEL: RouletteWheel = RouletteWheel;
            static MU: SwapMutation = SwapMutation;
            let config = GaConfig {
                max_generations: 60,
                mutations_per_generation: 4,
                record_history: true,
                ..GaConfig::default()
            };
            let mut rng = Prng::seed_from(53);
            GaEngine::new(&SEL, crossover, &MU, config).run(
                &Balance,
                skewed_initial(20),
                None,
                &mut rng,
            )
        };
        let off = run(&crate::crossover::UnreportedCycle);
        let on = run(&CycleCrossover);
        assert_eq!(on.best, off.best);
        assert_eq!(on.best_makespan.to_bits(), off.best_makespan.to_bits());
        assert_eq!(on.best_fitness.to_bits(), off.best_fitness.to_bits());
        assert_eq!(on.generations, off.generations);
        assert_eq!(on.history.len(), off.history.len());
        for (a, b) in on.history.iter().zip(&off.history) {
            assert_eq!(a.best_makespan.to_bits(), b.best_makespan.to_bits());
            assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
            assert_eq!(a.mean_fitness.to_bits(), b.mean_fitness.to_bits());
        }
        assert_eq!(off.memo_hits, 0, "unreported parentage must never inherit");
        assert!(
            on.memo_hits > 0,
            "identical seeds and a converging population must breed parent copies"
        );
        assert_eq!(on.memo_hits + on.memo_misses, off.memo_misses);
    }

    #[test]
    fn delta_evaluation_is_used_and_bit_identical() {
        use std::sync::atomic::{AtomicU64, Ordering};

        use crate::encoding::Gene;

        /// `Balance`, but exporting queue lengths as "completion times"
        /// and delta-evaluating task–task swaps (which cannot change any
        /// queue's length, so the cached state is already current).
        struct DeltaBalance {
            deltas: AtomicU64,
        }
        impl Problem for DeltaBalance {
            fn evaluate_into(&self, c: &Chromosome, completions: &mut Vec<f64>) -> (f64, f64) {
                completions.clear();
                completions.extend(c.queue_lengths().into_iter().map(|l| l as f64));
                let ms = completions.iter().copied().fold(0.0f64, f64::max);
                (1.0 / (1.0 + ms), ms)
            }
            fn evaluate_swap_delta(
                &self,
                c: &Chromosome,
                i: usize,
                j: usize,
                completions: &mut [f64],
            ) -> Option<(f64, f64)> {
                let genes = c.genes();
                if completions.is_empty()
                    || !matches!(genes[i], Gene::Task(_))
                    || !matches!(genes[j], Gene::Task(_))
                {
                    return None;
                }
                self.deltas.fetch_add(1, Ordering::Relaxed);
                let ms = completions.iter().copied().fold(0.0f64, f64::max);
                Some((1.0 / (1.0 + ms), ms))
            }
        }

        fn run_on<P: Problem + Sync>(p: &P) -> GaResult {
            static SEL: RouletteWheel = RouletteWheel;
            static CX: CycleCrossover = CycleCrossover;
            static MU: SwapMutation = SwapMutation;
            let e = GaEngine::new(
                &SEL,
                &CX,
                &MU,
                GaConfig {
                    max_generations: 60,
                    mutations_per_generation: 6,
                    record_history: true,
                    ..GaConfig::default()
                },
            );
            let mut rng = Prng::seed_from(54);
            e.run(p, skewed_initial(20), None, &mut rng)
        }

        let plain = run_on(&Balance);
        let delta_problem = DeltaBalance {
            deltas: AtomicU64::new(0),
        };
        let fast = run_on(&delta_problem);
        assert!(
            delta_problem.deltas.load(Ordering::Relaxed) > 0,
            "delta path never exercised"
        );
        assert_eq!(plain.best, fast.best);
        assert_eq!(plain.best_makespan.to_bits(), fast.best_makespan.to_bits());
        assert_eq!(plain.best_fitness.to_bits(), fast.best_fitness.to_bits());
        assert_eq!(plain.generations, fast.generations);
        for (a, b) in plain.history.iter().zip(&fast.history) {
            assert_eq!(a.best_makespan.to_bits(), b.best_makespan.to_bits());
            assert_eq!(a.mean_fitness.to_bits(), b.mean_fitness.to_bits());
        }
    }

    #[test]
    fn plateau_stops_stagnant_runs() {
        // With no crossover and no mutation the population never changes,
        // so the best makespan is flat from generation 1 on and the
        // plateau stop must fire after exactly k stale generations.
        let e = engine(GaConfig {
            max_generations: 1000,
            crossover_rate: 0.0,
            mutations_per_generation: 0,
            plateau_generations: Some(7),
            ..GaConfig::default()
        });
        let mut rng = Prng::seed_from(49);
        let result = e.run(&Balance, skewed_initial(20), None, &mut rng);
        assert_eq!(result.stop_reason, StopReason::Plateau);
        assert_eq!(result.generations, 7);
    }

    #[test]
    fn plateau_composes_with_generation_override() {
        // The external (§3.4 idle-horizon) cap binds before the plateau.
        let e = engine(GaConfig {
            max_generations: 1000,
            crossover_rate: 0.0,
            mutations_per_generation: 0,
            plateau_generations: Some(50),
            ..GaConfig::default()
        });
        let mut rng = Prng::seed_from(50);
        let result = e.run(&Balance, skewed_initial(20), Some(5), &mut rng);
        assert_eq!(result.stop_reason, StopReason::MaxGenerations);
        assert_eq!(result.generations, 5);
    }

    #[test]
    #[should_panic]
    fn zero_plateau_rejected() {
        let _ = engine(GaConfig {
            plateau_generations: Some(0),
            ..GaConfig::default()
        });
    }

    #[test]
    #[should_panic]
    fn tiny_population_rejected() {
        let _ = engine(GaConfig {
            population_size: 1,
            ..GaConfig::default()
        });
    }

    #[test]
    fn initial_population_cycles_to_size() {
        let e = engine(GaConfig {
            max_generations: 1,
            ..GaConfig::default()
        });
        let mut rng = Prng::seed_from(47);
        // Only 3 seeds for a population of 20.
        let result = e.run(&Balance, skewed_initial(3), None, &mut rng);
        assert!(result.best.validate().is_ok());
    }

    /// An already-optimal seed population: 12 tasks balanced 3-3-3-3 over
    /// 4 processors (the `Balance` optimum).
    fn balanced_initial(pop: usize) -> Vec<Chromosome> {
        let queues = vec![
            vec![0u32, 1, 2],
            vec![3, 4, 5],
            vec![6, 7, 8],
            vec![9, 10, 11],
        ];
        (0..pop).map(|_| Chromosome::from_queues(&queues)).collect()
    }

    #[test]
    fn stepped_run_matches_run() {
        let config = GaConfig {
            max_generations: 40,
            mutations_per_generation: 4,
            record_history: true,
            plateau_generations: Some(25),
            ..GaConfig::default()
        };
        let e = engine(config);
        let mut r1 = Prng::seed_from(49);
        let one_shot = e.run(&Balance, skewed_initial(20), None, &mut r1);

        let mut r2 = Prng::seed_from(49);
        let initial = skewed_initial(20);
        let stepped = e.config().evaluator.with_context(&Balance, |eval| {
            let mut run = e.start(&Balance, eval, &initial, None);
            while run.stopped().is_none() {
                let step = run.step(eval, &mut r2);
                assert_eq!(step == GaStep::Continue, run.stopped().is_none());
            }
            run.into_result()
        });

        assert_eq!(stepped.best, one_shot.best);
        assert_eq!(
            stepped.best_makespan.to_bits(),
            one_shot.best_makespan.to_bits()
        );
        assert_eq!(
            stepped.best_fitness.to_bits(),
            one_shot.best_fitness.to_bits()
        );
        assert_eq!(stepped.generations, one_shot.generations);
        assert_eq!(stepped.stop_reason, one_shot.stop_reason);
        assert_eq!(stepped.memo_hits, one_shot.memo_hits);
        assert_eq!(stepped.memo_misses, one_shot.memo_misses);
        assert_eq!(stepped.history.len(), one_shot.history.len());
        for (a, b) in stepped.history.iter().zip(&one_shot.history) {
            assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
            assert_eq!(a.mean_fitness.to_bits(), b.mean_fitness.to_bits());
            assert_eq!(a.best_makespan.to_bits(), b.best_makespan.to_bits());
        }
    }

    #[test]
    fn time_budget_stops_run_within_budget() {
        let e = engine(GaConfig {
            max_generations: u32::MAX,
            mutations_per_generation: 4,
            ..GaConfig::default()
        });
        let mut rng = Prng::seed_from(50);
        let budget = std::time::Duration::from_millis(20);
        let started = std::time::Instant::now();
        let result = e.run_budgeted(&Balance, skewed_initial(20), None, Some(budget), &mut rng);
        let elapsed = started.elapsed();
        assert_eq!(result.stop_reason, StopReason::TimeBudget);
        // The toy generation takes microseconds, so plenty evolved …
        assert!(result.generations > 0);
        assert!(result.best.validate().is_ok());
        // … and the overshoot is bounded by one generation (generous
        // slack for a loaded CI host).
        assert!(
            elapsed < budget + std::time::Duration::from_millis(200),
            "budgeted run took {elapsed:?} against a {budget:?} budget"
        );
    }

    #[test]
    fn zero_time_budget_returns_best_seed() {
        let e = engine(GaConfig {
            max_generations: 100,
            ..GaConfig::default()
        });
        let mut rng = Prng::seed_from(51);
        let result = e.run_budgeted(
            &Balance,
            skewed_initial(20),
            None,
            Some(std::time::Duration::ZERO),
            &mut rng,
        );
        // The deadline check runs before the first generation: no
        // evolution, but the evaluated seed population is still ranked
        // and the best seed returned.
        assert_eq!(result.stop_reason, StopReason::TimeBudget);
        assert_eq!(result.generations, 0);
        assert_eq!(result.best_makespan, 12.0);
    }

    #[test]
    fn seed_population_at_target_stops_at_generation_zero() {
        // A seed population already at the target returns without
        // evolving — the paper's behaviour.
        let e = engine(GaConfig {
            max_generations: 100,
            target_makespan: Some(3.0),
            ..GaConfig::default()
        });
        let mut rng = Prng::seed_from(52);
        let result = e.run(&Balance, balanced_initial(20), None, &mut rng);
        assert_eq!(result.stop_reason, StopReason::TargetReached);
        assert_eq!(result.generations, 0);
    }

    #[test]
    fn stepping_a_stopped_run_is_a_noop() {
        let e = engine(GaConfig {
            max_generations: 2,
            ..GaConfig::default()
        });
        let mut rng = Prng::seed_from(55);
        let initial = skewed_initial(20);
        e.config().evaluator.with_context(&Balance, |eval| {
            let mut run = e.start(&Balance, eval, &initial, None);
            while run.stopped().is_none() {
                run.step(eval, &mut rng);
            }
            assert_eq!(
                run.step(eval, &mut rng),
                GaStep::Stopped(StopReason::MaxGenerations)
            );
            assert_eq!(run.generations(), 2);
            // An external stop after the engine already stopped keeps the
            // original reason.
            run.stop_now(StopReason::TimeBudget);
            assert_eq!(run.stopped(), Some(StopReason::MaxGenerations));
        });
    }
}

/// The allocation-free generation loop against the loop it replaced.
#[cfg(test)]
mod equivalence_tests {
    use super::*;
    use crate::crossover::{CycleCrossover, OnePointOrder, OrderCrossover, UnreportedCycle};
    use crate::encoding::Gene;
    use crate::evaluate::Evaluator;
    use crate::mutation::SwapMutation;
    use crate::repair::{repair_topological, SlotPrecedence};
    use crate::selection::RouletteWheel;
    use proptest::prelude::*;

    /// A heterogeneous cluster shaped like the PN batch problem: task sizes
    /// over processor rates, exported completion times, swap deltas, and
    /// optionally precedence repair, an RNG-drawing improve hook that
    /// edits the chromosome and completions in place, and a coarse fitness
    /// that many schedules of different makespans share.
    struct Cluster {
        sizes: Vec<f64>,
        rates: Vec<f64>,
        prec: Option<SlotPrecedence>,
        improve: bool,
        coarse: bool,
    }

    impl Cluster {
        fn new(h: u32, m: u16, seed: u64, constrained: bool, improve: bool, coarse: bool) -> Self {
            let mut rng = Prng::seed_from(seed);
            let sizes = (0..h).map(|_| 1.0 + 99.0 * rng.next_f64()).collect();
            let rates = (0..m).map(|_| 15.0 + 25.0 * rng.next_f64()).collect();
            let prec = constrained.then(|| {
                SlotPrecedence::new(
                    (0..h as usize)
                        .map(|t| {
                            if t > 0 && rng.chance(0.4) {
                                vec![rng.below(t) as u32]
                            } else {
                                Vec::new()
                            }
                        })
                        .collect(),
                )
            });
            Self {
                sizes,
                rates,
                prec,
                improve,
                coarse,
            }
        }

        fn fill(&self, c: &Chromosome, out: &mut Vec<f64>) {
            out.clear();
            out.resize(self.rates.len(), 0.0);
            for (p, t) in c.assignments() {
                out[p] += self.sizes[t as usize] / self.rates[p];
            }
        }

        fn score(&self, completions: &[f64]) -> (f64, f64) {
            let makespan = completions.iter().copied().fold(0.0, f64::max);
            if self.coarse {
                return (1.0 / (1.0 + (makespan / 4.0).floor()), makespan);
            }
            let idle: f64 = completions.iter().map(|&c| makespan - c).sum();
            (1.0 / (1.0 + makespan + 0.01 * idle), makespan)
        }
    }

    impl Problem for Cluster {
        fn evaluate_into(&self, c: &Chromosome, completions: &mut Vec<f64>) -> (f64, f64) {
            self.fill(c, completions);
            self.score(completions)
        }
        fn evaluate_swap_delta(
            &self,
            c: &Chromosome,
            i: usize,
            j: usize,
            completions: &mut [f64],
        ) -> Option<(f64, f64)> {
            let genes = c.genes();
            if self.prec.is_some()
                || completions.len() != self.rates.len()
                || !matches!(genes[i], Gene::Task(_))
                || !matches!(genes[j], Gene::Task(_))
            {
                return None;
            }
            let mut fresh = Vec::new();
            self.fill(c, &mut fresh);
            completions.copy_from_slice(&fresh);
            Some(self.score(completions))
        }
        fn repair(&self, c: &mut Chromosome) -> bool {
            self.prec.as_ref().is_some_and(|p| repair_topological(c, p))
        }
        fn improve(
            &self,
            c: &mut Chromosome,
            current_fitness: f64,
            completions: &mut Vec<f64>,
            rng: &mut Prng,
        ) -> Option<(f64, f64)> {
            let n = c.genes().len();
            if !self.improve || self.prec.is_some() || n < 2 {
                return None;
            }
            let (i, j) = (rng.below(n), rng.below(n));
            c.genes_swap(i, j);
            let mut candidate = Vec::new();
            let (fitness, makespan) = self.evaluate_into(c, &mut candidate);
            if fitness > current_fitness {
                completions.clear();
                completions.extend_from_slice(&candidate);
                Some((fitness, makespan))
            } else {
                c.genes_swap(i, j);
                None
            }
        }
    }

    /// The generation loop as it was before the double-buffered
    /// population — a fresh population vector, offspring list and
    /// evaluation batch every generation — and before inheritance: every
    /// offspring and every dirty mutant is evaluated afresh. History and
    /// stopping rules are left out: the equivalence test never stops a run.
    struct ReferenceRun<'r, P: Problem> {
        engine: &'r GaEngine<'r>,
        problem: &'r P,
        /// Full evaluations computed.
        evaluated: u64,
        pop: Vec<Individual>,
        best: Chromosome,
        best_makespan: f64,
        best_fitness: f64,
        fitness_buf: Vec<f64>,
    }

    fn reference_eval_indexed(
        eval: &dyn BatchEval,
        evaluated: &mut u64,
        jobs: Vec<(usize, Chromosome)>,
    ) -> Vec<Evaluated> {
        *evaluated += jobs.len() as u64;
        eval.eval_batch(jobs)
    }

    fn from_eval(e: Evaluated) -> Individual {
        Individual {
            chrom: e.chrom,
            fitness: e.fitness,
            makespan: e.makespan,
            completions: e.completions,
        }
    }

    impl<'r, P: Problem> ReferenceRun<'r, P> {
        fn start(
            engine: &'r GaEngine<'r>,
            problem: &'r P,
            eval: &dyn BatchEval,
            initial: &[Chromosome],
        ) -> Self {
            let pop_size = engine.config.population_size;
            let mut evaluated = 0;
            let init_jobs: Vec<(usize, Chromosome)> = (0..pop_size)
                .map(|i| {
                    let mut c = initial[i % initial.len()].clone();
                    problem.repair(&mut c);
                    (i, c)
                })
                .collect();
            let mut init_slots: Vec<Option<Individual>> = (0..pop_size).map(|_| None).collect();
            for e in reference_eval_indexed(eval, &mut evaluated, init_jobs) {
                let i = e.index;
                init_slots[i] = Some(from_eval(e));
            }
            let pop: Vec<Individual> = init_slots
                .into_iter()
                .map(|slot| slot.expect("every initial slot evaluated"))
                .collect();
            let (best_idx, _) = GaEngine::best_of(&pop);
            Self {
                engine,
                problem,
                evaluated,
                best: pop[best_idx].chrom.clone(),
                best_makespan: pop[best_idx].makespan,
                best_fitness: pop[best_idx].fitness,
                pop,
                fitness_buf: Vec::with_capacity(pop_size),
            }
        }

        fn step(&mut self, eval: &dyn BatchEval, rng: &mut Prng) {
            let engine = self.engine;
            let config = &engine.config;
            let problem = self.problem;
            let pop_size = config.population_size;

            self.fitness_buf.clear();
            self.fitness_buf.extend(self.pop.iter().map(|i| i.fitness));
            let pop = &mut self.pop;

            let mut next: Vec<Option<Individual>> = Vec::with_capacity(pop_size);
            let mut offspring: Vec<(usize, Chromosome)> = Vec::new();
            if config.elitism > 0 {
                let mut order: Vec<usize> = (0..pop.len()).collect();
                order.sort_by(|&a, &b| {
                    pop[b]
                        .fitness
                        .partial_cmp(&pop[a].fitness)
                        .expect("finite fitness")
                        .then_with(|| {
                            pop[a]
                                .makespan
                                .partial_cmp(&pop[b].makespan)
                                .expect("finite makespan")
                        })
                });
                for &i in order.iter().take(config.elitism) {
                    next.push(Some(Individual {
                        chrom: pop[i].chrom.clone(),
                        fitness: pop[i].fitness,
                        makespan: pop[i].makespan,
                        completions: pop[i].completions.clone(),
                    }));
                }
            }
            while next.len() < pop_size {
                let pa = engine.selection.select(&self.fitness_buf, rng);
                let pb = engine.selection.select(&self.fitness_buf, rng);
                if rng.chance(config.crossover_rate) {
                    let (mut ca, mut cb) =
                        engine.crossover.cross(&pop[pa].chrom, &pop[pb].chrom, rng);
                    problem.repair(&mut ca);
                    problem.repair(&mut cb);
                    offspring.push((next.len(), ca));
                    next.push(None);
                    if next.len() < pop_size {
                        offspring.push((next.len(), cb));
                        next.push(None);
                    }
                } else {
                    next.push(Some(Individual {
                        chrom: pop[pa].chrom.clone(),
                        fitness: pop[pa].fitness,
                        makespan: pop[pa].makespan,
                        completions: pop[pa].completions.clone(),
                    }));
                }
            }

            for e in reference_eval_indexed(eval, &mut self.evaluated, offspring) {
                let i = e.index;
                next[i] = Some(from_eval(e));
            }
            *pop = next
                .into_iter()
                .map(|slot| slot.expect("every slot bred or evaluated"))
                .collect();

            let mut dirty: Vec<usize> = Vec::new();
            for _ in 0..config.mutations_per_generation {
                let idx = rng.below(pop.len());
                let edit = engine.mutation.mutate_tracked(&mut pop[idx].chrom, rng);
                let repaired = problem.repair(&mut pop[idx].chrom);
                let already_dirty = dirty.contains(&idx);
                let delta = match edit {
                    GeneEdit::Unchanged if !repaired => continue,
                    GeneEdit::Swap { i, j } if !already_dirty && !repaired => {
                        let ind = &mut pop[idx];
                        problem.evaluate_swap_delta(&ind.chrom, i, j, &mut ind.completions)
                    }
                    _ => None,
                };
                match delta {
                    Some((fitness, makespan)) => {
                        let ind = &mut pop[idx];
                        ind.fitness = fitness;
                        ind.makespan = makespan;
                    }
                    None if !already_dirty => dirty.push(idx),
                    None => {}
                }
            }
            if !dirty.is_empty() {
                dirty.sort_unstable();
                let jobs: Vec<(usize, Chromosome)> = dirty
                    .iter()
                    .map(|&i| {
                        let chrom = std::mem::replace(
                            &mut pop[i].chrom,
                            Chromosome::from_queues(&[Vec::new()]),
                        );
                        (i, chrom)
                    })
                    .collect();
                for e in reference_eval_indexed(eval, &mut self.evaluated, jobs) {
                    let i = e.index;
                    pop[i] = from_eval(e);
                }
            }

            for ind in pop.iter_mut() {
                if let Some((fitness, makespan)) =
                    problem.improve(&mut ind.chrom, ind.fitness, &mut ind.completions, rng)
                {
                    ind.fitness = fitness;
                    ind.makespan = makespan;
                }
            }

            let (best_idx, _) = GaEngine::best_of(pop);
            if pop[best_idx].makespan < self.best_makespan {
                self.best = pop[best_idx].chrom.clone();
                self.best_makespan = pop[best_idx].makespan;
                self.best_fitness = pop[best_idx].fitness;
            }
        }
    }

    /// Bit-level equality of the two loops' observable state.
    fn assert_same<P: Problem>(
        gen: u32,
        run: &GaRun<'_, P>,
        reference: &ReferenceRun<'_, P>,
        rng: &Prng,
        reference_rng: &Prng,
    ) -> Result<(), TestCaseError> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(run.pop.len(), reference.pop.len());
        for (k, (a, b)) in run.pop.iter().zip(&reference.pop).enumerate() {
            prop_assert_eq!(&a.chrom, &b.chrom, "generation {} slot {}", gen, k);
            prop_assert_eq!(
                a.fitness.to_bits(),
                b.fitness.to_bits(),
                "gen {} slot {}",
                gen,
                k
            );
            prop_assert_eq!(
                a.makespan.to_bits(),
                b.makespan.to_bits(),
                "gen {} slot {}",
                gen,
                k
            );
            prop_assert_eq!(
                bits(&a.completions),
                bits(&b.completions),
                "gen {} slot {}",
                gen,
                k
            );
        }
        prop_assert_eq!(&run.best, &reference.best, "generation {}", gen);
        prop_assert_eq!(
            run.best_makespan.to_bits(),
            reference.best_makespan.to_bits()
        );
        prop_assert_eq!(run.best_fitness.to_bits(), reference.best_fitness.to_bits());
        // Every evaluation the reference computes, the run computes or
        // serves by inheritance.
        prop_assert_eq!(
            run.inherited + run.evaluated,
            reference.evaluated,
            "generation {}",
            gen
        );
        prop_assert_eq!(
            rng.clone().next_u64(),
            reference_rng.clone().next_u64(),
            "generation {}",
            gen
        );
        Ok(())
    }

    /// A uniformly shuffled chromosome of `h` tasks over `m` processors.
    fn shuffled(h: u32, m: u16, rng: &mut Prng) -> Chromosome {
        let mut genes: Vec<Gene> = (0..h)
            .map(Gene::Task)
            .chain((0..m - 1).map(Gene::Delim))
            .collect();
        for i in (1..genes.len()).rev() {
            genes.swap(i, rng.below(i + 1));
        }
        Chromosome::from_genes(genes, h, m)
    }

    const GENERATIONS: u32 = 12;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Same seed, same operators: after every generation the
        /// allocation-free, inheriting loop and the reference loop hold
        /// the same individuals (evaluations bit for bit), the same
        /// best-so-far, the same number of requested evaluations and the
        /// same RNG position. The two-worker pool covers in-place pool
        /// evaluation; `constrained` covers repair, `improve` the hook
        /// whose results parent copies inherit. The reference draws each
        /// parent with `select` and ranks the elite with a stable sort;
        /// `coarse` makes fitness ties between different makespans common
        /// (copies tie in both), and the elite runs from none to all but
        /// one of the population. Swap mutation is the only mutation, so
        /// full re-evaluation of a mutant comes from the paths that remain:
        /// a swap that moves a delimiter, a mutant that `constrained`
        /// repair changed, and a second mutation on an already dirty
        /// individual (up to three mutations per generation).
        #[test]
        fn generation_loop_matches_the_reference_loop(
            h in 1u32..40,
            m in 1u16..8,
            population_size in 2usize..24,
            elitism_pick in 0usize..4,
            crossover_pick in 0usize..3,
            operator_pick in 0usize..3,
            mutations_per_generation in 0usize..4,
            constrained in prop::bool::ANY,
            improve in prop::bool::ANY,
            coarse in prop::bool::ANY,
            pool in prop::bool::ANY,
            seed in 0u64..u64::MAX,
        ) {
            static SEL: RouletteWheel = RouletteWheel;
            let crossovers: [&'static dyn CrossoverOp; 3] =
                [&CycleCrossover, &OrderCrossover, &OnePointOrder];
            let config = GaConfig {
                population_size,
                elitism: [0, 1, 2, population_size - 1][elitism_pick].min(population_size - 1),
                crossover_rate: [0.0, 0.5, 1.0][crossover_pick],
                mutations_per_generation,
                max_generations: u32::MAX,
                evaluator: if pool { Evaluator::ThreadPool { workers: 2 } } else { Evaluator::Serial },
                ..GaConfig::default()
            };
            let engine = GaEngine::new(
                &SEL,
                crossovers[operator_pick],
                &SwapMutation,
                config,
            );
            let problem = Cluster::new(h, m, seed, constrained, improve, coarse);
            let mut seeds = Prng::seed_from(seed ^ 0x5EED);
            let initial: Vec<Chromosome> = (0..3).map(|_| shuffled(h, m, &mut seeds)).collect();

            engine.config().evaluator.with_context(&problem, |eval| {
                let mut rng = Prng::seed_from(seed);
                let mut reference_rng = Prng::seed_from(seed);
                let mut reference = ReferenceRun::start(&engine, &problem, eval, &initial);
                let mut run = engine.start(&problem, eval, &initial, None);
                assert_same(0, &run, &reference, &rng, &reference_rng)?;
                for gen in 1..=GENERATIONS {
                    reference.step(eval, &mut reference_rng);
                    run.step(eval, &mut rng);
                    assert_same(gen, &run, &reference, &rng, &reference_rng)?;
                }
                Ok(())
            })?;
        }
    }

    /// The sorted addresses of every gene and completions buffer the run's
    /// two populations own.
    fn buffer_addresses<P: Problem>(run: &GaRun<'_, P>) -> Vec<usize> {
        let mut addresses: Vec<usize> = run
            .pop
            .iter()
            .chain(&run.spare)
            .flat_map(|ind| {
                [
                    ind.chrom.genes().as_ptr() as usize,
                    ind.completions.as_ptr() as usize,
                ]
            })
            .collect();
        addresses.sort_unstable();
        addresses
    }

    /// Past warm-up a generation allocates no population buffer: at the PN
    /// defaults on a 30-task × 10-processor batch, the set of buffers the
    /// two populations own is the same after 200 more generations, with
    /// parent copies inheriting and with every child evaluated.
    #[test]
    fn steady_state_generations_recycle_every_buffer() {
        let problem = Cluster::new(30, 10, 11, false, true, false);
        let mut seeds = Prng::seed_from(12);
        let initial: Vec<Chromosome> = (0..20).map(|_| shuffled(30, 10, &mut seeds)).collect();
        let crossovers: [&dyn CrossoverOp; 2] = [&CycleCrossover, &UnreportedCycle];
        for crossover in crossovers {
            let engine = GaEngine::new(
                &RouletteWheel,
                crossover,
                &SwapMutation,
                GaConfig {
                    max_generations: u32::MAX,
                    ..GaConfig::default()
                },
            );
            let mut rng = Prng::seed_from(13);
            engine.config().evaluator.with_context(&problem, |eval| {
                let mut run = engine.start(&problem, eval, &initial, None);
                for _ in 0..20 {
                    run.step(eval, &mut rng);
                }
                let before = buffer_addresses(&run);
                for _ in 0..200 {
                    run.step(eval, &mut rng);
                }
                assert_eq!(buffer_addresses(&run), before, "{}", crossover.label());
                assert_eq!(
                    run.inherited > 0,
                    crossover.label() == CycleCrossover.label(),
                    "the inheritance path was not exercised"
                );
            });
        }
    }
}
