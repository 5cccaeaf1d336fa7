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
//! the GA's hot spot — is batched, memoised, and delta-evaluated without
//! touching the RNG stream (see [`crate::evaluate`] and [`crate::memo`]).
//! A run owns two populations of the configured size, allocated once in
//! [`GaEngine::start`]: the current one and a spare one the next
//! generation is bred into.
//!
//! 1. **breed into the spare buffer** (serial, draws RNG): elitism,
//!    selection, crossover. Every spare slot is overwritten in place:
//!    elites and clones are copied into the slot's own buffers with their
//!    cached fitness, crossover writes its children straight into the next
//!    two slots, and fresh offspring are queued by slot. A second child
//!    with no slot left goes to a scratch chromosome and is dropped.
//! 2. **evaluate in place** (parallel-safe, no RNG): queued offspring are
//!    looked up in the fitness memo first — duplicate genomes, common late
//!    in convergence, are served from cache into the slot's completions
//!    buffer — and only the misses are evaluated as one batch, each in its
//!    own slot's buffers. Then the two populations are **swapped**.
//! 3. **mutate** (serial, draws RNG): mutations are applied in place.
//!    A transposition ([`GeneEdit::Swap`]) is delta-evaluated on the spot
//!    against the individual's cached per-processor completion times;
//!    opaque edits mark the individual dirty.
//! 4. **re-evaluate** (parallel-safe, no RNG): only the dirty individuals
//!    are re-evaluated (again through the memo) — everything else keeps
//!    its incrementally maintained fitness, makespan, and completions.
//! 5. **improve** (serial, draws RNG): the §3.5 local-improvement hook,
//!    fed the maintained completion times so it never re-walks the whole
//!    chromosome either.
//!
//! Because phases 2 and 4 are pure, consult the memo on the coordinating
//! thread in submission order, and write back by index, the population
//! ordering and every subsequent RNG draw are bit-identical whichever
//! [`crate::Evaluator`] executes them — memo on or off, delta or full
//! path. `tests/determinism.rs` and the engine tests lock this in.
//!
//! Once every buffer has grown to its working size — the first generations
//! and the first memo fill — a generation allocates nothing: chromosomes
//! and completion times only ever move between a slot and an evaluation
//! record, or are copied into buffers that already exist.

use dts_distributions::{Prng, Rng};

use crate::crossover::CrossoverOp;
use crate::encoding::Chromosome;
use crate::evaluate::{BatchEval, Evaluated, Evaluator};
use crate::memo::{FitnessMemo, DEFAULT_MEMO_CAPACITY};
use crate::mutation::{GeneEdit, MutationOp};
use crate::selection::SelectionOp;

/// The optimisation problem a GA run solves.
pub trait Problem {
    /// Fitness of a schedule: larger is better. The paper's PN fitness is
    /// `F = 1/E` clamped to `(0, 1]` (§3.2); ZO uses a makespan-based
    /// fitness. Must be finite and non-negative.
    fn fitness(&self, c: &Chromosome) -> f64;

    /// The schedule's makespan (total execution time), in seconds: the
    /// quantity the §3.4 stopping condition and Fig. 3 track. Smaller is
    /// better.
    fn makespan(&self, c: &Chromosome) -> f64;

    /// Fitness and makespan in one call — the engine's evaluation
    /// entry point.
    ///
    /// Must return exactly `(self.fitness(c), self.makespan(c))` and draw
    /// no randomness; the determinism suite compares serial and parallel
    /// evaluation bitwise. Implementations whose fitness and makespan both
    /// derive from the same per-processor completion times should override
    /// this to compute the completions once (the PN and ZO problems do —
    /// it halves the work of the hot path).
    fn evaluate(&self, c: &Chromosome) -> (f64, f64) {
        (self.fitness(c), self.makespan(c))
    }

    /// Evaluates `c` and exports the per-processor completion times `Cⱼ`
    /// its fitness and makespan derive from — the state the engine keeps
    /// alongside each individual so single-swap edits can be
    /// delta-evaluated ([`Problem::evaluate_swap_delta`]) instead of
    /// re-walking the whole chromosome.
    ///
    /// Must return exactly what [`Problem::evaluate`] returns. On entry,
    /// `completions` may still hold an earlier evaluation's values (the
    /// engine reuses each slot's buffer); on return it holds either one
    /// entry per processor or nothing: the default clears it, which is
    /// correct for problems without an incremental path — they simply
    /// never delta-evaluate.
    fn evaluate_into(&self, c: &Chromosome, completions: &mut Vec<f64>) -> (f64, f64) {
        completions.clear();
        self.evaluate(c)
    }

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

    /// A digest of the evaluation context — everything besides the
    /// chromosome that [`Problem::evaluate`] depends on (for the PN
    /// problem: ψ, the processor rate/load/communication estimates, and
    /// the batch's task sizes). Two problem values with equal keys must
    /// evaluate every chromosome identically: the engine opens its
    /// fitness-memo epoch with this key, so stale cached values can never
    /// leak across contexts. The default (0) is sound for the common case
    /// of one problem value per engine run.
    fn epoch_key(&self) -> u64 {
        0
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
    /// Individuals carried to the next generation unchanged, best first.
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
    /// default) disables the plateau check; `Some(0)` is rejected.
    pub plateau_generations: Option<u32>,
    /// Generations that must evolve before the *early* stops (target
    /// makespan, plateau) may fire. A warm-started run whose seeded elite
    /// already sits at the target — or at a plateau the carried population
    /// cannot immediately improve on — would otherwise return at
    /// generation 0 without giving the GA a chance to refine the seeds;
    /// this floor guarantees a minimum amount of evolution. Hard caps
    /// ([`GaConfig::max_generations`], the §3.4 generation override, and
    /// time budgets) still bind first: they bound *latency*, which always
    /// wins over extra search. Default 0 (early stops fire immediately,
    /// the paper's behaviour).
    pub min_generations: u32,
    /// Record per-generation statistics (needed by Fig. 3; costs memory).
    pub record_history: bool,
    /// How fitness batches are executed ([`Evaluator::Serial`] or a scoped
    /// thread pool). Both produce bit-identical runs; the pool is worth it
    /// once `population_size × batch` work dwarfs per-generation
    /// synchronisation.
    pub evaluator: Evaluator,
    /// Capacity (entries) of the per-run fitness memo: duplicate genomes —
    /// common late in convergence — are evaluated once and then served
    /// from cache ([`crate::FitnessMemo`]). `0` disables memoisation.
    /// Memoised and unmemoised runs are bit-identical (the cache stores
    /// exactly what evaluation returned); hit/miss counts are surfaced in
    /// [`GaResult::memo_hits`] / [`GaResult::memo_misses`].
    pub memo_capacity: usize,
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
            min_generations: 0,
            record_history: false,
            evaluator: Evaluator::Serial,
            memo_capacity: DEFAULT_MEMO_CAPACITY,
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
    /// The final population, sorted by makespan ascending (best schedule
    /// first, ties kept in population order). Callers that plan batch
    /// after batch — the dynamic schedulers — carry the head of this list
    /// forward as warm-start seeds for the next run.
    pub final_population: Vec<Chromosome>,
    /// Fitness-memo lookups served from cache (0 when the memo is
    /// disabled). One lookup happens per queued evaluation job, so
    /// `memo_hits + memo_misses` is the number of evaluations the run
    /// *requested* and `memo_misses` the number actually computed.
    pub memo_hits: u64,
    /// Fitness-memo lookups that required a real evaluation.
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
        self.fitness = source.fitness;
        self.makespan = source.makespan;
        self.completions.clone_from(&source.completions);
    }
}

/// Evaluates the slots of `pop` named by `queue`, writing every result into
/// the slot's own buffers. The memo is consulted on the calling
/// (coordinator) thread in queue order — so hit/miss decisions are a pure
/// function of the job sequence, independent of the evaluator. A hit is
/// copied into the slot's completions buffer. A miss moves the slot's
/// chromosome and completions buffer into a record in `misses`; the
/// records are evaluated in place as one batch, cached in queue order, and
/// moved back. `misses` is empty on entry and on return; only its capacity
/// carries over.
fn evaluate_slots(
    eval: &dyn BatchEval,
    memo: &mut FitnessMemo,
    pop: &mut [Individual],
    queue: &[usize],
    misses: &mut Vec<Evaluated>,
) {
    debug_assert!(misses.is_empty());
    for &index in queue {
        let ind = &mut pop[index];
        match memo.lookup(&ind.chrom, &mut ind.completions) {
            Some((fitness, makespan)) => {
                ind.fitness = fitness;
                ind.makespan = makespan;
            }
            None => misses.push(Evaluated {
                index,
                chrom: std::mem::replace(&mut ind.chrom, Chromosome::vacant()),
                completions: std::mem::take(&mut ind.completions),
                ..Evaluated::vacant()
            }),
        }
    }
    eval.eval_in_place(misses);
    for e in misses.drain(..) {
        memo.insert(&e.chrom, e.fitness, e.makespan, &e.completions);
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
    /// building block for time-budgeted planning and (eventually)
    /// island-model migration, where a driver interleaves generations of
    /// several runs.
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
    ///     fn fitness(&self, c: &Chromosome) -> f64 { 1.0 / (1.0 + self.makespan(c)) }
    ///     fn makespan(&self, c: &Chromosome) -> f64 {
    ///         c.queue_lengths().into_iter().max().unwrap_or(0) as f64
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

        // The per-run fitness memo, opened on the problem's evaluation
        // epoch. All lookups happen on this thread, in submission order.
        let mut memo = FitnessMemo::new(self.config.memo_capacity);
        memo.begin_epoch(problem.epoch_key());

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
        let mut misses = Vec::with_capacity(pop_size);
        evaluate_slots(eval, &mut memo, &mut pop, &queue, &mut misses);
        queue.clear();

        let (best_idx, _) = Self::best_of(&pop);
        let best = pop[best_idx].chrom.clone();
        let best_makespan = pop[best_idx].makespan;
        let best_fitness = pop[best_idx].fitness;

        let mut run = GaRun {
            engine: self,
            problem,
            memo,
            spare: pop.clone(),
            scratch: pop[0].chrom.clone(),
            pop,
            order: Vec::with_capacity(pop_size),
            queue,
            misses,
            dirty: Vec::new(),
            history: Vec::new(),
            best,
            best_makespan,
            best_fitness,
            generations: 0,
            stale_generations: 0,
            max_gens,
            fitness_buf: Vec::with_capacity(pop_size),
            stopped: None,
        };
        run.record();

        // Gen-0 stopping conditions, in the same precedence as the
        // per-generation checks: an instantly met target wins over an
        // exhausted (zero) generation budget.
        if run.generations >= self.config.min_generations {
            if let Some(target) = self.config.target_makespan {
                if run.best_makespan <= target {
                    run.stopped = Some(StopReason::TargetReached);
                }
            }
        }
        if run.stopped.is_none() && max_gens == 0 {
            run.stopped = Some(StopReason::MaxGenerations);
        }
        run
    }

    /// Consumes the working population and returns its chromosomes sorted
    /// by makespan ascending (stable, so ties keep population order — the
    /// ordering is a pure function of the evaluated population).
    fn ranked_population(pop: Vec<Individual>) -> Vec<Chromosome> {
        let mut ranked: Vec<(f64, Chromosome)> =
            pop.into_iter().map(|i| (i.makespan, i.chrom)).collect();
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite makespan"));
        ranked.into_iter().map(|(_, c)| c).collect()
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
/// [`GaRun::stop_now`]) and island-model migration (interleave steps of
/// several runs, exchanging elites between them) possible. Stepping draws
/// from the caller's RNG exactly as the one-shot `run()` does, so a run
/// driven to completion by `step()` is bit-identical to `run()` with the
/// same seed.
///
/// The borrow of the engine and problem lasts for the run; the evaluation
/// context passed to each `step` must evaluate exactly like the problem
/// (in practice: the `eval` handed out by
/// `engine.config().evaluator.with_context(problem, ..)`).
pub struct GaRun<'r, P: Problem> {
    engine: &'r GaEngine<'r>,
    problem: &'r P,
    memo: FitnessMemo,
    /// The current generation.
    pop: Vec<Individual>,
    /// The next generation is bred here, slot by slot over the previous
    /// occupants' buffers, then swapped with `pop`.
    spare: Vec<Individual>,
    /// Where the second crossover child goes when only one slot is left; it
    /// is never repaired or evaluated.
    scratch: Chromosome,
    /// Elitism ranking of `pop`.
    order: Vec<usize>,
    /// Slots of the generation being bred that await evaluation.
    queue: Vec<usize>,
    /// Evaluation records of memo misses; empty between evaluations.
    misses: Vec<Evaluated>,
    /// Mutants whose cached evaluation is stale.
    dirty: Vec<usize>,
    history: Vec<GenStats>,
    best: Chromosome,
    best_makespan: f64,
    best_fitness: f64,
    generations: u32,
    stale_generations: u32,
    max_gens: u32,
    fitness_buf: Vec<f64>,
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
            misses,
            dirty,
            memo,
            fitness_buf,
            ..
        } = self;

        // --- breed into the spare buffer: elitism + selection + crossover
        // (draws RNG). Every slot is overwritten in place. Clones keep their
        // cached evaluation; fresh offspring are queued by slot.
        queue.clear();
        let mut next = 0;
        if config.elitism > 0 {
            order.clear();
            order.extend(0..pop.len());
            order.sort_by(|&a, &b| {
                // Fitness descending, then makespan ascending: the
                // deterministic tie-break keeps elitism meaningful even
                // when many near-optimal schedules share a fitness value.
                // Remaining ties keep index order (the sort is stable).
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
                spare[next].clone_from(&pop[i]);
                next += 1;
            }
        }
        while next < pop_size {
            let pa = engine.selection.select(fitness_buf, rng);
            let pb = engine.selection.select(fitness_buf, rng);
            if rng.chance(config.crossover_rate) {
                // Offspring are repaired into the feasible region before
                // evaluation (identity for unconstrained problems); clones
                // need no repair because their parents already live there.
                // A second child with no slot left lands in the scratch
                // chromosome and is dropped unrepaired: repair draws no
                // RNG, so skipping it changes nothing.
                let (a, b) = (&pop[pa].chrom, &pop[pb].chrom);
                if let [first, second, ..] = &mut spare[next..] {
                    let (ca, cb) = (&mut first.chrom, &mut second.chrom);
                    engine.crossover.cross_into(a, b, ca, cb, rng);
                    problem.repair(ca);
                    problem.repair(cb);
                    queue.extend([next, next + 1]);
                    next += 2;
                } else {
                    let ca = &mut spare[next].chrom;
                    engine.crossover.cross_into(a, b, ca, scratch, rng);
                    problem.repair(ca);
                    queue.push(next);
                    next += 1;
                }
            } else {
                spare[next].clone_from(&pop[pa]);
                next += 1;
            }
        }

        // --- evaluate the fresh offspring in their slots, then swap -----
        evaluate_slots(eval, memo, spare, queue, misses);
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
                    // The delta result is bit-identical to a full
                    // evaluation, so it is safe to cache.
                    memo.insert(&ind.chrom, fitness, makespan, &ind.completions);
                }
                None if !already_dirty => dirty.push(idx),
                None => {}
            }
        }
        // Only dirty individuals are re-evaluated, in slot order; the rest
        // keep their incrementally maintained values.
        dirty.sort_unstable();
        evaluate_slots(eval, memo, pop, dirty, misses);

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
        // The early stops (target, plateau) wait out the configured
        // minimum; the generation cap is a hard latency bound and fires
        // regardless.
        if self.generations >= config.min_generations {
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
        }
        if self.generations >= self.max_gens {
            self.stopped = Some(StopReason::MaxGenerations);
            return GaStep::Stopped(StopReason::MaxGenerations);
        }
        GaStep::Continue
    }

    /// Population indices sorted by makespan ascending (stable: ties keep
    /// population order) — the ranking the island migration operator uses
    /// to pick emigrants (head) and the immigrants to displace (tail).
    /// A pure function of the evaluated population, so it is identical
    /// whatever thread stepped the island.
    pub(crate) fn ranked_indices(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.pop.len()).collect();
        order.sort_by(|&a, &b| {
            self.pop[a]
                .makespan
                .partial_cmp(&self.pop[b].makespan)
                .expect("finite makespan")
        });
        order
    }

    /// Re-runs the best-schedule tracking over the current population —
    /// called after a migration so an immigrant better than everything
    /// this island has seen becomes its tracked best (and resets the
    /// plateau counter, exactly like an improvement found by evolution).
    pub(crate) fn refresh_best(&mut self) {
        let (best_idx, _) = GaEngine::best_of(&self.pop);
        if self.pop[best_idx].makespan < self.best_makespan {
            self.best.clone_from(&self.pop[best_idx].chrom);
            self.best_makespan = self.pop[best_idx].makespan;
            self.best_fitness = self.pop[best_idx].fitness;
            self.stale_generations = 0;
        }
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
            final_population: GaEngine::ranked_population(self.pop),
            memo_hits: self.memo.hits(),
            memo_misses: self.memo.misses(),
        }
    }
}

/// Swaps the individuals at population slot `ia` of `a` and `ib` of `b` —
/// the island migration primitive. Cached fitness, makespan, and
/// completion times travel with the chromosomes, so migration never
/// re-evaluates anything and never touches the memo counters.
pub(crate) fn swap_individuals<P: Problem>(
    a: &mut GaRun<'_, P>,
    ia: usize,
    b: &mut GaRun<'_, P>,
    ib: usize,
) {
    std::mem::swap(&mut a.pop[ia], &mut b.pop[ib]);
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
        fn fitness(&self, c: &Chromosome) -> f64 {
            1.0 / (1.0 + self.makespan(c))
        }
        fn makespan(&self, c: &Chromosome) -> f64 {
            c.queue_lengths().into_iter().max().unwrap_or(0) as f64
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
            fn fitness(&self, c: &Chromosome) -> f64 {
                1.0 / (1.0 + self.makespan(c))
            }
            fn makespan(&self, c: &Chromosome) -> f64 {
                c.queue_lengths().into_iter().max().unwrap_or(0) as f64
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
                let f = self.fitness(&candidate);
                if f > current {
                    let ms = self.makespan(&candidate);
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

    #[test]
    fn memo_on_and_off_are_bit_identical() {
        let run = |memo_capacity: usize| {
            let e = engine(GaConfig {
                max_generations: 60,
                mutations_per_generation: 4,
                record_history: true,
                memo_capacity,
                ..GaConfig::default()
            });
            let mut rng = Prng::seed_from(53);
            e.run(&Balance, skewed_initial(20), None, &mut rng)
        };
        let off = run(0);
        let on = run(crate::memo::DEFAULT_MEMO_CAPACITY);
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
        assert_eq!(off.memo_hits, 0, "disabled memo must never hit");
        assert!(off.memo_misses > 0);
        assert!(
            on.memo_hits > 0,
            "identical seeds and clone-heavy breeding must produce hits"
        );
        assert!(on.memo_misses < off.memo_misses);
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
            fn fitness(&self, c: &Chromosome) -> f64 {
                1.0 / (1.0 + self.makespan(c))
            }
            fn makespan(&self, c: &Chromosome) -> f64 {
                c.queue_lengths().into_iter().max().unwrap_or(0) as f64
            }
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
    fn final_population_is_complete_valid_and_ranked() {
        let e = engine(GaConfig {
            max_generations: 40,
            mutations_per_generation: 4,
            ..GaConfig::default()
        });
        let mut rng = Prng::seed_from(51);
        let result = e.run(&Balance, skewed_initial(20), None, &mut rng);
        assert_eq!(result.final_population.len(), 20);
        assert!(result.final_population.iter().all(|c| c.validate().is_ok()));
        // Sorted by makespan ascending: the head is the current-population
        // best (the all-time best may predate the final generation).
        let spans: Vec<f64> = result
            .final_population
            .iter()
            .map(|c| Balance.makespan(c))
            .collect();
        for w in spans.windows(2) {
            assert!(w[0] <= w[1], "final population not ranked: {spans:?}");
        }
        assert!(result.best_makespan <= spans[0]);
    }

    #[test]
    fn final_population_present_on_instant_target() {
        let e = engine(GaConfig {
            max_generations: 100,
            target_makespan: Some(1000.0), // already met at generation 0
            ..GaConfig::default()
        });
        let mut rng = Prng::seed_from(52);
        let result = e.run(&Balance, skewed_initial(20), None, &mut rng);
        assert_eq!(result.stop_reason, StopReason::TargetReached);
        assert_eq!(result.generations, 0);
        assert_eq!(result.final_population.len(), 20);
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
    /// 4 processors (the `Balance` optimum) — the shape a warm-started
    /// plan call sees when the carried elites are already as good as this
    /// batch allows.
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
        assert_eq!(stepped.final_population, one_shot.final_population);
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
    fn warm_seeded_run_at_target_stops_at_generation_zero_by_default() {
        // Regression baseline for the min_generations fix: with the
        // default (0), a seed population already at the target returns
        // without evolving — the paper's behaviour.
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
    fn min_generations_defers_target_stop() {
        let e = engine(GaConfig {
            max_generations: 100,
            target_makespan: Some(3.0),
            min_generations: 5,
            mutations_per_generation: 4,
            ..GaConfig::default()
        });
        let mut rng = Prng::seed_from(52);
        let result = e.run(&Balance, balanced_initial(20), None, &mut rng);
        // The target is met from generation 0, but the floor forces five
        // generations of evolution before the early stop may fire.
        assert_eq!(result.stop_reason, StopReason::TargetReached);
        assert_eq!(result.generations, 5);
        assert_eq!(result.best_makespan, 3.0);
    }

    #[test]
    fn min_generations_defers_plateau_stop_for_warm_seeds() {
        // The warm-start interaction this knob exists for: a carried
        // elite that the population cannot improve on trips a 1-generation
        // plateau immediately …
        let run = |min_generations: u32| {
            let e = engine(GaConfig {
                max_generations: 100,
                plateau_generations: Some(1),
                min_generations,
                mutations_per_generation: 4,
                ..GaConfig::default()
            });
            let mut rng = Prng::seed_from(53);
            e.run(&Balance, balanced_initial(20), None, &mut rng)
        };
        let immediate = run(0);
        assert_eq!(immediate.stop_reason, StopReason::Plateau);
        assert_eq!(immediate.generations, 1);

        // … while the floor guarantees ten generations of search first.
        let floored = run(10);
        assert_eq!(floored.stop_reason, StopReason::Plateau);
        assert_eq!(floored.generations, 10);
    }

    #[test]
    fn min_generations_never_exceeds_hard_caps() {
        // Hard latency bounds (max_generations, the §3.4 override) always
        // win over the early-stop floor.
        let e = engine(GaConfig {
            max_generations: 100,
            min_generations: 50,
            plateau_generations: Some(1),
            ..GaConfig::default()
        });
        let mut rng = Prng::seed_from(54);
        let result = e.run(&Balance, balanced_initial(20), Some(3), &mut rng);
        assert_eq!(result.stop_reason, StopReason::MaxGenerations);
        assert_eq!(result.generations, 3);
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
    use crate::crossover::{CycleCrossover, OnePointOrder, OrderCrossover, PartiallyMapped};
    use crate::encoding::Gene;
    use crate::evaluate::Evaluator;
    use crate::mutation::{InsertMutation, InversionMutation, SwapMutation};
    use crate::repair::{repair_topological, SlotPrecedence};
    use crate::selection::RouletteWheel;
    use proptest::prelude::*;

    /// A heterogeneous cluster shaped like the PN batch problem: task sizes
    /// over processor rates, exported completion times, swap deltas, and
    /// optionally precedence repair and an RNG-drawing improve hook that
    /// edits the chromosome and completions in place.
    struct Cluster {
        sizes: Vec<f64>,
        rates: Vec<f64>,
        prec: Option<SlotPrecedence>,
        improve: bool,
    }

    impl Cluster {
        fn new(h: u32, m: u16, seed: u64, constrained: bool, improve: bool) -> Self {
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
            }
        }

        fn fill(&self, c: &Chromosome, out: &mut Vec<f64>) {
            out.clear();
            out.resize(self.rates.len(), 0.0);
            for (p, t) in c.assignments() {
                out[p] += self.sizes[t as usize] / self.rates[p];
            }
        }

        fn score(completions: &[f64]) -> (f64, f64) {
            let makespan = completions.iter().copied().fold(0.0, f64::max);
            let idle: f64 = completions.iter().map(|&c| makespan - c).sum();
            (1.0 / (1.0 + makespan + 0.01 * idle), makespan)
        }
    }

    impl Problem for Cluster {
        fn fitness(&self, c: &Chromosome) -> f64 {
            self.evaluate(c).0
        }
        fn makespan(&self, c: &Chromosome) -> f64 {
            self.evaluate(c).1
        }
        fn evaluate(&self, c: &Chromosome) -> (f64, f64) {
            self.evaluate_into(c, &mut Vec::new())
        }
        fn evaluate_into(&self, c: &Chromosome, completions: &mut Vec<f64>) -> (f64, f64) {
            self.fill(c, completions);
            Self::score(completions)
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
            Some(Self::score(completions))
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
    /// evaluation batch every generation — kept verbatim but for the memo
    /// lookup, which now fills a caller's buffer. History and stopping
    /// rules are left out: the equivalence test never stops a run.
    struct ReferenceRun<'r, P: Problem> {
        engine: &'r GaEngine<'r>,
        problem: &'r P,
        memo: FitnessMemo,
        pop: Vec<Individual>,
        best: Chromosome,
        best_makespan: f64,
        best_fitness: f64,
        fitness_buf: Vec<f64>,
    }

    fn reference_eval_indexed(
        eval: &dyn BatchEval,
        memo: &mut FitnessMemo,
        jobs: Vec<(usize, Chromosome)>,
    ) -> Vec<Evaluated> {
        let mut ready: Vec<Evaluated> = Vec::with_capacity(jobs.len());
        let mut misses: Vec<(usize, Chromosome)> = Vec::new();
        for (index, chrom) in jobs {
            let mut completions = Vec::new();
            match memo.lookup(&chrom, &mut completions) {
                Some((fitness, makespan)) => ready.push(Evaluated {
                    index,
                    chrom,
                    fitness,
                    makespan,
                    completions,
                }),
                None => misses.push((index, chrom)),
            }
        }
        for e in eval.eval_batch(misses) {
            memo.insert(&e.chrom, e.fitness, e.makespan, &e.completions);
            ready.push(e);
        }
        ready
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
            let mut memo = FitnessMemo::new(engine.config.memo_capacity);
            memo.begin_epoch(problem.epoch_key());
            let init_jobs: Vec<(usize, Chromosome)> = (0..pop_size)
                .map(|i| {
                    let mut c = initial[i % initial.len()].clone();
                    problem.repair(&mut c);
                    (i, c)
                })
                .collect();
            let mut init_slots: Vec<Option<Individual>> = (0..pop_size).map(|_| None).collect();
            for e in reference_eval_indexed(eval, &mut memo, init_jobs) {
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
                memo,
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

            for e in reference_eval_indexed(eval, &mut self.memo, offspring) {
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
                        self.memo
                            .insert(&ind.chrom, fitness, makespan, &ind.completions);
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
                for e in reference_eval_indexed(eval, &mut self.memo, jobs) {
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
        prop_assert_eq!(run.memo.hits(), reference.memo.hits(), "generation {}", gen);
        prop_assert_eq!(
            run.memo.misses(),
            reference.memo.misses(),
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
        /// allocation-free loop and the reference loop hold the same
        /// individuals, the same best-so-far, the same memo counters and
        /// the same RNG position. Memo capacity 2 forces the clear-on-full
        /// path; the two-worker pool covers in-place pool evaluation.
        #[test]
        fn generation_loop_matches_the_reference_loop(
            h in 1u32..40,
            m in 1u16..8,
            population_size in 2usize..24,
            elitism in 0usize..3,
            crossover_pick in 0usize..3,
            operator_pick in 0usize..12,
            memo_pick in 0usize..3,
            mutations_per_generation in 0usize..4,
            constrained in prop::bool::ANY,
            improve in prop::bool::ANY,
            pool in prop::bool::ANY,
            seed in 0u64..u64::MAX,
        ) {
            static SEL: RouletteWheel = RouletteWheel;
            let crossovers: [&'static dyn CrossoverOp; 4] =
                [&CycleCrossover, &OrderCrossover, &PartiallyMapped, &OnePointOrder];
            let mutations: [&'static dyn MutationOp; 3] =
                [&SwapMutation, &InsertMutation, &InversionMutation];
            let config = GaConfig {
                population_size,
                elitism: elitism.min(population_size - 1),
                crossover_rate: [0.0, 0.5, 1.0][crossover_pick],
                mutations_per_generation,
                max_generations: u32::MAX,
                memo_capacity: [0, 2, DEFAULT_MEMO_CAPACITY][memo_pick],
                evaluator: if pool { Evaluator::ThreadPool { workers: 2 } } else { Evaluator::Serial },
                ..GaConfig::default()
            };
            let engine = GaEngine::new(
                &SEL,
                crossovers[operator_pick % 4],
                mutations[operator_pick / 4],
                config,
            );
            let problem = Cluster::new(h, m, seed, constrained, improve);
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
    /// two populations own is the same after 200 more generations, with the
    /// memo off and on.
    #[test]
    fn steady_state_generations_recycle_every_buffer() {
        let problem = Cluster::new(30, 10, 11, false, true);
        let mut seeds = Prng::seed_from(12);
        let initial: Vec<Chromosome> = (0..20).map(|_| shuffled(30, 10, &mut seeds)).collect();
        for memo_capacity in [0, DEFAULT_MEMO_CAPACITY] {
            let engine = GaEngine::new(
                &RouletteWheel,
                &CycleCrossover,
                &SwapMutation,
                GaConfig {
                    max_generations: u32::MAX,
                    memo_capacity,
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
                assert_eq!(
                    buffer_addresses(&run),
                    before,
                    "memo capacity {memo_capacity}"
                );
                if memo_capacity > 0 {
                    assert!(run.memo.hits() > 0, "the memo hit path was not exercised");
                }
            });
        }
    }
}
