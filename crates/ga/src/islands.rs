//! Island-model GA: sharded populations with deterministic elite migration.
//!
//! A monolithic population is the scalability ceiling of the paper's GA:
//! fitness evaluation parallelises ([`crate::Evaluator`]), but the
//! generation loop itself — selection, crossover, mutation — is inherently
//! serial. The island model shards one configured population into
//! `islands` independent sub-populations, evolves each with its own
//! [`GaRun`] (coarse-grained parallelism: one job = one island-generation),
//! and every [`IslandConfig::migration_interval`] generations exchanges
//! elites between islands along a fixed [`Topology`].
//!
//! # Determinism contract
//!
//! Island runs obey the repo-wide *same seed ⇒ bit-identical output* rule
//! at any evaluator worker count and any island-scheduling order:
//!
//! * **RNG streams.** With `islands == 1` the engine delegates to the
//!   monolithic [`GaEngine`], drawing from the caller's RNG directly — the
//!   two are bitwise interchangeable. With `islands > 1` the engine draws
//!   one `u64` master seed from the caller's RNG and derives island `i`'s
//!   private stream as `SeedSequence::new(master).seed_at(i)` — indexed by
//!   island, not by scheduling order, so streams never depend on which
//!   worker steps which island.
//! * **Evaluation.** Each island evaluates its own fitness batches
//!   serially inside its thread; worker count only decides how islands are
//!   packed onto threads, never what any island computes.
//! * **Migration.** Runs on the coordinator thread after all islands
//!   finish a generation (a [`std::thread::scope`] barrier). Emigrants are
//!   makespan-ranked with a stable tie-break, destinations are a pure
//!   function of `(source, migrant index, topology)`, and the exchange is
//!   a *swap*: the destination's displaced worst individuals travel back
//!   to the senders' vacated elite slots, so the global multiset of
//!   chromosomes is invariant — nothing is duplicated, nothing is lost.
//!   Migrants carry their cached fitness/makespan/completions, so
//!   migration never re-evaluates and never perturbs memo counters.
//!
//! The one deliberate exception is a wall-clock budget
//! ([`IslandEngine::run_budgeted`] with a time limit): generation counts
//! then depend on host speed, exactly as for the monolithic engine.

use std::time::{Duration, Instant};

use dts_distributions::{Prng, Rng, SeedSequence};

use crate::crossover::CrossoverOp;
use crate::encoding::Chromosome;
use crate::engine::{swap_individuals, GaConfig, GaEngine, GaResult, GaRun, Problem, StopReason};
use crate::evaluate::SerialCtx;
use crate::mutation::MutationOp;
use crate::selection::SelectionOp;

/// How migrating elites flow between islands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Island `s` sends all of its migrants to island `(s + 1) mod n` —
    /// the classic unidirectional ring.
    Ring,
    /// Island `s` spreads its migrants over every other island: migrant
    /// `m` goes to island `(s + 1 + (m mod (n − 1))) mod n`. Every island
    /// still receives exactly [`IslandConfig::migrants`] immigrants per
    /// migration event; with two islands this degenerates to [`Topology::Ring`].
    FullyConnected,
}

impl Topology {
    /// Destination island for migrant `m` of source island `s` among `n`
    /// islands (`n ≥ 2`). A pure function — the migration pattern depends
    /// only on the topology, never on scheduling order.
    pub fn destination(self, s: usize, m: usize, n: usize) -> usize {
        debug_assert!(n >= 2 && s < n);
        match self {
            Topology::Ring => (s + 1) % n,
            Topology::FullyConnected => (s + 1 + (m % (n - 1))) % n,
        }
    }
}

/// Island-model knobs, layered on top of a [`GaConfig`].
///
/// The configured [`GaConfig::population_size`] is *partitioned* (not
/// multiplied) across islands — see [`island_sizes`] — so an island run
/// spends exactly the same total evaluation budget per generation as the
/// monolithic GA it is compared against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IslandConfig {
    /// Number of islands the population is sharded into. `1` (the
    /// default) is exactly the monolithic GA.
    pub islands: usize,
    /// Migrate every this many generations (global, lockstep rounds).
    pub migration_interval: u32,
    /// Elites each island emits per migration event.
    pub migrants: usize,
    /// Where the migrants go.
    pub topology: Topology,
}

impl Default for IslandConfig {
    fn default() -> Self {
        Self {
            islands: 1,
            migration_interval: 10,
            migrants: 1,
            topology: Topology::Ring,
        }
    }
}

impl IslandConfig {
    /// Validates the island knobs against the GA configuration they will
    /// shard. Over-sharding — `migrants >= population_size / islands`, or
    /// islands too small to breed — is a diagnosable rejection, never a
    /// downstream panic.
    pub fn validate(&self, population_size: usize, elitism: usize) -> Result<(), String> {
        if self.islands == 0 {
            return Err("islands must be ≥ 1".into());
        }
        if self.islands == 1 {
            // Monolithic: the migration knobs are unused.
            return Ok(());
        }
        if self.migration_interval == 0 {
            return Err("migration_interval must be ≥ 1".into());
        }
        if self.migrants == 0 {
            return Err("migrants must be ≥ 1 when islands > 1".into());
        }
        let min_pop = population_size / self.islands;
        if min_pop < 2 {
            return Err(format!(
                "{} islands cannot shard a population of {population_size}: \
                 every island needs ≥ 2 individuals",
                self.islands
            ));
        }
        if self.migrants >= min_pop {
            return Err(format!(
                "migrants ({}) must be < the smallest island population \
                 ({min_pop} = population {population_size} / {} islands)",
                self.migrants, self.islands
            ));
        }
        if elitism >= min_pop {
            return Err(format!(
                "elitism ({elitism}) must leave room for offspring on the \
                 smallest island (population {min_pop})"
            ));
        }
        Ok(())
    }
}

/// Partitions `population_size` into `islands` shard sizes: every island
/// gets `population_size / islands` individuals and the first
/// `population_size % islands` islands one extra, so `sum == population_size`
/// exactly (equal total evaluation budget vs the monolithic GA).
pub fn island_sizes(population_size: usize, islands: usize) -> Vec<usize> {
    assert!(islands >= 1);
    let base = population_size / islands;
    let extra = population_size % islands;
    (0..islands)
        .map(|i| base + usize::from(i < extra))
        .collect()
}

/// One entry of a migration event's swap schedule: the emigrant at
/// makespan-rank `src_rank` of island `src` exchanges places with the
/// `dst_from_worst`-th worst individual of island `dst`.
struct SwapSlot {
    src: usize,
    src_rank: usize,
    dst: usize,
    dst_from_worst: usize,
}

/// The deterministic swap schedule of one migration event over `n`
/// islands: sources in island order, each emitting `migrants` elites
/// (rank 0 first); destination immigrants are assigned worst-slot-first in
/// arrival order. Shared by the engine's migration and the standalone
/// [`migrate_populations`] operator so the two can never drift apart.
fn swap_schedule(n: usize, migrants: usize, topology: Topology) -> Vec<SwapSlot> {
    let mut received = vec![0usize; n];
    let mut out = Vec::with_capacity(n * migrants);
    for src in 0..n {
        for m in 0..migrants {
            let dst = topology.destination(src, m, n);
            let slot = SwapSlot {
                src,
                src_rank: m,
                dst,
                dst_from_worst: received[dst],
            };
            received[dst] += 1;
            out.push(slot);
        }
    }
    out
}

/// The migration operator in isolation, for conformance and property
/// testing: applies one deterministic elite exchange to per-island
/// populations of `(makespan, payload)` pairs, exactly as
/// [`IslandEngine`] does between generations.
///
/// Each island's emigrants are its `migrants` lowest-makespan entries
/// (stable ties); at the destination they displace the worst entries
/// (worst first, in arrival order), and the displaced entries travel back
/// to the vacated elite slots — a pure swap, so the multiset of entries
/// over all islands is invariant.
///
/// Rejects (rather than panics on) degenerate setups: fewer than two
/// islands, zero migrants, or `migrants >=` the smallest island
/// population.
pub fn migrate_populations<T>(
    pops: &mut [Vec<(f64, T)>],
    migrants: usize,
    topology: Topology,
) -> Result<(), String> {
    let n = pops.len();
    if n < 2 {
        return Err("migration needs ≥ 2 islands".into());
    }
    if migrants == 0 {
        return Err("migrants must be ≥ 1".into());
    }
    let min_pop = pops.iter().map(Vec::len).min().unwrap_or(0);
    if migrants >= min_pop {
        return Err(format!(
            "migrants ({migrants}) must be < the smallest island population ({min_pop})"
        ));
    }
    let ranked: Vec<Vec<usize>> = pops
        .iter()
        .map(|pop| {
            let mut order: Vec<usize> = (0..pop.len()).collect();
            order.sort_by(|&a, &b| pop[a].0.partial_cmp(&pop[b].0).expect("finite makespan"));
            order
        })
        .collect();
    for slot in swap_schedule(n, migrants, topology) {
        let ia = ranked[slot.src][slot.src_rank];
        let ib = ranked[slot.dst][ranked[slot.dst].len() - 1 - slot.dst_from_worst];
        let (a, b) = pair_mut(pops, slot.src, slot.dst);
        std::mem::swap(&mut a[ia], &mut b[ib]);
    }
    Ok(())
}

/// Two disjoint mutable references into one slice.
fn pair_mut<T>(v: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j);
    if i < j {
        let (head, tail) = v.split_at_mut(j);
        (&mut head[i], &mut tail[0])
    } else {
        let (head, tail) = v.split_at_mut(i);
        (&mut tail[0], &mut head[j])
    }
}

/// Result of one island-model run: the aggregate the caller plans with,
/// plus every island's full [`GaResult`] (per-island final populations are
/// what warm-start carry-over re-seeds from).
#[derive(Debug, Clone)]
pub struct IslandResult {
    /// The best schedule found across all islands and generations (ties
    /// between islands go to the lowest island index).
    pub best: Chromosome,
    /// Its makespan.
    pub best_makespan: f64,
    /// Its fitness.
    pub best_fitness: f64,
    /// Global lockstep rounds evolved (the maximum over islands — islands
    /// that stop early freeze while the rest continue).
    pub generations: u32,
    /// Aggregate stop reason, in precedence order: a wall-clock budget
    /// expiry anywhere wins, then any island reaching the target (the
    /// ensemble early-stops), then an exhausted generation cap anywhere,
    /// else every island plateaued.
    pub stop_reason: StopReason,
    /// Fitness-memo hits summed over all islands' memos.
    pub memo_hits: u64,
    /// Fitness-memo misses summed over all islands' memos.
    pub memo_misses: u64,
    /// Every island's own result, in island order. With `islands == 1`
    /// this single entry is field-for-field the monolithic
    /// [`GaEngine::run`] result.
    pub islands: Vec<GaResult>,
}

impl IslandResult {
    /// The islands' final populations merged rank-interleaved: every
    /// island's best first, then every island's second-best, and so on.
    /// Taking the first `k` entries therefore samples elites *across*
    /// islands — the flat-carry analogue of
    /// [`GaResult::final_population`].
    pub fn merged_final_population(&self) -> Vec<Chromosome> {
        let total: usize = self.islands.iter().map(|r| r.final_population.len()).sum();
        let deepest = self
            .islands
            .iter()
            .map(|r| r.final_population.len())
            .max()
            .unwrap_or(0);
        let mut out = Vec::with_capacity(total);
        for rank in 0..deepest {
            for r in &self.islands {
                if let Some(c) = r.final_population.get(rank) {
                    out.push(c.clone());
                }
            }
        }
        out
    }
}

/// The island-model engine: a [`GaEngine`] per population shard, lockstep
/// generations, deterministic elite migration.
///
/// ```
/// use dts_distributions::Prng;
/// use dts_ga::{Chromosome, GaConfig, IslandConfig, IslandEngine, Problem, Topology};
/// use dts_ga::{CycleCrossover, RouletteWheel, SwapMutation};
///
/// struct Balance;
/// impl Problem for Balance {
///     fn fitness(&self, c: &Chromosome) -> f64 { 1.0 / (1.0 + self.makespan(c)) }
///     fn makespan(&self, c: &Chromosome) -> f64 {
///         c.queue_lengths().into_iter().max().unwrap_or(0) as f64
///     }
/// }
///
/// let config = GaConfig { population_size: 16, max_generations: 40, ..GaConfig::default() };
/// let islands = IslandConfig { islands: 4, migration_interval: 5, migrants: 1, topology: Topology::Ring };
/// let engine = IslandEngine::new(&RouletteWheel, &CycleCrossover, &SwapMutation, config, islands)
///     .expect("valid island configuration");
/// // One seed list per island; short lists are cycled to the island size.
/// let seeds: Vec<Vec<Chromosome>> = (0..4)
///     .map(|_| vec![Chromosome::from_queues(&[(0..12).collect::<Vec<_>>(), vec![], vec![], vec![]])])
///     .collect();
/// let mut rng = Prng::seed_from(7);
/// let result = engine.run(&Balance, seeds, None, &mut rng);
/// assert_eq!(result.islands.len(), 4);
/// assert!(result.best_makespan <= 12.0);
/// ```
pub struct IslandEngine<'a> {
    selection: &'a dyn SelectionOp,
    crossover: &'a dyn CrossoverOp,
    mutation: &'a dyn MutationOp,
    mono: GaEngine<'a>,
    islands: IslandConfig,
}

impl<'a> IslandEngine<'a> {
    /// Creates an island engine from operators and configuration.
    /// Returns a diagnosable error when the island knobs cannot shard the
    /// configured population (see [`IslandConfig::validate`]).
    pub fn new(
        selection: &'a dyn SelectionOp,
        crossover: &'a dyn CrossoverOp,
        mutation: &'a dyn MutationOp,
        config: GaConfig,
        islands: IslandConfig,
    ) -> Result<Self, String> {
        islands.validate(config.population_size, config.elitism)?;
        Ok(Self {
            selection,
            crossover,
            mutation,
            mono: GaEngine::new(selection, crossover, mutation, config),
            islands,
        })
    }

    /// The underlying GA configuration.
    pub fn config(&self) -> &GaConfig {
        self.mono.config()
    }

    /// The island-model knobs.
    pub fn island_config(&self) -> &IslandConfig {
        &self.islands
    }

    /// Runs the island GA from per-island seed lists (`initial.len()` must
    /// equal the island count; each non-empty list is cycled to its
    /// island's size, exactly like [`GaEngine::run`] cycles its initial
    /// population). The lists are taken by value, so the one-island
    /// delegation hands its population to the monolithic engine without a
    /// copy. See [`IslandEngine::run_budgeted`] for the wall-clock
    /// budgeted form.
    pub fn run<P: Problem + Sync>(
        &self,
        problem: &P,
        initial: Vec<Vec<Chromosome>>,
        max_generations_override: Option<u32>,
        rng: &mut Prng,
    ) -> IslandResult {
        self.run_budgeted(problem, initial, max_generations_override, None, rng)
    }

    /// [`IslandEngine::run`] under a wall-clock budget: islands are
    /// stepped in lockstep rounds and the deadline is checked between
    /// rounds on the coordinator, so the run stops at a generation
    /// boundary with [`StopReason::TimeBudget`] — the driver-facing
    /// behaviour of the monolithic [`GaEngine::run_budgeted`], preserved
    /// under sharding.
    pub fn run_budgeted<P: Problem + Sync>(
        &self,
        problem: &P,
        mut initial: Vec<Vec<Chromosome>>,
        max_generations_override: Option<u32>,
        time_budget: Option<Duration>,
        rng: &mut Prng,
    ) -> IslandResult {
        let n = self.islands.islands;
        assert_eq!(initial.len(), n, "need one seed list per island");

        if n == 1 {
            // Monolithic delegation: the caller's RNG drives the run
            // directly, so `islands == 1` is *bitwise* the monolithic
            // engine — including memo counters and stop reasons.
            let ga = self.mono.run_budgeted(
                problem,
                initial.swap_remove(0),
                max_generations_override,
                time_budget,
                rng,
            );
            return IslandResult {
                best: ga.best.clone(),
                best_makespan: ga.best_makespan,
                best_fitness: ga.best_fitness,
                generations: ga.generations,
                stop_reason: ga.stop_reason,
                memo_hits: ga.memo_hits,
                memo_misses: ga.memo_misses,
                islands: vec![ga],
            };
        }

        // dts-lint: allow(wall-clock, "the documented TimeBudget exception: ensemble deadline between lockstep rounds, same contract as GaEngine::run_budgeted")
        let deadline = time_budget.map(|b| Instant::now() + b);
        let config = self.mono.config();
        let engines: Vec<GaEngine<'a>> = island_sizes(config.population_size, n)
            .into_iter()
            .map(|population_size| {
                GaEngine::new(
                    self.selection,
                    self.crossover,
                    self.mutation,
                    GaConfig {
                        population_size,
                        ..config.clone()
                    },
                )
            })
            .collect();

        // One master draw, fanned out to island-indexed streams: island i
        // always receives the same stream, whatever order (or thread)
        // steps it.
        let master = rng.next_u64();
        let seq = SeedSequence::new(master);
        let mut rngs: Vec<Prng> = (0..n)
            .map(|i| Prng::seed_from(seq.seed_at(i as u64)))
            .collect();

        let mut runs: Vec<GaRun<'_, P>> = engines
            .iter()
            .zip(&initial)
            .map(|(engine, seeds)| {
                engine.start(
                    problem,
                    &SerialCtx { problem },
                    seeds,
                    max_generations_override,
                )
            })
            .collect();

        let workers = config.evaluator.effective_workers().min(n);
        let mut round: u32 = 0;
        loop {
            // Ensemble target stop: one island at the target finishes the
            // whole run (also catches seeds already at the target at
            // generation 0).
            if runs
                .iter()
                .any(|r| r.stopped() == Some(StopReason::TargetReached))
            {
                for r in runs.iter_mut() {
                    r.stop_now(StopReason::TargetReached);
                }
                break;
            }
            if runs.iter().all(|r| r.stopped().is_some()) {
                break;
            }
            if let Some(d) = deadline {
                // dts-lint: allow(wall-clock, "TimeBudget deadline check at a round boundary; stops every island in the same round")
                if Instant::now() >= d {
                    for r in runs.iter_mut() {
                        r.stop_now(StopReason::TimeBudget);
                    }
                    break;
                }
            }
            step_round(&mut runs, &mut rngs, problem, workers);
            round += 1;
            if runs
                .iter()
                .any(|r| r.stopped() == Some(StopReason::TargetReached))
            {
                for r in runs.iter_mut() {
                    r.stop_now(StopReason::TargetReached);
                }
                break;
            }
            if round.is_multiple_of(self.islands.migration_interval) {
                migrate(&mut runs, &self.islands);
            }
        }

        let per: Vec<GaResult> = runs.into_iter().map(GaRun::into_result).collect();
        let mut best_i = 0;
        for (i, r) in per.iter().enumerate() {
            if r.best_makespan < per[best_i].best_makespan {
                best_i = i;
            }
        }
        IslandResult {
            best: per[best_i].best.clone(),
            best_makespan: per[best_i].best_makespan,
            best_fitness: per[best_i].best_fitness,
            generations: per.iter().map(|r| r.generations).max().unwrap_or(0),
            stop_reason: aggregate_stop(&per),
            memo_hits: per.iter().map(|r| r.memo_hits).sum(),
            memo_misses: per.iter().map(|r| r.memo_misses).sum(),
            islands: per,
        }
    }
}

/// Aggregate stop reason over per-island results, in precedence order
/// (see [`IslandResult::stop_reason`]).
fn aggregate_stop(per: &[GaResult]) -> StopReason {
    if per.iter().any(|r| r.stop_reason == StopReason::TimeBudget) {
        StopReason::TimeBudget
    } else if per
        .iter()
        .any(|r| r.stop_reason == StopReason::TargetReached)
    {
        StopReason::TargetReached
    } else if per
        .iter()
        .any(|r| r.stop_reason == StopReason::MaxGenerations)
    {
        StopReason::MaxGenerations
    } else {
        StopReason::Plateau
    }
}

/// Steps every still-running island one generation. Islands are packed
/// onto at most `workers` scoped threads in contiguous chunks; each island
/// evaluates serially with its own context and draws only from its own
/// RNG, so the outcome is bit-identical at any worker count (`workers <= 1`
/// short-circuits to a plain loop with no thread spawns).
fn step_round<P: Problem + Sync>(
    runs: &mut [GaRun<'_, P>],
    rngs: &mut [Prng],
    problem: &P,
    workers: usize,
) {
    if workers <= 1 {
        for (run, rng) in runs.iter_mut().zip(rngs.iter_mut()) {
            if run.stopped().is_none() {
                run.step(&SerialCtx { problem }, rng);
            }
        }
        return;
    }
    let chunk = runs.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (run_chunk, rng_chunk) in runs.chunks_mut(chunk).zip(rngs.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (run, rng) in run_chunk.iter_mut().zip(rng_chunk.iter_mut()) {
                    if run.stopped().is_none() {
                        run.step(&SerialCtx { problem }, rng);
                    }
                }
            });
        }
    });
}

/// One migration event among the islands still running (stopped islands
/// are frozen — their populations are final). Applies the shared
/// [`swap_schedule`] to the running subset in island order, then refreshes
/// every participant's tracked best so immigrants count as improvements.
fn migrate<P: Problem>(runs: &mut [GaRun<'_, P>], cfg: &IslandConfig) {
    let running: Vec<usize> = (0..runs.len())
        .filter(|&i| runs[i].stopped().is_none())
        .collect();
    if running.len() < 2 {
        return;
    }
    let ranked: Vec<Vec<usize>> = running.iter().map(|&i| runs[i].ranked_indices()).collect();
    for slot in swap_schedule(running.len(), cfg.migrants, cfg.topology) {
        let ia = ranked[slot.src][slot.src_rank];
        let ib = ranked[slot.dst][ranked[slot.dst].len() - 1 - slot.dst_from_worst];
        let (a, b) = pair_mut(runs, running[slot.src], running[slot.dst]);
        swap_individuals(a, ia, b, ib);
    }
    for &i in &running {
        runs[i].refresh_best();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossover::CycleCrossover;
    use crate::evaluate::Evaluator;
    use crate::mutation::SwapMutation;
    use crate::selection::RouletteWheel;

    struct Balance;
    impl Problem for Balance {
        fn fitness(&self, c: &Chromosome) -> f64 {
            1.0 / (1.0 + self.makespan(c))
        }
        fn makespan(&self, c: &Chromosome) -> f64 {
            c.queue_lengths().into_iter().max().unwrap_or(0) as f64
        }
    }

    fn skewed() -> Chromosome {
        Chromosome::from_queues(&[(0..12u32).collect::<Vec<_>>(), vec![], vec![], vec![]])
    }

    fn seeds(n: usize) -> Vec<Vec<Chromosome>> {
        vec![vec![skewed()]; n]
    }

    fn island_engine(config: GaConfig, islands: IslandConfig) -> IslandEngine<'static> {
        static SEL: RouletteWheel = RouletteWheel;
        static CX: CycleCrossover = CycleCrossover;
        static MU: SwapMutation = SwapMutation;
        IslandEngine::new(&SEL, &CX, &MU, config, islands).expect("valid island config")
    }

    fn mono_engine(config: GaConfig) -> GaEngine<'static> {
        static SEL: RouletteWheel = RouletteWheel;
        static CX: CycleCrossover = CycleCrossover;
        static MU: SwapMutation = SwapMutation;
        GaEngine::new(&SEL, &CX, &MU, config)
    }

    fn base_config() -> GaConfig {
        GaConfig {
            population_size: 16,
            max_generations: 60,
            mutations_per_generation: 4,
            record_history: true,
            ..GaConfig::default()
        }
    }

    #[test]
    fn one_island_is_bitwise_the_monolithic_engine() {
        let mut r1 = Prng::seed_from(77);
        let mono = mono_engine(base_config()).run(&Balance, vec![skewed()], None, &mut r1);

        let mut r2 = Prng::seed_from(77);
        let island = island_engine(
            base_config(),
            IslandConfig {
                islands: 1,
                ..IslandConfig::default()
            },
        )
        .run(&Balance, vec![vec![skewed()]], None, &mut r2);

        assert_eq!(island.best, mono.best);
        assert_eq!(island.best_makespan.to_bits(), mono.best_makespan.to_bits());
        assert_eq!(island.best_fitness.to_bits(), mono.best_fitness.to_bits());
        assert_eq!(island.generations, mono.generations);
        assert_eq!(island.stop_reason, mono.stop_reason);
        assert_eq!(island.memo_hits, mono.memo_hits);
        assert_eq!(island.memo_misses, mono.memo_misses);
        assert_eq!(island.islands.len(), 1);
        assert_eq!(island.islands[0].final_population, mono.final_population);
        assert_eq!(island.islands[0].history, mono.history);
        // And the caller's RNG is left in the same state.
        assert_eq!(r1.next_u64(), r2.next_u64());
    }

    #[test]
    fn island_run_is_bit_identical_at_any_worker_count() {
        let run = |workers: usize| {
            let mut config = base_config();
            config.evaluator = Evaluator::threads(workers);
            let e = island_engine(
                config,
                IslandConfig {
                    islands: 4,
                    migration_interval: 5,
                    migrants: 1,
                    topology: Topology::Ring,
                },
            );
            let mut rng = Prng::seed_from(91);
            e.run(&Balance, seeds(4), None, &mut rng)
        };
        let serial = run(1);
        for workers in [2, 8] {
            let par = run(workers);
            assert_eq!(par.best, serial.best, "workers={workers}");
            assert_eq!(par.best_makespan.to_bits(), serial.best_makespan.to_bits());
            assert_eq!(par.generations, serial.generations);
            assert_eq!(par.stop_reason, serial.stop_reason);
            assert_eq!(par.memo_hits, serial.memo_hits);
            assert_eq!(par.memo_misses, serial.memo_misses);
            for (a, b) in par.islands.iter().zip(&serial.islands) {
                assert_eq!(a.final_population, b.final_population);
                assert_eq!(a.generations, b.generations);
                assert_eq!(a.stop_reason, b.stop_reason);
                for (ha, hb) in a.history.iter().zip(&b.history) {
                    assert_eq!(ha.best_makespan.to_bits(), hb.best_makespan.to_bits());
                    assert_eq!(ha.mean_fitness.to_bits(), hb.mean_fitness.to_bits());
                }
            }
        }
    }

    #[test]
    fn migration_preserves_the_population_multiset() {
        // Tag every entry with a unique payload; after any number of
        // migration events the multiset of payloads must be intact and the
        // island sizes unchanged.
        let mut pops: Vec<Vec<(f64, usize)>> = vec![
            vec![(3.0, 0), (1.0, 1), (2.0, 2)],
            vec![(5.0, 3), (4.0, 4), (6.0, 5), (0.5, 6)],
            vec![(9.0, 7), (8.0, 8), (7.0, 9)],
        ];
        let sizes: Vec<usize> = pops.iter().map(Vec::len).collect();
        for topology in [Topology::Ring, Topology::FullyConnected] {
            migrate_populations(&mut pops, 2, topology).unwrap();
            assert_eq!(pops.iter().map(Vec::len).collect::<Vec<_>>(), sizes);
            let mut tags: Vec<usize> = pops.iter().flatten().map(|&(_, t)| t).collect();
            tags.sort_unstable();
            assert_eq!(tags, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn ring_migration_moves_elites_forward() {
        let mut pops: Vec<Vec<(f64, &str)>> = vec![
            vec![(1.0, "a-best"), (9.0, "a-worst")],
            vec![(2.0, "b-best"), (8.0, "b-worst")],
        ];
        migrate_populations(&mut pops, 1, Topology::Ring).unwrap();
        // a's best migrated to b (displacing b's worst into a's vacated
        // slot) and b's best migrated to a — every elite moved forward one
        // ring hop, every displaced worst travelled back.
        let island0: Vec<&str> = pops[0].iter().map(|&(_, t)| t).collect();
        let island1: Vec<&str> = pops[1].iter().map(|&(_, t)| t).collect();
        assert!(island0.contains(&"b-best") && island0.contains(&"b-worst"));
        assert!(island1.contains(&"a-best") && island1.contains(&"a-worst"));
    }

    #[test]
    fn fully_connected_delivers_exactly_migrants_per_island() {
        for n in 2..=7usize {
            for migrants in 1..=4usize {
                let mut received = vec![0usize; n];
                for s in 0..n {
                    for m in 0..migrants {
                        let d = Topology::FullyConnected.destination(s, m, n);
                        assert_ne!(d, s, "no self-migration");
                        received[d] += 1;
                    }
                }
                assert!(
                    received.iter().all(|&r| r == migrants),
                    "n={n} migrants={migrants}: {received:?}"
                );
            }
        }
    }

    #[test]
    fn degenerate_configs_are_rejected_not_panics() {
        let cfg = |islands, migrants| IslandConfig {
            islands,
            migrants,
            ..IslandConfig::default()
        };
        // migrants >= population/islands
        assert!(cfg(4, 4).validate(16, 1).is_err());
        assert!(cfg(4, 3).validate(16, 1).is_ok());
        // islands too small to breed
        assert!(cfg(10, 1).validate(16, 1).is_err());
        // zero anything
        assert!(cfg(0, 1).validate(16, 1).is_err());
        assert!(cfg(4, 0).validate(16, 1).is_err());
        assert!(IslandConfig {
            islands: 4,
            migration_interval: 0,
            ..IslandConfig::default()
        }
        .validate(16, 1)
        .is_err());
        // elitism must fit the smallest island
        assert!(cfg(4, 1).validate(16, 4).is_err());
        // islands == 1 ignores the migration knobs entirely
        assert!(cfg(1, 0).validate(16, 1).is_ok());
        // and the engine constructor surfaces the same rejection
        static SEL: RouletteWheel = RouletteWheel;
        static CX: CycleCrossover = CycleCrossover;
        static MU: SwapMutation = SwapMutation;
        let err = IslandEngine::new(&SEL, &CX, &MU, base_config(), cfg(4, 4));
        assert!(err.is_err());
    }

    #[test]
    fn migrate_populations_rejects_degenerate_inputs() {
        let mut one: Vec<Vec<(f64, u8)>> = vec![vec![(1.0, 0), (2.0, 1)]];
        assert!(migrate_populations(&mut one, 1, Topology::Ring).is_err());
        let mut two: Vec<Vec<(f64, u8)>> = vec![vec![(1.0, 0), (2.0, 1)]; 2];
        assert!(migrate_populations(&mut two, 0, Topology::Ring).is_err());
        assert!(migrate_populations(&mut two, 2, Topology::Ring).is_err());
        assert!(migrate_populations(&mut two, 1, Topology::Ring).is_ok());
    }

    #[test]
    fn island_sizes_partition_exactly() {
        assert_eq!(island_sizes(20, 1), vec![20]);
        assert_eq!(island_sizes(20, 4), vec![5, 5, 5, 5]);
        assert_eq!(island_sizes(22, 4), vec![6, 6, 5, 5]);
        assert_eq!(island_sizes(7, 3), vec![3, 2, 2]);
    }

    #[test]
    fn target_reached_stops_the_whole_ensemble() {
        let mut config = base_config();
        config.target_makespan = Some(4.0);
        config.max_generations = 500;
        let e = island_engine(
            config,
            IslandConfig {
                islands: 4,
                migration_interval: 3,
                migrants: 1,
                topology: Topology::FullyConnected,
            },
        );
        let mut rng = Prng::seed_from(5);
        let result = e.run(&Balance, seeds(4), None, &mut rng);
        assert_eq!(result.stop_reason, StopReason::TargetReached);
        assert!(result.best_makespan <= 4.0);
        assert!(result.generations < 500);
    }

    #[test]
    fn time_budget_stops_between_rounds() {
        let mut config = base_config();
        config.max_generations = u32::MAX;
        let e = island_engine(
            config,
            IslandConfig {
                islands: 4,
                migration_interval: 5,
                migrants: 1,
                topology: Topology::Ring,
            },
        );
        let mut rng = Prng::seed_from(6);
        let budget = Duration::from_millis(20);
        let started = Instant::now();
        let result = e.run_budgeted(&Balance, seeds(4), None, Some(budget), &mut rng);
        let elapsed = started.elapsed();
        assert_eq!(result.stop_reason, StopReason::TimeBudget);
        assert!(elapsed < budget + Duration::from_millis(200));
        // Lockstep rounds: every island evolved the same generation count
        // (none can run ahead of a round boundary).
        assert!(result.islands.iter().all(
            |r| r.generations == result.generations && r.stop_reason == StopReason::TimeBudget
        ));
    }

    #[test]
    fn generation_override_caps_every_island() {
        let e = island_engine(
            base_config(),
            IslandConfig {
                islands: 3,
                migration_interval: 2,
                migrants: 1,
                topology: Topology::Ring,
            },
        );
        let mut rng = Prng::seed_from(8);
        let result = e.run(&Balance, seeds(3), Some(4), &mut rng);
        assert_eq!(result.generations, 4);
        assert_eq!(result.stop_reason, StopReason::MaxGenerations);
        assert!(result.islands.iter().all(|r| r.generations == 4));
    }

    #[test]
    fn different_seeds_produce_different_migration_outcomes() {
        let run = |seed: u64| {
            let e = island_engine(
                base_config(),
                IslandConfig {
                    islands: 4,
                    migration_interval: 5,
                    migrants: 2,
                    topology: Topology::Ring,
                },
            );
            let mut rng = Prng::seed_from(seed);
            e.run(&Balance, seeds(4), None, &mut rng)
        };
        let a = run(1);
        let b = run(2);
        let pops_a: Vec<_> = a.islands.iter().map(|r| &r.final_population).collect();
        let pops_b: Vec<_> = b.islands.iter().map(|r| &r.final_population).collect();
        assert_ne!(pops_a, pops_b, "seed must steer the island streams");
    }

    #[test]
    fn merged_final_population_is_rank_interleaved_and_complete() {
        let e = island_engine(
            base_config(),
            IslandConfig {
                islands: 3,
                migration_interval: 4,
                migrants: 1,
                topology: Topology::Ring,
            },
        );
        let mut rng = Prng::seed_from(9);
        let result = e.run(&Balance, seeds(3), None, &mut rng);
        let merged = result.merged_final_population();
        assert_eq!(merged.len(), 16, "every individual present exactly once");
        // Head of the merge = every island's rank-0 schedule, island order.
        for (i, r) in result.islands.iter().enumerate() {
            assert_eq!(merged[i], r.final_population[0]);
        }
    }
}
