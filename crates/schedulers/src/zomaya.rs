//! ZO — the Zomaya & Teh dynamic GA load-balancer (TPDS 2001), §4.1.
//!
//! > "The scheduler proposed by Zomaya et al. (ZO) in \[19\] has been
//! > implemented for this paper. It is the current state of the art
//! > homogeneous GA scheduler and the basis for our scheduler. The ZO
//! > scheduler was easily converted from a homogeneous scheduler to a
//! > heterogeneous scheduler by using the Mflop/s benchmark for task sizes
//! > rather than time. It is a batch scheduler which uses GAs to create
//! > schedules."
//!
//! Differences from PN, which are exactly the paper's claimed
//! contributions:
//!
//! | Aspect              | ZO                      | PN                          |
//! |---------------------|-------------------------|-----------------------------|
//! | fitness             | makespan only           | relative error incl. Γc     |
//! | communication       | reacts after the fact   | predicted via smoothing     |
//! | batch size          | fixed                   | dynamic (§3.7)              |
//! | initial population  | random assignment       | list-scheduling (§3.3)      |
//! | local improvement   | none                    | rebalancing (§3.5)          |
//!
//! The GA machinery itself (encoding, roulette selection, cycle crossover,
//! swap mutation, micro-population of 20, 1000-generation cap, idle-time
//! budget) is shared with PN through `dts-ga`.

use std::collections::VecDeque;

use dts_distributions::{Prng, Rng};
use dts_ga::{
    island_sizes, Chromosome, CycleCrossover, GaConfig, Gene, IslandConfig, IslandEngine, Problem,
    RouletteWheel, SwapMutation,
};
use dts_model::{PlanOutcome, ProcessorId, Scheduler, SchedulerMode, SystemView, Task, TaskQueues};

use dts_core::time_model::GaTimeModel;
use dts_core::{remap_elite, ProcessorState, SeedStrategy};

/// Configuration of the ZO scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoConfig {
    /// GA parameters (population 20, up to 1000 generations, as in §4.2).
    /// `ga.evaluator` selects serial or thread-pool fitness evaluation;
    /// plans are bit-identical either way.
    pub ga: GaConfig,
    /// Fixed batch size (the paper's experiments use 200).
    pub batch_size: usize,
    /// Generations always granted even when a processor is about to idle.
    pub min_generations: u32,
    /// Modelled compute time per generation (same model as PN for a fair
    /// comparison).
    pub time_model: GaTimeModel,
    /// Fresh random seeding per batch (Zomaya & Teh), or warm-started from
    /// the previous batch's remapped elites — the same lifecycle knob PN
    /// has, kept symmetric so warm-start comparisons are apples-to-apples.
    pub seed_strategy: SeedStrategy,
    /// Island-model sharding of the GA population, kept symmetric with
    /// [`dts_core::PnConfig`]'s knob so island comparisons are
    /// apples-to-apples. The default single island is the original ZO GA.
    pub islands: IslandConfig,
    /// Seed for the scheduler's private RNG stream.
    pub seed: u64,
}

impl Default for ZoConfig {
    fn default() -> Self {
        Self {
            ga: GaConfig::default(),
            batch_size: 200,
            min_generations: 10,
            time_model: GaTimeModel::default(),
            seed_strategy: SeedStrategy::Fresh,
            islands: IslandConfig::default(),
            seed: 0x20_2001,
        }
    }
}

/// The makespan-only fitness of the ZO scheduler.
///
/// Completion of processor j: `(Lⱼ + Σ_{y→j} t_y) / Pⱼ` — no communication
/// term. Fitness is the theoretical optimum over the achieved makespan,
/// which lands in `(0, 1]` like PN's fitness but rewards only load balance.
struct ZoProblem<'a> {
    batch: &'a [Task],
    rates: &'a [f64],
    existing_load: &'a [f64],
    /// `Σt / ΣP + max δ` — a lower bound used to normalise fitness.
    optimum: f64,
}

impl<'a> ZoProblem<'a> {
    fn new(batch: &'a [Task], rates: &'a [f64], existing_load: &'a [f64]) -> Self {
        let total: f64 = batch.iter().map(|t| t.mflops).sum();
        let total_rate: f64 = rates.iter().sum();
        let max_delta = rates
            .iter()
            .zip(existing_load)
            .map(|(&r, &l)| l / r.max(1e-9))
            .fold(0.0f64, f64::max);
        Self {
            batch,
            rates,
            existing_load,
            optimum: (total / total_rate.max(1e-9) + max_delta).max(1e-12),
        }
    }

    /// The single fitness formula, shared by [`Problem::fitness`] and
    /// [`Problem::evaluate`] so the two can never diverge.
    #[inline]
    fn fitness_of_makespan(&self, ms: f64) -> f64 {
        (self.optimum / ms).min(1.0)
    }
}

impl ZoProblem<'_> {
    /// Per-processor completion times: `out[j] = (Lⱼ + Σ_{y→j} t_y) / Pⱼ`.
    /// One gene walk; each queue's load accumulates in gene order (the same
    /// add sequence the previous `assignments()`-based pass performed, so
    /// results are bit-identical to it) and is divided once at the queue
    /// boundary. Every incremental path below must match this bitwise.
    fn fill_completions(&self, c: &Chromosome, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.rates.len());
        let mut q = 0usize;
        let mut acc = self.existing_load[0];
        for &g in c.genes() {
            match g {
                Gene::Task(t) => acc += self.batch[t as usize].mflops,
                Gene::Delim(_) => {
                    out[q] = acc / self.rates[q].max(1e-9);
                    q += 1;
                    acc = self.existing_load[q];
                }
            }
        }
        out[q] = acc / self.rates[q].max(1e-9);
    }

    /// Completion time of queue `q` whose task genes start at `start`:
    /// the same gene-order load re-sum `fill_completions` performs for
    /// that queue, including its single trailing division.
    fn queue_completion(&self, genes: &[Gene], q: usize, start: usize) -> f64 {
        let mut acc = self.existing_load[q];
        for &g in &genes[start..] {
            match g {
                Gene::Task(t) => acc += self.batch[t as usize].mflops,
                Gene::Delim(_) => break,
            }
        }
        acc / self.rates[q].max(1e-9)
    }
}

impl Problem for ZoProblem<'_> {
    fn fitness(&self, c: &Chromosome) -> f64 {
        self.fitness_of_makespan(self.makespan(c))
    }

    /// Fast path for the evaluation pipeline: one load pass yields the
    /// makespan, and the fitness is a pure function of it — identical to
    /// calling [`Problem::fitness`] and [`Problem::makespan`] separately.
    fn evaluate(&self, c: &Chromosome) -> (f64, f64) {
        let ms = self.makespan(c);
        (self.fitness_of_makespan(ms), ms)
    }

    fn makespan(&self, c: &Chromosome) -> f64 {
        let m = self.rates.len();
        let mut buf = [0.0f64; 64];
        let mut buf_vec;
        let out: &mut [f64] = if m <= 64 {
            &mut buf[..m]
        } else {
            buf_vec = vec![0.0f64; m];
            &mut buf_vec
        };
        self.fill_completions(c, out);
        out.iter().copied().fold(0.0, f64::max)
    }

    /// The full walk, exporting completion times for the engine's
    /// delta-evaluation and fitness-memo machinery.
    fn evaluate_into(&self, c: &Chromosome, completions: &mut Vec<f64>) -> (f64, f64) {
        completions.clear();
        completions.resize(self.rates.len(), 0.0);
        self.fill_completions(c, completions);
        let ms = completions.iter().copied().fold(0.0, f64::max);
        (self.fitness_of_makespan(ms), ms)
    }

    /// Task–task transpositions touch at most two queues; re-sum only
    /// those (in gene order) and take the max over the updated vector.
    /// Delimiter moves fall back to the full walk. Mirrors the PN
    /// implementation — queue index comes from counting delimiters, since
    /// delimiter labels carry no positional meaning.
    fn evaluate_swap_delta(
        &self,
        c: &Chromosome,
        i: usize,
        j: usize,
        completions: &mut [f64],
    ) -> Option<(f64, f64)> {
        if completions.len() != self.rates.len() || i == j {
            return None;
        }
        let genes = c.genes();
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        if !matches!(genes[lo], Gene::Task(_)) || !matches!(genes[hi], Gene::Task(_)) {
            return None;
        }
        let mut q = 0usize;
        let mut start = 0usize;
        let (mut q_lo, mut start_lo) = (0usize, 0usize);
        for (pos, g) in genes[..hi].iter().enumerate() {
            if pos == lo {
                q_lo = q;
                start_lo = start;
            }
            if matches!(g, Gene::Delim(_)) {
                q += 1;
                start = pos + 1;
            }
        }
        let (q_hi, start_hi) = (q, start);
        completions[q_lo] = self.queue_completion(genes, q_lo, start_lo);
        if q_hi != q_lo {
            completions[q_hi] = self.queue_completion(genes, q_hi, start_hi);
        }
        let ms = completions.iter().copied().fold(0.0, f64::max);
        Some((self.fitness_of_makespan(ms), ms))
    }

    /// Digest of the evaluation context: batch sizes, rates, and existing
    /// loads. The fitness memo clears whenever this changes, so values
    /// never leak between planning invocations.
    fn epoch_key(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            let mut x = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }
        let mut h = mix(0x5A4F_5450_4453_3031, self.batch.len() as u64);
        h = mix(h, self.rates.len() as u64);
        for t in self.batch {
            h = mix(h, t.mflops.to_bits());
        }
        for j in 0..self.rates.len() {
            h = mix(h, self.rates[j].to_bits());
            h = mix(h, self.existing_load[j].to_bits());
        }
        h
    }
}

/// The ZO scheduler.
pub struct Zomaya {
    config: ZoConfig,
    unscheduled: VecDeque<Task>,
    queues: TaskQueues,
    rng: Prng,
    /// Previous batch's final GA population (best first), retained under
    /// [`SeedStrategy::CarryOver`] and remapped onto the next batch.
    carried: Option<Vec<Chromosome>>,
}

impl Zomaya {
    /// Creates a ZO scheduler for `n_procs` processors.
    pub fn new(n_procs: usize, config: ZoConfig) -> Self {
        assert!(n_procs > 0, "need at least one processor");
        assert!(config.batch_size > 0, "batch size must be ≥ 1");
        assert!(
            config.seed_strategy != (SeedStrategy::CarryOver { elites: 0 }),
            "carry-over elites must be ≥ 1"
        );
        config
            .islands
            .validate(config.ga.population_size, config.ga.elitism)
            .expect("invalid ZoConfig island knobs");
        let rng = Prng::seed_from(config.seed);
        Self {
            config,
            unscheduled: VecDeque::new(),
            queues: TaskQueues::new(n_procs),
            rng,
            carried: None,
        }
    }

    /// Random individuals: each task to a uniformly random processor
    /// (Zomaya & Teh seed their GA randomly).
    fn random_individuals(&mut self, count: usize, h: usize, m: usize) -> Vec<Chromosome> {
        (0..count)
            .map(|_| {
                let mut queues = vec![Vec::new(); m];
                for slot in 0..h as u32 {
                    let j = self.rng.below(m);
                    queues[j].push(slot);
                }
                Chromosome::from_queues(&queues)
            })
            .collect()
    }

    /// The initial population for one batch: carried elites (remapped onto
    /// the new batch via [`remap_elite`], makespan-ranked best first) under
    /// `CarryOver`, topped up with random individuals.
    fn initial_population(
        &mut self,
        batch: &[Task],
        rates: &[f64],
        existing: &[f64],
    ) -> Vec<Chromosome> {
        let pop_size = self.config.ga.population_size;
        let mut initial: Vec<Chromosome> = match (self.config.seed_strategy, &self.carried) {
            (SeedStrategy::CarryOver { elites }, Some(prev)) => {
                // ZO's fitness is communication-blind, so the remap's
                // earliest-finish fill also runs comm-free.
                let states: Vec<ProcessorState> = rates
                    .iter()
                    .zip(existing)
                    .map(|(&rate, &load)| ProcessorState {
                        rate,
                        existing_load_mflops: load,
                        comm_cost: 0.0,
                    })
                    .collect();
                prev.iter()
                    .take(elites.min(pop_size))
                    .map(|c| remap_elite(c, batch, &states))
                    .collect()
            }
            _ => Vec::new(),
        };
        let fill = pop_size - initial.len();
        let m = rates.len();
        initial.extend(self.random_individuals(fill, batch.len(), m));
        initial
    }
}

impl Scheduler for Zomaya {
    fn name(&self) -> &'static str {
        "ZO"
    }
    fn mode(&self) -> SchedulerMode {
        SchedulerMode::Batch
    }
    fn enqueue(&mut self, tasks: &[Task]) {
        self.unscheduled.extend(tasks.iter().copied());
    }
    fn unscheduled_len(&self) -> usize {
        self.unscheduled.len()
    }

    fn plan(&mut self, view: &SystemView) -> PlanOutcome {
        if self.unscheduled.is_empty() {
            return PlanOutcome::IDLE;
        }
        let m = view.processors.len();
        let h = self.config.batch_size.min(self.unscheduled.len());
        let batch: Vec<Task> = self.unscheduled.drain(..h).collect();

        let rates: Vec<f64> = view
            .processors
            .iter()
            .map(|p| p.rate_estimate.max(1e-9))
            .collect();
        let existing: Vec<f64> = view
            .processors
            .iter()
            .map(|p| self.queues.queued_mflops(p.id) + p.inflight_mflops)
            .collect();

        let rho = self.config.ga.population_size;
        let per_gen = self.config.time_model.seconds_per_generation(h, m, rho, 0);
        let budget = match view.seconds_until_first_idle {
            None => self.config.min_generations,
            Some(secs) => self
                .config
                .time_model
                .generations_within(secs, h, m, rho, 0)
                .max(self.config.min_generations),
        };

        let problem = ZoProblem::new(&batch, &rates, &existing);
        let initial = self.initial_population(&batch, &rates, &existing);
        // Shard the already-built population contiguously: the carried
        // elites land on the first island(s), random fill on the rest (a
        // single island takes it whole and is the monolithic GA bit for
        // bit). Deterministic — the split is a pure function of the sizes.
        let n_islands = self.config.islands.islands;
        let mut seeds: Vec<Vec<Chromosome>> = Vec::with_capacity(n_islands);
        let mut rest = initial;
        for size in island_sizes(self.config.ga.population_size, n_islands) {
            let tail = rest.split_off(size.min(rest.len()));
            seeds.push(rest);
            rest = tail;
        }
        let engine = IslandEngine::new(
            &RouletteWheel,
            &CycleCrossover,
            &SwapMutation,
            self.config.ga.clone(),
            self.config.islands.clone(),
        )
        .expect("validated ZoConfig");
        let result = engine.run(&problem, seeds, Some(budget), &mut self.rng);
        if let SeedStrategy::CarryOver { elites } = self.config.seed_strategy {
            let mut pop = result.merged_final_population();
            pop.truncate(elites);
            self.carried = Some(pop);
        }

        for (proc, queue) in result.best.to_queues().iter().enumerate() {
            let pid = ProcessorId(proc as u16);
            for &slot in queue {
                self.queues.push(pid, batch[slot as usize]);
            }
        }

        PlanOutcome {
            tasks_assigned: h,
            compute_seconds: per_gen * result.generations as f64,
            generations: result.generations,
        }
    }

    fn next_task_for(&mut self, p: ProcessorId) -> Option<Task> {
        self.queues.pop(p)
    }
    fn queued_len(&self, p: ProcessorId) -> usize {
        self.queues.queued_len(p)
    }
    fn queued_mflops(&self, p: ProcessorId) -> f64 {
        self.queues.queued_mflops(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_model::sched::ProcessorView;
    use dts_model::{SimTime, TaskId};

    fn tasks(sizes: &[f64]) -> Vec<Task> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &m)| Task::new(TaskId(i as u32), m, SimTime::ZERO))
            .collect()
    }

    fn view(rates: &[f64]) -> SystemView {
        SystemView {
            now: SimTime::ZERO,
            processors: rates
                .iter()
                .enumerate()
                .map(|(i, &rate)| ProcessorView {
                    id: ProcessorId(i as u16),
                    rate_estimate: rate,
                    inflight_mflops: 0.0,
                    comm_estimate: 0.5,
                })
                .collect(),
            seconds_until_first_idle: Some(60.0),
        }
    }

    fn quick() -> ZoConfig {
        let mut c = ZoConfig {
            batch_size: 16,
            ..ZoConfig::default()
        };
        c.ga.max_generations = 60;
        c
    }

    #[test]
    fn zo_problem_makespan_by_hand() {
        let b = tasks(&[100.0, 200.0]);
        let rates = [100.0, 50.0];
        let existing = [0.0, 50.0];
        let p = ZoProblem::new(&b, &rates, &existing);
        // Everything on processor 1: (50 + 300)/50 = 7.
        let c = Chromosome::from_queues(&[vec![], vec![0, 1]]);
        assert!((p.makespan(&c) - 7.0).abs() < 1e-12);
        // Split: max(100/100, (50+200)/50) = 5.
        let c2 = Chromosome::from_queues(&[vec![0], vec![1]]);
        assert!((p.makespan(&c2) - 5.0).abs() < 1e-12);
        assert!(p.fitness(&c2) > p.fitness(&c));
    }

    #[test]
    fn zo_combined_evaluate_matches_separate_calls() {
        let b = tasks(&[100.0, 200.0, 50.0, 425.0, 12.5]);
        let rates = [100.0, 50.0, 230.0];
        let existing = [0.0, 50.0, 17.5];
        let p = ZoProblem::new(&b, &rates, &existing);
        let c = Chromosome::from_queues(&[vec![0, 3], vec![1], vec![2, 4]]);
        let (f, ms) = p.evaluate(&c);
        assert_eq!(f.to_bits(), p.fitness(&c).to_bits());
        assert_eq!(ms.to_bits(), p.makespan(&c).to_bits());
    }

    #[test]
    fn zo_swap_delta_matches_full_walk_bitwise() {
        use dts_distributions::Rng;
        let b = tasks(&[
            100.0, 200.0, 50.0, 425.0, 12.5, 330.0, 77.0, 940.0, 6.0, 150.0,
        ]);
        let rates = [100.0, 50.0, 230.0];
        let existing = [0.0, 50.0, 17.5];
        let p = ZoProblem::new(&b, &rates, &existing);
        let mut c = Chromosome::from_queues(&[vec![0, 3, 5], vec![1, 6, 8], vec![2, 4, 7, 9]]);
        let mut completions = Vec::new();
        p.evaluate_into(&c, &mut completions);
        let mut rng = Prng::seed_from(0x20_5A4F);
        let mut deltas_taken = 0u32;
        for _ in 0..300 {
            let len = c.genes().len();
            let (i, j) = (rng.below(len), rng.below(len));
            c.genes_swap(i, j);
            let mut fresh = Vec::new();
            let (ff, fms) = p.evaluate_into(&c, &mut fresh);
            match p.evaluate_swap_delta(&c, i, j, &mut completions) {
                Some((df, dms)) => {
                    deltas_taken += 1;
                    assert_eq!(df.to_bits(), ff.to_bits(), "fitness drifted");
                    assert_eq!(dms.to_bits(), fms.to_bits(), "makespan drifted");
                    for (a, b) in completions.iter().zip(&fresh) {
                        assert_eq!(a.to_bits(), b.to_bits(), "completions drifted");
                    }
                }
                None => completions = fresh,
            }
        }
        assert!(
            deltas_taken > 50,
            "expected mostly task–task swaps ({deltas_taken}/300)"
        );
    }

    #[test]
    fn zo_fitness_in_unit_interval() {
        let b = tasks(&[100.0; 12]);
        let rates = [100.0, 100.0, 100.0];
        let existing = [0.0; 3];
        let p = ZoProblem::new(&b, &rates, &existing);
        let c = Chromosome::from_queues(&[(0..12).collect(), vec![], vec![]]);
        let f = p.fitness(&c);
        assert!(f > 0.0 && f <= 1.0);
    }

    #[test]
    fn zo_schedules_all_tasks() {
        let mut s = Zomaya::new(3, quick());
        s.enqueue(&tasks(&[50.0; 40]));
        let v = view(&[100.0, 150.0, 80.0]);
        while s.unscheduled_len() > 0 {
            let out = s.plan(&v);
            assert!(out.tasks_assigned > 0);
            assert!(out.generations > 0);
        }
        let total: usize = (0..3).map(|i| s.queued_len(ProcessorId(i))).sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn zo_balances_heterogeneous_cluster() {
        let mut s = Zomaya::new(2, quick());
        s.enqueue(&tasks(&[100.0; 16]));
        s.plan(&view(&[300.0, 100.0]));
        let fast = s.queued_mflops(ProcessorId(0));
        let slow = s.queued_mflops(ProcessorId(1));
        assert!(
            fast > slow,
            "GA should give the 3× processor more work: {fast} vs {slow}"
        );
    }

    #[test]
    fn zo_fixed_batch_size() {
        let mut s = Zomaya::new(2, quick());
        s.enqueue(&tasks(&[10.0; 40]));
        let v = view(&[100.0, 100.0]);
        assert_eq!(s.plan(&v).tasks_assigned, 16);
        assert_eq!(s.plan(&v).tasks_assigned, 16);
        assert_eq!(s.plan(&v).tasks_assigned, 8);
    }

    #[test]
    fn zo_is_deterministic() {
        let run = || {
            let mut s = Zomaya::new(2, quick());
            s.enqueue(&tasks(&[100.0, 70.0, 30.0, 20.0, 10.0, 5.0]));
            s.plan(&view(&[100.0, 100.0]));
            (0..2)
                .map(|i| s.queued_mflops(ProcessorId(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zo_parallel_evaluation_matches_serial() {
        let run = |workers: usize| {
            let mut cfg = quick();
            cfg.ga.evaluator = dts_ga::Evaluator::threads(workers);
            let mut s = Zomaya::new(3, cfg);
            s.enqueue(&tasks(&[100.0, 70.0, 30.0, 20.0, 10.0, 5.0, 250.0, 40.0]));
            s.plan(&view(&[100.0, 150.0, 60.0]));
            (0..3)
                .map(|i| {
                    let mut order = Vec::new();
                    while let Some(t) = s.next_task_for(ProcessorId(i)) {
                        order.push(t.id);
                    }
                    order
                })
                .collect::<Vec<_>>()
        };
        let serial = run(1);
        assert_eq!(run(2), serial);
        assert_eq!(run(8), serial);
    }

    #[test]
    fn name_and_mode() {
        let s = Zomaya::new(1, quick());
        assert_eq!(s.name(), "ZO");
        assert_eq!(s.mode(), SchedulerMode::Batch);
    }

    fn varied(n: usize) -> Vec<Task> {
        let sizes: Vec<f64> = (0..n).map(|i| 40.0 + (i as f64 * 53.0) % 300.0).collect();
        tasks(&sizes)
    }

    fn run_zo_batches(mut cfg: ZoConfig, batches: usize) -> Vec<Vec<TaskId>> {
        cfg.batch_size = 12;
        let mut s = Zomaya::new(3, cfg);
        s.enqueue(&varied(12 * batches));
        let v = view(&[100.0, 150.0, 80.0]);
        for _ in 0..batches {
            s.plan(&v);
        }
        (0..3)
            .map(|i| {
                let mut ids = Vec::new();
                while let Some(t) = s.next_task_for(ProcessorId(i)) {
                    ids.push(t.id);
                }
                ids
            })
            .collect()
    }

    #[test]
    fn zo_warm_start_is_deterministic_and_complete() {
        let cfg = || {
            let mut c = quick();
            c.seed_strategy = SeedStrategy::CarryOver { elites: 5 };
            c
        };
        let a = run_zo_batches(cfg(), 3);
        let b = run_zo_batches(cfg(), 3);
        assert_eq!(a, b, "ZO warm-start must be bit-stable");
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 36);
    }

    #[test]
    fn zo_warm_start_diverges_from_fresh_after_first_batch() {
        let fresh = run_zo_batches(quick(), 3);
        let warm = run_zo_batches(
            {
                let mut c = quick();
                c.seed_strategy = SeedStrategy::CarryOver { elites: 5 };
                c
            },
            3,
        );
        assert_eq!(fresh.iter().map(Vec::len).sum::<usize>(), 36);
        assert_eq!(warm.iter().map(Vec::len).sum::<usize>(), 36);
        assert_ne!(fresh, warm, "carried elites should alter later plans");
    }

    #[test]
    fn zo_carried_population_stays_valid() {
        let mut c = quick();
        c.seed_strategy = SeedStrategy::CarryOver { elites: 4 };
        c.batch_size = 10;
        let mut s = Zomaya::new(3, c);
        s.enqueue(&varied(30));
        let v = view(&[100.0, 150.0, 80.0]);
        while s.unscheduled_len() > 0 {
            s.plan(&v);
            let pop = s.carried.as_ref().expect("population retained");
            assert!(pop.iter().all(|ch| ch.validate().is_ok()));
        }
    }

    #[test]
    fn zo_island_plans_are_deterministic_across_worker_counts() {
        let run = |workers: usize| {
            let mut cfg = quick();
            cfg.ga.evaluator = dts_ga::Evaluator::threads(workers);
            cfg.islands = IslandConfig {
                islands: 4,
                migration_interval: 5,
                migrants: 1,
                topology: dts_ga::Topology::Ring,
            };
            let mut s = Zomaya::new(3, cfg);
            s.enqueue(&varied(32));
            let v = view(&[100.0, 150.0, 80.0]);
            while s.unscheduled_len() > 0 {
                s.plan(&v);
            }
            (0..3)
                .map(|i| {
                    let mut ids = Vec::new();
                    while let Some(t) = s.next_task_for(ProcessorId(i)) {
                        ids.push(t.id);
                    }
                    ids
                })
                .collect::<Vec<_>>()
        };
        let serial = run(1);
        assert_eq!(serial.iter().map(Vec::len).sum::<usize>(), 32);
        assert_eq!(run(2), serial);
        assert_eq!(run(8), serial);
    }

    #[test]
    #[should_panic]
    fn zo_degenerate_islands_rejected() {
        let mut c = quick();
        c.islands = IslandConfig {
            islands: 4,
            migrants: 5, // >= population 20 / 4 islands
            ..IslandConfig::default()
        };
        let _ = Zomaya::new(2, c);
    }

    #[test]
    #[should_panic]
    fn zo_zero_elites_rejected() {
        let mut c = quick();
        c.seed_strategy = SeedStrategy::CarryOver { elites: 0 };
        let _ = Zomaya::new(2, c);
    }
}
