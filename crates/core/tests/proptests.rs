//! Property tests for the PN scheduler's components: fitness sanity,
//! rebalance safety, warm-start remapping, and whole-batch conservation.

use dts_core::fitness::{BatchProblem, ProcessorState};
use dts_core::init::{initial_population, list_scheduled_individual, remap_elite};
use dts_core::rebalance::rebalance_once;
use dts_core::{plan_batch, PlanRequest, PnConfig};
use dts_distributions::Prng;
use dts_ga::Problem;
use dts_model::{SimTime, Task, TaskId};
use proptest::prelude::*;

fn tasks_strategy() -> impl Strategy<Value = Vec<Task>> {
    proptest::collection::vec(1.0..5000.0f64, 1..60).prop_map(|sizes| {
        sizes
            .into_iter()
            .enumerate()
            .map(|(i, s)| Task::new(TaskId(i as u32), s, SimTime::ZERO))
            .collect()
    })
}

fn procs_strategy() -> impl Strategy<Value = Vec<ProcessorState>> {
    proptest::collection::vec((5.0..200.0f64, 0.0..5000.0f64, 0.0..30.0f64), 1..12).prop_map(
        |specs| {
            specs
                .into_iter()
                .map(|(rate, load, comm)| ProcessorState {
                    rate,
                    existing_load_mflops: load,
                    comm_cost: comm,
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fitness is always finite and in (0, 1]; makespan is at least δ_max
    /// and at least the work lower bound of whichever processor hosts it.
    #[test]
    fn fitness_and_makespan_bounds(
        batch in tasks_strategy(),
        procs in procs_strategy(),
        frac in 0.0..=1.0f64,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = PnConfig::default();
        let problem = BatchProblem::new(&batch, &procs, &cfg);
        let mut rng = Prng::seed_from(seed);
        let c = list_scheduled_individual(&batch, &procs, frac, &mut rng);
        let f = problem.fitness(&c);
        prop_assert!(f.is_finite() && f > 0.0 && f <= 1.0, "fitness {f}");
        let ms = problem.makespan(&c);
        let max_delta = procs.iter().map(ProcessorState::delta).fold(0.0f64, f64::max);
        prop_assert!(ms + 1e-9 >= max_delta, "makespan {ms} below existing load {max_delta}");
        prop_assert!(ms.is_finite());
    }

    /// The rebalancing heuristic never loses tasks and never decreases
    /// fitness (keep-if-fitter).
    #[test]
    fn rebalance_safe(
        batch in tasks_strategy(),
        procs in procs_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let cfg = PnConfig::default();
        let problem = BatchProblem::new(&batch, &procs, &cfg);
        let mut rng = Prng::seed_from(seed);
        let mut c = list_scheduled_individual(&batch, &procs, 0.8, &mut rng);
        let mut fitness = problem.fitness(&c);
        let mut completions = Vec::new();
        problem.completion_times(&c, &mut completions);
        for _ in 0..16 {
            if let Some(nf) = rebalance_once(&problem, &mut c, fitness, &mut completions, 5, &mut rng) {
                prop_assert!(nf >= fitness);
                fitness = nf;
            }
            prop_assert!(c.validate().is_ok());
            // The maintained completion times must track the full walk
            // bit-for-bit — they feed the fitness memo and delta paths.
            let mut fresh = Vec::new();
            problem.completion_times(&c, &mut fresh);
            for (a, b) in completions.iter().zip(&fresh) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Delta-evaluation of an arbitrary gene swap is bit-identical to a
    /// full `evaluate_into` walk — fitness, makespan, and every completion
    /// time — whenever the delta path accepts the edit.
    #[test]
    fn swap_delta_matches_full_walk(
        batch in tasks_strategy(),
        procs in procs_strategy(),
        frac in 0.0..=1.0f64,
        seed in 0u64..u64::MAX,
        swaps in proptest::collection::vec((0usize..4096, 0usize..4096), 1..40),
    ) {
        let cfg = PnConfig::default();
        let problem = BatchProblem::new(&batch, &procs, &cfg);
        let mut rng = Prng::seed_from(seed);
        let mut c = list_scheduled_individual(&batch, &procs, frac, &mut rng);
        let mut completions = Vec::new();
        problem.evaluate_into(&c, &mut completions);
        for (a, b) in swaps {
            let len = c.genes().len();
            let (i, j) = (a % len, b % len);
            c.genes_swap(i, j);
            let mut fresh = Vec::new();
            let (ff, fms) = problem.evaluate_into(&c, &mut fresh);
            match problem.evaluate_swap_delta(&c, i, j, &mut completions) {
                Some((df, dms)) => {
                    prop_assert_eq!(df.to_bits(), ff.to_bits(), "fitness drift");
                    prop_assert_eq!(dms.to_bits(), fms.to_bits(), "makespan drift");
                    for (x, y) in completions.iter().zip(&fresh) {
                        prop_assert_eq!(x.to_bits(), y.to_bits(), "completion drift");
                    }
                }
                None => completions = fresh,
            }
        }
    }

    /// The fitness memo changes nothing observable: a batch run with the
    /// memo disabled is bit-identical to one with it enabled, at one worker
    /// or several.
    #[test]
    fn memo_on_off_and_workers_bit_identical(
        batch in tasks_strategy(),
        procs in procs_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let mut base = PnConfig::default();
        base.ga.max_generations = 8;
        let mut memo_off = base.clone();
        memo_off.ga.memo_capacity = 0;
        let mut memo_on_parallel = base.clone();
        memo_on_parallel.ga.evaluator = dts_ga::Evaluator::ThreadPool { workers: 4 };
        let reference = plan_batch(&PlanRequest::new(&batch, &procs, seed), &base);
        for cfg in [&memo_off, &memo_on_parallel] {
            let run = plan_batch(&PlanRequest::new(&batch, &procs, seed), cfg);
            prop_assert_eq!(&run.queues, &reference.queues);
            prop_assert_eq!(run.best_fitness.to_bits(), reference.best_fitness.to_bits());
            prop_assert_eq!(run.best_makespan.to_bits(), reference.best_makespan.to_bits());
        }
    }

    /// The initial population is always valid and sized as requested.
    #[test]
    fn initial_population_valid(
        batch in tasks_strategy(),
        procs in procs_strategy(),
        pop in 1usize..30,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Prng::seed_from(seed);
        let p = initial_population(&batch, &procs, pop, (0.0, 1.0), &mut rng);
        prop_assert_eq!(p.len(), pop);
        for c in &p {
            prop_assert!(c.validate().is_ok());
            prop_assert_eq!(c.n_tasks() as usize, batch.len());
        }
    }

    /// Remapping a carried elite onto an arbitrary new batch/cluster shape
    /// always yields a valid chromosome — the carry-over lifecycle can
    /// never inject a corrupt individual into the next GA run.
    #[test]
    fn remap_elite_always_valid(
        old_batch in tasks_strategy(),
        old_procs in procs_strategy(),
        new_batch in tasks_strategy(),
        new_procs in procs_strategy(),
        frac in 0.0..=1.0f64,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Prng::seed_from(seed);
        let prev = list_scheduled_individual(&old_batch, &old_procs, frac, &mut rng);
        let c = remap_elite(&prev, &new_batch, &new_procs);
        prop_assert!(c.validate().is_ok(), "{:?}", c.validate());
        prop_assert_eq!(c.n_tasks() as usize, new_batch.len());
        prop_assert_eq!(c.n_procs() as usize, new_procs.len());
    }

    /// A warm-started batch run conserves tasks exactly like a fresh one,
    /// whatever shape the carried seeds came from.
    #[test]
    fn schedule_batch_warm_conserves_tasks(
        old_batch in tasks_strategy(),
        batch in tasks_strategy(),
        procs in procs_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let mut cfg = PnConfig::default();
        cfg.ga.max_generations = 10;
        let mut rng = Prng::seed_from(seed ^ 0x5EED);
        let prev = list_scheduled_individual(&old_batch, &procs, 0.5, &mut rng);
        let warm = vec![remap_elite(&prev, &batch, &procs)];
        let out = plan_batch(&PlanRequest::new(&batch, &procs, seed).with_warm_seeds(&warm), &cfg);
        let mut seen: Vec<u32> = out.queues.iter().flatten().copied().collect();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..batch.len() as u32).collect();
        prop_assert_eq!(seen, expect);
    }

    /// A whole batch run assigns every task exactly once, regardless of
    /// shapes and seeds.
    #[test]
    fn schedule_batch_conserves_tasks(
        batch in tasks_strategy(),
        procs in procs_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let mut cfg = PnConfig::default();
        cfg.ga.max_generations = 10;
        let out = plan_batch(&PlanRequest::new(&batch, &procs, seed), &cfg);
        let mut seen: Vec<u32> = out.queues.iter().flatten().copied().collect();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..batch.len() as u32).collect();
        prop_assert_eq!(seen, expect);
        prop_assert!(out.best_makespan.is_finite());
        prop_assert!(out.best_fitness > 0.0 && out.best_fitness <= 1.0);
    }
}
