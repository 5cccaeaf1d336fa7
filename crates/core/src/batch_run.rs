//! [`BatchOutcome`]: what one plan call returns.
//!
//! Besides the winning schedule it carries the full GA result, which two
//! of the paper's experiments read directly:
//!
//! * **Fig. 3** runs the GA on one batch for 1000 generations and reads
//!   the best makespan per generation from `ga.history`;
//! * **Fig. 4** measures the wall-clock time of GA runs with 0–20
//!   rebalances per generation.
//!
//! The run itself is [`crate::plan::plan_batch`]; the tests below pin its
//! one-batch behaviour.

use dts_ga::{Chromosome, GaResult, IslandResult};

/// Everything a one-batch GA run produces.
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
    pub(crate) fn from_ensemble(mut result: IslandResult) -> Self {
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
    pub(crate) fn take_elites(&mut self, elites: usize) -> Vec<Vec<Chromosome>> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PnConfig;
    use crate::fitness::ProcessorState;
    use crate::plan::{plan_batch, PlanBudget, PlanRequest};
    use dts_model::{SimTime, Task, TaskId};

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
        let mut seen: Vec<u32> = out.queues.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
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
        let mut seen: Vec<u32> = out.queues.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
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
