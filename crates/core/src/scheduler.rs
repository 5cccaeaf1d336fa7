//! [`PnScheduler`]: the paper's scheduler as a [`dts_model::Scheduler`].
//!
//! Operational behaviour (§3):
//!
//! * arriving tasks accumulate in a FCFS unscheduled queue;
//! * each [`plan`](PnScheduler::plan) invocation takes the next batch
//!   (dynamically sized, §3.7), runs the GA over it, and appends the winning
//!   assignment to the per-processor queues;
//! * the GA's generation budget is capped by the estimated time until the
//!   first processor idles (§3.4's third stopping condition), charged
//!   against the dedicated scheduler host through the
//!   [`GaTimeModel`](crate::time_model::GaTimeModel);
//! * communication-cost and execution-rate estimates arrive via the
//!   [`SystemView`], which the simulator maintains with the §3.6 smoothing
//!   function;
//! * the GA run itself — the per-call seed, and under
//!   [`SeedStrategy::CarryOver`](crate::config::SeedStrategy) the elites
//!   carried from the previous batch — belongs to the [`Planner`] the
//!   scheduler holds: the only state that persists across `plan` calls
//!   besides the queues, and itself a pure function of the seeds.

use std::collections::VecDeque;

use dts_model::{PlanOutcome, ProcessorId, Scheduler, SchedulerMode, SystemView, Task, TaskQueues};

use crate::batching::BatchSizer;
use crate::config::PnConfig;
use crate::fitness::ProcessorState;
use crate::plan::{PlanBudget, Planner};

/// The PN dynamic GA scheduler.
pub struct PnScheduler {
    planner: Planner,
    unscheduled: VecDeque<Task>,
    queues: TaskQueues,
    batch_sizer: BatchSizer,
    batches_planned: u64,
}

impl PnScheduler {
    /// Creates a scheduler for `n_procs` processors.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration or `n_procs == 0`.
    pub fn new(n_procs: usize, config: PnConfig) -> Self {
        assert!(n_procs > 0, "need at least one processor");
        let planner = Planner::new(config);
        let config = planner.config();
        let batch_sizer = BatchSizer::new(
            config.batch_nu,
            config.batch_scale,
            config.initial_batch,
            config.max_batch,
        );
        Self {
            planner,
            unscheduled: VecDeque::new(),
            queues: TaskQueues::new(n_procs),
            batch_sizer,
            batches_planned: 0,
        }
    }

    /// Number of batches planned so far.
    pub fn batches_planned(&self) -> u64 {
        self.batches_planned
    }

    /// The configuration in use.
    pub fn config(&self) -> &PnConfig {
        self.planner.config()
    }

    /// Builds the per-processor state vector the fitness function needs:
    /// `Lⱼ` = queued-at-scheduler + in-flight MFLOPs.
    fn processor_states(&self, view: &SystemView) -> Vec<ProcessorState> {
        view.processors
            .iter()
            .map(|p| ProcessorState {
                rate: p.rate_estimate.max(1e-9),
                existing_load_mflops: self.queues.queued_mflops(p.id) + p.inflight_mflops,
                comm_cost: if self.config().use_comm_estimates {
                    p.comm_estimate
                } else {
                    0.0
                },
            })
            .collect()
    }
}

impl Scheduler for PnScheduler {
    fn name(&self) -> &'static str {
        "PN"
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
        let config = self.planner.config();
        let rho = config.ga.population_size;
        let rebalances = config.rebalances_per_generation;

        // --- batch selection (FCFS prefix, dynamically sized, §3.7) ----
        let h = self
            .batch_sizer
            .next_batch_size()
            .min(self.unscheduled.len());
        let batch: Vec<Task> = self.unscheduled.drain(..h).collect();

        // --- generation budget from the idle horizon (§3.4) ------------
        let per_gen = config
            .time_model
            .seconds_per_generation(h, m, rho, rebalances);
        let budget = match view.seconds_until_first_idle {
            // A processor is already idle: compute the bare minimum.
            None => config.min_generations,
            Some(secs) => {
                let affordable = config
                    .time_model
                    .generations_within(secs, h, m, rho, rebalances);
                affordable.max(config.min_generations)
            }
        };

        // --- evolve ------------------------------------------------------
        let states = self.processor_states(view);
        let outcome = self
            .planner
            .plan(&batch, &states, PlanBudget::Generations(budget));

        // --- commit the winning assignment -------------------------------
        for (proc, queue) in outcome.queues.iter().enumerate() {
            let pid = ProcessorId(proc as u16);
            for &slot in queue {
                self.queues.push(pid, batch[slot as usize]);
            }
        }
        self.batches_planned += 1;

        // --- update the §3.7 idle-horizon signal -------------------------
        let s_p = view
            .processors
            .iter()
            .map(|p| {
                let load = self.queues.queued_mflops(p.id) + p.inflight_mflops;
                load / p.rate_estimate.max(1e-9)
            })
            .fold(f64::INFINITY, f64::min);
        if s_p.is_finite() {
            self.batch_sizer.observe_idle_horizon(s_p);
        }

        PlanOutcome {
            tasks_assigned: h,
            compute_seconds: per_gen * outcome.generations as f64,
            generations: outcome.generations,
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
    use crate::config::SeedStrategy;
    use dts_model::sched::ProcessorView;
    use dts_model::{SimTime, TaskId};

    fn tasks(n: usize, size: f64) -> Vec<Task> {
        (0..n)
            .map(|i| Task::new(TaskId(i as u32), size, SimTime::ZERO))
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
                    comm_estimate: 0.1,
                })
                .collect(),
            seconds_until_first_idle: Some(60.0),
        }
    }

    fn quick_config() -> PnConfig {
        let mut c = PnConfig::default();
        c.ga.max_generations = 50;
        c.initial_batch = 16;
        c
    }

    #[test]
    fn plan_assigns_a_batch() {
        let mut s = PnScheduler::new(3, quick_config());
        s.enqueue(&tasks(40, 100.0));
        assert_eq!(s.unscheduled_len(), 40);
        let out = s.plan(&view(&[100.0, 150.0, 80.0]));
        assert_eq!(out.tasks_assigned, 16);
        assert_eq!(s.unscheduled_len(), 24);
        let queued: usize = (0..3).map(|i| s.queued_len(ProcessorId(i))).sum();
        assert_eq!(queued, 16);
        assert!(out.compute_seconds > 0.0);
        assert!(out.generations > 0);
    }

    #[test]
    fn empty_plan_is_idle() {
        let mut s = PnScheduler::new(2, quick_config());
        assert_eq!(s.plan(&view(&[100.0, 100.0])), PlanOutcome::IDLE);
    }

    #[test]
    fn next_task_follows_queue_order() {
        let mut s = PnScheduler::new(2, quick_config());
        s.enqueue(&tasks(8, 50.0));
        s.plan(&view(&[100.0, 100.0]));
        let p0 = ProcessorId(0);
        let before = s.queued_len(p0);
        if before > 0 {
            let first = s.next_task_for(p0).unwrap();
            assert_eq!(s.queued_len(p0), before - 1);
            assert!(first.mflops > 0.0);
        }
        assert!(s.next_task_for(ProcessorId(1)).is_some() || s.queued_len(ProcessorId(1)) == 0);
    }

    #[test]
    fn idle_processor_shrinks_generations() {
        let mut hurried = PnScheduler::new(2, quick_config());
        hurried.enqueue(&tasks(16, 100.0));
        let mut v = view(&[100.0, 100.0]);
        v.seconds_until_first_idle = None; // someone is already idle
        let out = hurried.plan(&v);
        assert_eq!(out.generations, hurried.config().min_generations);
    }

    #[test]
    fn conservation_across_multiple_batches() {
        let mut s = PnScheduler::new(4, quick_config());
        s.enqueue(&tasks(100, 75.0));
        let v = view(&[100.0, 120.0, 90.0, 60.0]);
        while s.unscheduled_len() > 0 {
            s.plan(&v);
        }
        let mut popped = 0;
        for i in 0..4 {
            while s.next_task_for(ProcessorId(i)).is_some() {
                popped += 1;
            }
        }
        assert_eq!(popped, 100, "every task dispatched exactly once");
        // The dynamic sizer may grow batches beyond the initial 16, so the
        // batch count is only bounded, not exact.
        let batches = s.batches_planned();
        assert!((1..=7).contains(&batches), "batches = {batches}");
    }

    #[test]
    fn batch_size_adapts_over_time() {
        let mut s = PnScheduler::new(2, quick_config());
        s.enqueue(&tasks(500, 1000.0));
        let v = view(&[100.0, 100.0]);
        let first = s.plan(&v).tasks_assigned;
        let second = s.plan(&v).tasks_assigned;
        // After the first batch the sizer has a signal; with 1000-MFLOP
        // tasks on 100 Mflop/s processors the idle horizon is large, so the
        // batch should grow beyond the initial 16.
        assert_eq!(first, 16);
        assert!(second > first, "batch {second} should exceed {first}");
    }

    #[test]
    fn name_and_mode() {
        let s = PnScheduler::new(1, quick_config());
        assert_eq!(s.name(), "PN");
        assert_eq!(s.mode(), SchedulerMode::Batch);
    }

    /// Drains a scheduler's queues into per-processor task-id lists.
    fn drain_ids(s: &mut PnScheduler, n: usize) -> Vec<Vec<dts_model::TaskId>> {
        (0..n)
            .map(|i| {
                let mut ids = Vec::new();
                while let Some(t) = s.next_task_for(ProcessorId(i as u16)) {
                    ids.push(t.id);
                }
                ids
            })
            .collect()
    }

    /// Heterogeneous sizes: equal-size tasks make fresh and warm runs
    /// converge to the same plan, hiding carry-over effects.
    fn varied_tasks(n: usize) -> Vec<Task> {
        (0..n)
            .map(|i| {
                let size = 50.0 + (i as f64 * 37.0) % 400.0;
                Task::new(TaskId(i as u32), size, SimTime::ZERO)
            })
            .collect()
    }

    fn run_batches(mut cfg: PnConfig, batches: usize) -> Vec<Vec<dts_model::TaskId>> {
        cfg.initial_batch = 10;
        cfg.max_batch = 10;
        let mut s = PnScheduler::new(3, cfg);
        s.enqueue(&varied_tasks(10 * batches));
        let v = view(&[100.0, 150.0, 80.0]);
        for _ in 0..batches {
            s.plan(&v);
        }
        assert_eq!(s.unscheduled_len(), 0);
        drain_ids(&mut s, 3)
    }

    #[test]
    fn warm_start_is_deterministic_and_complete() {
        let cfg = || {
            let mut c = quick_config();
            c.seed_strategy = SeedStrategy::CarryOver { elites: 5 };
            c
        };
        let a = run_batches(cfg(), 4);
        let b = run_batches(cfg(), 4);
        assert_eq!(a, b, "warm-start runs must be bit-stable");
        let total: usize = a.iter().map(Vec::len).sum();
        assert_eq!(total, 40, "every task dispatched exactly once");
    }

    #[test]
    fn warm_start_changes_later_batches_only() {
        // The first batch has nothing to carry, so fresh and warm runs
        // coincide; from the second batch on the seeds (and RNG draw
        // counts) differ, so the plans may diverge.
        let fresh = run_batches(quick_config(), 4);
        let warm = run_batches(
            {
                let mut c = quick_config();
                c.seed_strategy = SeedStrategy::CarryOver { elites: 5 };
                c
            },
            4,
        );
        let total_fresh: usize = fresh.iter().map(Vec::len).sum();
        let total_warm: usize = warm.iter().map(Vec::len).sum();
        assert_eq!(total_fresh, 40);
        assert_eq!(total_warm, 40);
        assert_ne!(
            fresh, warm,
            "carry-over should alter the evolved plans after batch 1"
        );
    }

    #[test]
    fn fresh_strategy_never_retains_population() {
        let mut s = PnScheduler::new(2, quick_config());
        s.enqueue(&tasks(20, 100.0));
        let v = view(&[100.0, 100.0]);
        s.plan(&v);
        assert!(
            s.planner.carried().is_empty(),
            "Fresh must not accumulate state"
        );
        let mut c = quick_config();
        c.seed_strategy = SeedStrategy::CarryOver { elites: 3 };
        let mut s = PnScheduler::new(2, c);
        s.enqueue(&tasks(20, 100.0));
        s.plan(&v);
        let carried = s.planner.carried();
        assert_eq!(carried.len(), 1, "monolithic run carries one list");
        assert_eq!(carried[0].len(), 3, "only the elites are retained");
        assert!(carried[0].iter().all(|ch| ch.validate().is_ok()));
    }

    fn island_config() -> dts_ga::IslandConfig {
        dts_ga::IslandConfig {
            islands: 2,
            migration_interval: 5,
            migrants: 1,
            topology: dts_ga::Topology::Ring,
        }
    }

    #[test]
    fn island_warm_start_carries_one_list_per_island() {
        let mut c = quick_config().with_islands(island_config());
        c.seed_strategy = SeedStrategy::CarryOver { elites: 3 };
        let mut s = PnScheduler::new(3, c);
        s.enqueue(&varied_tasks(32));
        let v = view(&[100.0, 150.0, 80.0]);
        s.plan(&v);
        let carried = s.planner.carried();
        assert_eq!(carried.len(), 2, "one carried list per island");
        assert!(carried.iter().all(|isl| isl.len() == 3));
        assert!(carried.iter().flatten().all(|ch| ch.validate().is_ok()));
    }

    #[test]
    fn island_warm_start_survives_batch_shape_change_bit_stably() {
        // Regression (island warm-start across a shape change): batch 1
        // has 10 tasks, batch 2 only 6 — every island's elites must be
        // remapped independently onto the new shape, and the whole
        // lifecycle must stay bit-stable run to run.
        let run = || {
            let mut c = quick_config().with_islands(island_config());
            c.seed_strategy = SeedStrategy::CarryOver { elites: 3 };
            c.initial_batch = 10;
            c.max_batch = 10;
            let mut s = PnScheduler::new(3, c);
            s.enqueue(&varied_tasks(16));
            let v = view(&[100.0, 150.0, 80.0]);
            s.plan(&v); // 10-task batch
            let carried_shapes: Vec<usize> = s.planner.carried().iter().map(Vec::len).collect();
            while s.unscheduled_len() > 0 {
                s.plan(&v); // remaining 6 tasks: shape change
            }
            (carried_shapes, drain_ids(&mut s, 3))
        };
        let (shapes_a, ids_a) = run();
        let (shapes_b, ids_b) = run();
        assert_eq!(shapes_a, vec![3, 3], "both islands carried elites");
        assert_eq!(shapes_a, shapes_b);
        assert_eq!(ids_a, ids_b, "island warm-start must be bit-stable");
        let total: usize = ids_a.iter().map(Vec::len).sum();
        assert_eq!(total, 16, "every task dispatched exactly once");
    }

    #[test]
    fn island_plans_match_across_worker_counts() {
        let run = |workers: usize| {
            let mut c = quick_config()
                .with_islands(island_config())
                .with_eval_workers(workers);
            c.seed_strategy = SeedStrategy::CarryOver { elites: 3 };
            c.initial_batch = 12;
            c.max_batch = 12;
            let mut s = PnScheduler::new(3, c);
            s.enqueue(&varied_tasks(24));
            let v = view(&[100.0, 150.0, 80.0]);
            while s.unscheduled_len() > 0 {
                s.plan(&v);
            }
            drain_ids(&mut s, 3)
        };
        let serial = run(1);
        assert_eq!(run(2), serial);
        assert_eq!(run(8), serial);
    }
}
