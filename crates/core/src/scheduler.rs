//! [`PnScheduler`]: the paper's scheduler as a [`dts_model::Scheduler`] —
//! and, configured with [`PnConfig::zo_preset`], the ZO baseline.
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
//! * processor states, the GA run, its per-call seed and the commit to
//!   the per-processor queues belong to the [`Planner`] the scheduler
//!   holds, the same one the online server plans through; what is left
//!   here is the scheduler's own policy: the FCFS queue, the §3.7 sizer
//!   and the §3.4 budget.

use std::collections::VecDeque;

use dts_model::{PlanOutcome, ProcessorId, Scheduler, SchedulerMode, SystemView, Task};

use crate::batching::BatchSizer;
use crate::config::PnConfig;
use crate::plan::{PlanBudget, Planner};

/// The PN dynamic GA scheduler.
pub struct PnScheduler {
    planner: Planner,
    unscheduled: VecDeque<Task>,
    batch_sizer: BatchSizer,
}

impl PnScheduler {
    /// Creates a scheduler for `n_procs` processors.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration or `n_procs == 0`.
    pub fn new(n_procs: usize, config: PnConfig) -> Self {
        let planner = Planner::new(n_procs, config);
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
            batch_sizer,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PnConfig {
        self.planner.config()
    }
}

impl Scheduler for PnScheduler {
    /// `"PN"`, or `"ZO"` under [`PnConfig::zo_preset`]: the objective is
    /// what tells the two GA schedulers apart.
    fn name(&self) -> &'static str {
        self.config().fitness.label()
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

        // --- evolve and commit -------------------------------------------
        let outcome = self
            .planner
            .plan(&batch, &view.processors, PlanBudget::Generations(budget));

        // --- update the §3.7 idle-horizon signal -------------------------
        let s_p = view
            .processors
            .iter()
            .map(|p| {
                let load = self.planner.queues().queued_mflops(p.id) + p.inflight_mflops;
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
        self.planner.pop(p)
    }

    fn queued_len(&self, p: ProcessorId) -> usize {
        self.planner.queues().queued_len(p)
    }

    fn queued_mflops(&self, p: ProcessorId) -> f64 {
        self.planner.queues().queued_mflops(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn zo_preset_plans_fixed_batches_whatever_the_idle_horizon() {
        let mut cfg = PnConfig::zo_preset();
        cfg.ga.max_generations = 60;
        let mut s = PnScheduler::new(2, cfg);
        assert_eq!(s.name(), "ZO");
        assert_eq!(s.mode(), SchedulerMode::Batch);
        s.enqueue(&tasks(900, 10.0)); // four full batches, then 100
        let mut v = view(&[300.0, 100.0]);
        for horizon in [Some(1.0), Some(60.0), Some(1e6), None, Some(1.0)] {
            v.seconds_until_first_idle = horizon;
            let want = s.unscheduled_len().min(200);
            assert_eq!(s.plan(&v).tasks_assigned, want, "horizon {horizon:?}");
        }
        assert_eq!(s.unscheduled_len(), 0);
        // The makespan-only GA still balances the heterogeneous pair.
        let (fast, slow) = (
            s.queued_mflops(ProcessorId(0)),
            s.queued_mflops(ProcessorId(1)),
        );
        assert!(fast > slow, "3× processor got {fast} vs {slow} MFLOPs");
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

    /// Heterogeneous sizes, so that distinct schedules rarely tie.
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
    fn multi_batch_runs_are_deterministic_and_complete() {
        let a = run_batches(quick_config(), 4);
        let b = run_batches(quick_config(), 4);
        assert_eq!(a, b, "multi-batch runs must be bit-stable");
        let total: usize = a.iter().map(Vec::len).sum();
        assert_eq!(total, 40, "every task dispatched exactly once");
    }
}
