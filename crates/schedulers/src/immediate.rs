//! The three immediate-mode schedulers (§4.1): EF, LL, RR.
//!
//! "An immediate mode scheduler only considers a single task for scheduling
//! on a FCFS basis." Each `plan` call drains the whole unscheduled queue
//! one task at a time — matching how an immediate scheduler reacts the
//! moment a task arrives — and charges the per-decision cost model.

use std::collections::VecDeque;

use dts_model::{
    earliest_finish, PlanOutcome, ProcessorId, SchedulerMode, SystemView, Task, TaskQueues,
};

use crate::cost::{immediate_scan_cost, round_robin_cost};
use crate::queued::{MappingRule, Queued};

/// EF — earliest finish.
///
/// "When a task is presented for processing, the scheduler considers the
/// existing load on each processor and allocates the task to the processor
/// which will finish processing it the earliest."
pub type EarliestFinish = Queued<Ef>;

/// LL — lightest loaded.
///
/// "Allocates tasks to the processor with the lowest current load, measured
/// in our case as MFLOPs. It does not consider the size of a task when
/// scheduling it" — nor the processors' speeds, which is what separates it
/// from EF on heterogeneous clusters.
pub type LightestLoaded = Queued<Ll>;

/// RR — round robin.
///
/// "Tasks are assigned to processors in a round robin fashion. No load or
/// task information is used when making a scheduling decision."
pub type RoundRobin = Queued<Rr>;

/// EF's mapping rule: each task to argminⱼ (queuedⱼ + in-flightⱼ + t)/Pⱼ.
#[derive(Default)]
pub struct Ef;

impl MappingRule for Ef {
    const NAME: &'static str = "EF";
    const MODE: SchedulerMode = SchedulerMode::Immediate;

    fn map(
        &mut self,
        unscheduled: &mut VecDeque<Task>,
        queues: &mut TaskQueues,
        view: &SystemView,
    ) -> PlanOutcome {
        let m = view.processors.len();
        let n = unscheduled.len();
        while let Some(task) = unscheduled.pop_front() {
            let best = earliest_finish(0..m, |j| {
                let p = &view.processors[j];
                let rate = p.rate_estimate.max(1e-9);
                (queues.queued_mflops(ProcessorId(j as u16)) + p.inflight_mflops + task.mflops)
                    / rate
            });
            queues.push(ProcessorId(best as u16), task);
        }
        PlanOutcome {
            tasks_assigned: n,
            compute_seconds: immediate_scan_cost(n, m),
            generations: 0,
        }
    }
}

/// LL's mapping rule: each task to argminⱼ (queuedⱼ + in-flightⱼ).
#[derive(Default)]
pub struct Ll;

impl MappingRule for Ll {
    const NAME: &'static str = "LL";
    const MODE: SchedulerMode = SchedulerMode::Immediate;

    fn map(
        &mut self,
        unscheduled: &mut VecDeque<Task>,
        queues: &mut TaskQueues,
        view: &SystemView,
    ) -> PlanOutcome {
        let m = view.processors.len();
        let n = unscheduled.len();
        while let Some(task) = unscheduled.pop_front() {
            let best = earliest_finish(0..m, |j| {
                queues.queued_mflops(ProcessorId(j as u16)) + view.processors[j].inflight_mflops
            });
            queues.push(ProcessorId(best as u16), task);
        }
        PlanOutcome {
            tasks_assigned: n,
            compute_seconds: immediate_scan_cost(n, m),
            generations: 0,
        }
    }
}

/// RR's mapping rule: each task to the processor after the last one used,
/// cycling across plan calls.
#[derive(Default)]
pub struct Rr {
    next: usize,
}

impl MappingRule for Rr {
    const NAME: &'static str = "RR";
    const MODE: SchedulerMode = SchedulerMode::Immediate;

    fn map(
        &mut self,
        unscheduled: &mut VecDeque<Task>,
        queues: &mut TaskQueues,
        view: &SystemView,
    ) -> PlanOutcome {
        let m = view.processors.len();
        let n = unscheduled.len();
        while let Some(task) = unscheduled.pop_front() {
            queues.push(ProcessorId(self.next as u16), task);
            self.next = (self.next + 1) % m;
        }
        PlanOutcome {
            tasks_assigned: n,
            compute_seconds: round_robin_cost(n),
            generations: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_model::sched::ProcessorView;
    use dts_model::Scheduler;
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
                    comm_estimate: 0.0,
                })
                .collect(),
            seconds_until_first_idle: Some(60.0),
        }
    }

    #[test]
    fn ef_prefers_fast_processor() {
        let mut s = EarliestFinish::new(2);
        s.enqueue(&tasks(&[100.0]));
        s.plan(&view(&[400.0, 100.0]));
        assert_eq!(s.queued_len(ProcessorId(0)), 1);
        assert_eq!(s.queued_len(ProcessorId(1)), 0);
    }

    #[test]
    fn ef_balances_over_time() {
        let mut s = EarliestFinish::new(2);
        s.enqueue(&tasks(&[100.0; 10]));
        s.plan(&view(&[100.0, 100.0]));
        assert_eq!(s.queued_len(ProcessorId(0)), 5);
        assert_eq!(s.queued_len(ProcessorId(1)), 5);
    }

    #[test]
    fn ef_weights_by_rate() {
        // A 3× faster processor should receive about 3× the MFLOPs.
        let mut s = EarliestFinish::new(2);
        s.enqueue(&tasks(&[50.0; 80]));
        s.plan(&view(&[300.0, 100.0]));
        let fast = s.queued_mflops(ProcessorId(0));
        let slow = s.queued_mflops(ProcessorId(1));
        assert!((fast / slow - 3.0).abs() < 0.3, "{fast} vs {slow}");
    }

    #[test]
    fn ll_ignores_rates() {
        // LL balances MFLOPs regardless of speed: equal loads even with
        // wildly different processors.
        let mut s = LightestLoaded::new(2);
        s.enqueue(&tasks(&[100.0; 10]));
        s.plan(&view(&[1000.0, 10.0]));
        assert_eq!(s.queued_mflops(ProcessorId(0)), 500.0);
        assert_eq!(s.queued_mflops(ProcessorId(1)), 500.0);
    }

    #[test]
    fn rr_cycles() {
        let mut s = RoundRobin::new(3);
        s.enqueue(&tasks(&[1.0, 2.0, 3.0, 4.0]));
        s.plan(&view(&[100.0, 100.0, 100.0]));
        assert_eq!(s.queued_len(ProcessorId(0)), 2);
        assert_eq!(s.queued_len(ProcessorId(1)), 1);
        assert_eq!(s.queued_len(ProcessorId(2)), 1);
        // Cycle position persists across plan() calls.
        s.enqueue(&tasks(&[5.0, 6.0]));
        s.plan(&view(&[100.0, 100.0, 100.0]));
        assert_eq!(s.queued_len(ProcessorId(1)), 2);
        assert_eq!(s.queued_len(ProcessorId(2)), 2);
    }

    #[test]
    fn fifo_dispatch_order() {
        let mut s = RoundRobin::new(1);
        s.enqueue(&tasks(&[1.0, 2.0, 3.0]));
        s.plan(&view(&[100.0]));
        assert_eq!(s.next_task_for(ProcessorId(0)).unwrap().id, TaskId(0));
        assert_eq!(s.next_task_for(ProcessorId(0)).unwrap().id, TaskId(1));
        assert_eq!(s.next_task_for(ProcessorId(0)).unwrap().id, TaskId(2));
        assert_eq!(s.next_task_for(ProcessorId(0)), None);
    }

    #[test]
    fn plan_outcome_accounting() {
        let mut s = EarliestFinish::new(4);
        s.enqueue(&tasks(&[1.0; 10]));
        let out = s.plan(&view(&[100.0; 4]));
        assert_eq!(out.tasks_assigned, 10);
        assert!(out.compute_seconds > 0.0);
        assert_eq!(out.generations, 0);
        assert_eq!(s.unscheduled_len(), 0);
    }

    #[test]
    fn modes_and_names() {
        assert_eq!(EarliestFinish::new(1).name(), "EF");
        assert_eq!(LightestLoaded::new(1).name(), "LL");
        assert_eq!(RoundRobin::new(1).name(), "RR");
        assert_eq!(RoundRobin::new(1).mode(), SchedulerMode::Immediate);
    }
}
