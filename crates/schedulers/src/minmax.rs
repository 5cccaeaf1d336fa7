//! The sorted-batch heuristics MM (min-min) and MX (max-min) of §4.1.
//!
//! > "The max-min (MX) scheduler is a batch mode heuristic scheduler. It
//! > takes batches of tasks on a FCFS basis. These tasks are then sorted
//! > according to task size in a descending order. The largest task is then
//! > allocated to the processor that will finish processing it first (same
//! > as EF). This is repeated until the batch is empty … The min-min (MM)
//! > scheduler is similar to the MX scheduler, except tasks are sorted in
//! > ascending order according to size."

use std::collections::VecDeque;

use dts_model::{
    earliest_finish, PlanOutcome, ProcessorId, SchedulerMode, SystemView, Task, TaskQueues,
};

use crate::cost::sorted_batch_cost;
use crate::queued::{MappingRule, Queued};

/// MX — max-min: largest tasks first, each to its earliest-finish
/// processor.
pub type MaxMin = Queued<SortedBatch<true>>;

/// MM — min-min: smallest tasks first, each to its earliest-finish
/// processor.
pub type MinMin = Queued<SortedBatch<false>>;

/// The rule MM and MX share: take a batch off the front of the queue, sort
/// it by size (descending when `DESCENDING`), and place each task on its
/// earliest-finish processor.
pub struct SortedBatch<const DESCENDING: bool> {
    batch_size: usize,
}

impl<const DESCENDING: bool> Default for SortedBatch<DESCENDING> {
    fn default() -> Self {
        Self { batch_size: 200 }
    }
}

impl<const DESCENDING: bool> Queued<SortedBatch<DESCENDING>> {
    /// Creates the scheduler with an explicit batch size.
    pub fn with_batch_size(n_procs: usize, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be ≥ 1");
        Self::with_rule(n_procs, SortedBatch { batch_size })
    }
}

impl<const DESCENDING: bool> MappingRule for SortedBatch<DESCENDING> {
    const NAME: &'static str = if DESCENDING { "MX" } else { "MM" };
    const MODE: SchedulerMode = SchedulerMode::Batch;

    fn map(
        &mut self,
        unscheduled: &mut VecDeque<Task>,
        queues: &mut TaskQueues,
        view: &SystemView,
    ) -> PlanOutcome {
        let m = view.processors.len();
        let take = self.batch_size.min(unscheduled.len());
        if take == 0 {
            return PlanOutcome::IDLE;
        }
        let mut batch: Vec<Task> = unscheduled.drain(..take).collect();
        if DESCENDING {
            batch.sort_by(|a, b| b.mflops.partial_cmp(&a.mflops).expect("finite sizes"));
        } else {
            batch.sort_by(|a, b| a.mflops.partial_cmp(&b.mflops).expect("finite sizes"));
        }
        // Track assigned load locally so successive decisions see each
        // other (the "gaps" the paper describes filling).
        let mut load: Vec<f64> = (0..m)
            .map(|j| {
                queues.queued_mflops(ProcessorId(j as u16)) + view.processors[j].inflight_mflops
            })
            .collect();
        for task in batch {
            let best = earliest_finish(0..m, |j| {
                (load[j] + task.mflops) / view.processors[j].rate_estimate.max(1e-9)
            });
            load[best] += task.mflops;
            queues.push(ProcessorId(best as u16), task);
        }
        PlanOutcome {
            tasks_assigned: take,
            compute_seconds: sorted_batch_cost(take, m),
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
    fn mx_dispatches_largest_first() {
        let mut s = MaxMin::new(2);
        s.enqueue(&tasks(&[10.0, 500.0, 50.0]));
        s.plan(&view(&[100.0, 100.0]));
        // The 500 task is placed first; heads of the queues are the two
        // largest tasks.
        let head0 = s.next_task_for(ProcessorId(0)).unwrap();
        let head1 = s.next_task_for(ProcessorId(1)).unwrap();
        let mut heads = [head0.mflops, head1.mflops];
        heads.sort_by(f64::total_cmp);
        assert_eq!(heads, [50.0, 500.0]);
    }

    #[test]
    fn mm_dispatches_smallest_first() {
        let mut s = MinMin::new(1);
        s.enqueue(&tasks(&[10.0, 500.0, 50.0]));
        s.plan(&view(&[100.0]));
        assert_eq!(s.next_task_for(ProcessorId(0)).unwrap().mflops, 10.0);
        assert_eq!(s.next_task_for(ProcessorId(0)).unwrap().mflops, 50.0);
        assert_eq!(s.next_task_for(ProcessorId(0)).unwrap().mflops, 500.0);
    }

    #[test]
    fn batch_boundary_respected() {
        let mut s = MinMin::with_batch_size(2, 4);
        s.enqueue(&tasks(&[1.0; 10]));
        let out = s.plan(&view(&[100.0, 100.0]));
        assert_eq!(out.tasks_assigned, 4);
        assert_eq!(s.unscheduled_len(), 6);
        let out = s.plan(&view(&[100.0, 100.0]));
        assert_eq!(out.tasks_assigned, 4);
        let out = s.plan(&view(&[100.0, 100.0]));
        assert_eq!(out.tasks_assigned, 2);
        assert_eq!(s.unscheduled_len(), 0);
    }

    #[test]
    fn loads_balance_on_heterogeneous_rates() {
        let mut s = MaxMin::new(2);
        s.enqueue(&tasks(&[100.0; 40]));
        s.plan(&view(&[300.0, 100.0]));
        let fast = s.queued_mflops(ProcessorId(0));
        let slow = s.queued_mflops(ProcessorId(1));
        assert!(fast > slow, "faster processor should carry more");
        assert_eq!(fast + slow, 4000.0);
    }

    #[test]
    fn mx_packs_large_tasks_better_than_mm_on_mixed_batches() {
        // Classic property: with one huge task among many small ones,
        // max-min places the huge task first and fills the other processor
        // with the small ones, while min-min spreads the small ones evenly
        // and then strands the huge one on top. 20 × 10 + 200 MFLOPs over
        // two 100 Mflop/s processors: MX 2 s (200 | 20 × 10), MM 3 s
        // (100 | 100 + 200).
        let sizes: Vec<f64> = std::iter::repeat_n(10.0, 20).chain([200.0]).collect();
        let rates = [100.0, 100.0];
        let makespan = |s: &mut dyn Scheduler| {
            s.enqueue(&tasks(&sizes));
            s.plan(&view(&rates));
            (0..2)
                .map(|j| s.queued_mflops(ProcessorId(j as u16)) / rates[j])
                .fold(0.0f64, f64::max)
        };
        let mx = makespan(&mut MaxMin::new(2));
        let mm = makespan(&mut MinMin::new(2));
        assert!(mx < mm, "MX makespan {mx} s not below MM's {mm} s");
    }

    #[test]
    fn empty_plan_is_idle() {
        let mut s = MinMin::new(2);
        assert_eq!(s.plan(&view(&[100.0, 100.0])), PlanOutcome::IDLE);
    }

    #[test]
    fn names_and_modes() {
        assert_eq!(MaxMin::new(1).name(), "MX");
        assert_eq!(MinMin::new(1).name(), "MM");
        assert_eq!(MinMin::new(1).mode(), SchedulerMode::Batch);
    }

    #[test]
    #[should_panic]
    fn zero_batch_rejected() {
        let _ = MinMin::with_batch_size(1, 0);
    }
}
