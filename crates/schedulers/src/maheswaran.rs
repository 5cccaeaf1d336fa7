//! Extension baselines from Maheswaran, Ali, Siegel, Hensgen & Freund,
//! *"Dynamic mapping of a class of independent tasks onto heterogeneous
//! computing systems"* (JPDC 1999) — the paper's reference \[11\] and the
//! source of its immediate/batch-mode taxonomy.
//!
//! The paper compares against EF/LL/RR and MM/MX/ZO; reference \[11\]
//! additionally defines three mappers that complete the family and are
//! implemented here as extensions (exercised by the `extra_baselines`
//! experiment):
//!
//! * [`Olb`] — opportunistic load balancing: assign each task to the
//!   machine expected to become *available* soonest, ignoring the task's
//!   execution time entirely.
//! * [`KPercentBest`] — for each task consider only the best `k` fraction
//!   of machines by execution speed, then pick the earliest finish among
//!   them; interpolates between MCT-style greed (k = 1) and strict
//!   fastest-machine affinity (k → 1/M).
//! * [`Sufferage`] — batch mode: repeatedly assign the task that would
//!   "suffer" most if denied its best machine (largest gap between its
//!   best and second-best completion time).

use std::collections::VecDeque;

use dts_model::{
    earliest_finish, PlanOutcome, ProcessorId, SchedulerMode, SystemView, Task, TaskQueues,
};

use crate::cost::{immediate_scan_cost, sorted_batch_cost};
use crate::queued::{MappingRule, Queued};

/// OLB — opportunistic load balancing (Maheswaran et al. §3.1).
///
/// Assigns each task to the machine with the earliest *ready time*
/// (current load drained at the estimated rate), without considering the
/// task's own cost on that machine. Simple, and notoriously mediocre on
/// heterogeneous clusters — included as the classic lower-end reference.
pub type Olb = Queued<EarliestReady>;

/// KPB — k-percent best (Maheswaran et al. §3.1).
///
/// For each task, restrict the candidate set to the `⌈k·M⌉` fastest
/// machines (by estimated rate), then assign earliest-finish among them.
/// Keeps fast machines from being clogged by work that slow machines could
/// absorb, at the risk of starving the slow ones.
pub type KPercentBest = Queued<Kpb>;

/// Sufferage (Maheswaran et al. §3.2): batch-mode mapping driven by how
/// much a task loses if it cannot have its best machine.
///
/// Per round: for every unassigned task compute its best and second-best
/// completion times over the machines; assign the task with the largest
/// *sufferage* (second-best − best) to its best machine; update that
/// machine's load; repeat. Complexity Θ(n²·M) per batch — the most
/// expensive heuristic here, and usually the strongest.
pub type Sufferage = Queued<Suf>;

/// OLB's mapping rule: each task to argminⱼ (queuedⱼ + in-flightⱼ)/Pⱼ.
#[derive(Default)]
pub struct EarliestReady;

impl MappingRule for EarliestReady {
    const NAME: &'static str = "OLB";
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
                (queues.queued_mflops(ProcessorId(j as u16)) + p.inflight_mflops) / rate
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

/// KPB's mapping rule: EF restricted to the best `k` fraction of machines.
pub struct Kpb {
    k: f64,
}

impl KPercentBest {
    /// Creates a KPB scheduler considering the best `k ∈ (0, 1]` fraction
    /// of machines per task (Maheswaran et al. found k ≈ 0.2 effective).
    pub fn new(n_procs: usize, k: f64) -> Self {
        assert!(k > 0.0 && k <= 1.0, "k must be in (0, 1]");
        Self::with_rule(n_procs, Kpb { k })
    }
}

impl MappingRule for Kpb {
    const NAME: &'static str = "KPB";
    const MODE: SchedulerMode = SchedulerMode::Immediate;

    fn map(
        &mut self,
        unscheduled: &mut VecDeque<Task>,
        queues: &mut TaskQueues,
        view: &SystemView,
    ) -> PlanOutcome {
        let m = view.processors.len();
        let n = unscheduled.len();
        // Candidate set: the ⌈k·M⌉ fastest machines by estimated rate.
        let keep = ((self.k * m as f64).ceil() as usize).clamp(1, m);
        let mut by_rate: Vec<usize> = (0..m).collect();
        by_rate.sort_by(|&a, &b| {
            view.processors[b]
                .rate_estimate
                .partial_cmp(&view.processors[a].rate_estimate)
                .expect("finite rates")
        });
        let candidates = &by_rate[..keep];

        while let Some(task) = unscheduled.pop_front() {
            let best = earliest_finish(candidates.iter().copied(), |j| {
                let p = &view.processors[j];
                let rate = p.rate_estimate.max(1e-9);
                (queues.queued_mflops(ProcessorId(j as u16)) + p.inflight_mflops + task.mflops)
                    / rate
            });
            queues.push(ProcessorId(best as u16), task);
        }
        PlanOutcome {
            tasks_assigned: n,
            compute_seconds: immediate_scan_cost(n, keep) + sorted_batch_cost(m, 1),
            generations: 0,
        }
    }
}

/// Sufferage's mapping rule.
pub struct Suf {
    batch_size: usize,
}

impl Default for Suf {
    fn default() -> Self {
        Self { batch_size: 200 }
    }
}

impl Sufferage {
    /// Creates a Sufferage scheduler with an explicit batch size (`new`
    /// takes the paper-family default of 200).
    pub fn with_batch_size(n_procs: usize, batch_size: usize) -> Self {
        assert!(batch_size > 0);
        Self::with_rule(n_procs, Suf { batch_size })
    }
}

impl MappingRule for Suf {
    const NAME: &'static str = "SUF";
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
        let mut pending: Vec<Task> = unscheduled.drain(..take).collect();
        let mut load: Vec<f64> = (0..m)
            .map(|j| {
                queues.queued_mflops(ProcessorId(j as u16)) + view.processors[j].inflight_mflops
            })
            .collect();

        while !pending.is_empty() {
            let mut pick = 0usize;
            let mut pick_best_proc = 0usize;
            let mut pick_sufferage = f64::NEG_INFINITY;
            for (t_idx, task) in pending.iter().enumerate() {
                let mut best = f64::INFINITY;
                let mut second = f64::INFINITY;
                let mut best_proc = 0usize;
                for (j, p) in view.processors.iter().enumerate() {
                    let rate = p.rate_estimate.max(1e-9);
                    let finish = (load[j] + task.mflops) / rate;
                    if finish < best {
                        second = best;
                        best = finish;
                        best_proc = j;
                    } else if finish < second {
                        second = finish;
                    }
                }
                // Single machine: sufferage degenerates to 0 everywhere.
                let sufferage = if second.is_finite() {
                    second - best
                } else {
                    0.0
                };
                if sufferage > pick_sufferage {
                    pick_sufferage = sufferage;
                    pick = t_idx;
                    pick_best_proc = best_proc;
                }
            }
            let task = pending.swap_remove(pick);
            load[pick_best_proc] += task.mflops;
            queues.push(ProcessorId(pick_best_proc as u16), task);
        }

        PlanOutcome {
            tasks_assigned: take,
            // Θ(n²·M): n rounds, each scanning every pending task × machine.
            compute_seconds: crate::cost::SECONDS_PER_OP * (take as f64 * take as f64 * m as f64),
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
            .map(|(i, &s)| Task::new(TaskId(i as u32), s, SimTime::ZERO))
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
    fn olb_ignores_task_size() {
        // OLB assigns to the machine with the earliest ready time; with
        // empty queues that is whichever comes first, regardless of rate
        // mismatch with the task.
        let mut s = Olb::new(2);
        s.enqueue(&tasks(&[1000.0, 1000.0]));
        s.plan(&view(&[10.0, 1000.0]));
        // Both machines ready at 0 → first task to P0 (slow!), then P0 is
        // loaded so the second goes to P1.
        assert_eq!(s.queued_len(ProcessorId(0)), 1);
        assert_eq!(s.queued_len(ProcessorId(1)), 1);
    }

    #[test]
    fn kpb_restricts_to_fast_machines() {
        // k = 0.5 over 4 machines → only the 2 fastest are candidates.
        let mut s = KPercentBest::new(4, 0.5);
        s.enqueue(&tasks(&[100.0; 12]));
        s.plan(&view(&[10.0, 20.0, 300.0, 400.0]));
        assert_eq!(s.queued_len(ProcessorId(0)), 0);
        assert_eq!(s.queued_len(ProcessorId(1)), 0);
        assert_eq!(
            s.queued_len(ProcessorId(2)) + s.queued_len(ProcessorId(3)),
            12
        );
    }

    #[test]
    fn kpb_full_k_equals_ef_behaviour() {
        let mut s = KPercentBest::new(2, 1.0);
        s.enqueue(&tasks(&[100.0; 8]));
        s.plan(&view(&[300.0, 100.0]));
        let fast = s.queued_mflops(ProcessorId(0));
        let slow = s.queued_mflops(ProcessorId(1));
        assert!(fast > slow, "k = 1 must weight by rate: {fast} vs {slow}");
    }

    #[test]
    #[should_panic]
    fn kpb_rejects_bad_k() {
        let _ = KPercentBest::new(2, 0.0);
    }

    #[test]
    fn sufferage_prioritises_contended_tasks() {
        // Two tasks both best on the single fast machine: the one that
        // suffers more from losing it must be mapped there.
        // P0: 100 Mflop/s, P1: 10 Mflop/s.
        // T0 (1000): best 10 s on P0, second 100 s → sufferage 90.
        // T1 (100):  best  1 s on P0, second  10 s → sufferage 9.
        let mut s = Sufferage::with_batch_size(2, 2);
        s.enqueue(&tasks(&[1000.0, 100.0]));
        s.plan(&view(&[100.0, 10.0]));
        // T0 grabs P0 first; then T1's best is re-evaluated with P0 loaded:
        // P0 finish (1000+100)/100 = 11 vs P1 finish 10 → T1 lands on P1.
        let head0 = s.next_task_for(ProcessorId(0)).unwrap();
        assert_eq!(head0.id, TaskId(0));
        let head1 = s.next_task_for(ProcessorId(1)).unwrap();
        assert_eq!(head1.id, TaskId(1));
    }

    #[test]
    fn sufferage_conserves_tasks() {
        let mut s = Sufferage::with_batch_size(3, 16);
        s.enqueue(&tasks(&[50.0; 40]));
        let v = view(&[100.0, 50.0, 25.0]);
        while s.unscheduled_len() > 0 {
            assert!(s.plan(&v).tasks_assigned > 0);
        }
        let total: usize = (0..3).map(|i| s.queued_len(ProcessorId(i))).sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn sufferage_single_machine_degenerates() {
        let mut s = Sufferage::with_batch_size(1, 8);
        s.enqueue(&tasks(&[10.0, 20.0, 30.0]));
        s.plan(&view(&[100.0]));
        assert_eq!(s.queued_len(ProcessorId(0)), 3);
    }

    #[test]
    fn modes_and_names() {
        assert_eq!(Olb::new(1).name(), "OLB");
        assert_eq!(KPercentBest::new(1, 0.5).name(), "KPB");
        assert_eq!(Sufferage::new(1).name(), "SUF");
        assert_eq!(Sufferage::new(1).mode(), SchedulerMode::Batch);
        assert_eq!(Olb::new(1).mode(), SchedulerMode::Immediate);
    }
}
