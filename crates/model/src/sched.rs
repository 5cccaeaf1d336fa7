//! The scheduler interface shared by every scheduler.
//!
//! §3 of the paper fixes the operational protocol:
//!
//! * arriving tasks are placed in a **queue of unscheduled tasks** at the
//!   scheduler;
//! * the scheduler (running on its own dedicated processor) repeatedly maps
//!   tasks from that queue into **per-processor queues held at the
//!   scheduler** — a processor does *not* hold its own queue, "because
//!   network resources are limited and processing resources are not
//!   dedicated";
//! * each **idle processor requests a task**; the scheduler replies with the
//!   head of that processor's queue.
//!
//! [`Scheduler`] captures exactly this protocol; the simulator drives it and
//! charges the returned [`PlanOutcome::compute_seconds`] against the
//! dedicated scheduler host. [`TaskQueues`] implements the per-processor
//! queue bookkeeping every scheduler needs, and [`earliest_finish`] the
//! "processor that will finish it earliest" step most of them share.

use std::collections::VecDeque;

use crate::processor::ProcessorId;
use crate::task::Task;
use crate::time::SimTime;

/// Immediate-mode vs batch-mode classification (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerMode {
    /// Considers a single task at a time on a FCFS basis (EF, LL, RR).
    Immediate,
    /// Considers a batch of tasks at once (MM, MX, ZO, PN).
    Batch,
}

/// What one scheduler invocation did, and what it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanOutcome {
    /// Tasks moved from the unscheduled queue into per-processor queues.
    pub tasks_assigned: usize,
    /// Simulated seconds the dedicated scheduler host spent computing the
    /// plan. Immediate-mode heuristics are nearly free; GA schedulers pay
    /// per generation (see `dts-core`'s time model).
    pub compute_seconds: f64,
    /// GA generations evolved (0 for heuristic schedulers); recorded so
    /// experiments can report convergence behaviour.
    pub generations: u32,
}

impl PlanOutcome {
    /// An invocation that did nothing at no cost.
    pub const IDLE: PlanOutcome = PlanOutcome {
        tasks_assigned: 0,
        compute_seconds: 0.0,
        generations: 0,
    };
}

/// A read-only snapshot of what the scheduler is allowed to know about each
/// processor when planning.
///
/// Crucially, these are *estimates*: the execution rate is the smoothed
/// value of rates reported by completed tasks (initialised from the Linpack
/// rating), and `comm_estimate` is the smoothed observed message cost for
/// the link — the paper's Γ function applied to history (§3.6). The
/// simulator never leaks instantaneous ground truth to the schedulers.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorView {
    /// Which processor this describes.
    pub id: ProcessorId,
    /// Estimated current execution rate in Mflop/s (> 0).
    pub rate_estimate: f64,
    /// MFLOPs dispatched to this processor and not yet completed (the
    /// in-flight task plus anything in transit).
    pub inflight_mflops: f64,
    /// Smoothed one-way communication cost estimate for this link, seconds.
    pub comm_estimate: f64,
}

/// Snapshot of the system at a scheduling decision point.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemView {
    /// Current simulated time.
    pub now: SimTime,
    /// Per-processor estimates, indexed by `ProcessorId`.
    pub processors: Vec<ProcessorView>,
    /// Estimated seconds until the first processor becomes idle, if every
    /// queue drains at the estimated rates. `None` when a processor is
    /// *already* idle — batch schedulers should hurry (§3.4's third stopping
    /// condition). The simulator sets it for batch-mode schedulers only;
    /// an immediate-mode scheduler maps each task as it arrives (§4.1) and
    /// always sees `None`.
    pub seconds_until_first_idle: Option<f64>,
}

impl SystemView {
    /// Number of processors in the system.
    pub fn len(&self) -> usize {
        self.processors.len()
    }

    /// True when the view contains no processors.
    pub fn is_empty(&self) -> bool {
        self.processors.is_empty()
    }
}

/// The interface every scheduler implements.
///
/// Implementations keep two kinds of internal state: the FCFS unscheduled
/// queue and the per-processor queues ([`TaskQueues`] does the latter).
/// Two types hold that state: `dts_schedulers::Queued`, which every
/// heuristic baseline is, and `dts_core::Planner`, through which PN and ZO
/// commit. The simulator calls the methods in this order:
///
/// 1. [`enqueue`](Scheduler::enqueue) when tasks arrive,
/// 2. [`plan`](Scheduler::plan) whenever the scheduler host is free and
///    unscheduled work exists,
/// 3. [`next_task_for`](Scheduler::next_task_for) when a processor requests
///    work,
/// 4. [`observe_comm`](Scheduler::observe_comm) /
///    [`observe_rate`](Scheduler::observe_rate) as measurements come back.
pub trait Scheduler {
    /// Short identifier used in experiment tables ("PN", "EF", …).
    fn name(&self) -> &'static str;

    /// Immediate or batch mode.
    fn mode(&self) -> SchedulerMode;

    /// Adds newly arrived tasks to the unscheduled FCFS queue.
    fn enqueue(&mut self, tasks: &[Task]);

    /// Number of tasks accepted but not yet mapped to a processor queue.
    fn unscheduled_len(&self) -> usize;

    /// Maps unscheduled tasks to per-processor queues. Called only when
    /// `unscheduled_len() > 0` and the scheduler host is free.
    fn plan(&mut self, view: &SystemView) -> PlanOutcome;

    /// Pops the head of `p`'s queue (the reply to a work request).
    fn next_task_for(&mut self, p: ProcessorId) -> Option<Task>;

    /// Tasks currently waiting in `p`'s queue at the scheduler.
    fn queued_len(&self, p: ProcessorId) -> usize;

    /// Total MFLOPs currently waiting in `p`'s queue at the scheduler.
    fn queued_mflops(&self, p: ProcessorId) -> f64;

    /// Feedback: a message to/from `p` was observed to cost `seconds`.
    /// Default: ignored (the heuristic baselines do not predict
    /// communication).
    fn observe_comm(&mut self, p: ProcessorId, seconds: f64) {
        let _ = (p, seconds);
    }

    /// Feedback: a completed task on `p` implied an execution rate of
    /// `mflops_per_sec`. Default: ignored.
    fn observe_rate(&mut self, p: ProcessorId, mflops_per_sec: f64) {
        let _ = (p, mflops_per_sec);
    }
}

/// Per-processor FIFO queues of planned tasks, with running MFLOP totals.
///
/// Every scheduler embeds one of these; the simulator's correctness
/// (conservation of tasks) leans on its invariants, which are enforced in
/// debug builds and covered by property tests.
#[derive(Debug, Clone, Default)]
pub struct TaskQueues {
    queues: Vec<VecDeque<Task>>,
    mflops: Vec<f64>,
}

impl TaskQueues {
    /// Creates queues for `n` processors.
    pub fn new(n: usize) -> Self {
        Self {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            mflops: vec![0.0; n],
        }
    }

    /// Number of processors.
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// True when there are no processors.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Appends a task to `p`'s queue.
    pub fn push(&mut self, p: ProcessorId, task: Task) {
        let i = p.index();
        self.queues[i].push_back(task);
        self.mflops[i] += task.mflops;
    }

    /// Pops the head of `p`'s queue.
    pub fn pop(&mut self, p: ProcessorId) -> Option<Task> {
        let i = p.index();
        let t = self.queues[i].pop_front();
        if let Some(task) = t {
            self.mflops[i] -= task.mflops;
            if self.queues[i].is_empty() {
                self.mflops[i] = 0.0; // absorb float drift at empty points
            }
        }
        t
    }

    /// Tasks waiting for `p`.
    pub fn queued_len(&self, p: ProcessorId) -> usize {
        self.queues[p.index()].len()
    }

    /// Total MFLOPs waiting for `p`.
    pub fn queued_mflops(&self, p: ProcessorId) -> f64 {
        self.mflops[p.index()]
    }

    /// Total queued tasks across all processors.
    pub fn total_len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Iterates over `(processor, tasks)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessorId, &VecDeque<Task>)> {
        self.queues
            .iter()
            .enumerate()
            .map(|(i, q)| (ProcessorId(i as u16), q))
    }
}

/// The earliest-finish step: of `candidates`, the one whose `finish` is
/// smallest — "the processor that will finish it earliest", shared by the
/// §3.3 initialiser and the EF, MM/MX, LL, OLB and KPB baselines. Each
/// caller supplies its own finish estimate.
///
/// Ties go to the earlier candidate (strict `<`). A NaN or +∞ finish never
/// wins, and when no finish is below +∞ the first candidate is returned.
///
/// # Panics
///
/// If `candidates` is empty.
#[inline]
pub fn earliest_finish(
    candidates: impl IntoIterator<Item = usize>,
    mut finish: impl FnMut(usize) -> f64,
) -> usize {
    let mut candidates = candidates.into_iter();
    let mut best = candidates
        .next()
        .expect("earliest_finish needs a candidate");
    let mut best_finish = f64::INFINITY;
    let first = finish(best);
    if first < best_finish {
        best_finish = first;
    }
    for j in candidates {
        let f = finish(j);
        if f < best_finish {
            best_finish = f;
            best = j;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;

    fn task(id: u32, mflops: f64) -> Task {
        Task::new(TaskId(id), mflops, SimTime::ZERO)
    }

    #[test]
    fn push_pop_fifo() {
        let mut q = TaskQueues::new(2);
        q.push(ProcessorId(0), task(1, 10.0));
        q.push(ProcessorId(0), task(2, 20.0));
        q.push(ProcessorId(1), task(3, 5.0));
        assert_eq!(q.queued_len(ProcessorId(0)), 2);
        assert_eq!(q.queued_mflops(ProcessorId(0)), 30.0);
        assert_eq!(q.total_len(), 3);
        assert_eq!(q.pop(ProcessorId(0)).unwrap().id, TaskId(1));
        assert_eq!(q.queued_mflops(ProcessorId(0)), 20.0);
        assert_eq!(q.pop(ProcessorId(0)).unwrap().id, TaskId(2));
        assert_eq!(q.queued_mflops(ProcessorId(0)), 0.0);
        assert_eq!(q.pop(ProcessorId(0)), None);
    }

    #[test]
    fn empty_queue_zero_mflops_after_drain() {
        let mut q = TaskQueues::new(1);
        q.push(ProcessorId(0), task(1, 0.1));
        q.push(ProcessorId(0), task(2, 0.2));
        let drained: Vec<Task> = std::iter::from_fn(|| q.pop(ProcessorId(0))).collect();
        assert_eq!(drained.len(), 2);
        assert_eq!(q.total_len(), 0);
        assert_eq!(q.queued_mflops(ProcessorId(0)), 0.0);
    }

    #[test]
    fn iter_lists_processors() {
        let mut q = TaskQueues::new(3);
        q.push(ProcessorId(2), task(9, 1.0));
        let pairs: Vec<_> = q.iter().map(|(p, q)| (p, q.len())).collect();
        assert_eq!(
            pairs,
            vec![
                (ProcessorId(0), 0),
                (ProcessorId(1), 0),
                (ProcessorId(2), 1)
            ]
        );
    }

    /// The hand-written argmin loop `earliest_finish` must reproduce:
    /// `best` seeded with the first candidate, `best_finish` with +∞,
    /// strict `<`.
    fn reference_loop(candidates: &[usize], finish: &[f64]) -> usize {
        let mut best = candidates[0];
        let mut best_finish = f64::INFINITY;
        for &j in candidates {
            if finish[j] < best_finish {
                best_finish = finish[j];
                best = j;
            }
        }
        best
    }

    #[test]
    fn earliest_finish_matches_the_reference_loop() {
        // Every finish vector of length 4 over {1, 2, +∞, NaN}, under
        // candidate lists that start at 0, start elsewhere, run backwards
        // or hold one processor.
        let values = [1.0, 2.0, f64::INFINITY, f64::NAN];
        let lists: [&[usize]; 5] = [&[0, 1, 2, 3], &[2, 3], &[3, 1, 0], &[1, 3, 2], &[2]];
        for code in 0..values.len().pow(4) {
            let finish: Vec<f64> = (0..4)
                .map(|k| values[code / values.len().pow(k) % values.len()])
                .collect();
            for candidates in lists {
                assert_eq!(
                    earliest_finish(candidates.iter().copied(), |j| finish[j]),
                    reference_loop(candidates, &finish),
                    "candidates {candidates:?}, finish {finish:?}"
                );
            }
        }
        let inf = f64::INFINITY;
        let pick = |c: &[usize], f: &[f64]| earliest_finish(c.iter().copied(), |j| f[j]);
        assert_eq!(
            pick(&[0, 1, 2], &[3.0, 1.0, 1.0]),
            1,
            "exact tie: earlier wins"
        );
        assert_eq!(pick(&[0, 1, 2], &[inf, inf, inf]), 0, "all +inf: first");
        assert_eq!(pick(&[0, 1], &[f64::NAN, 5.0]), 1, "NaN first never wins");
        assert_eq!(pick(&[2, 1], &[0.0, 7.0, inf]), 1, "list not starting at 0");
        assert_eq!(
            pick(&[3, 1], &[0.0, inf, 0.0, inf]),
            3,
            "no finite finish: first"
        );
    }

    #[test]
    fn plan_outcome_idle() {
        assert_eq!(PlanOutcome::IDLE.tasks_assigned, 0);
        assert_eq!(PlanOutcome::IDLE.compute_seconds, 0.0);
    }

    #[test]
    fn system_view_len() {
        let view = SystemView {
            now: SimTime::ZERO,
            processors: vec![ProcessorView {
                id: ProcessorId(0),
                rate_estimate: 100.0,
                inflight_mflops: 0.0,
                comm_estimate: 0.0,
            }],
            seconds_until_first_idle: None,
        };
        assert_eq!(view.len(), 1);
        assert!(!view.is_empty());
    }
}
