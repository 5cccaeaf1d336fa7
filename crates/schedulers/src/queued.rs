//! The §3 queue protocol, written once for every baseline.
//!
//! Arriving tasks join an FCFS queue of unscheduled tasks; a plan call maps
//! some of them into per-processor queues held at the scheduler; an idle
//! processor's request is answered with the head of its queue. Only the
//! mapping step differs between the baselines, so each is a
//! [`MappingRule`] and the scheduler is [`Queued`] over that rule.

use std::collections::VecDeque;

use dts_model::{PlanOutcome, ProcessorId, Scheduler, SchedulerMode, SystemView, Task, TaskQueues};

/// The mapping step of one baseline.
pub trait MappingRule {
    /// Short identifier used in experiment tables ("EF", "MM", …).
    const NAME: &'static str;

    /// Immediate or batch mode (§4.1).
    const MODE: SchedulerMode;

    /// Moves tasks from the front of `unscheduled` into `queues` and says
    /// how many it moved and what the decisions cost.
    fn map(
        &mut self,
        unscheduled: &mut VecDeque<Task>,
        queues: &mut TaskQueues,
        view: &SystemView,
    ) -> PlanOutcome;
}

/// A baseline scheduler: the unscheduled FCFS queue, the per-processor
/// queues, and the rule `R` that maps the one into the other.
pub struct Queued<R> {
    unscheduled: VecDeque<Task>,
    queues: TaskQueues,
    rule: R,
}

impl<R> Queued<R> {
    /// A scheduler for `n_procs` processors that maps with `rule`.
    pub(crate) fn with_rule(n_procs: usize, rule: R) -> Self {
        assert!(n_procs > 0, "need at least one processor");
        Self {
            unscheduled: VecDeque::new(),
            queues: TaskQueues::new(n_procs),
            rule,
        }
    }
}

impl<R: MappingRule + Default> Queued<R> {
    /// Creates the scheduler for `n_procs` processors; the batch-mode
    /// rules take the paper's batch size of 200.
    pub fn new(n_procs: usize) -> Self {
        Self::with_rule(n_procs, R::default())
    }
}

impl<R: MappingRule> Scheduler for Queued<R> {
    fn name(&self) -> &'static str {
        R::NAME
    }
    fn mode(&self) -> SchedulerMode {
        R::MODE
    }
    fn enqueue(&mut self, tasks: &[Task]) {
        self.unscheduled.extend(tasks.iter().copied());
    }
    fn unscheduled_len(&self) -> usize {
        self.unscheduled.len()
    }
    fn plan(&mut self, view: &SystemView) -> PlanOutcome {
        self.rule.map(&mut self.unscheduled, &mut self.queues, view)
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
