//! Time accounting and the simulation report.
//!
//! The paper evaluates schedulers with "two different but related metrics,
//! makespan and efficiency. Makespan is the total execution time of a
//! schedule. Efficiency is the percentage of the time that processors
//! actually spend processing rather than communicating or idling." (§4)

use dts_model::SimTime;

use crate::trace::Trace;

/// Per-processor breakdown of where simulated time went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcBreakdown {
    /// Seconds spent computing task payloads.
    pub processing: f64,
    /// Seconds spent receiving tasks or returning results.
    pub communicating: f64,
    /// Tasks completed by this processor.
    pub tasks_completed: u64,
    /// MFLOPs of completed work.
    pub mflops_done: f64,
}

impl ProcBreakdown {
    /// Idle seconds out of a run of length `makespan`.
    ///
    /// Busy time may exceed the makespan by float rounding only; anything
    /// beyond the tolerance is accounting drift (work recorded that the
    /// run's span cannot contain) and trips a debug assertion rather than
    /// being silently clamped to zero idle.
    pub fn idle(&self, makespan: f64) -> f64 {
        let busy = self.processing + self.communicating;
        debug_assert!(
            busy <= makespan * (1.0 + 1e-9) + 1e-6,
            "accounting drift: processing {} + communicating {} exceeds makespan {}",
            self.processing,
            self.communicating,
            makespan
        );
        (makespan - busy).max(0.0)
    }

    /// This processor's own efficiency over a run of length `makespan`.
    pub fn efficiency(&self, makespan: f64) -> f64 {
        if makespan > 0.0 {
            (self.processing / makespan).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

/// Per-task waiting time, aggregated over a run and decomposed by cause.
///
/// A task's life before execution is `arrival → ready → dispatch`:
/// it becomes *ready* (and is admitted to the scheduler) once every
/// predecessor's result is back — immediately on arrival for tasks
/// without predecessors — and is *dispatched* when the scheduler sends it
/// to a worker. The total wait therefore splits exactly into
///
/// ```text
/// dispatch − arrival  =  (ready − arrival)  +  (dispatch − ready)
///      total wait        precedence stall        queueing delay
/// ```
///
/// per task, so [`WaitingStats::mean_wait`] equals
/// `mean_precedence_stall + mean_queue_wait` (up to float rounding). For
/// an edge-free workload every precedence stall is zero and the total
/// wait is pure queueing — the paper's independent-task behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WaitingStats {
    /// Mean seconds from arrival to dispatch, over all tasks.
    pub mean_wait: f64,
    /// Mean seconds from admission (ready) to dispatch: time genuinely
    /// spent queueing at the scheduler.
    pub mean_queue_wait: f64,
    /// Mean seconds from arrival to readiness: time stalled waiting for
    /// predecessors. Zero for edge-free workloads.
    pub mean_precedence_stall: f64,
    /// Largest single task wait (arrival to dispatch), in seconds.
    pub max_wait: f64,
    /// Tasks that had a deadline.
    pub deadlined_tasks: u64,
    /// Deadlined tasks whose result arrived after their deadline.
    pub deadline_misses: u64,
}

impl WaitingStats {
    /// Fraction of deadlined tasks that missed, or `None` when the
    /// workload carries no deadlines (so "no deadlines" is
    /// distinguishable from "all deadlines met").
    pub fn deadline_miss_rate(&self) -> Option<f64> {
        (self.deadlined_tasks > 0)
            .then(|| self.deadline_misses as f64 / self.deadlined_tasks as f64)
    }
}

/// Outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Name of the scheduler that produced this run.
    pub scheduler: &'static str,
    /// Total execution time: when the last result arrived back at the
    /// scheduler.
    pub makespan: f64,
    /// The paper's efficiency metric, capacity-weighted for heterogeneous
    /// clusters: the *rated-capacity-weighted* mean over processors of
    /// `processing_time / makespan`, which algebraically equals
    /// `Σ mflops_done / (makespan × Σ rated_mflops)` ∈ [0, 1].
    ///
    /// The weighting matters: an unweighted mean would credit a slow
    /// processor for grinding longer on the same MFLOPs, inverting
    /// scheduler rankings once communication dominates. On a homogeneous
    /// cluster the weighted and unweighted forms coincide.
    pub efficiency: f64,
    /// Per-processor accounting.
    pub per_proc: Vec<ProcBreakdown>,
    /// Tasks completed (equals the workload size on success).
    pub tasks_completed: u64,
    /// Simulated seconds the dedicated scheduler host spent planning.
    pub scheduler_busy: f64,
    /// Planning invocations.
    pub plan_invocations: u64,
    /// Total GA generations evolved (0 for pure heuristics).
    pub total_generations: u64,
    /// Events processed (diagnostic).
    pub events_processed: u64,
    /// Per-task execution trace (only when
    /// [`crate::SimConfig::record_trace`] was set).
    pub trace: Option<Trace>,
    /// Waiting-time decomposition (queueing delay vs precedence stall)
    /// and deadline accounting.
    pub waiting: WaitingStats,
}

impl SimReport {
    /// Aggregates the final report from raw accounting. `rated_mflops[j]`
    /// is processor `j`'s Linpack rating, used as the efficiency weight.
    // One flat argument per accounting stream: the callers (the two
    // simulator drain paths) pass locals straight through, and a param
    // struct would just duplicate the field list.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        scheduler: &'static str,
        end: SimTime,
        per_proc: Vec<ProcBreakdown>,
        rated_mflops: &[f64],
        scheduler_busy: f64,
        plan_invocations: u64,
        total_generations: u64,
        events_processed: u64,
    ) -> Self {
        assert_eq!(per_proc.len(), rated_mflops.len());
        let makespan = end.seconds();
        let tasks_completed = per_proc.iter().map(|p| p.tasks_completed).sum();
        let capacity: f64 = rated_mflops.iter().sum();
        let efficiency = if makespan > 0.0 && capacity > 0.0 {
            let done: f64 = per_proc.iter().map(|p| p.mflops_done).sum();
            (done / (makespan * capacity)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        Self {
            scheduler,
            makespan,
            efficiency,
            per_proc,
            tasks_completed,
            scheduler_busy,
            plan_invocations,
            total_generations,
            events_processed,
            trace: None,
            waiting: WaitingStats::default(),
        }
    }

    /// Attaches an execution trace to the report.
    pub fn with_trace(mut self, trace: Option<Trace>) -> Self {
        self.trace = trace;
        self
    }

    /// Attaches the waiting-time decomposition to the report.
    pub fn with_waiting(mut self, waiting: WaitingStats) -> Self {
        self.waiting = waiting;
        self
    }

    /// Total seconds of processing across all workers.
    pub fn total_processing(&self) -> f64 {
        self.per_proc.iter().map(|p| p.processing).sum()
    }

    /// Total seconds of communication across all workers.
    pub fn total_communication(&self) -> f64 {
        self.per_proc.iter().map(|p| p.communicating).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_is_mean_of_processor_shares() {
        let per_proc = vec![
            ProcBreakdown {
                processing: 8.0,
                communicating: 1.0,
                tasks_completed: 4,
                mflops_done: 800.0,
            },
            ProcBreakdown {
                processing: 4.0,
                communicating: 2.0,
                tasks_completed: 2,
                mflops_done: 400.0,
            },
        ];
        // Both processors rated 100 Mflop/s: the capacity-weighted metric
        // is (800 + 400) MFLOPs / (10 s × 200 Mflop/s) = 0.6.
        let r = SimReport::assemble(
            "EF",
            SimTime::new(10.0),
            per_proc,
            &[100.0, 100.0],
            0.1,
            3,
            0,
            100,
        );
        assert!((r.efficiency - 0.6).abs() < 1e-12);
        assert_eq!(r.tasks_completed, 6);
        assert_eq!(r.makespan, 10.0);
        assert!((r.total_processing() - 12.0).abs() < 1e-12);
        assert!((r.total_communication() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_idle_saturates_within_tolerance() {
        let b = ProcBreakdown {
            processing: 8.0,
            communicating: 4.0,
            tasks_completed: 1,
            mflops_done: 1.0,
        };
        assert_eq!(b.idle(20.0), 8.0);
        // Rounding-level overshoot clamps to zero idle without tripping
        // the drift assertion.
        let eps = ProcBreakdown {
            processing: 8.0,
            communicating: 2.0 + 1e-9,
            tasks_completed: 1,
            mflops_done: 1.0,
        };
        assert_eq!(eps.idle(10.0), 0.0, "rounding can push busy past makespan");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "accounting drift")]
    fn breakdown_idle_rejects_gross_drift() {
        // Busy time materially exceeding the makespan means the simulator
        // double-counted work; that must fail loudly in debug builds
        // instead of masquerading as a fully utilised processor.
        let b = ProcBreakdown {
            processing: 8.0,
            communicating: 4.0,
            tasks_completed: 1,
            mflops_done: 1.0,
        };
        let _ = b.idle(10.0);
    }

    #[test]
    fn deadline_miss_rate_distinguishes_no_deadlines() {
        let none = WaitingStats::default();
        assert_eq!(none.deadline_miss_rate(), None);
        let met = WaitingStats {
            deadlined_tasks: 4,
            deadline_misses: 0,
            ..WaitingStats::default()
        };
        assert_eq!(met.deadline_miss_rate(), Some(0.0));
        let half = WaitingStats {
            deadlined_tasks: 4,
            deadline_misses: 2,
            ..WaitingStats::default()
        };
        assert_eq!(half.deadline_miss_rate(), Some(0.5));
    }

    #[test]
    fn waiting_defaults_to_zero_and_is_attachable() {
        let r = SimReport::assemble("RR", SimTime::new(1.0), vec![], &[], 0.0, 0, 0, 0);
        assert_eq!(r.waiting, WaitingStats::default());
        let w = WaitingStats {
            mean_wait: 3.0,
            mean_queue_wait: 2.0,
            mean_precedence_stall: 1.0,
            max_wait: 5.0,
            deadlined_tasks: 0,
            deadline_misses: 0,
        };
        let r = r.with_waiting(w);
        assert_eq!(r.waiting, w);
        // The decomposition identity the simulator maintains per task.
        assert!(
            (r.waiting.mean_wait - (r.waiting.mean_queue_wait + r.waiting.mean_precedence_stall))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn zero_makespan_is_safe() {
        let r = SimReport::assemble("RR", SimTime::ZERO, vec![], &[], 0.0, 0, 0, 0);
        assert_eq!(r.efficiency, 0.0);
    }

    #[test]
    fn efficiency_clamped() {
        let b = ProcBreakdown {
            processing: 15.0,
            communicating: 0.0,
            tasks_completed: 1,
            mflops_done: 1.0,
        };
        assert_eq!(b.efficiency(10.0), 1.0);
        assert_eq!(b.efficiency(0.0), 0.0);
    }
}
