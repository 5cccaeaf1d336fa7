//! Tasks: the unit of work.
//!
//! Per §3 of the paper, tasks are **indivisible**, **arrive randomly**, and
//! can be processed by any processor in the distributed system. Each task
//! has a resource requirement measured in MFLOPs (millions of
//! floating-point operations); a processor rated at `P` Mflop/s completes a
//! `t`-MFLOP task in `t / P` seconds when fully available.
//!
//! The paper additionally assumes tasks are independent of one another;
//! this reproduction relaxes that: precedence constraints and deadlines
//! live in a separate [`crate::TaskGraph`] keyed by the dense
//! [`TaskId`] indices, so a workload without a graph (or with an edge-free
//! one) is exactly the paper's independent-task model.

use crate::time::SimTime;

/// Identifier of a task: an index into the run's task table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// An indivisible unit of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Unique identifier (dense, 0-based).
    pub id: TaskId,
    /// Resource requirement in MFLOPs; always finite and > 0.
    pub mflops: f64,
    /// When the task becomes visible to the scheduler.
    pub arrival: SimTime,
}

impl Task {
    /// Creates a task, validating that the size is positive and finite.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or non-finite size — workload generators
    /// are responsible for truncating their distributions (see
    /// [`crate::workload`]).
    pub fn new(id: TaskId, mflops: f64, arrival: SimTime) -> Self {
        assert!(
            mflops.is_finite() && mflops > 0.0,
            "task {id} has invalid size {mflops}"
        );
        Self {
            id,
            mflops,
            arrival,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn zero_size_rejected() {
        let _ = Task::new(TaskId(0), 0.0, SimTime::ZERO);
    }

    #[test]
    #[should_panic]
    fn nan_size_rejected() {
        let _ = Task::new(TaskId(0), f64::NAN, SimTime::ZERO);
    }

    #[test]
    fn display_and_index() {
        assert_eq!(TaskId(7).to_string(), "T7");
        assert_eq!(TaskId(7).index(), 7);
    }
}
