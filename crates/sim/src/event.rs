//! The simulator's event queue.
//!
//! A binary min-heap ordered by `(time, sequence)`: the sequence number is
//! assigned at push time, so simultaneous events fire in insertion order.
//!
//! Task arrivals are not queued here. The simulation streams them from its
//! arrival-sorted task table through a cursor and merges the cursor with
//! this heap, which therefore holds only in-flight events (O(processors)).
//! Events fire in `(time, arrivals first, push order)` order: an arrival
//! group is taken whenever its time is at most [`EventQueue::peek_time`].
//! This deterministic tie-break keeps whole simulations bitwise
//! reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dts_model::{ProcessorId, SimTime, TaskId};

/// What can happen in the simulated world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A group of tasks (contiguous range of the task table) becomes
    /// visible to the scheduler. Streamed from the task table, never pushed
    /// onto the heap.
    TaskArrival {
        /// Index of the first arriving task.
        first: u32,
        /// Number of tasks arriving together.
        count: u32,
    },
    /// The scheduler host finished computing a plan.
    PlanComplete,
    /// A dispatched task arrives at its worker.
    Dispatch {
        /// Destination worker.
        proc: ProcessorId,
        /// The task being delivered.
        task: TaskId,
    },
    /// A worker finished computing. Carries the worker's reschedule epoch:
    /// stale completions (superseded by an availability change) are ignored.
    Complete {
        /// The worker that finished.
        proc: ProcessorId,
        /// Epoch the completion was scheduled under.
        epoch: u64,
    },
    /// A result (plus the implicit next work request) reached the
    /// scheduler.
    ResultArrives {
        /// The worker whose result arrived.
        proc: ProcessorId,
        /// The completed task.
        task: TaskId,
    },
    /// A worker's availability fraction steps to a new value.
    AvailabilityChange {
        /// The worker affected.
        proc: ProcessorId,
    },
    /// A deferred planning check: batch-mode planning is paced so that a
    /// batch is computed just before the first processor would go idle
    /// (§3.7); this event wakes the scheduler host up at that moment.
    PlanCheck,
    /// A worker's *initial* work request reaches the scheduler. Requests
    /// traverse the same link as tasks, so their observed delay seeds the
    /// scheduler's communication-cost estimates before the first dispatch
    /// (later requests piggyback on result messages).
    RequestArrives {
        /// The worker whose request arrived.
        proc: ProcessorId,
    },
}

/// An event at a point in simulated time.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic future-event list.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at time `at`.
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, kind });
    }

    /// Time of the earliest pending event, without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Pops the earliest event (ties in insertion order).
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        self.heap.pop().map(|s| (s.at, s.kind))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::new(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), EventKind::PlanComplete);
        q.push(t(1.0), EventKind::PlanComplete);
        q.push(t(2.0), EventKind::PlanComplete);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|(at, _)| at.seconds())
            .collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let p = |i: u16| EventKind::AvailabilityChange {
            proc: ProcessorId(i),
        };
        q.push(t(5.0), p(0));
        q.push(t(5.0), p(1));
        q.push(t(5.0), p(2));
        let order: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|(_, k)| k).collect();
        assert_eq!(order, vec![p(0), p(1), p(2)]);
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(t(0.0), EventKind::PlanComplete);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_time_reports_the_next_pop_without_removing_it() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(t(4.0), EventKind::PlanComplete);
        q.push(t(2.0), EventKind::PlanCheck);
        q.push(t(2.0), EventKind::PlanComplete);
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert_eq!(q.len(), 3, "peeking must not pop");
        assert_eq!(q.pop(), Some((t(2.0), EventKind::PlanCheck)));
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert_eq!(q.pop(), Some((t(2.0), EventKind::PlanComplete)));
        assert_eq!(q.peek_time(), Some(t(4.0)));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(t(10.0), EventKind::PlanComplete);
        q.push(t(1.0), EventKind::PlanComplete);
        assert_eq!(q.pop().unwrap().0.seconds(), 1.0);
        q.push(t(5.0), EventKind::PlanComplete);
        assert_eq!(q.pop().unwrap().0.seconds(), 5.0);
        assert_eq!(q.pop().unwrap().0.seconds(), 10.0);
    }
}
