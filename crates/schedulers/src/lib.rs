//! The heuristic comparison schedulers of §4.1, plus three extensions
//! from the paper's reference \[11\].
//!
//! The sixth baseline of the paper, ZO (Zomaya & Teh's GA), is not here:
//! it is the PN pipeline with the paper's contributions switched off,
//! `dts_core::PnConfig::zo_preset`.
//!
//! Every scheduler here is [`Queued`] over a [`MappingRule`]: the §3
//! protocol (FCFS unscheduled queue, per-processor queues at the
//! scheduler, queue head to an idle processor) is written once in
//! [`queued`], and each baseline supplies only its mapping step. The
//! "processor that will finish it earliest" step most rules share is
//! [`dts_model::earliest_finish`].
//!
//! Five **immediate-mode** schedulers map one task at a time, FCFS:
//!
//! * [`EarliestFinish`] (EF) — allocate to the processor that will finish
//!   the task earliest given its current load; worst case Θ(M) per task.
//! * [`LightestLoaded`] (LL) — allocate to the processor with the lowest
//!   current load in MFLOPs, ignoring the task's own size; Θ(M).
//! * [`RoundRobin`] (RR) — cyclic assignment using no information; Θ(1).
//! * [`Olb`] (OLB, extension) — allocate to the processor that becomes
//!   available soonest, ignoring the task's own size; Θ(M).
//! * [`KPercentBest`] (KPB, extension) — EF among the best `k` fraction of
//!   processors by rate; Θ(kM).
//!
//! Three **batch-mode** schedulers map a batch at a time:
//!
//! * [`MaxMin`] (MX) — sort the batch by size descending, allocate each
//!   task EF-style: "the largest tasks scheduled as early as possible, with
//!   smaller tasks at the end filling in the gaps";
//!   Θ(max(M, n log n)).
//! * [`MinMin`] (MM) — the same with ascending order.
//! * [`Sufferage`] (SUF, extension) — repeatedly place the task that loses
//!   most if denied its best processor; Θ(n²·M).
//!
//! All of them implement [`dts_model::Scheduler`] and therefore run on the
//! same simulator, see the same [`dts_model::SystemView`] estimates, and
//! pay for their decisions through the same compute-cost accounting.
//!
//! # Readiness contract (precedence-constrained workloads)
//!
//! None of these schedulers inspect a [`dts_model::TaskGraph`]; they do
//! not need to. The simulator enforces precedence at **admission**: under
//! `Simulation::new_with_graph` a task is only `enqueue`d once it has
//! arrived *and* every predecessor's result is back, so a scheduler's
//! candidate set is always exactly the ready tasks. Every baseline here
//! is therefore precedence-correct for free — it can never dispatch a
//! task before its inputs exist — and sees an edge-free workload exactly
//! as before (the readiness check is a no-op branch).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod immediate;
pub mod maheswaran;
pub mod minmax;
pub mod queued;

pub use immediate::{EarliestFinish, LightestLoaded, RoundRobin};
pub use maheswaran::{KPercentBest, Olb, Sufferage};
pub use minmax::{MaxMin, MinMin};
pub use queued::{MappingRule, Queued};
