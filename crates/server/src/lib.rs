//! `dts-server` — the **online scheduling service**: the production shape
//! of the paper's dynamic batch-mode GA scheduler.
//!
//! Where `dts-sim` closes the loop inside a discrete-event simulation,
//! this crate serves a *continuous stream* of task submissions, the
//! ROADMAP's long-running-daemon north star. Data flow:
//!
//! ```text
//!   submit(tenant, mflops, t)
//!        │  admission: bounded per-tenant queues, diagnosable
//!        │  rejections (SubmitError::QueueFull = backpressure)
//!        ▼
//!   pending FCFS queue ──► batching: FCFS prefix, ≤ batch_size
//!        │
//!        ▼
//!   GA plan call (dts_core::Planner → dts_core::plan::plan_batch;
//!        │         the winner is appended to the Planner's queues)
//!        │  PlanBudget::Generations → deterministic replay mode
//!        │  PlanBudget::TimeLimit   → bounded decision latency
//!        ▼
//!   PlacementEvent per task; workers pull from the queues (dispatch)
//! ```
//!
//! # Layers
//!
//! * [`server`] — [`DtsServer`], the deterministic, wall-clock-free
//!   core: admission, batching, planning, placement emission.
//! * [`service`] — the channel front-end: [`service::spawn`] puts the
//!   server on its own thread behind a cloneable [`ServiceHandle`], and
//!   measures per-task decision latency.
//! * [`replay`] — [`replay_trace`] drives the server from a recorded
//!   [`dts_sim::arrivals::ArrivalTrace`].
//!
//! # Determinism contract
//!
//! The core never reads a clock. Under a deterministic budget
//! ([`PlanBudget::Unlimited`] / [`PlanBudget::Generations`]) the
//! placement sequence is a pure function of the submission sequence and
//! `config.pn.seed`, bit-identical at any evaluator worker count — and,
//! because the server's plan-call discipline (seed stream, load
//! accounting) mirrors [`dts_core::PnScheduler`]'s exactly,
//! replaying a trace produces the same placements as the batch pipeline
//! (`tests/oracle.rs`). [`PlanBudget::TimeLimit`] trades that for a
//! latency bound: generation counts then depend on host speed.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod replay;
pub mod server;
pub mod service;

pub use dts_core::plan::PlanBudget;
pub use replay::{replay_trace, ReplayReport};
pub use server::{
    DtsServer, PlacementEvent, ProcessorProfile, ServerConfig, ServerStats, SubmitError, TenantId,
};
pub use service::{spawn, ServiceHandle, TimedPlacement};
