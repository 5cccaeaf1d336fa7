//! The **PN scheduler** — the primary contribution of Page & Naughton,
//! *Dynamic Task Scheduling using Genetic Algorithms for Heterogeneous
//! Distributed Computing* (IPPS 2005).
//!
//! PN is a dynamic, batch-mode scheduler that maps heterogeneous,
//! independent tasks onto heterogeneous, non-dedicated processors while
//! minimising makespan. Its distinguishing features over the
//! state-of-the-art GA scheduler it extends (Zomaya & Teh's ZO):
//!
//! 1. **Communication-aware fitness** (§3.2): per-link communication costs,
//!    estimated from history with the §3.6 smoothing function, enter the
//!    relative-error fitness — so schedules route work away from expensive
//!    links *before* the costs are incurred.
//! 2. **Rebalancing heuristic** (§3.5): a cheap local search applied to
//!    every individual in every generation.
//! 3. **Dynamic batch sizing** (§3.7): the batch grows or shrinks with the
//!    smoothed estimate of how long the cluster can keep itself busy.
//! 4. **List-scheduled initial population** (§3.3): part random, part
//!    earliest-finish — "a well balanced randomised initial population".
//!
//! # Crate layout
//!
//! * [`fitness`] — ψ, relative error `E`, fitness `F = 1/E`, and makespan
//!   over a batch ([`fitness::BatchProblem`] implements
//!   [`dts_ga::Problem`]).
//! * [`init`] — the list-scheduling initial-population generator.
//! * [`rebalance`] — the §3.5 swap heuristic.
//! * [`batching`] — the §3.7 dynamic batch-size rule.
//! * [`time_model`] — modelled GA compute time charged to the dedicated
//!   scheduler host.
//! * [`scheduler`] — [`scheduler::PnScheduler`], the
//!   [`dts_model::Scheduler`] implementation driven by the simulator.
//! * [`plan`] — the one planning pipeline: [`plan::plan_batch`], the only
//!   one-shot entry point (one request struct: operators, precedence, an
//!   explicit latency budget), [`plan::Planner`], the owner of the
//!   plan-call seed stream and the per-processor queues that both
//!   [`scheduler::PnScheduler`] and the online `dts-server` plan through,
//!   and [`plan::BatchOutcome`], what a plan call returns (read directly
//!   by the Fig. 3 / Fig. 4 experiments).
//!
//! The ZO baseline is not a second scheduler: [`PnConfig::zo_preset`]
//! switches each of the four contributions off and selects ZO's
//! makespan-only [`Fitness`], and the same [`scheduler::PnScheduler`]
//! runs it.
//!
//! # Quickstart
//!
//! ```
//! use dts_core::{plan_batch, PlanRequest, PnConfig, ProcessorState};
//! use dts_model::{Task, TaskId, SimTime};
//!
//! // Four tasks for two processors, one fast and one slow.
//! let tasks: Vec<Task> = [800.0, 400.0, 200.0, 100.0]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, &m)| Task::new(TaskId(i as u32), m, SimTime::ZERO))
//!     .collect();
//! let procs = vec![
//!     ProcessorState { rate: 200.0, existing_load_mflops: 0.0, comm_cost: 0.1 },
//!     ProcessorState { rate: 50.0, existing_load_mflops: 0.0, comm_cost: 0.1 },
//! ];
//! let request = PlanRequest::new(&tasks, &procs, 0xC0FFEE);
//! let outcome = plan_batch(&request, &PnConfig::default());
//! assert_eq!(outcome.queues.iter().map(Vec::len).sum::<usize>(), 4);
//! // The fast processor should receive the bulk of the work.
//! assert!(outcome.queues[0].len() >= outcome.queues[1].len());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod batching;
pub mod config;
pub mod fitness;
pub mod init;
pub mod plan;
pub mod rebalance;
pub mod scheduler;
pub mod time_model;

pub use config::PnConfig;
pub use fitness::{slot_precedence, BatchProblem, Fitness, ProcessorState};
pub use plan::{plan_batch, BatchOutcome, PlanBudget, PlanRequest, Planner};
pub use scheduler::PnScheduler;
pub use time_model::GaTimeModel;
