//! Domain model for heterogeneous distributed task scheduling.
//!
//! This crate defines the vocabulary shared by the PN scheduler
//! (`dts-core`), the eight baseline schedulers (`dts-schedulers`), and the
//! discrete-event simulator (`dts-sim`):
//!
//! * [`time::SimTime`] — simulated seconds with a total order usable in an
//!   event queue.
//! * [`task::Task`] — an indivisible task whose resource requirement is
//!   measured in MFLOPs (millions of floating-point operations), exactly
//!   as in the paper (§3).
//! * [`graph::TaskGraph`] — optional precedence edges and deadlines over
//!   a workload's dense task ids (cycle-rejecting, DAG by
//!   construction). An edge-free graph is the paper's independent-task
//!   model and downstream layers treat it as a structural no-op.
//! * [`processor`] — heterogeneous processors rated in Mflop/s with
//!   time-varying availability models (the paper's "processors are not
//!   dedicated" assumption).
//! * [`link`] — client↔scheduler communication links with per-link random
//!   mean costs and per-message jitter (§4.3).
//! * [`cluster`] — generators for whole heterogeneous clusters.
//! * [`workload`] — task-set generators for the uniform / normal / Poisson
//!   workloads of §4.3–§4.5 plus dynamic arrival processes.
//! * [`smoothing`] — the exponential smoothing function Γ of §3.6.
//! * [`sched`] — the [`sched::Scheduler`] trait implemented by every
//!   scheduler and consumed by the simulator, together with the
//!   [`sched::TaskQueues`] bookkeeping helper and the
//!   [`sched::earliest_finish`] step the list-scheduling heuristics share.
//!
//! Everything stochastic in this crate is built from an explicit 64-bit
//! seed — the root of the workspace's determinism contract (same seed ⇒
//! bit-identical clusters, workloads, schedules, and reports, serial or
//! parallel; see ARCHITECTURE.md):
//!
//! ```
//! use dts_model::{ClusterSpec, SizeDistribution, WorkloadSpec};
//!
//! let cluster = ClusterSpec::paper_defaults(4, 1.0).build(7);
//! assert_eq!(cluster.len(), 4);
//!
//! let spec = WorkloadSpec::batch(16, SizeDistribution::Uniform { lo: 10.0, hi: 100.0 });
//! let tasks = spec.generate(7);
//! assert_eq!(tasks.len(), 16);
//! // Same seed, same workload — bit for bit.
//! assert_eq!(spec.generate(7), tasks);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod graph;
pub mod link;
pub mod processor;
pub mod sched;
pub mod smoothing;
pub mod task;
pub mod time;
pub mod workload;

pub use cluster::{Cluster, ClusterSpec};
pub use graph::{DagFamily, GraphError, TaskGraph};
pub use link::{CommCostSpec, Link};
pub use processor::{AvailabilityModel, AvailabilityState, Processor, ProcessorId};
pub use sched::{earliest_finish, PlanOutcome, Scheduler, SchedulerMode, SystemView, TaskQueues};
pub use smoothing::Smoother;
pub use task::{Task, TaskId};
pub use time::SimTime;
pub use workload::{ArrivalProcess, SizeDistribution, WorkloadSpec};
