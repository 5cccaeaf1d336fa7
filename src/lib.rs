//! # dts — Dynamic Task Scheduling with Genetic Algorithms
//!
//! A production-quality Rust reproduction of **Page & Naughton, "Dynamic
//! Task Scheduling using Genetic Algorithms for Heterogeneous Distributed
//! Computing" (IPPS 2005)**: the PN genetic-algorithm scheduler, the six
//! baseline schedulers it was evaluated against, and the full
//! discrete-event simulation environment of the paper's §4 experiments.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`core`] | `dts-core` | the PN scheduler: fitness, rebalancing, dynamic batching; the Zomaya-Teh GA as `PnConfig::zo_preset` |
//! | [`schedulers`] | `dts-schedulers` | EF, LL, RR, min-min, max-min, and the OLB, KPB and Sufferage extensions |
//! | [`ga`] | `dts-ga` | generic GA engine over permutation encodings, with deterministic serial/parallel fitness evaluation |
//! | [`server`] | `dts-server` | online scheduling service: bounded admission, batched GA replanning, trace replay |
//! | [`sim`] | `dts-sim` | discrete-event distributed-system simulator |
//! | [`model`] | `dts-model` | tasks, processors, links, workloads, the `Scheduler` trait |
//! | [`distributions`] | `dts-distributions` | PRNG, uniform/normal/Poisson/exponential, stats |
//!
//! ## Quickstart
//!
//! Simulate the paper's headline scenario — heterogeneous tasks on a
//! heterogeneous cluster with stochastic communication — and compare PN
//! against round robin:
//!
//! ```
//! use dts::model::{ClusterSpec, SizeDistribution, WorkloadSpec, Scheduler};
//! use dts::sim::{SimConfig, Simulation};
//! use dts::core::{PnConfig, PnScheduler};
//! use dts::schedulers::RoundRobin;
//!
//! let cluster_spec = ClusterSpec::paper_defaults(10, 5.0);
//! let workload = WorkloadSpec::batch(
//!     200,
//!     SizeDistribution::Normal { mean: 1000.0, variance: 9.0e5 },
//! );
//!
//! let run = |sched: Box<dyn Scheduler>| {
//!     let cluster = cluster_spec.build(42);
//!     let tasks = workload.generate(42);
//!     Simulation::new(cluster, tasks, sched, SimConfig::default())
//!         .run()
//!         .expect("simulation completes")
//! };
//!
//! let mut pn_cfg = PnConfig::default();
//! pn_cfg.ga.max_generations = 100; // keep the doctest quick
//! let pn = run(Box::new(PnScheduler::new(10, pn_cfg)));
//! let rr = run(Box::new(RoundRobin::new(10)));
//! assert_eq!(pn.tasks_completed, 200);
//! assert!(pn.makespan < rr.makespan, "PN should beat round robin");
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries that regenerate every figure of the paper.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

/// The PN scheduler (the paper's contribution). Re-export of `dts-core`.
pub mod core {
    pub use dts_core::*;
}

/// Heuristic baseline schedulers: EF, LL, RR, MM, MX. Re-export of
/// `dts-schedulers`.
pub mod schedulers {
    pub use dts_schedulers::*;
}

/// Generic genetic-algorithm engine. Re-export of `dts-ga`.
pub mod ga {
    pub use dts_ga::*;
}

/// Online scheduling service. Re-export of `dts-server`.
pub mod server {
    pub use dts_server::*;
}

/// Discrete-event simulator. Re-export of `dts-sim`.
pub mod sim {
    pub use dts_sim::*;
}

/// Domain model: tasks, processors, links, workloads. Re-export of
/// `dts-model`.
pub mod model {
    pub use dts_model::*;
}

/// Randomness and statistics substrate. Re-export of `dts-distributions`.
pub mod distributions {
    pub use dts_distributions::*;
}
