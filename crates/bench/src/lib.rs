//! Experiment harness: regenerates every figure of Page & Naughton
//! (IPPS 2005) plus the `ablate_*` studies beyond it.
//!
//! Each `fig*` binary in `src/bin/` prints the same series/rows the paper
//! plots and writes a CSV under `results/`. Environment knobs (all
//! optional) scale the experiments:
//!
//! | Variable      | Meaning                            | Default        |
//! |---------------|------------------------------------|----------------|
//! | `DTS_REPS`    | replications per plotted point     | figure-specific|
//! | `DTS_TASKS`   | tasks per run                      | figure-specific|
//! | `DTS_PROCS`   | worker processors                  | 50             |
//! | `DTS_THREADS` | worker threads for replication     | all cores      |
//! | `DTS_SEED`    | master seed                        | 20050404       |
//! | `DTS_FULL`    | `fig4` only: paper-scale run       | unset          |
//!
//! Where the reproduction departs from the paper's setup is recorded in
//! ARCHITECTURE.md, "Deviations from the paper".

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod report;
pub mod roster;
pub mod scenarios;

pub use report::{write_csv, Table};
pub use roster::{BuildOptions, SchedulerKind, ALL_SCHEDULERS};
pub use scenarios::{env_flag, env_or, Scenario};
