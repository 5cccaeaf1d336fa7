//! Experiment harness: regenerates every figure of Page & Naughton
//! (IPPS 2005) plus the ablations and the extension study beyond it.
//!
//! [`experiments::EXPERIMENTS`] holds one row per experiment; the `repro`
//! binary runs all or some of them by name, prints the series/rows the
//! paper plots and writes each as `results/<name>.csv`. Environment knobs
//! (all optional) scale the experiments:
//!
//! | Variable           | Meaning                                  | Default                  |
//! |--------------------|------------------------------------------|--------------------------|
//! | `DTS_REPS`         | replications per plotted point           | experiment-specific      |
//! | `DTS_TASKS`        | tasks per run                            | experiment-specific      |
//! | `DTS_PROCS`        | worker processors                        | 50; 20 in A1–A7          |
//! | `DTS_GENS`         | GA generation cap (Figs. 3–4, A1–A3, A5) | experiment-specific      |
//! | `DTS_COMM`         | mean communication cost, s               | experiment-specific      |
//! | `DTS_POINTS`       | cost points of Figs. 5 and 7             | 8                        |
//! | `DTS_BATCH`        | `fig4` only: batch size                  | 200                      |
//! | `DTS_THREADS`      | worker threads for replication           | all cores                |
//! | `DTS_EVAL_WORKERS` | GA fitness-evaluation workers per run    | 1                        |
//! | `DTS_SEED`         | master seed                              | 20050404                 |
//! | `DTS_FULL`         | `fig4` only: paper-scale run             | unset                    |
//!
//! Where the reproduction departs from the paper's setup is recorded in
//! ARCHITECTURE.md, "Deviations from the paper".

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod figures;
pub mod report;
pub mod roster;
pub mod scenarios;

pub use report::{write_csv, Table};
pub use roster::{BuildOptions, SchedulerKind, ALL_SCHEDULERS};
pub use scenarios::{env_flag, env_or, Scenario};
