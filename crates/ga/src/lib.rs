//! Generic genetic-algorithm engine for permutation-with-delimiters
//! schedules.
//!
//! The paper's GA (Fig. 1) repeats *crossover → random mutation → selection*
//! over a population of schedule encodings until a stopping condition is
//! met. This crate implements that machinery generically, over any
//! [`Problem`] that evaluates a schedule's fitness and makespan
//! ([`Problem::evaluate_into`]); the PN scheduler
//! (`dts-core`) plugs in its own, and its ZO preset a second one. One
//! engine evolves one population per batch:
//!
//! * [`encoding::Chromosome`] — the §3.1 encoding: a permutation of task
//!   slots and `M − 1` delimiter symbols splitting it into per-processor
//!   queues.
//! * [`selection`] — weighted roulette-wheel (the paper's choice), plus
//!   tournament and rank selection for ablation studies.
//! * [`crossover`] — cycle crossover (Oliver et al., as used in the paper),
//!   plus order crossover and a one-point/repair variant for ablations.
//! * [`mutation`] — random swap (the paper's choice).
//! * [`repair`] — deterministic topological gene repair for
//!   precedence-constrained batches: the engine repairs every chromosome
//!   it creates ([`Problem::repair`]), making feasibility an invariant of
//!   the evaluated population instead of a penalty term.
//! * [`engine`] — the generation loop with elitism, per-generation local
//!   improvement hooks (for §3.5's rebalancing heuristic), statistics
//!   history, and the §3.4 stopping conditions; [`GaEngine::start`] hands
//!   out the same loop one generation per [`GaRun::step`], for drivers
//!   that stop on a deadline or an event.
//! * [`evaluate`] — the deterministic evaluation pipeline:
//!   [`evaluate::Evaluator`] executes fitness batches either serially or on
//!   a scoped thread pool, with results written back by chromosome index so
//!   runs are bit-identical at any worker count.
//! * Incremental evaluation: a crossover child that is a copy of a parent
//!   (common late in convergence, when cycle crossover pairs identical or
//!   near-identical parents) inherits that parent's evaluation
//!   ([`crossover::Parent`]), and a swap mutation is delta-evaluated
//!   ([`Problem::evaluate_swap_delta`]). A converged generation walks few
//!   chromosomes in full, and stays bit-identical to one that walks all.
//!   Breeding it is cheap too: cycle crossover walks only the positions
//!   where its parents differ, and the roulette wheel is built once per
//!   generation ([`SelectionOp::prepare`]).
//!
//! # Parallel evaluation
//!
//! Fitness evaluation dominates a GA scheduler's wall-clock, so
//! [`GaConfig::evaluator`] selects where it runs. Determinism is
//! preserved by construction — evaluation draws no randomness and results
//! land at fixed indices:
//!
//! ```
//! use dts_ga::{Evaluator, GaConfig};
//!
//! let serial = GaConfig::default();
//! let parallel = GaConfig { evaluator: Evaluator::ThreadPool { workers: 4 }, ..serial.clone() };
//! // Same operators + same seed ⇒ the two configurations produce
//! // bit-identical GaResults; only the wall-clock differs.
//! assert_eq!(serial.evaluator, Evaluator::Serial);
//! assert_eq!(parallel.evaluator.effective_workers(), 4);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod crossover;
pub mod encoding;
pub mod engine;
pub mod evaluate;
pub mod mutation;
pub mod repair;
pub mod selection;

pub use crossover::{CrossoverOp, CycleCrossover, OnePointOrder, OrderCrossover, Parent};
pub use encoding::{Chromosome, Gene};
pub use engine::{GaConfig, GaEngine, GaResult, GaRun, GaStep, GenStats, Problem, StopReason};
pub use evaluate::{BatchEval, Evaluated, Evaluator};
pub use mutation::{GeneEdit, MutationOp, SwapMutation};
pub use repair::{repair_topological, SlotPrecedence};
pub use selection::{RankSelection, RouletteWheel, SelectionOp, Tournament};
