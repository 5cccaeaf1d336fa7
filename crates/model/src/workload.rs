//! Workload generation: random task sets with configurable size
//! distributions and arrival processes.
//!
//! §4 of the paper: "Our task sizes are randomly generated using uniform,
//! normal, and Poisson distributions. By using different random
//! distributions, we can demonstrate the flexibility of our scheduling
//! algorithm." The concrete parameterisations reproduced here:
//!
//! * Figs. 5–6: `Normal(μ = 1000 MFLOPs, σ² = 9·10⁵)`
//! * Fig. 7:    `Uniform[10, 1000)`
//! * Fig. 8:    `Uniform[10, 100)`
//! * Fig. 9:    `Uniform[10, 10000)`
//! * Fig. 10:   `Poisson(λ = 10)`
//! * Fig. 11:   `Poisson(λ = 100)`
//!
//! In the paper's experiments "all of the tasks arrived for scheduling at
//! the beginning of the simulation" (§4.2); [`ArrivalProcess`] additionally
//! supports Poisson and uniform streams for the dynamic scenarios exercised
//! by the examples and integration tests.

use dts_distributions::{dist, Prng, Rng, SeedSequence};

use crate::graph::{DagFamily, TaskGraph};
use crate::task::{Task, TaskId};
use crate::time::SimTime;

/// Floor applied to every generated task size, in MFLOPs.
///
/// The paper's normal workload (μ=1000, σ²=9·10⁵ ⇒ σ≈949) has ~15 % of its
/// mass below zero; a Poisson(10) draw can be exactly 0. Sizes are redrawn
/// until positive (clamped after 64 attempts), so every task carries real
/// work.
pub const MIN_TASK_MFLOPS: f64 = 1.0;

/// Task-size (or rating) distribution, serialisable-by-hand configuration
/// enum mirroring §4's workloads.
#[derive(Debug, Clone, PartialEq)]
pub enum SizeDistribution {
    /// Every sample equals `value`.
    Constant {
        /// The constant value.
        value: f64,
    },
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// Normal with the paper's mean/variance parameterisation.
    Normal {
        /// Mean.
        mean: f64,
        /// Variance (σ², not σ).
        variance: f64,
    },
    /// Poisson with mean `lambda`.
    Poisson {
        /// Mean (= variance) of the distribution.
        lambda: f64,
    },
}

impl SizeDistribution {
    /// Draws one value. A uniform draw is [`Rng::range_f64`], normal and
    /// Poisson draws are [`dist::normal`] and [`dist::poisson`], and a
    /// constant draws nothing. The parameters must pass
    /// [`SizeDistribution::validate`].
    pub fn sample(&self, rng: &mut Prng) -> f64 {
        match *self {
            SizeDistribution::Constant { value } => value,
            SizeDistribution::Uniform { lo, hi } => rng.range_f64(lo, hi),
            SizeDistribution::Normal { mean, variance } => dist::normal(rng, mean, variance.sqrt()),
            SizeDistribution::Poisson { lambda } => dist::poisson(rng, lambda),
        }
    }

    /// Checks the parameters every [`SizeDistribution::sample`] relies on:
    /// finite uniform bounds with `lo < hi`, a finite normal mean with a
    /// finite variance `> 0`, and a finite Poisson mean `> 0`. A constant
    /// is any value. [`ClusterSpec::build`](crate::ClusterSpec::build)
    /// applies it to ratings and [`SizeDistribution::validate_as_task_sizes`]
    /// to task sizes.
    pub fn validate(&self) -> Result<(), String> {
        let ok = match *self {
            SizeDistribution::Constant { .. } => true,
            SizeDistribution::Uniform { lo, hi } => lo.is_finite() && hi.is_finite() && lo < hi,
            SizeDistribution::Normal { mean, variance } => {
                mean.is_finite() && variance.is_finite() && variance > 0.0
            }
            SizeDistribution::Poisson { lambda } => lambda.is_finite() && lambda > 0.0,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("invalid parameters for {}", self.label()))
        }
    }

    /// On top of [`SizeDistribution::validate`], checks that the
    /// distribution can meaningfully generate task sizes: enough of its
    /// support must clear [`MIN_TASK_MFLOPS`], because samples below the
    /// floor are redrawn (and clamped after 64 attempts). A distribution
    /// whose support lies (essentially) entirely below the floor — e.g.
    /// `Uniform { lo: 0.0, hi: 0.5 }` — would silently degenerate the
    /// whole workload to 1-MFLOP tasks, so [`WorkloadSpec::generate`]
    /// rejects it up front via this check.
    pub fn validate_as_task_sizes(&self) -> Result<(), String> {
        self.validate()?;
        match *self {
            SizeDistribution::Constant { value } => {
                if !value.is_finite() || value < MIN_TASK_MFLOPS {
                    return Err(format!(
                        "constant task size {value} is below the {MIN_TASK_MFLOPS}-MFLOP floor"
                    ));
                }
            }
            SizeDistribution::Uniform { lo, hi } => {
                if hi <= MIN_TASK_MFLOPS {
                    return Err(format!(
                        "uniform[{lo},{hi}) lies entirely below the \
                         {MIN_TASK_MFLOPS}-MFLOP floor: every task would clamp to the minimum"
                    ));
                }
            }
            SizeDistribution::Normal { mean, variance } => {
                // Support is all of ℝ, but with (essentially) no mass above
                // the floor the redraw loop degenerates the same way: 8σ
                // above the mean covers all but ~6e-16 of the distribution.
                if mean + 8.0 * variance.sqrt() < MIN_TASK_MFLOPS {
                    return Err(format!(
                        "normal(mu={mean}, var={variance}) has essentially no mass above \
                         the {MIN_TASK_MFLOPS}-MFLOP floor"
                    ));
                }
            }
            SizeDistribution::Poisson { .. } => {}
        }
        Ok(())
    }

    /// Short human-readable label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            SizeDistribution::Constant { value } => format!("const({value})"),
            SizeDistribution::Uniform { lo, hi } => format!("uniform[{lo},{hi})"),
            SizeDistribution::Normal { mean, variance } => {
                format!("normal(mu={mean},var={variance:.0})")
            }
            SizeDistribution::Poisson { lambda } => format!("poisson({lambda})"),
        }
    }
}

/// When tasks become visible to the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Everything arrives at t = 0 — the paper's experimental setting.
    AllAtStart,
    /// A Poisson stream: exponential inter-arrival times with the given
    /// mean, in seconds.
    PoissonStream {
        /// Mean inter-arrival gap in seconds.
        mean_interarrival: f64,
    },
    /// Arrival times drawn uniformly over `[0, window)` seconds.
    UniformOver {
        /// Length of the arrival window in seconds.
        window: f64,
    },
}

/// Declarative description of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of tasks to generate.
    pub count: usize,
    /// Size distribution (MFLOPs per task).
    pub sizes: SizeDistribution,
    /// Arrival process.
    pub arrival: ArrivalProcess,
}

impl WorkloadSpec {
    /// Batch workload (all tasks at t=0), matching §4.2.
    pub fn batch(count: usize, sizes: SizeDistribution) -> Self {
        Self {
            count,
            sizes,
            arrival: ArrivalProcess::AllAtStart,
        }
    }

    /// Generates the task set. Identical `(spec, seed)` pairs generate
    /// identical task sets; tasks are sorted by arrival time and densely
    /// numbered in that order.
    ///
    /// # Panics
    ///
    /// Panics if the size distribution cannot generate meaningful task
    /// sizes (see [`SizeDistribution::validate_as_task_sizes`]), if a
    /// Poisson stream's mean inter-arrival time is not finite and positive
    /// (with a finite rate), or if a uniform arrival window is not
    /// positive.
    pub fn generate(&self, seed: u64) -> Vec<Task> {
        if let Err(e) = self.sizes.validate_as_task_sizes() {
            panic!("invalid task-size distribution: {e}");
        }
        let mut seq = SeedSequence::new(seed);
        let mut size_rng = Prng::seed_from(seq.next_seed());
        let mut arrival_rng = Prng::seed_from(seq.next_seed());

        let mut arrivals: Vec<f64> = match self.arrival {
            ArrivalProcess::AllAtStart => vec![0.0; self.count],
            ArrivalProcess::PoissonStream { mean_interarrival } => {
                let lambda = 1.0 / mean_interarrival;
                assert!(
                    mean_interarrival.is_finite() && mean_interarrival > 0.0 && lambda.is_finite(),
                    "invalid mean inter-arrival time {mean_interarrival}"
                );
                let mut t = 0.0;
                (0..self.count)
                    .map(|_| {
                        t += dist::exponential(&mut arrival_rng, lambda);
                        t
                    })
                    .collect()
            }
            ArrivalProcess::UniformOver { window } => {
                assert!(window > 0.0, "arrival window must be positive");
                (0..self.count)
                    .map(|_| arrival_rng.range_f64(0.0, window))
                    .collect()
            }
        };
        arrivals.sort_by(|a, b| a.partial_cmp(b).expect("arrival times are finite"));

        arrivals
            .into_iter()
            .enumerate()
            .map(|(i, at)| {
                let mflops = draw_positive_size(&self.sizes, &mut size_rng);
                Task::new(
                    TaskId(u32::try_from(i).expect("more than u32::MAX tasks")),
                    mflops,
                    SimTime::new(at),
                )
            })
            .collect()
    }

    /// Generates the task set **and** a precedence graph over it from one
    /// of the DAG scenario families. The tasks are exactly
    /// [`WorkloadSpec::generate`]`(seed)` — bit-identical, so a DAG run
    /// and an independent-task run over the same `(spec, seed)` schedule
    /// the same work — and the graph is built by
    /// [`DagFamily::build`] over the same count with a seed fanned out of
    /// `seed` (deterministic, independent of the size/arrival streams).
    ///
    /// Family edges always point from lower to higher task id, and ids are
    /// dense in arrival order, so under any arrival process a predecessor
    /// never arrives after its successor's dependency is first needed.
    pub fn generate_dag(&self, family: &DagFamily, seed: u64) -> (Vec<Task>, TaskGraph) {
        let tasks = self.generate(seed);
        let mut seq = SeedSequence::new(seed);
        // Skip the two seeds generate() consumed so the graph stream is
        // independent of (but still derived from) the workload seed.
        let _ = seq.next_seed();
        let _ = seq.next_seed();
        let graph = family.build(tasks.len(), seq.next_seed());
        (tasks, graph)
    }
}

/// Draws one size, redrawing until it clears [`MIN_TASK_MFLOPS`]
/// (64-attempt cap, then clamps).
fn draw_positive_size(sizes: &SizeDistribution, rng: &mut Prng) -> f64 {
    for _ in 0..64 {
        let x = sizes.sample(rng);
        if x.is_finite() && x >= MIN_TASK_MFLOPS {
            return x;
        }
    }
    MIN_TASK_MFLOPS
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_distributions::OnlineStats;

    #[test]
    fn batch_arrivals_all_zero() {
        let spec = WorkloadSpec::batch(
            100,
            SizeDistribution::Uniform {
                lo: 10.0,
                hi: 100.0,
            },
        );
        let tasks = spec.generate(1);
        assert_eq!(tasks.len(), 100);
        assert!(tasks.iter().all(|t| t.arrival == SimTime::ZERO));
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let spec = WorkloadSpec {
            count: 50,
            sizes: SizeDistribution::Constant { value: 5.0 },
            arrival: ArrivalProcess::PoissonStream {
                mean_interarrival: 2.0,
            },
        };
        let tasks = spec.generate(2);
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.id.index(), i);
        }
        for w in tasks.windows(2) {
            assert!(w[0].arrival <= w[1].arrival, "sorted by arrival");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::batch(
            200,
            SizeDistribution::Normal {
                mean: 1000.0,
                variance: 9.0e5,
            },
        );
        assert_eq!(spec.generate(7), spec.generate(7));
        assert_ne!(spec.generate(7), spec.generate(8));
    }

    #[test]
    fn normal_workload_truncated_positive() {
        // The paper's parameters put ~15 % of the untruncated mass below 0.
        let spec = WorkloadSpec::batch(
            5000,
            SizeDistribution::Normal {
                mean: 1000.0,
                variance: 9.0e5,
            },
        );
        let tasks = spec.generate(3);
        assert!(tasks.iter().all(|t| t.mflops >= MIN_TASK_MFLOPS));
        let stats: OnlineStats = tasks.iter().map(|t| t.mflops).collect();
        // Truncation raises the mean above 1000; it must stay in a sane band.
        assert!(
            stats.mean() > 1000.0 && stats.mean() < 1500.0,
            "{}",
            stats.mean()
        );
    }

    #[test]
    fn poisson_workload_positive_integers() {
        let spec = WorkloadSpec::batch(2000, SizeDistribution::Poisson { lambda: 10.0 });
        let tasks = spec.generate(4);
        for t in &tasks {
            assert!(t.mflops >= 1.0);
            assert_eq!(t.mflops.fract(), 0.0, "poisson sizes are integers");
        }
    }

    #[test]
    fn uniform_workload_respects_bounds() {
        let spec = WorkloadSpec::batch(
            2000,
            SizeDistribution::Uniform {
                lo: 10.0,
                hi: 10000.0,
            },
        );
        let tasks = spec.generate(5);
        for t in &tasks {
            assert!((10.0..10000.0).contains(&t.mflops));
        }
    }

    #[test]
    fn uniform_over_window() {
        let spec = WorkloadSpec {
            count: 500,
            sizes: SizeDistribution::Constant { value: 5.0 },
            arrival: ArrivalProcess::UniformOver { window: 100.0 },
        };
        let tasks = spec.generate(6);
        assert!(tasks.iter().all(|t| t.arrival.seconds() < 100.0));
        assert!(tasks.iter().any(|t| t.arrival.seconds() > 1.0));
    }

    #[test]
    fn sub_floor_distributions_rejected() {
        // Every one of these would previously degenerate to an all-1-MFLOP
        // workload via the 64-redraw clamp.
        let bad = [
            SizeDistribution::Uniform { lo: 0.0, hi: 0.5 },
            SizeDistribution::Uniform { lo: 0.2, hi: 1.0 },
            SizeDistribution::Constant { value: 0.5 },
            SizeDistribution::Normal {
                mean: -100.0,
                variance: 1.0,
            },
        ];
        for d in bad {
            assert!(d.validate_as_task_sizes().is_err(), "{d:?} accepted");
        }
        let good = [
            SizeDistribution::Uniform { lo: 0.0, hi: 1.5 },
            SizeDistribution::Constant { value: 1.0 },
            SizeDistribution::Normal {
                mean: 1000.0,
                variance: 9.0e5,
            },
            SizeDistribution::Poisson { lambda: 10.0 },
        ];
        for d in good {
            assert!(d.validate_as_task_sizes().is_ok(), "{d:?} rejected");
        }
    }

    #[test]
    fn constant_is_constant() {
        let d = SizeDistribution::Constant { value: 42.0 };
        let mut rng = Prng::seed_from(1);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 42.0);
        }
        assert_eq!(rng, Prng::seed_from(1), "a constant draws nothing");
    }

    /// Asserts that `d` fails the parameter check and that both entry
    /// points that sample it (workload generation and cluster build) panic.
    fn assert_rejected_everywhere(case: &str, d: SizeDistribution) {
        use crate::ClusterSpec;
        assert!(d.validate().is_err(), "{case}: accepted");
        let workload = WorkloadSpec::batch(4, d.clone());
        assert!(
            panics(|| workload.generate(1)),
            "{case}: workload generated"
        );
        let cluster = ClusterSpec {
            rating: d,
            ..ClusterSpec::paper_defaults(2, 1.0)
        };
        assert!(panics(|| cluster.build(1)), "{case}: cluster built");
    }

    fn panics<T>(f: impl FnOnce() -> T) -> bool {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        catch_unwind(AssertUnwindSafe(f)).is_err()
    }

    #[test]
    fn uniform_rejects_bad_range() {
        let bad = [
            ("lo == hi", SizeDistribution::Uniform { lo: 5.0, hi: 5.0 }),
            ("lo > hi", SizeDistribution::Uniform { lo: 9.0, hi: 3.0 }),
            (
                "NaN bound",
                SizeDistribution::Uniform {
                    lo: f64::NAN,
                    hi: 3.0,
                },
            ),
        ];
        for (case, d) in bad {
            assert_rejected_everywhere(case, d);
        }
    }

    #[test]
    fn normal_rejects_bad_sigma() {
        let bad = [
            ("σ² = 0", 0.0),
            ("σ² < 0", -1.0),
            ("σ² = +∞", f64::INFINITY),
        ];
        for (case, variance) in bad {
            let d = SizeDistribution::Normal {
                mean: 1000.0,
                variance,
            };
            assert_rejected_everywhere(case, d);
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = SizeDistribution::Uniform { lo: 5.0, hi: 2.0 }
            .validate()
            .unwrap_err();
        assert!(e.contains("uniform[5,2)"), "{e}");
        let e = SizeDistribution::Normal {
            mean: 0.0,
            variance: -3.0,
        }
        .validate()
        .unwrap_err();
        assert!(e.contains("-3"), "{e}");
    }

    #[test]
    fn parameter_check_rejects_each_bad_input() {
        use crate::{ClusterSpec, Link, ProcessorId};
        let bad = [
            ("λ = 0", SizeDistribution::Poisson { lambda: 0.0 }),
            ("λ < 0", SizeDistribution::Poisson { lambda: -1.0 }),
        ];
        for (case, d) in bad {
            assert_rejected_everywhere(case, d);
        }
        for mean_interarrival in [0.0, -1.0] {
            let spec = WorkloadSpec {
                count: 4,
                sizes: SizeDistribution::Constant { value: 5.0 },
                arrival: ArrivalProcess::PoissonStream { mean_interarrival },
            };
            assert!(
                panics(|| spec.generate(1)),
                "mean inter-arrival {mean_interarrival}: generated"
            );
        }
        let link = Link::new(ProcessorId(0), 20.0, f64::NAN);
        assert!(
            panics(|| link.sample_cost(&mut Prng::seed_from(1))),
            "NaN link jitter: drew a cost"
        );
        let mut cluster = ClusterSpec::paper_defaults(2, 1.0);
        cluster.comm.link_spread = f64::NAN;
        assert!(
            panics(|| cluster.build(1)),
            "NaN link spread: cluster built"
        );
        // A constant rating is any value: the cluster clamps it to 1 Mflop/s.
        let cluster = ClusterSpec {
            rating: SizeDistribution::Constant { value: f64::NAN },
            ..ClusterSpec::paper_defaults(2, 1.0)
        };
        assert!(cluster.rating.validate().is_ok());
        let ratings: Vec<f64> = cluster
            .build(1)
            .processors
            .iter()
            .map(|p| p.rated_mflops)
            .collect();
        assert_eq!(ratings, [1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "invalid task-size distribution")]
    fn generate_rejects_sub_floor_spec() {
        let spec = WorkloadSpec::batch(10, SizeDistribution::Uniform { lo: 0.0, hi: 0.5 });
        let _ = spec.generate(1);
    }

    #[test]
    fn dag_workload_reuses_the_plain_task_stream() {
        let spec = WorkloadSpec::batch(
            30,
            SizeDistribution::Uniform {
                lo: 10.0,
                hi: 100.0,
            },
        );
        let family = DagFamily::RandomLayered {
            layers: 3,
            edge_probability: 0.5,
        };
        let (tasks, graph) = spec.generate_dag(&family, 11);
        assert_eq!(tasks, spec.generate(11), "tasks must be bit-identical");
        assert_eq!(graph.len(), 30);
        assert!(graph.has_edges());
        let (again_t, again_g) = spec.generate_dag(&family, 11);
        assert_eq!(tasks, again_t);
        assert_eq!(graph, again_g, "same seed, same graph");
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(
            SizeDistribution::Uniform {
                lo: 10.0,
                hi: 100.0
            }
            .label(),
            "uniform[10,100)"
        );
        assert!(SizeDistribution::Poisson { lambda: 10.0 }
            .label()
            .contains("poisson"));
    }
}
