//! Shared experiment scenarios: the paper's cluster and workload
//! parameterisations, plus environment-variable scaling.

use dts_distributions::{OnlineStats, SeedSequence};
use dts_model::{AvailabilityModel, ClusterSpec, CommCostSpec, SizeDistribution, WorkloadSpec};
use dts_sim::{run_replicated, SimConfig, SimReport};

use crate::roster::{BuildOptions, SchedulerKind};

/// Reads an integer/float environment knob with a default. Unset means
/// the default; a variable that is set but does not parse is a typo, not a
/// request for the full-scale default, so it is reported and the process
/// exits non-zero.
pub fn env_or<T>(name: &str, default: T) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, raw.as_deref(), default).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

/// The decision behind [`env_or`]: `None` (unset) yields the default, a
/// value that parses yields itself, anything else is `NAME=value: <error>`.
fn parse_knob<T>(name: &str, raw: Option<&str>, default: T) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match raw {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("{name}={v}: {e}")),
    }
}

/// True when the environment flag is set to a non-empty, non-"0" value.
pub fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// A fully specified experiment scenario: cluster + workload + replication.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Cluster description.
    pub cluster: ClusterSpec,
    /// Workload description.
    pub workload: WorkloadSpec,
    /// Simulator knobs.
    pub sim: SimConfig,
    /// Replications per measured point.
    pub reps: usize,
    /// Worker threads for replication.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Batch/GA options applied to every scheduler.
    pub build: BuildOptions,
}

impl Scenario {
    /// The paper's base setup (§4.2): `DTS_PROCS` heterogeneous dedicated
    /// processors (default 50), ratings uniform in [15, 40) Mflop/s, batch
    /// size 200, `DTS_TASKS` tasks, `DTS_REPS` replications.
    ///
    /// The rating band is chosen so that the mean task of the Fig. 5
    /// workload (1000 MFLOPs) computes for ~35 s — comparable to the
    /// round-trip communication cost at the sweep's right edge, which is
    /// the regime the paper's efficiency plots cover (see ARCHITECTURE.md,
    /// "Deviations from the paper").
    pub fn paper_base(sizes: SizeDistribution, default_tasks: usize, default_reps: usize) -> Self {
        let procs: usize = env_or("DTS_PROCS", 50);
        let tasks: usize = env_or("DTS_TASKS", default_tasks);
        let reps: usize = env_or("DTS_REPS", default_reps);
        let threads: usize = env_or(
            "DTS_THREADS",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        );
        let seed: u64 = env_or("DTS_SEED", 20_050_404);
        // GA fitness-evaluation workers per run (1 = serial). Replication
        // threads are the better lever for many small runs.
        let build = BuildOptions {
            evaluator: dts_ga::Evaluator::threads(env_or("DTS_EVAL_WORKERS", 1)),
            ..BuildOptions::default()
        };
        Self {
            cluster: ClusterSpec {
                processors: procs,
                rating: SizeDistribution::Uniform { lo: 15.0, hi: 40.0 },
                availability: AvailabilityModel::Dedicated,
                comm: CommCostSpec::with_mean(0.0),
            },
            workload: WorkloadSpec::batch(tasks, sizes),
            sim: SimConfig::default(),
            reps,
            threads,
            seed,
            build,
        }
    }

    /// Sets the global mean communication cost.
    pub fn with_comm_cost(mut self, mean: f64) -> Self {
        self.cluster.comm = CommCostSpec::with_mean(mean);
        self
    }

    /// The scheduler factory [`Scenario::run`] uses: builds `kind` with
    /// this scenario's options, folding the kind's [`SchedulerKind::seed_tag`]
    /// into the scheduler seed only. Cluster and workload seeds fan out of
    /// the replication seed *before* the factory is consulted, so every
    /// scheduler kind sees the identical sequence of clusters/workloads
    /// per replication (paper: "all schedulers were presented with the
    /// same set of tasks") while the GA schedulers' private RNG streams
    /// stay decorrelated across kinds.
    pub fn factory_for(
        &self,
        kind: SchedulerKind,
    ) -> impl Fn(usize, u64) -> Box<dyn dts_model::Scheduler> + Sync {
        let build = self.build.clone();
        let tag = kind.seed_tag();
        move |n: usize, seed: u64| kind.build_with(n, seed ^ tag, &build)
    }

    /// Runs one scheduler across all replications and aggregates.
    pub fn run(&self, kind: SchedulerKind) -> ScenarioResult {
        let factory = self.factory_for(kind);
        let reports = run_replicated(
            &self.cluster,
            &self.workload,
            &factory,
            &self.sim,
            self.seed,
            self.reps,
            self.threads,
        );
        ScenarioResult::aggregate(kind, reports)
    }

    /// Derives a per-point seed for sweeps so points are independent but
    /// reproducible.
    pub fn seed_for_point(&self, index: u64) -> u64 {
        SeedSequence::new(self.seed ^ 0xF1C).seed_at(index)
    }
}

/// Aggregated metrics for one scheduler on one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Which scheduler.
    pub kind: SchedulerKind,
    /// Makespan statistics over replications.
    pub makespan: OnlineStats,
    /// Efficiency statistics over replications.
    pub efficiency: OnlineStats,
    /// Failed replications (should be zero).
    pub failures: usize,
}

impl ScenarioResult {
    fn aggregate(kind: SchedulerKind, reports: Vec<Result<SimReport, dts_sim::SimError>>) -> Self {
        let mut makespan = OnlineStats::new();
        let mut efficiency = OnlineStats::new();
        let mut failures = 0;
        for r in reports {
            match r {
                Ok(rep) => {
                    makespan.push(rep.makespan);
                    efficiency.push(rep.efficiency);
                }
                Err(_) => failures += 1,
            }
        }
        Self {
            kind,
            makespan,
            efficiency,
            failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_or_parses_and_defaults() {
        std::env::remove_var("DTS_TEST_KNOB");
        assert_eq!(env_or::<usize>("DTS_TEST_KNOB", 7), 7);
        std::env::set_var("DTS_TEST_KNOB", "13");
        assert_eq!(env_or::<usize>("DTS_TEST_KNOB", 7), 13);
        std::env::remove_var("DTS_TEST_KNOB");
    }

    #[test]
    fn parse_knob_defaults_only_when_unset() {
        assert_eq!(parse_knob::<usize>("DTS_REPS", None, 7), Ok(7));
        assert_eq!(parse_knob::<usize>("DTS_REPS", Some("13"), 7), Ok(13));
        assert_eq!(parse_knob::<f64>("DTS_COMM", Some("2e3"), 0.0), Ok(2e3));
    }

    #[test]
    fn parse_knob_reports_a_set_value_that_does_not_parse() {
        // Empty, a letter O for a zero, float syntax for a usize, and a
        // negative value for an unsigned type: none falls back to 7.
        for raw in ["", "1O", "2e3", "-5"] {
            let err = parse_knob::<usize>("DTS_TASKS", Some(raw), 7).unwrap_err();
            let reason = err.strip_prefix(&format!("DTS_TASKS={raw}: "));
            assert!(reason.is_some_and(|r| !r.is_empty()), "{err}");
        }
        assert!(parse_knob::<u64>("DTS_SEED", Some("-1"), 7).is_err());
        assert!(parse_knob::<f64>("DTS_COMM", Some("fast"), 0.0).is_err());
    }

    #[test]
    fn scenario_runs_a_heuristic() {
        let mut s = Scenario::paper_base(
            SizeDistribution::Uniform {
                lo: 10.0,
                hi: 100.0,
            },
            60,
            3,
        );
        s.cluster.processors = 6;
        s.reps = 3;
        s.threads = 1;
        let r = s.run(SchedulerKind::Ef);
        assert_eq!(r.failures, 0);
        assert_eq!(r.makespan.count(), 3);
        assert!(r.efficiency.mean() > 0.0);
    }

    #[test]
    fn scheduler_kinds_see_identical_workloads_per_replication() {
        // The seed fold must decorrelate GA streams *without* perturbing
        // the cluster/workload sequence: for every replication seed, every
        // scheduler kind must be handed the identical task set.
        use dts_distributions::SeedSequence;
        use dts_sim::run_simulation;

        let mut s = Scenario::paper_base(
            SizeDistribution::Uniform {
                lo: 10.0,
                hi: 200.0,
            },
            24,
            2,
        );
        s.cluster.processors = 4;
        s.build.batch_size = 12;
        s.build.max_generations = 20;
        s.sim.record_trace = true;

        let seq = SeedSequence::new(s.seed);
        for rep in 0..2u64 {
            let rep_seed = seq.seed_at(rep);
            let mut task_sets: Vec<Vec<(usize, u64)>> = Vec::new();
            for kind in [SchedulerKind::Ef, SchedulerKind::Rr, SchedulerKind::Zo] {
                let factory = s.factory_for(kind);
                let report = run_simulation(&s.cluster, &s.workload, &factory, &s.sim, rep_seed)
                    .expect("replication completes");
                let mut tasks: Vec<(usize, u64)> = report
                    .trace
                    .expect("trace recorded")
                    .spans()
                    .iter()
                    .map(|sp| (sp.task.index(), sp.mflops.to_bits()))
                    .collect();
                tasks.sort_unstable();
                task_sets.push(tasks);
            }
            assert_eq!(task_sets[0], task_sets[1], "EF vs RR, rep {rep}");
            assert_eq!(task_sets[0], task_sets[2], "EF vs ZO, rep {rep}");
        }
    }

    #[test]
    fn seed_fold_decorrelates_ga_streams() {
        // Same replication seed, different kind tags: the scheduler seed
        // handed to the factory differs, so two GA schedulers cannot share
        // an RNG stream by accident.
        assert_ne!(
            SchedulerKind::Zo.seed_tag(),
            SchedulerKind::Pn.seed_tag(),
            "GA kinds must fold distinct tags into their seeds"
        );
    }

    #[test]
    fn comm_cost_reduces_efficiency() {
        let base = {
            let mut s = Scenario::paper_base(
                SizeDistribution::Uniform {
                    lo: 100.0,
                    hi: 500.0,
                },
                60,
                3,
            );
            s.cluster.processors = 6;
            s.threads = 1;
            s
        };
        let free = base.clone().run(SchedulerKind::Ef);
        let costly = base.with_comm_cost(20.0).run(SchedulerKind::Ef);
        assert!(
            costly.efficiency.mean() < free.efficiency.mean(),
            "{} !< {}",
            costly.efficiency.mean(),
            free.efficiency.mean()
        );
    }
}
