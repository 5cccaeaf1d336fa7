//! One-call experiment execution and parallel replication.
//!
//! Every plotted point in the paper averages tens of independent runs
//! (§4.2: "Each experiment was repeated 50 times and an average result was
//! calculated"). [`run_replicated`] fans replication seeds out of a master
//! seed and executes them on scoped worker threads; results are returned in
//! seed order, so the aggregation is independent of thread scheduling.
//!
//! # Two levels of parallelism
//!
//! Replication threads (this module) and the GA's evaluation workers
//! (`dts_ga::Evaluator`, configured per scheduler via e.g.
//! `PnConfig::ga.evaluator`) compose freely, and neither perturbs
//! results — determinism holds at both levels because every run is a pure
//! function of its fanned-out seed and every fitness batch writes back by
//! chromosome index. For many small replications, prefer replication
//! threads (coarser work items); for a few large runs — big batches, big
//! populations — prefer evaluation workers inside each run. Oversubscribing
//! both multiplies thread counts and wastes time in context switches.
//!
//! Scheduler-internal state that persists across `plan` calls *within* a
//! run — per-processor queues, smoothed signals and the planner's seed
//! stream — is itself derived only from the scheduler's fanned-out seed,
//! so it never couples replications to each other or to thread
//! scheduling.

use dts_distributions::SeedSequence;
use dts_model::{ClusterSpec, Scheduler, WorkloadSpec};

use crate::engine::{SimConfig, SimError, Simulation};
use crate::metrics::SimReport;

/// Builds a fresh scheduler instance for a run.
///
/// Arguments: number of processors, and a seed for any internal randomness
/// (GA schedulers use it; heuristics may ignore it).
pub type SchedulerFactory<'a> = dyn Fn(usize, u64) -> Box<dyn Scheduler> + Sync + 'a;

/// Runs one simulation: build the cluster and workload from `seed`, build
/// the scheduler, simulate.
pub fn run_simulation(
    cluster_spec: &ClusterSpec,
    workload: &WorkloadSpec,
    factory: &SchedulerFactory<'_>,
    sim_config: &SimConfig,
    seed: u64,
) -> Result<SimReport, SimError> {
    let mut seq = SeedSequence::new(seed);
    let cluster_seed = seq.next_seed();
    let workload_seed = seq.next_seed();
    let scheduler_seed = seq.next_seed();
    let sim_seed = seq.next_seed();

    let cluster = cluster_spec.build(cluster_seed);
    let tasks = workload.generate(workload_seed);
    let scheduler = factory(cluster.len(), scheduler_seed);
    let mut config = sim_config.clone();
    config.seed = sim_seed;
    Simulation::new(cluster, tasks, scheduler, config).run()
}

/// Runs `replications` independent simulations (seeds fanned out of
/// `master_seed`) across `threads` scoped threads and returns the reports
/// in replication order.
pub fn run_replicated(
    cluster_spec: &ClusterSpec,
    workload: &WorkloadSpec,
    factory: &SchedulerFactory<'_>,
    sim_config: &SimConfig,
    master_seed: u64,
    replications: usize,
    threads: usize,
) -> Vec<Result<SimReport, SimError>> {
    assert!(replications > 0, "need at least one replication");
    let seq = SeedSequence::new(master_seed);
    let seeds: Vec<u64> = (0..replications as u64).map(|i| seq.seed_at(i)).collect();

    let threads = threads.clamp(1, replications);
    if threads == 1 {
        return seeds
            .iter()
            .map(|&s| run_simulation(cluster_spec, workload, factory, sim_config, s))
            .collect();
    }

    let mut results: Vec<Option<Result<SimReport, SimError>>> =
        (0..replications).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results_mutex = std::sync::Mutex::new(&mut results);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= replications {
                    break;
                }
                let report = run_simulation(cluster_spec, workload, factory, sim_config, seeds[i]);
                let mut guard = results_mutex.lock().expect("collector poisoned");
                guard[i] = Some(report);
            });
        }
    });

    results
        .into_iter()
        .map(|r| r.expect("every replication filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_model::SizeDistribution;
    use dts_schedulers::EarliestFinish;

    fn spec() -> (ClusterSpec, WorkloadSpec) {
        (
            ClusterSpec::paper_defaults(6, 1.0),
            WorkloadSpec::batch(
                48,
                SizeDistribution::Uniform {
                    lo: 10.0,
                    hi: 500.0,
                },
            ),
        )
    }

    #[test]
    fn single_run_completes() {
        let (c, w) = spec();
        let factory =
            |n: usize, _s: u64| -> Box<dyn Scheduler> { Box::new(EarliestFinish::new(n)) };
        let r = run_simulation(&c, &w, &factory, &SimConfig::default(), 11).unwrap();
        assert_eq!(r.tasks_completed, 48);
        assert!(r.efficiency > 0.0 && r.efficiency <= 1.0);
    }

    #[test]
    fn replications_differ_but_are_deterministic() {
        let (c, w) = spec();
        let factory =
            |n: usize, _s: u64| -> Box<dyn Scheduler> { Box::new(EarliestFinish::new(n)) };
        let a = run_replicated(&c, &w, &factory, &SimConfig::default(), 5, 4, 1);
        let b = run_replicated(&c, &w, &factory, &SimConfig::default(), 5, 4, 1);
        let spans = |rs: &[Result<SimReport, SimError>]| -> Vec<f64> {
            rs.iter().map(|r| r.as_ref().unwrap().makespan).collect()
        };
        assert_eq!(spans(&a), spans(&b), "same master seed, same results");
        let sa = spans(&a);
        assert!(
            sa.windows(2).any(|w| w[0] != w[1]),
            "replications should differ from one another"
        );
    }

    #[test]
    fn replication_threads_compose_with_eval_workers() {
        // Outer replication threads × inner GA evaluation workers must
        // leave results bit-identical to the fully serial pipeline.
        let (c, w) = spec();
        let factory_with = |workers: usize| {
            move |n: usize, s: u64| -> Box<dyn Scheduler> {
                let mut cfg = dts_core::PnConfig::default().with_eval_workers(workers);
                cfg.initial_batch = 12;
                cfg.max_batch = 12;
                cfg.ga.max_generations = 15;
                cfg.seed = s;
                Box::new(dts_core::PnScheduler::new(n, cfg))
            }
        };
        let serial = run_replicated(&c, &w, &factory_with(1), &SimConfig::default(), 3, 4, 1);
        let nested = run_replicated(&c, &w, &factory_with(4), &SimConfig::default(), 3, 4, 2);
        for (a, b) in serial.iter().zip(nested.iter()) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
            assert_eq!(a.efficiency.to_bits(), b.efficiency.to_bits());
            assert_eq!(a.total_generations, b.total_generations);
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let (c, w) = spec();
        let factory =
            |n: usize, _s: u64| -> Box<dyn Scheduler> { Box::new(EarliestFinish::new(n)) };
        let seq = run_replicated(&c, &w, &factory, &SimConfig::default(), 9, 6, 1);
        let par = run_replicated(&c, &w, &factory, &SimConfig::default(), 9, 6, 3);
        for (a, b) in seq.iter().zip(par.iter()) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.makespan, b.makespan);
            assert_eq!(a.efficiency, b.efficiency);
        }
    }
}
