//! The simulator keeps the [`SystemView`](dts_model::SystemView) it hands
//! to `Scheduler::plan` current event by event instead of rebuilding it
//! per plan call. In debug builds every plan call checks each view entry
//! against one recomputed from the worker's state (and the count of
//! waiting workers against a recount), so this suite's job is to reach
//! every path that changes a worker: all ten schedulers, immediate and
//! batch mode, on dedicated and non-dedicated processors (availability
//! changes rewrite the in-flight work), on independent tasks and on a
//! layered DAG (results release held-back successors). A stale entry
//! panics inside the run; a clean run completes every task.

use dts_core::{PnConfig, PnScheduler};
use dts_model::{
    ArrivalProcess, AvailabilityModel, ClusterSpec, CommCostSpec, DagFamily, Scheduler,
    SizeDistribution, TaskGraph, WorkloadSpec,
};
use dts_schedulers::{
    EarliestFinish, KPercentBest, LightestLoaded, MaxMin, MinMin, Olb, RoundRobin, Sufferage,
};
use dts_sim::{SimConfig, Simulation};

const PROCS: usize = 4;
const TASKS: usize = 48;

/// The ten schedulers, GA ones at a small generation cap.
fn schedulers() -> Vec<Box<dyn Scheduler>> {
    let small = |mut cfg: PnConfig| {
        cfg.ga.max_generations = 20;
        cfg.min_generations = 2;
        cfg
    };
    vec![
        Box::new(EarliestFinish::new(PROCS)),
        Box::new(LightestLoaded::new(PROCS)),
        Box::new(RoundRobin::new(PROCS)),
        Box::new(MinMin::with_batch_size(PROCS, 8)),
        Box::new(MaxMin::with_batch_size(PROCS, 8)),
        Box::new(Olb::new(PROCS)),
        Box::new(KPercentBest::new(PROCS, 0.5)),
        Box::new(Sufferage::with_batch_size(PROCS, 8)),
        Box::new(PnScheduler::new(PROCS, small(PnConfig::zo_preset()))),
        Box::new(PnScheduler::new(PROCS, small(PnConfig::default()))),
    ]
}

fn availabilities() -> [AvailabilityModel; 3] {
    [
        AvailabilityModel::Dedicated,
        AvailabilityModel::RandomWalk {
            min: 0.2,
            max: 1.0,
            step: 0.3,
            period: 2.0,
        },
        AvailabilityModel::TwoLevel {
            high: 1.0,
            low: 0.2,
            high_secs: 5.0,
            low_secs: 5.0,
        },
    ]
}

/// Every scheduler × availability model, on `graph`.
fn run_all(graph: &TaskGraph) {
    for (a, availability) in availabilities().into_iter().enumerate() {
        for scheduler in schedulers() {
            let name = scheduler.name();
            let cluster = ClusterSpec {
                processors: PROCS,
                rating: SizeDistribution::Uniform { lo: 15.0, hi: 40.0 },
                availability: availability.clone(),
                comm: CommCostSpec::with_mean(0.5),
            }
            .build(0x0AC1E + a as u64);
            let tasks = WorkloadSpec {
                count: TASKS,
                sizes: SizeDistribution::Uniform {
                    lo: 10.0,
                    hi: 200.0,
                },
                arrival: ArrivalProcess::PoissonStream {
                    mean_interarrival: 0.5,
                },
            }
            .generate(0x7A5C);
            let sim = Simulation::new_with_graph(
                cluster,
                tasks,
                graph.clone(),
                scheduler,
                SimConfig::default(),
            );
            let report = sim
                .run()
                .unwrap_or_else(|e| panic!("{name} under availability #{a}: {e}"));
            assert_eq!(
                report.tasks_completed, TASKS as u64,
                "{name} under availability #{a}"
            );
            assert!(report.plan_invocations > 0, "{name} never planned");
        }
    }
}

#[test]
fn view_matches_worker_state_at_every_plan_call() {
    run_all(&TaskGraph::independent(TASKS));
    let dag = DagFamily::RandomLayered {
        layers: 6,
        edge_probability: 0.3,
    }
    .build(TASKS, 0xDA6);
    assert!(dag.has_edges());
    run_all(&dag);
}
