//! Compare all seven schedulers on one simulated scenario — a miniature of
//! the paper's §4 evaluation.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example compare_schedulers
//! ```

use dts::core::{PnConfig, PnScheduler};
use dts::model::{ClusterSpec, Scheduler, SizeDistribution, WorkloadSpec};
use dts::schedulers::{EarliestFinish, LightestLoaded, MaxMin, MinMin, RoundRobin};
use dts::sim::{SimConfig, Simulation};

/// A named scheduler factory; each comparison run builds a fresh instance.
type SchedulerFactory = Box<dyn Fn() -> Box<dyn Scheduler>>;

fn main() {
    let procs = 12;
    let tasks = 300;
    let mean_comm_cost = 15.0; // seconds per one-way message, on average

    // Heterogeneous cluster: ratings uniform in [15, 40) Mflop/s, per-link
    // mean costs normally scattered around the global mean (§4.3).
    let cluster_spec = ClusterSpec {
        processors: procs,
        rating: SizeDistribution::Uniform { lo: 15.0, hi: 40.0 },
        availability: dts::model::AvailabilityModel::Dedicated,
        comm: dts::model::CommCostSpec::with_mean(mean_comm_cost),
    };
    // The paper's Fig. 5 workload: Normal(μ = 1000 MFLOPs, σ² = 9·10⁵).
    let workload = WorkloadSpec::batch(
        tasks,
        SizeDistribution::Normal {
            mean: 1000.0,
            variance: 9.0e5,
        },
    );

    let seed = 0x2005_0404;
    let build: Vec<(&str, SchedulerFactory)> = vec![
        ("EF", Box::new(move || Box::new(EarliestFinish::new(procs)))),
        ("LL", Box::new(move || Box::new(LightestLoaded::new(procs)))),
        ("RR", Box::new(move || Box::new(RoundRobin::new(procs)))),
        (
            "MM",
            Box::new(move || Box::new(MinMin::with_batch_size(procs, 100))),
        ),
        (
            "MX",
            Box::new(move || Box::new(MaxMin::with_batch_size(procs, 100))),
        ),
        (
            "ZO",
            Box::new(move || {
                let cfg = PnConfig {
                    initial_batch: 100,
                    max_batch: 100,
                    ..PnConfig::zo_preset()
                };
                Box::new(PnScheduler::new(procs, cfg))
            }),
        ),
        (
            "PN",
            Box::new(move || {
                let cfg = PnConfig {
                    initial_batch: 100,
                    max_batch: 100,
                    ..PnConfig::default()
                };
                Box::new(PnScheduler::new(procs, cfg))
            }),
        ),
    ];

    println!(
        "{procs} processors, {tasks} tasks, mean comm cost {mean_comm_cost} s (seed {seed:#x})\n"
    );
    println!(
        "{:>4}  {:>12}  {:>10}  {:>12}  {:>10}",
        "", "makespan (s)", "efficiency", "sched busy", "plans"
    );

    let mut results: Vec<(&str, f64, f64)> = Vec::new();
    for (name, factory) in &build {
        let cluster = cluster_spec.build(seed);
        let task_set = workload.generate(seed);
        let report = Simulation::new(cluster, task_set, factory(), SimConfig::default())
            .run()
            .expect("simulation completes");
        println!(
            "{:>4}  {:>12.1}  {:>10.4}  {:>10.3} s  {:>8}",
            name,
            report.makespan,
            report.efficiency,
            report.scheduler_busy,
            report.plan_invocations
        );
        results.push((name, report.makespan, report.efficiency));
    }

    let best = results
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    println!("\nlowest makespan: {} ({:.1} s)", best.0, best.1);
}
