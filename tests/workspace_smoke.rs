//! Workspace smoke test: the umbrella crate's re-export surface.
//!
//! Every path the README / quickstart documentation uses must resolve
//! through the `dts` facade, and a small end-to-end simulation must
//! complete. If a crate rename or a dropped `pub use` ever breaks the
//! public API, this file fails to *compile*, which is the point.

// The quickstart / README import surface, spelled exactly as documented.
use dts::core::{PnConfig, PnScheduler};
use dts::distributions::{Rng, SeedSequence};
use dts::ga::{Chromosome, GaConfig};
use dts::model::{
    ClusterSpec, CommCostSpec, Scheduler, SimTime, SizeDistribution, Task, TaskId, WorkloadSpec,
};
use dts::schedulers::{EarliestFinish, LightestLoaded, MaxMin, MinMin, RoundRobin};
use dts::sim::{SimConfig, SimReport, Simulation};

/// Every documented type is nameable and the obvious constructors exist.
#[test]
fn reexport_surface_resolves() {
    // dts::model
    let spec = ClusterSpec::paper_defaults(2, 1.0);
    let _ = CommCostSpec::with_mean(1.0);
    let _ = Task::new(TaskId(0), 100.0, SimTime::ZERO);
    let _ = SizeDistribution::Constant { value: 10.0 };

    // dts::distributions
    let mut seq = SeedSequence::new(7);
    let _ = seq.next_seed();
    let mut rng = dts::distributions::Prng::seed_from(7);
    let _ = rng.below(10);

    // dts::ga
    let _ = GaConfig::default();
    let c = Chromosome::from_queues(&[vec![0, 1], vec![2]]);
    assert!(c.validate().is_ok());

    // dts::schedulers and dts::core — all six baselines and PN construct.
    let procs = 2;
    let _: Vec<Box<dyn Scheduler>> = vec![
        Box::new(EarliestFinish::new(procs)),
        Box::new(LightestLoaded::new(procs)),
        Box::new(RoundRobin::new(procs)),
        Box::new(MinMin::with_batch_size(procs, 4)),
        Box::new(MaxMin::with_batch_size(procs, 4)),
        Box::new(PnScheduler::new(procs, PnConfig::zo_preset())),
        Box::new(PnScheduler::new(procs, PnConfig::default())),
    ];

    // dts::sim
    let _ = SimConfig::default();
    let _ = spec;
}

/// A 10-task / 2-processor end-to-end run completes through the facade.
#[test]
fn end_to_end_10_tasks_2_processors() {
    let cluster = ClusterSpec::paper_defaults(2, 1.0).build(42);
    let workload = WorkloadSpec::batch(
        10,
        SizeDistribution::Uniform {
            lo: 50.0,
            hi: 500.0,
        },
    );
    let tasks = workload.generate(42);

    let mut cfg = PnConfig {
        initial_batch: 5,
        max_batch: 5,
        ..PnConfig::default()
    };
    cfg.ga.max_generations = 20;

    let report: SimReport = Simulation::new(
        cluster,
        tasks,
        Box::new(PnScheduler::new(2, cfg)),
        SimConfig::default(),
    )
    .run()
    .expect("10-task smoke run completes");

    assert_eq!(report.tasks_completed, 10);
    assert!(report.makespan > 0.0);
    assert!((0.0..=1.0).contains(&report.efficiency));
    assert_eq!(report.per_proc.len(), 2);
}
