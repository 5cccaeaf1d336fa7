//! Integration: dynamic task arrival — the regime the paper's title
//! promises ("tasks arrive randomly … the scheduler operates dynamically")
//! but its experiments simplify away (§4.2 has all tasks arrive at t = 0).
//! These tests exercise the continuous-arrival path end-to-end.

use dts::core::{PnConfig, PnScheduler, SeedStrategy};
use dts::model::{ArrivalProcess, ClusterSpec, Scheduler, SizeDistribution, WorkloadSpec};
use dts::schedulers::{EarliestFinish, RoundRobin};
use dts::sim::{SimConfig, Simulation};

fn run_stream(
    sched: Box<dyn Scheduler>,
    mean_interarrival: f64,
    tasks: usize,
    seed: u64,
) -> dts::sim::SimReport {
    let cluster = ClusterSpec::paper_defaults(6, 1.0).build(seed);
    let workload = WorkloadSpec {
        count: tasks,
        sizes: SizeDistribution::Uniform {
            lo: 50.0,
            hi: 500.0,
        },
        arrival: ArrivalProcess::PoissonStream { mean_interarrival },
    };
    let task_set = workload.generate(seed);
    Simulation::new(cluster, task_set, sched, SimConfig::default())
        .run()
        .expect("stream simulation completes")
}

#[test]
fn pn_handles_trickling_arrivals() {
    // One task every ~5 s on average: the scheduler must keep planning
    // tiny batches forever rather than waiting for a big backlog.
    let mut cfg = PnConfig::default();
    cfg.ga.max_generations = 40;
    let report = run_stream(Box::new(PnScheduler::new(6, cfg)), 5.0, 80, 31);
    assert_eq!(report.tasks_completed, 80);
    assert!(report.plan_invocations >= 2, "must plan repeatedly");
}

#[test]
fn immediate_schedulers_handle_bursts() {
    for sched in [
        Box::new(EarliestFinish::new(6)) as Box<dyn Scheduler>,
        Box::new(RoundRobin::new(6)),
    ] {
        let report = run_stream(sched, 0.01, 120, 37);
        assert_eq!(report.tasks_completed, 120);
    }
}

#[test]
fn makespan_tracks_arrival_horizon_when_arrivals_dominate() {
    // With huge inter-arrival gaps the system is arrival-bound: the
    // makespan must be close to (last arrival + one task's round trip),
    // not inflated by queueing.
    let cluster = ClusterSpec::paper_defaults(4, 0.1).build(41);
    let workload = WorkloadSpec {
        count: 10,
        sizes: SizeDistribution::Constant { value: 100.0 },
        arrival: ArrivalProcess::PoissonStream {
            mean_interarrival: 200.0,
        },
    };
    let tasks = workload.generate(41);
    let last_arrival = tasks.last().unwrap().arrival.seconds();
    let report = Simulation::new(
        cluster,
        tasks,
        Box::new(EarliestFinish::new(4)),
        SimConfig::default(),
    )
    .run()
    .unwrap();
    assert!(report.makespan >= last_arrival);
    assert!(
        report.makespan < last_arrival + 60.0,
        "an arrival-bound run must finish shortly after the last arrival: \
         makespan {} vs last arrival {last_arrival}",
        report.makespan
    );
}

/// The regime warm-starting is *for*: a continuous arrival stream, one GA
/// run per batch, elites carried (and remapped) between runs. The carried
/// population must keep the run bit-stable, survive the stream end-to-end,
/// and actually alter the evolution relative to fresh seeding.
#[test]
fn pn_warm_start_streams_deterministically() {
    let run = |strategy: SeedStrategy| {
        let mut cfg = PnConfig {
            initial_batch: 10,
            max_batch: 10,
            seed_strategy: strategy,
            ..PnConfig::default()
        };
        cfg.ga.max_generations = 40;
        run_stream(Box::new(PnScheduler::new(6, cfg)), 2.0, 90, 53)
    };
    let warm = SeedStrategy::CarryOver { elites: 5 };
    let a = run(warm);
    let b = run(warm);
    assert_eq!(a.tasks_completed, 90);
    assert!(a.plan_invocations >= 3, "stream must force several batches");
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(a.scheduler_busy.to_bits(), b.scheduler_busy.to_bits());
    assert_eq!(a.total_generations, b.total_generations);

    let fresh = run(SeedStrategy::Fresh);
    assert_eq!(fresh.tasks_completed, 90);
    assert_ne!(
        fresh.makespan.to_bits(),
        a.makespan.to_bits(),
        "carry-over must change the evolved schedules"
    );
}

#[test]
fn zo_warm_start_streams_deterministically() {
    let run = || {
        let mut cfg = PnConfig {
            initial_batch: 10,
            max_batch: 10,
            seed_strategy: SeedStrategy::CarryOver { elites: 5 },
            ..PnConfig::zo_preset()
        };
        cfg.ga.max_generations = 40;
        run_stream(Box::new(PnScheduler::new(6, cfg)), 2.0, 90, 59)
    };
    let a = run();
    let b = run();
    assert_eq!(a.tasks_completed, 90);
    assert!(a.plan_invocations >= 3);
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(a.total_generations, b.total_generations);
}

/// Warm-start composes with parallel fitness evaluation: the carried
/// population is assembled from index-addressed evaluation results, so the
/// whole dynamic-arrival run stays bit-identical at any worker count.
#[test]
fn warm_start_stream_is_evaluator_invariant() {
    let run = |workers: usize| {
        let mut cfg = PnConfig::default().with_eval_workers(workers);
        cfg.ga.max_generations = 30;
        cfg.initial_batch = 10;
        cfg.max_batch = 10;
        cfg.seed_strategy = SeedStrategy::CarryOver { elites: 5 };
        run_stream(Box::new(PnScheduler::new(6, cfg)), 2.0, 60, 61)
    };
    let serial = run(1);
    let par = run(4);
    assert_eq!(serial.makespan.to_bits(), par.makespan.to_bits());
    assert_eq!(serial.efficiency.to_bits(), par.efficiency.to_bits());
    assert_eq!(serial.total_generations, par.total_generations);
    assert_eq!(
        serial.scheduler_busy.to_bits(),
        par.scheduler_busy.to_bits()
    );
}

#[test]
fn pn_stream_beats_round_robin_under_comm_pressure() {
    let build_cluster = |seed| {
        let mut spec = ClusterSpec::paper_defaults(6, 25.0);
        spec.rating = SizeDistribution::Uniform { lo: 15.0, hi: 40.0 };
        spec.build(seed)
    };
    let workload = WorkloadSpec {
        count: 150,
        sizes: SizeDistribution::Normal {
            mean: 1000.0,
            variance: 9.0e5,
        },
        arrival: ArrivalProcess::UniformOver { window: 100.0 },
    };
    let mut cfg = PnConfig {
        initial_batch: 50,
        max_batch: 50,
        ..PnConfig::default()
    };
    cfg.ga.max_generations = 150;
    let pn = Simulation::new(
        build_cluster(43),
        workload.generate(43),
        Box::new(PnScheduler::new(6, cfg)),
        SimConfig::default(),
    )
    .run()
    .unwrap();
    let rr = Simulation::new(
        build_cluster(43),
        workload.generate(43),
        Box::new(RoundRobin::new(6)),
        SimConfig::default(),
    )
    .run()
    .unwrap();
    assert!(
        pn.makespan < rr.makespan,
        "PN {} should beat RR {} with streaming arrivals",
        pn.makespan,
        rr.makespan
    );
}
