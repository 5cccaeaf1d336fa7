//! Integration: every scheduler completes every workload class end-to-end
//! on the simulator, conserving tasks and respecting physical bounds.

use dts::core::{PnConfig, PnScheduler};
use dts::model::{ClusterSpec, CommCostSpec, Scheduler, SizeDistribution, WorkloadSpec};
use dts::schedulers::{EarliestFinish, LightestLoaded, MaxMin, MinMin, RoundRobin};
use dts::sim::{SimConfig, SimReport, Simulation};

const PROCS: usize = 8;
const TASKS: usize = 120;

fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    let quick_zo = || {
        let mut cfg = PnConfig {
            initial_batch: 40,
            max_batch: 40,
            ..PnConfig::zo_preset()
        };
        cfg.ga.max_generations = 80;
        cfg
    };
    let quick_pn = || {
        let mut cfg = PnConfig {
            initial_batch: 40,
            max_batch: 40,
            ..PnConfig::default()
        };
        cfg.ga.max_generations = 80;
        cfg
    };
    vec![
        Box::new(EarliestFinish::new(PROCS)),
        Box::new(LightestLoaded::new(PROCS)),
        Box::new(RoundRobin::new(PROCS)),
        Box::new(MinMin::with_batch_size(PROCS, 40)),
        Box::new(MaxMin::with_batch_size(PROCS, 40)),
        Box::new(PnScheduler::new(PROCS, quick_zo())),
        Box::new(PnScheduler::new(PROCS, quick_pn())),
    ]
}

fn workloads() -> Vec<SizeDistribution> {
    vec![
        SizeDistribution::Normal {
            mean: 1000.0,
            variance: 9.0e5,
        },
        SizeDistribution::Uniform {
            lo: 10.0,
            hi: 1000.0,
        },
        SizeDistribution::Poisson { lambda: 100.0 },
    ]
}

fn run(sched: Box<dyn Scheduler>, sizes: &SizeDistribution, seed: u64) -> (SimReport, f64, f64) {
    let spec = ClusterSpec {
        comm: CommCostSpec::with_mean(2.0),
        ..ClusterSpec::paper_defaults(PROCS, 2.0)
    };
    let cluster = spec.build(seed);
    let capacity = cluster.total_rated_mflops();
    let tasks = WorkloadSpec::batch(TASKS, sizes.clone()).generate(seed);
    let total_mflops: f64 = tasks.iter().map(|t| t.mflops).sum();
    let report = Simulation::new(cluster, tasks, sched, SimConfig::default())
        .run()
        .expect("simulation must complete");
    (report, total_mflops, capacity)
}

#[test]
fn every_scheduler_completes_every_workload() {
    for sizes in workloads() {
        for sched in all_schedulers() {
            let name = sched.name();
            let (report, total_mflops, capacity) = run(sched, &sizes, 77);
            assert_eq!(
                report.tasks_completed, TASKS as u64,
                "{name} lost tasks on {sizes:?}"
            );
            // Physical lower bound: all capacity used perfectly with zero
            // communication.
            let bound = total_mflops / capacity;
            assert!(
                report.makespan >= bound,
                "{name}: makespan {} below the physical bound {bound}",
                report.makespan
            );
            assert!(
                (0.0..=1.0).contains(&report.efficiency),
                "{name}: efficiency {} out of range",
                report.efficiency
            );
            // Conservation of work: completed MFLOPs equal the workload.
            let done: f64 = report.per_proc.iter().map(|p| p.mflops_done).sum();
            assert!(
                (done - total_mflops).abs() / total_mflops < 1e-9,
                "{name}: {done} MFLOPs done vs {total_mflops} submitted"
            );
        }
    }
}

#[test]
fn per_processor_accounting_adds_up() {
    for sched in all_schedulers() {
        let name = sched.name();
        let (report, _, _) = run(
            sched,
            &SizeDistribution::Uniform {
                lo: 10.0,
                hi: 1000.0,
            },
            99,
        );
        for (j, p) in report.per_proc.iter().enumerate() {
            let busy = p.processing + p.communicating;
            assert!(
                busy <= report.makespan * 1.000001,
                "{name}: P{j} busy {busy} exceeds makespan {}",
                report.makespan
            );
            assert!(p.processing >= 0.0 && p.communicating >= 0.0);
        }
        // Every processor completing tasks must have processing time.
        for (j, p) in report.per_proc.iter().enumerate() {
            if p.tasks_completed > 0 {
                assert!(p.processing > 0.0, "{name}: P{j} did work in zero time");
            }
        }
    }
}

#[test]
fn ga_schedulers_charge_host_time_heuristics_do_not() {
    let heuristics = ["EF", "LL", "RR", "MM", "MX"];
    for sched in all_schedulers() {
        let name = sched.name();
        let (report, _, _) = run(
            sched,
            &SizeDistribution::Normal {
                mean: 1000.0,
                variance: 9.0e5,
            },
            11,
        );
        if heuristics.contains(&name) {
            assert!(
                report.scheduler_busy < 0.1,
                "{name}: heuristic burned {} s of host time",
                report.scheduler_busy
            );
            assert_eq!(report.total_generations, 0, "{name} evolved generations");
        } else {
            assert!(
                report.total_generations > 0,
                "{name}: GA scheduler reported no generations"
            );
            assert!(report.scheduler_busy > 0.0);
        }
    }
}

#[test]
fn reports_are_deterministic_for_fixed_seed() {
    let once = |seed| {
        let mut cfg = PnConfig {
            initial_batch: 40,
            ..PnConfig::default()
        };
        cfg.ga.max_generations = 60;
        let (report, _, _) = run(
            Box::new(PnScheduler::new(PROCS, cfg)),
            &SizeDistribution::Poisson { lambda: 100.0 },
            seed,
        );
        (report.makespan, report.efficiency, report.events_processed)
    };
    assert_eq!(once(5), once(5));
    assert_ne!(once(5), once(6));
}
