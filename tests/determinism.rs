//! Determinism regression tests: the whole stack is a pure function of its
//! seeds.
//!
//! The workspace's custom PRNG (`dts-distributions`) is the only source of
//! randomness; nothing may read wall-clock time, addresses, or hash-map
//! iteration order. These tests run every scheduler twice from the same
//! master seed and demand the *identical* schedule (per-task trace) and the
//! identical `SimReport` — bitwise, not approximately. Any accidental
//! nondeterminism (e.g. a `HashMap` sneaking into a hot loop, thread
//! scheduling leaking into results) fails here before it can poison the
//! paper's figures.
//!
//! ZO is `PnConfig::zo_preset` on the same pipeline as PN, so the matrices
//! below (workers, inheritance, DAG) run on PN alone;
//! `zomaya_is_deterministic` is ZO's end-to-end row.

use dts::core::{plan_batch, PlanRequest, PnConfig, PnScheduler, ProcessorState};
use dts::ga::crossover::UnreportedCycle;
use dts::ga::{Evaluator, RouletteWheel, SwapMutation};
use dts::model::{ClusterSpec, Scheduler, SizeDistribution, WorkloadSpec};
use dts::schedulers::{EarliestFinish, LightestLoaded, MaxMin, MinMin, RoundRobin};
use dts::sim::{SimConfig, SimReport, Simulation};

const PROCS: usize = 4;
const TASKS: usize = 40;
const SEED: u64 = 0xD15E_A5ED;

/// The PN configuration every matrix below starts from: 8-task batches,
/// 25 generations, the given evaluator.
fn pn_config(evaluator: Evaluator) -> PnConfig {
    let mut cfg = PnConfig {
        initial_batch: 8,
        max_batch: 8,
        ..PnConfig::default()
    };
    cfg.ga.max_generations = 25;
    cfg.ga.evaluator = evaluator;
    cfg
}

fn scheduler(name: &str, evaluator: Evaluator) -> Box<dyn Scheduler> {
    match name {
        "EF" => Box::new(EarliestFinish::new(PROCS)),
        "LL" => Box::new(LightestLoaded::new(PROCS)),
        "RR" => Box::new(RoundRobin::new(PROCS)),
        "MM" => Box::new(MinMin::with_batch_size(PROCS, 8)),
        "MX" => Box::new(MaxMin::with_batch_size(PROCS, 8)),
        "ZO" => {
            let mut cfg = PnConfig::zo_preset();
            cfg.ga.max_generations = 25;
            cfg.ga.evaluator = evaluator;
            Box::new(PnScheduler::new(PROCS, cfg))
        }
        "PN" => Box::new(PnScheduler::new(PROCS, pn_config(evaluator))),
        other => panic!("unknown scheduler {other}"),
    }
}

fn workload() -> WorkloadSpec {
    WorkloadSpec::batch(
        TASKS,
        SizeDistribution::Normal {
            mean: 500.0,
            variance: 1.0e4,
        },
    )
}

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        record_trace: true,
        seed: seed ^ 0xFACE,
        ..SimConfig::default()
    }
}

/// One traced simulation of the independent-task workload under `seed`.
fn simulate(seed: u64, sched: Box<dyn Scheduler>) -> SimReport {
    let name = sched.name();
    let cluster = ClusterSpec::paper_defaults(PROCS, 2.0).build(seed);
    Simulation::new(cluster, workload().generate(seed), sched, sim_config(seed))
        .run()
        .unwrap_or_else(|e| panic!("{name} run failed: {e:?}"))
}

fn run_once_seeded(name: &str, evaluator: Evaluator, seed: u64) -> SimReport {
    simulate(seed, scheduler(name, evaluator))
}

fn run_once(name: &str) -> SimReport {
    run_once_seeded(name, Evaluator::Serial, SEED)
}

/// Bitwise comparison of two reports, including the full schedule trace.
fn assert_identical(name: &str, a: &SimReport, b: &SimReport) {
    assert_eq!(a.scheduler, b.scheduler, "{name}: scheduler label");
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "{name}: makespan"
    );
    assert_eq!(
        a.efficiency.to_bits(),
        b.efficiency.to_bits(),
        "{name}: efficiency"
    );
    assert_eq!(a.tasks_completed, b.tasks_completed, "{name}: tasks");
    assert_eq!(
        a.scheduler_busy.to_bits(),
        b.scheduler_busy.to_bits(),
        "{name}: busy"
    );
    assert_eq!(a.plan_invocations, b.plan_invocations, "{name}: plans");
    assert_eq!(
        a.total_generations, b.total_generations,
        "{name}: generations"
    );
    assert_eq!(a.events_processed, b.events_processed, "{name}: events");
    assert_eq!(a.per_proc.len(), b.per_proc.len(), "{name}: proc count");
    for (i, (pa, pb)) in a.per_proc.iter().zip(&b.per_proc).enumerate() {
        assert_eq!(pa, pb, "{name}: per-proc breakdown {i}");
    }
    assert_eq!(a.waiting, b.waiting, "{name}: waiting decomposition");

    let (ta, tb) = (
        a.trace.as_ref().expect("trace recorded"),
        b.trace.as_ref().expect("trace recorded"),
    );
    assert_eq!(ta.spans().len(), tb.spans().len(), "{name}: span count");
    for (sa, sb) in ta.spans().iter().zip(tb.spans()) {
        assert_eq!(sa, sb, "{name}: schedule diverged at task {:?}", sa.task);
    }
}

macro_rules! determinism_tests {
    ($($fn_name:ident => $label:literal),+ $(,)?) => {$(
        #[test]
        fn $fn_name() {
            let a = run_once($label);
            let b = run_once($label);
            assert_identical($label, &a, &b);
            assert_eq!(a.scheduler, $label, "scheduler label");
        }
    )+};
}

determinism_tests! {
    earliest_finish_is_deterministic => "EF",
    lightest_loaded_is_deterministic => "LL",
    round_robin_is_deterministic => "RR",
    min_min_is_deterministic => "MM",
    max_min_is_deterministic => "MX",
    zomaya_is_deterministic => "ZO",
    pn_scheduler_is_deterministic => "PN",
}

/// The evaluation pipeline's core guarantee: the *parallel* evaluator
/// produces the same schedule, bit for bit, as the serial one — at every
/// worker count, across seeds. Fitness evaluation draws no randomness and
/// results are written back by chromosome index, so thread scheduling
/// cannot leak into the population ordering or any downstream RNG draw.
#[test]
fn pn_parallel_evaluation_is_bit_identical() {
    for seed in [SEED, 0x5EED_CAFE] {
        let serial = run_once_seeded("PN", Evaluator::Serial, seed);
        for workers in [2, 8] {
            let par = run_once_seeded("PN", Evaluator::ThreadPool { workers }, seed);
            assert_identical(
                &format!("PN/seed={seed:#x}/workers={workers}"),
                &serial,
                &par,
            );
        }
    }
}

/// Inheritance's core guarantee: a crossover child that copies a parent
/// takes the parent's evaluation, which is exactly what a fresh evaluation
/// produces (evaluation is pure), so inheritance {on, off} × workers
/// {1, 4} must all yield the same schedule bit for bit. The simulator runs
/// the worker axis end to end; the planner runs both axes on the
/// workload's own 8-task batches, where a crossover that reports no
/// parentage can be swapped in.
#[test]
fn memo_on_off_and_worker_counts_are_bit_identical() {
    let reference = run_once_seeded("PN", Evaluator::Serial, SEED);
    let pooled = run_once_seeded("PN", Evaluator::ThreadPool { workers: 4 }, SEED);
    assert_identical("PN/workers=4", &reference, &pooled);

    let procs: Vec<ProcessorState> = [100.0, 150.0, 80.0, 120.0]
        .iter()
        .map(|&rate| ProcessorState {
            rate,
            existing_load_mflops: 0.0,
            comm_cost: 0.1,
        })
        .collect();
    let tasks = workload().generate(SEED);
    let mut inherited = 0;
    for (k, batch) in tasks.chunks(8).enumerate() {
        let request = PlanRequest::new(batch, &procs, SEED + k as u64);
        let every_child = request.with_ops(&RouletteWheel, &UnreportedCycle, &SwapMutation);
        let plain = plan_batch(&every_child, &pn_config(Evaluator::Serial));
        assert_eq!(
            plain.ga.memo_hits, 0,
            "batch {k}: unreported parentage inherited"
        );
        for evaluator in [Evaluator::Serial, Evaluator::ThreadPool { workers: 4 }] {
            let run = plan_batch(&request, &pn_config(evaluator));
            let name = format!("batch {k}/{evaluator:?}");
            assert_eq!(run.queues, plain.queues, "{name}: queues");
            assert_eq!(
                run.best_makespan.to_bits(),
                plain.best_makespan.to_bits(),
                "{name}: makespan"
            );
            assert_eq!(
                run.ga.best_fitness.to_bits(),
                plain.ga.best_fitness.to_bits(),
                "{name}: fitness"
            );
            assert_eq!(run.generations, plain.generations, "{name}: generations");
            assert_eq!(
                run.ga.memo_hits + run.ga.memo_misses,
                plain.ga.memo_misses,
                "{name}: requested evaluations"
            );
            inherited += run.ga.memo_hits;
        }
    }
    assert!(inherited > 0, "no batch bred a parent copy");
}

/// DAG determinism: precedence-constrained workloads must satisfy the
/// same contract as independent ones. Readiness gating in the simulator
/// draws no randomness and the GA's topological repair is RNG-free, so
/// workers {1, 4} must collapse to one bitwise schedule.
fn run_once_dag(evaluator: Evaluator) -> SimReport {
    let cfg = pn_config(evaluator);
    let cluster = ClusterSpec::paper_defaults(PROCS, 2.0).build(SEED);
    let (tasks, graph) = workload().generate_dag(
        &dts::model::graph::DagFamily::RandomLayered {
            layers: 5,
            edge_probability: 0.3,
        },
        SEED,
    );
    let sched = Box::new(PnScheduler::new(PROCS, cfg));
    Simulation::new_with_graph(cluster, tasks, graph, sched, sim_config(SEED))
        .run()
        .unwrap_or_else(|e| panic!("PN DAG run failed: {e:?}"))
}

#[test]
fn dag_runs_are_bit_identical_across_worker_counts() {
    let reference = run_once_dag(Evaluator::Serial);
    assert!(
        reference.waiting.mean_precedence_stall > 0.0,
        "the DAG workload must actually exercise readiness gating"
    );
    for evaluator in [Evaluator::Serial, Evaluator::ThreadPool { workers: 4 }] {
        let run = run_once_dag(evaluator);
        assert_identical(&format!("PN/dag/{evaluator:?}"), &reference, &run);
    }
}

/// The tentpole identity guard (grep-anchored in CI): an empty-dependency
/// workload must take exactly the pre-DAG code path. Both the simulator
/// (edge-free graph vs no graph) and the planner (unconstrained
/// precedence table vs none) must produce bit-identical results — GA
/// internals included, down to the inherited / evaluated counters.
#[test]
fn empty_dag_is_bit_identical_to_independent_path() {
    // Simulator level: Simulation::new vs an explicit edge-free graph.
    let sim_run = |with_graph: bool| {
        let cluster = ClusterSpec::paper_defaults(PROCS, 2.0).build(SEED);
        let tasks = workload().generate(SEED);
        let config = sim_config(SEED);
        let sched = scheduler("PN", Evaluator::ThreadPool { workers: 4 });
        if with_graph {
            let graph = dts::model::TaskGraph::independent(tasks.len());
            Simulation::new_with_graph(cluster, tasks, graph, sched, config)
        } else {
            Simulation::new(cluster, tasks, sched, config)
        }
        .run()
        .expect("run completes")
    };
    assert_identical("PN/empty-dag", &sim_run(false), &sim_run(true));

    // Planner level: a precedence table with no constraints must be
    // structurally dropped — same queues, makespan bits, generation
    // count, and evaluation counters as a plain plan call.
    use dts::core::slot_precedence;
    use dts::model::{SimTime, Task, TaskGraph, TaskId};
    let batch: Vec<Task> = (0..12)
        .map(|i| Task::new(TaskId(i), 100.0 + 53.0 * i as f64, SimTime::ZERO))
        .collect();
    let procs: Vec<ProcessorState> = [100.0, 150.0, 80.0]
        .iter()
        .map(|&rate| ProcessorState {
            rate,
            existing_load_mflops: 0.0,
            comm_cost: 0.1,
        })
        .collect();
    let mut cfg = PnConfig::default();
    cfg.ga.max_generations = 30;
    let plain = plan_batch(&PlanRequest::new(&batch, &procs, SEED), &cfg);
    let prec = slot_precedence(&batch, &TaskGraph::independent(batch.len()));
    let gated = plan_batch(
        &PlanRequest::new(&batch, &procs, SEED).with_precedence(&prec),
        &cfg,
    );
    assert_eq!(plain.queues, gated.queues);
    assert_eq!(plain.best_makespan.to_bits(), gated.best_makespan.to_bits());
    assert_eq!(plain.generations, gated.generations);
    assert_eq!(plain.ga.memo_hits, gated.ga.memo_hits);
    assert_eq!(plain.ga.memo_misses, gated.ga.memo_misses);
}

/// Different seeds must actually change the outcome — guards against the
/// opposite failure mode where a seed is silently ignored.
#[test]
fn seed_changes_outcome() {
    let base = run_once("PN");
    let other = run_once_seeded("PN", Evaluator::Serial, SEED + 1);
    assert_ne!(
        base.makespan.to_bits(),
        other.makespan.to_bits(),
        "changing the master seed should change the run"
    );
}
