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
//! below (workers, memo, islands, warm start, DAG) run on PN alone;
//! `zomaya_is_deterministic` is ZO's end-to-end row.

use dts::core::{PnConfig, PnScheduler, SeedStrategy};
use dts::ga::{Evaluator, IslandConfig, Topology};
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

/// The fitness memo's core guarantee: enabling or disabling the cache is
/// observationally invisible. A cached value is exactly the value a fresh
/// evaluation would produce (evaluation is pure and the memo is epoch-
/// guarded), so memo {on, off} × workers {1, 4} must all yield the same
/// schedule bit for bit.
fn run_once_memo(evaluator: Evaluator, memo_capacity: usize) -> SimReport {
    let mut cfg = pn_config(evaluator);
    cfg.ga.memo_capacity = memo_capacity;
    simulate(SEED, Box::new(PnScheduler::new(PROCS, cfg)))
}

#[test]
fn memo_on_off_and_worker_counts_are_bit_identical() {
    let reference = run_once_memo(Evaluator::Serial, 0);
    for memo_capacity in [0usize, dts::ga::DEFAULT_MEMO_CAPACITY] {
        for evaluator in [Evaluator::Serial, Evaluator::ThreadPool { workers: 4 }] {
            let run = run_once_memo(evaluator, memo_capacity);
            assert_identical(
                &format!("PN/memo={memo_capacity}/{evaluator:?}"),
                &reference,
                &run,
            );
        }
    }
}

fn island_config(islands: usize) -> IslandConfig {
    IslandConfig {
        islands,
        migration_interval: 3,
        migrants: 1,
        topology: Topology::Ring,
    }
}

/// Island-model determinism: sharding the GA population must not open any
/// nondeterminism hole. The matrix islands {1, 4} × memo {0, 4096} ×
/// workers {1, 4} must collapse to one bitwise schedule per island count —
/// migration is driven by island-indexed RNG streams and rank snapshots,
/// so neither the fitness memo nor thread scheduling may influence who
/// migrates where.
fn run_once_islands(evaluator: Evaluator, memo_capacity: usize, islands: usize) -> SimReport {
    let mut cfg = pn_config(evaluator);
    cfg.ga.memo_capacity = memo_capacity;
    cfg.islands = island_config(islands);
    simulate(SEED, Box::new(PnScheduler::new(PROCS, cfg)))
}

#[test]
fn island_runs_are_bit_identical_across_memo_and_worker_counts() {
    for islands in [1usize, 4] {
        let reference = run_once_islands(Evaluator::Serial, 0, islands);
        for memo_capacity in [0usize, 4096] {
            for evaluator in [Evaluator::Serial, Evaluator::ThreadPool { workers: 4 }] {
                let run = run_once_islands(evaluator, memo_capacity, islands);
                assert_identical(
                    &format!("PN/islands={islands}/memo={memo_capacity}/{evaluator:?}"),
                    &reference,
                    &run,
                );
            }
        }
    }
}

/// The opposite guard: island RNG streams derive from the master seed, so
/// a different seed must produce a genuinely different migration pattern
/// (observable as a different schedule), not a constant one.
#[test]
fn island_seed_changes_the_migration_outcome() {
    let run_with = |seed: u64| {
        let mut cfg = pn_config(Evaluator::Serial);
        cfg.islands = island_config(4);
        simulate(seed, Box::new(PnScheduler::new(PROCS, cfg)))
    };
    let a = run_with(SEED);
    let b = run_with(SEED ^ 0x5EED);
    assert_ne!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "changing the master seed should change the island run"
    );
}

/// Warm-start lifecycle determinism: with population carry-over the GA
/// scheduler keeps state across `plan` calls (the previous batch's final
/// population). That state is itself a pure function of the seeds, and the
/// remap onto the next batch draws no randomness — so a warm-started run
/// must be exactly as reproducible as a fresh one, and exactly as
/// invariant to the evaluator's worker count. Small batches force several
/// plan invocations so the carried population is actually exercised.
fn run_once_strategy(evaluator: Evaluator, strategy: SeedStrategy) -> SimReport {
    let mut cfg = pn_config(evaluator);
    cfg.seed_strategy = strategy;
    simulate(SEED, Box::new(PnScheduler::new(PROCS, cfg)))
}

#[test]
fn warm_start_is_bit_stable_and_evaluator_invariant() {
    for strategy in [SeedStrategy::Fresh, SeedStrategy::CarryOver { elites: 5 }] {
        let serial = run_once_strategy(Evaluator::Serial, strategy);
        let again = run_once_strategy(Evaluator::Serial, strategy);
        assert_identical(&format!("PN/{strategy:?}/rerun"), &serial, &again);
        let par = run_once_strategy(Evaluator::ThreadPool { workers: 4 }, strategy);
        assert_identical(&format!("PN/{strategy:?}/workers=4"), &serial, &par);
    }
}

#[test]
fn warm_start_actually_changes_the_run() {
    // Guard against the carry-over knob being silently ignored: with
    // several batches planned, fresh and warm runs must diverge.
    let fresh = run_once_strategy(Evaluator::Serial, SeedStrategy::Fresh);
    let warm = run_once_strategy(Evaluator::Serial, SeedStrategy::CarryOver { elites: 5 });
    assert!(fresh.plan_invocations >= 3, "want several batches");
    assert_ne!(
        fresh.makespan.to_bits(),
        warm.makespan.to_bits(),
        "carry-over had no observable effect"
    );
}

/// DAG determinism: precedence-constrained workloads must satisfy the
/// same contract as independent ones. Readiness gating in the simulator
/// draws no randomness and the GA's topological repair is RNG-free, so
/// workers {1, 4} × islands {1, 4} must collapse to one bitwise schedule
/// per island count.
fn run_once_dag(evaluator: Evaluator, islands: usize) -> SimReport {
    let mut cfg = pn_config(evaluator);
    cfg.islands = island_config(islands);
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
fn dag_runs_are_bit_identical_across_worker_and_island_counts() {
    for islands in [1usize, 4] {
        let reference = run_once_dag(Evaluator::Serial, islands);
        assert!(
            reference.waiting.mean_precedence_stall > 0.0,
            "the DAG workload must actually exercise readiness gating"
        );
        for evaluator in [Evaluator::Serial, Evaluator::ThreadPool { workers: 4 }] {
            let run = run_once_dag(evaluator, islands);
            assert_identical(
                &format!("PN/dag/islands={islands}/{evaluator:?}"),
                &reference,
                &run,
            );
        }
    }
}

/// The tentpole identity guard (grep-anchored in CI): an empty-dependency
/// workload must take exactly the pre-DAG code path. Both the simulator
/// (edge-free graph vs no graph) and the planner (unconstrained
/// precedence table vs none) must produce bit-identical results — GA
/// internals included, down to the fitness-memo hit/miss counters.
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
    // count, and memo counters as a plain plan call.
    use dts::core::{plan_batch, slot_precedence, PlanRequest, ProcessorState};
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
    assert_eq!(plain.ga.final_population, gated.ga.final_population);
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
