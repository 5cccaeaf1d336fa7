//! A fork-join pipeline end to end: dependent submissions through the
//! online scheduling server, then the same DAG through the
//! precedence-aware simulator with per-task deadlines.
//!
//! Part 1 submits a fork-join workload to a long-running `dts-server`
//! thread via `submit_with_deps`. The server only batches a task once
//! every dependency has been *placed by a strictly earlier batch*, so
//! the join tasks visibly land in later batches than their forks.
//!
//! Part 2 runs the identical workload + graph through the discrete-event
//! simulator, where readiness is enforced at admission: a task is only
//! handed to the scheduler once all predecessor results are back. The
//! report splits each task's wait into precedence stall vs queueing
//! delay and scores the deadlines attached to the join points.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example dag_pipeline
//! ```

use dts::core::PnConfig;
use dts::model::{ArrivalProcess, ClusterSpec, DagFamily, SizeDistribution, TaskId, WorkloadSpec};
use dts::schedulers::EarliestFinish;
use dts::server::{spawn, PlanBudget, ProcessorProfile, ServerConfig, TenantId};
use dts::sim::{SimConfig, Simulation};

const SEED: u64 = 0xDA6_2026;
const N_TASKS: usize = 18;

fn main() {
    // 18 tasks in repeated fork-join stages of width 4:
    // 0 forks into {1..4}, which join into 5, which forks again, ...
    let spec = WorkloadSpec {
        count: N_TASKS,
        sizes: SizeDistribution::Uniform {
            lo: 200.0,
            hi: 1500.0,
        },
        arrival: ArrivalProcess::PoissonStream {
            mean_interarrival: 0.15,
        },
    };
    let family = DagFamily::ForkJoin { width: 4 };
    let (tasks, mut graph) = spec.generate_dag(&family, SEED);
    println!(
        "workload: {N_TASKS} tasks, {} ({} edges)\n",
        family.label(),
        graph.edge_count()
    );

    // ---- Part 1: dependent submissions through the online server -----
    let mut pn = PnConfig::default();
    pn.ga.max_generations = 120;
    let config = ServerConfig {
        procs: [90.0, 130.0, 70.0]
            .iter()
            .map(|&rate| ProcessorProfile {
                rate,
                comm_cost: 0.1,
            })
            .collect(),
        pn,
        tenants: 1,
        tenant_capacity: 32,
        batch_size: 6,
        budget: PlanBudget::Unlimited,
    };
    let (handle, join) = spawn(config);

    println!("submitting with dependencies (batch size 6):");
    for t in &tasks {
        let deps: Vec<TaskId> = graph.preds(t.id.0).iter().map(|&p| TaskId(p)).collect();
        let shown: Vec<String> = deps.iter().map(|d| format!("T{}", d.0)).collect();
        handle
            .submit_with_deps(TenantId(0), t.mflops, t.arrival.seconds(), &deps)
            .expect("admission");
        println!(
            "  T{:<2} ({:>5.0} MFLOPs) deps [{}]",
            t.id.0,
            t.mflops,
            shown.join(", ")
        );
    }

    let placements = handle.drain();
    println!("\n{:>6} {:>6} {:>6}", "task", "proc", "batch");
    for p in &placements {
        println!(
            "{:>6} {:>6} {:>6}",
            p.event.task.id.0, p.event.proc.0, p.event.batch
        );
    }
    // Every edge is honoured across batches, never within one.
    let batch_of = |id: u32| {
        placements
            .iter()
            .find(|p| p.event.task.id.0 == id)
            .expect("placed")
            .event
            .batch
    };
    for (p, s) in graph.edge_list() {
        assert!(
            batch_of(s) > batch_of(p),
            "T{s} must be batched strictly after its predecessor T{p}"
        );
    }
    let stats = handle.stats();
    println!(
        "\nserver: {} placed in {} batches — joins waited for their forks' batches",
        stats.placed, stats.batches
    );
    handle.shutdown();
    join.join().expect("service thread exits cleanly");

    // ---- Part 2: the same DAG through the simulator ------------------
    // Deadline every join point (in-degree > 1): generous mid-pipeline,
    // deliberately tight on the final join so one miss shows up.
    let joins: Vec<u32> = (0..N_TASKS as u32)
        .filter(|&t| graph.preds(t).len() > 1)
        .collect();
    for &j in &joins {
        graph.set_deadline(j, 120.0);
    }
    let last_join = *joins.last().expect("fork-join has join points");
    graph.set_deadline(last_join, 1.0);

    let cluster = ClusterSpec::paper_defaults(3, 5.0).build(SEED);
    let report = Simulation::new_with_graph(
        cluster,
        tasks,
        graph,
        Box::new(EarliestFinish::new(3)),
        SimConfig::default(),
    )
    .run()
    .expect("simulation completes");

    let w = &report.waiting;
    println!("\nsimulator ({}):", report.scheduler);
    println!("  makespan            {:>8.2} s", report.makespan);
    println!("  mean wait           {:>8.2} s", w.mean_wait);
    println!("    precedence stall  {:>8.2} s", w.mean_precedence_stall);
    println!("    queueing delay    {:>8.2} s", w.mean_queue_wait);
    println!("  max wait            {:>8.2} s", w.max_wait);
    match w.deadline_miss_rate() {
        Some(rate) => println!(
            "  deadline miss rate  {:>8.0} % ({} of {} deadlined tasks)",
            rate * 100.0,
            w.deadline_misses,
            w.deadlined_tasks
        ),
        None => println!("  deadline miss rate       n/a (no deadlines)"),
    }
    assert!(
        w.mean_precedence_stall > 0.0,
        "a fork-join pipeline must stall on its joins"
    );
}
