//! Warm-start carry-over: run the PN scheduler over a Poisson arrival
//! stream twice — reseeding the GA from scratch every batch (the paper's
//! behaviour) vs. carrying the previous batch's elites into the next
//! batch's initial population — and compare convergence effort.
//!
//! Both runs enable the same plateau early-stop, so a warm-started GA
//! that re-converges faster stops earlier: fewer generations per batch,
//! less modelled scheduler-host time. Everything is deterministic from
//! the seeds; rerunning prints identical numbers.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example warm_start
//! ```

use dts::core::{PnConfig, PnScheduler, SeedStrategy};
use dts::model::{ArrivalProcess, ClusterSpec, SizeDistribution, WorkloadSpec};
use dts::sim::{SimConfig, SimReport, Simulation};

fn run(strategy: SeedStrategy) -> SimReport {
    const SEED: u64 = 0xCA44_704E;
    let cluster = ClusterSpec::paper_defaults(8, 2.0).build(SEED);
    let workload = WorkloadSpec {
        count: 200,
        sizes: SizeDistribution::Normal {
            mean: 1000.0,
            variance: 9.0e5,
        },
        arrival: ArrivalProcess::PoissonStream {
            mean_interarrival: 1.0,
        },
    };

    let mut cfg = PnConfig {
        initial_batch: 25,
        max_batch: 25,
        seed_strategy: strategy,
        ..PnConfig::default()
    };
    cfg.ga.max_generations = 300;
    // Stop a batch's GA after 30 generations without improvement — this
    // is what turns faster re-convergence into fewer generations.
    cfg.ga.plateau_generations = Some(30);

    Simulation::new(
        cluster,
        workload.generate(SEED),
        Box::new(PnScheduler::new(8, cfg)),
        SimConfig::default(),
    )
    .run()
    .expect("simulation completes")
}

fn main() {
    let fresh = run(SeedStrategy::Fresh);
    let warm = run(SeedStrategy::CarryOver { elites: 5 });

    println!("PN over a Poisson stream (200 tasks, 8 processors, batch 25):\n");
    println!("{:<28} {:>10} {:>10}", "", "fresh", "carry-over");
    println!(
        "{:<28} {:>10} {:>10}",
        "plan invocations", fresh.plan_invocations, warm.plan_invocations
    );
    println!(
        "{:<28} {:>10.1} {:>10.1}",
        "GA generations / batch",
        fresh.total_generations as f64 / fresh.plan_invocations.max(1) as f64,
        warm.total_generations as f64 / warm.plan_invocations.max(1) as f64,
    );
    println!(
        "{:<28} {:>10.4} {:>10.4}",
        "scheduler busy (s)", fresh.scheduler_busy, warm.scheduler_busy
    );
    println!(
        "{:<28} {:>10.1} {:>10.1}",
        "makespan (s)", fresh.makespan, warm.makespan
    );
    println!(
        "\nCarry-over seeds each batch's GA with the previous batch's best \
         schedules\n(remapped onto the new batch), so the plateau stop fires \
         sooner."
    );
}
