//! Quickstart: schedule one batch of heterogeneous tasks with the PN
//! genetic algorithm and inspect the schedule it produces.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dts::core::{fitness::ProcessorState, plan_batch, PlanRequest, PnConfig};
use dts::model::{SimTime, Task, TaskId};

fn main() {
    // A small mixed batch: sizes in MFLOPs (millions of floating-point
    // operations), the paper's unit of work.
    let sizes = [
        2400.0, 1800.0, 1200.0, 900.0, 600.0, 450.0, 300.0, 150.0, 75.0, 40.0,
    ];
    let batch: Vec<Task> = sizes
        .iter()
        .enumerate()
        .map(|(i, &mflops)| Task::new(TaskId(i as u32), mflops, SimTime::ZERO))
        .collect();

    // Three heterogeneous processors. `rate` is the Linpack rating in
    // Mflop/s; `comm_cost` the smoothed per-task communication estimate in
    // seconds; `existing_load_mflops` is work already queued there.
    let procs = vec![
        ProcessorState {
            rate: 300.0,
            existing_load_mflops: 0.0,
            comm_cost: 0.2,
        },
        ProcessorState {
            rate: 150.0,
            existing_load_mflops: 500.0,
            comm_cost: 0.1,
        },
        ProcessorState {
            rate: 60.0,
            existing_load_mflops: 0.0,
            comm_cost: 1.5,
        },
    ];

    let config = PnConfig::default();
    let outcome = plan_batch(&PlanRequest::new(&batch, &procs, 0xD15C0), &config);

    println!("PN schedule after {} generations", outcome.generations);
    println!("estimated makespan: {:.2} s", outcome.best_makespan);
    println!("fitness:            {:.4}\n", outcome.ga.best_fitness);

    for (j, queue) in outcome.queues.iter().enumerate() {
        let p = &procs[j];
        let load: f64 = queue.iter().map(|&s| batch[s as usize].mflops).sum();
        let finish = (p.existing_load_mflops + load) / p.rate + queue.len() as f64 * p.comm_cost;
        println!(
            "P{j} ({:>5.0} Mflop/s, {:>6.0} MFLOPs pre-load): {:>2} tasks, {:>7.0} MFLOPs, finishes ~{:.2} s",
            p.rate,
            p.existing_load_mflops,
            queue.len(),
            load,
            finish
        );
        let ids: Vec<String> = queue
            .iter()
            .map(|&s| format!("T{s}({:.0})", batch[s as usize].mflops))
            .collect();
        println!("    queue: {}", ids.join(" → "));
    }

    let total: f64 = sizes.iter().sum();
    let capacity: f64 = procs.iter().map(|p| p.rate).sum();
    println!(
        "\nlower bound (ΣMFLOPs/ΣMflop/s, ignoring comm & pre-load): {:.2} s",
        total / capacity
    );
}
