//! Ablation A3 — initial population: §3.3 seeds the GA with a
//! list-scheduling heuristic where "a percentage of tasks are randomly
//! assigned". This sweep fixes that percentage from 0 % (pure greedy) to
//! 100 % (pure random) and reports the converged makespan.

use dts_bench::figures::{batch_processors, batch_tasks};
use dts_bench::{env_or, write_csv, Table};
use dts_core::{plan_batch, PlanRequest, PnConfig};
use dts_distributions::{OnlineStats, SeedSequence};
use dts_model::SizeDistribution;

fn main() {
    let h: usize = env_or("DTS_TASKS", 300);
    let m: usize = env_or("DTS_PROCS", 20);
    let reps: usize = env_or("DTS_REPS", 10);
    let gens: u32 = env_or("DTS_GENS", 400);
    let seed: u64 = env_or("DTS_SEED", 20_050_404);
    let sizes = SizeDistribution::Normal {
        mean: 1000.0,
        variance: 9.0e5,
    };

    let mut table = Table::new(
        format!("A3 initial-population randomness (H={h}, M={m}, {gens} gens, {reps} reps)"),
        &[
            "random_fraction",
            "initial_makespan",
            "final_makespan",
            "ci95",
        ],
    );
    for fraction in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let seq = SeedSequence::new(seed);
        let mut initial = OnlineStats::new();
        let mut fin = OnlineStats::new();
        for rep in 0..reps {
            let mut sub = SeedSequence::new(seq.seed_at(rep as u64));
            let tasks = batch_tasks(h, &sizes, sub.next_seed());
            let procs = batch_processors(m, sub.next_seed());
            let mut cfg = PnConfig::default();
            cfg.ga.max_generations = gens;
            cfg.ga.record_history = true;
            cfg.init_random_fraction = (fraction, fraction);
            let out = plan_batch(&PlanRequest::new(&tasks, &procs, sub.next_seed()), &cfg);
            initial.push(out.ga.history[0].best_makespan);
            fin.push(out.best_makespan);
        }
        table.row(vec![
            format!("{fraction:.2}"),
            format!("{:.2}", initial.mean()),
            format!("{:.2}", fin.mean()),
            format!("{:.2}", fin.ci95_half_width()),
        ]);
    }
    println!("{}", table.render());
    let path = write_csv(&table, "ablate_init").expect("write CSV");
    eprintln!("wrote {}", path.display());
}
