//! Ablation A5 — population size: the paper uses a micro-GA of 20
//! individuals "which speeds up computation time without impacting greatly
//! on the final result" (§4.2). Verify by sweeping the population.

use std::time::Instant;

use dts_bench::figures::{batch_processors, batch_tasks};
use dts_bench::{env_or, write_csv, Table};
use dts_core::{plan_batch, PlanRequest, PnConfig};
use dts_distributions::{OnlineStats, SeedSequence};
use dts_model::SizeDistribution;

fn main() {
    let h: usize = env_or("DTS_TASKS", 300);
    let m: usize = env_or("DTS_PROCS", 20);
    let reps: usize = env_or("DTS_REPS", 8);
    let gens: u32 = env_or("DTS_GENS", 400);
    let seed: u64 = env_or("DTS_SEED", 20_050_404);
    let sizes = SizeDistribution::Normal {
        mean: 1000.0,
        variance: 9.0e5,
    };

    let mut table = Table::new(
        format!("A5 population size (H={h}, M={m}, {gens} gens, {reps} reps)"),
        &["population", "makespan_mean", "ci95", "wall_seconds"],
    );
    for pop in [5usize, 10, 20, 50, 100] {
        let seq = SeedSequence::new(seed);
        let mut stats = OnlineStats::new();
        let start = Instant::now();
        for rep in 0..reps {
            let mut sub = SeedSequence::new(seq.seed_at(rep as u64));
            let tasks = batch_tasks(h, &sizes, sub.next_seed());
            let procs = batch_processors(m, sub.next_seed());
            let mut cfg = PnConfig::default();
            cfg.ga.max_generations = gens;
            cfg.ga.population_size = pop;
            let out = plan_batch(&PlanRequest::new(&tasks, &procs, sub.next_seed()), &cfg);
            stats.push(out.best_makespan);
        }
        table.row(vec![
            pop.to_string(),
            format!("{:.2}", stats.mean()),
            format!("{:.2}", stats.ci95_half_width()),
            format!("{:.2}", start.elapsed().as_secs_f64()),
        ]);
    }
    println!("{}", table.render());
    let path = write_csv(&table, "ablate_popsize").expect("write CSV");
    eprintln!("wrote {}", path.display());
}
