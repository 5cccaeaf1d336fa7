//! Ablation A1 — selection operator: the paper chooses roulette-wheel
//! selection (§3.3); how do tournament and rank selection compare on the
//! same batch problem?

use dts_bench::figures::{batch_processors, batch_tasks};
use dts_bench::{env_or, write_csv, Table};
use dts_core::{plan_batch, PlanRequest, PnConfig};
use dts_distributions::{OnlineStats, SeedSequence};
use dts_ga::{CycleCrossover, RankSelection, RouletteWheel, SelectionOp, SwapMutation, Tournament};
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

    let ops: Vec<(&str, Box<dyn SelectionOp>)> = vec![
        ("roulette (paper)", Box::new(RouletteWheel)),
        ("tournament k=3", Box::new(Tournament::new(3))),
        ("rank", Box::new(RankSelection)),
    ];

    let mut table = Table::new(
        format!("A1 selection operators (H={h}, M={m}, {gens} gens, {reps} reps)"),
        &["selection", "makespan_mean", "makespan_ci95"],
    );
    for (name, op) in &ops {
        let seq = SeedSequence::new(seed);
        let mut stats = OnlineStats::new();
        for rep in 0..reps {
            let mut sub = SeedSequence::new(seq.seed_at(rep as u64));
            let tasks = batch_tasks(h, &sizes, sub.next_seed());
            let procs = batch_processors(m, sub.next_seed());
            let mut cfg = PnConfig::default();
            cfg.ga.max_generations = gens;
            let out = plan_batch(
                &PlanRequest::new(&tasks, &procs, sub.next_seed()).with_ops(
                    op.as_ref(),
                    &CycleCrossover,
                    &SwapMutation,
                ),
                &cfg,
            );
            stats.push(out.best_makespan);
        }
        table.row(vec![
            name.to_string(),
            format!("{:.2}", stats.mean()),
            format!("{:.2}", stats.ci95_half_width()),
        ]);
    }
    println!("{}", table.render());
    let path = write_csv(&table, "ablate_selection").expect("write CSV");
    eprintln!("wrote {}", path.display());
}
