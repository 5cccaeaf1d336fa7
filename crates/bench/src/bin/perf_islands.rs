//! `perf_islands` — what does sharding the GA into islands buy at an
//! *equal* evaluation budget?
//!
//! The island model partitions the configured population across `n`
//! islands (it never multiplies it), so every cell of this sweep performs
//! the same number of fitness evaluations per generation as the
//! monolithic baseline. The sweep runs islands × migration-interval over
//! one PN batch (the Fig. 3 setting: a single `plan_batch` call) and
//! reports, per cell over `DTS_REPS` seeded replications:
//!
//! * median/p95 **best makespan** — schedule quality at equal budget;
//! * median **makespan vs monolithic** — the quality ratio against the
//!   `islands = 1` baseline at the same seed (< 1 means islands won);
//! * median **wall-clock ms** — host-dependent; islands also step
//!   concurrently when `DTS_EVAL_WORKERS > 1`, so this column shows the
//!   coarse-grained parallelism headroom.
//!
//! Makespans are deterministic per seed (same JSON on any host at any
//! worker count); only the wall-clock column varies. Results go to
//! `BENCH_islands.json` (override with `DTS_OUT`).
//!
//! Knobs: `DTS_REPS` (default 9), `DTS_TASKS` (60), `DTS_PROCS` (8),
//! `DTS_GENS` (400), `DTS_POP` (32), `DTS_MIGRANTS` (1),
//! `DTS_EVAL_WORKERS` (1), `DTS_SEED`, `DTS_OUT`.

use std::time::Instant;

use dts_bench::{env_or, host_json};
use dts_core::fitness::ProcessorState;
use dts_core::{plan_batch, PlanRequest, PnConfig};
use dts_distributions::{Prng, Rng};
use dts_ga::{IslandConfig, Topology};
use dts_model::{SimTime, Task, TaskId};

/// Median/p95 over replications.
#[derive(Clone, Copy)]
struct Summary {
    median: f64,
    p95: f64,
}

fn summarize(samples: &mut [f64]) -> Summary {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = samples.len();
    Summary {
        median: samples[n / 2],
        p95: samples[((n * 95) / 100).min(n - 1)],
    }
}

struct Cell {
    islands: usize,
    migration_interval: u32,
    makespan: Summary,
    vs_mono: Summary,
    wall_ms: Summary,
}

/// A heterogeneous batch + fleet in the paper's ranges, seeded.
fn problem(tasks: usize, procs: usize, seed: u64) -> (Vec<Task>, Vec<ProcessorState>) {
    let mut rng = Prng::seed_from(seed);
    let batch: Vec<Task> = (0..tasks)
        .map(|i| {
            let mflops = 200.0 + rng.next_f64() * 1800.0;
            Task::new(TaskId(i as u32), mflops, SimTime::ZERO)
        })
        .collect();
    let fleet: Vec<ProcessorState> = (0..procs)
        .map(|_| ProcessorState {
            rate: 50.0 + rng.next_f64() * 100.0,
            existing_load_mflops: rng.next_f64() * 500.0,
            comm_cost: 0.05 + rng.next_f64() * 0.15,
        })
        .collect();
    (batch, fleet)
}

fn main() {
    let reps: usize = env_or("DTS_REPS", 9);
    let tasks: usize = env_or("DTS_TASKS", 60);
    let procs: usize = env_or("DTS_PROCS", 8);
    let gens: u32 = env_or("DTS_GENS", 400);
    let pop: usize = env_or("DTS_POP", 32);
    let migrants: usize = env_or("DTS_MIGRANTS", 1);
    let eval_workers: usize = env_or("DTS_EVAL_WORKERS", 1);
    let seed: u64 = env_or("DTS_SEED", 20_050_404);
    let out_path: String = env_or("DTS_OUT", "BENCH_islands.json".to_string());

    let config_for = |islands: usize, interval: u32| {
        let mut cfg = PnConfig::default().with_islands(IslandConfig {
            islands,
            migration_interval: interval,
            migrants,
            topology: Topology::Ring,
        });
        cfg.ga.population_size = pop;
        cfg.ga.max_generations = gens;
        if eval_workers > 1 {
            cfg = cfg.with_eval_workers(eval_workers);
        }
        cfg
    };

    // (islands, migration_interval); the monolithic baseline runs once.
    let sweep: Vec<(usize, u32)> = [1usize, 2, 4, 8]
        .iter()
        .flat_map(|&n| {
            if n == 1 {
                vec![(1usize, 0u32)]
            } else {
                vec![(n, 2u32), (n, 5), (n, 10)]
            }
        })
        .collect();

    eprintln!(
        "perf_islands: {} cells × {reps} reps, {tasks} tasks, {procs} procs, \
         pop {pop}, gens {gens}, migrants {migrants}, eval workers {eval_workers}, seed {seed}",
        sweep.len()
    );

    // Monolithic baselines per replication, for the vs_mono ratio.
    let mut mono_makespans = vec![0.0f64; reps];
    for (rep, mono) in mono_makespans.iter_mut().enumerate() {
        let (b, p) = problem(tasks, procs, seed ^ (rep as u64).wrapping_mul(0x9E37));
        let out = plan_batch(
            &PlanRequest::new(&b, &p, seed + rep as u64),
            &config_for(1, 0),
        );
        *mono = out.best_makespan;
    }

    println!(
        "{:>7} {:>9} {:>12} {:>12} {:>9} {:>9}",
        "islands", "interval", "makespan_s", "p95_mk_s", "vs_mono", "wall_ms"
    );
    let mut cells: Vec<Cell> = Vec::new();
    for &(islands, interval) in &sweep {
        let cfg = config_for(islands, interval.max(1));
        let mut makespans = Vec::with_capacity(reps);
        let mut ratios = Vec::with_capacity(reps);
        let mut walls = Vec::with_capacity(reps);
        for (rep, mono) in mono_makespans.iter().enumerate().take(reps) {
            let (b, p) = problem(tasks, procs, seed ^ (rep as u64).wrapping_mul(0x9E37));
            let t0 = Instant::now();
            let out = plan_batch(&PlanRequest::new(&b, &p, seed + rep as u64), &cfg);
            walls.push(t0.elapsed().as_secs_f64() * 1e3);
            makespans.push(out.best_makespan);
            ratios.push(out.best_makespan / mono);
        }
        let cell = Cell {
            islands,
            migration_interval: interval,
            makespan: summarize(&mut makespans),
            vs_mono: summarize(&mut ratios),
            wall_ms: summarize(&mut walls),
        };
        println!(
            "{:>7} {:>9} {:>12.2} {:>12.2} {:>9.4} {:>9.2}",
            cell.islands,
            cell.migration_interval,
            cell.makespan.median,
            cell.makespan.p95,
            cell.vs_mono.median,
            cell.wall_ms.median,
        );
        cells.push(cell);
    }

    // ---- JSON ------------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"islands\",\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str(&host_json());
    json.push_str(&format!(
        "  \"config\": {{ \"reps\": {reps}, \"tasks\": {tasks}, \"procs\": {procs}, \
         \"population\": {pop}, \"max_generations\": {gens}, \"migrants\": {migrants}, \
         \"eval_workers\": {eval_workers}, \"seed\": {seed} }},\n"
    ));
    json.push_str(
        "  \"note\": \"equal evaluation budget: the population is partitioned across islands, \
         never multiplied, so every cell performs the same evaluations per generation as the \
         islands=1 baseline; makespans are deterministic per seed (host- and worker-count- \
         independent), wall_ms is host-dependent; vs_mono < 1 means islands beat monolithic \
         at the same seed\",\n",
    );
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"islands\": {}, \"migration_interval\": {}, \
             \"median_makespan_s\": {:.3}, \"p95_makespan_s\": {:.3}, \
             \"median_vs_monolithic\": {:.4}, \"p95_vs_monolithic\": {:.4}, \
             \"median_wall_ms\": {:.2} }}{}\n",
            c.islands,
            c.migration_interval,
            c.makespan.median,
            c.makespan.p95,
            c.vs_mono.median,
            c.vs_mono.p95,
            c.wall_ms.median,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_islands.json");
    eprintln!("wrote {out_path}");
}
