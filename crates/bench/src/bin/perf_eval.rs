//! `perf_eval` — wall-clock benchmark of the deterministic parallel
//! evaluation pipeline (`dts_ga::Evaluator`).
//!
//! Sweeps worker counts × population sizes × task counts over the PN
//! fitness function (`dts_core::BatchProblem`) and reports, per
//! configuration:
//!
//! * the median and p95 wall-clock of evaluating one full population batch
//!   (the per-generation unit of work the GA engine hands to the
//!   evaluator), and
//! * the speedup against the serial evaluator on the same host.
//!
//! A second, smaller sweep times an end-to-end `plan_batch` GA run so
//! the Amdahl gap between "evaluation pipeline" and "whole GA" stays
//! visible. Results are printed as a table and written as machine-readable
//! JSON to `BENCH_parallel_eval.json` (override with `DTS_OUT`) — the
//! repo's perf-trajectory record for this subsystem.
//!
//! Speedups are bounded by the physical core count of the measuring host,
//! which is recorded in the JSON (`host.cores`): on a single-core
//! container every parallel configuration degenerates to ≈ 1×, and the
//! interesting number becomes `parallel_overhead` (how much slower than
//! serial the pool is when it cannot help — the price of the channels).
//!
//! A third sweep measures the **incremental-evaluation pipeline** (fitness
//! memo + swap-mutation delta-evaluation + completions-carrying §3.5
//! rebalance) against a vendored full-walk baseline — the exact code the
//! engine ran before those paths existed — at pop 500 / tasks 1000, for
//! duplicate rates 0.0/0.5/0.9 (convergence pressure). Written to
//! `BENCH_incremental_eval.json` (override with `DTS_INCR_OUT`). Setting
//! `DTS_REQUIRE_MEMO_HITS=1` makes the run fail unless the end-to-end GA
//! actually served evaluations from the memo — CI uses this to catch the
//! cache silently dying.
//!
//! Knobs: `DTS_REPS` (default 41 timed repetitions per cell), `DTS_SEED`,
//! `DTS_PROCS` (default 50), `DTS_FULL` (adds a larger sweep tier),
//! `DTS_OUT` (output path), `DTS_INCR_OUT`, `DTS_REQUIRE_MEMO_HITS`.

use std::time::Instant;

use dts_bench::{env_flag, env_or, host_json, HostMeta};
use dts_core::fitness::{BatchProblem, ProcessorState};
use dts_core::rebalance::rebalance_once;
use dts_core::{plan_batch, PlanRequest, PnConfig};
use dts_distributions::{Prng, Rng, SeedSequence};
use dts_ga::{Chromosome, Evaluator, FitnessMemo, Gene, Problem, DEFAULT_MEMO_CAPACITY};
use dts_model::{SimTime, Task, TaskId};

/// One timed cell of the sweep.
struct Cell {
    population: usize,
    tasks: usize,
    workers: usize,
    median_ns: u128,
    p95_ns: u128,
    speedup: f64,
}

fn tasks(n: usize, rng: &mut Prng) -> Vec<Task> {
    (0..n)
        .map(|i| Task::new(TaskId(i as u32), rng.range_f64(10.0, 1000.0), SimTime::ZERO))
        .collect()
}

fn processors(m: usize, rng: &mut Prng) -> Vec<ProcessorState> {
    (0..m)
        .map(|_| ProcessorState {
            rate: rng.range_f64(15.0, 40.0),
            existing_load_mflops: rng.range_f64(0.0, 500.0),
            comm_cost: rng.range_f64(0.05, 0.5),
        })
        .collect()
}

/// A random population, the shape `Zomaya::random_population` produces.
fn population(pop: usize, h: usize, m: usize, rng: &mut Prng) -> Vec<Chromosome> {
    (0..pop)
        .map(|_| {
            let mut queues = vec![Vec::new(); m];
            for slot in 0..h as u32 {
                let j = rng.below(m);
                queues[j].push(slot);
            }
            Chromosome::from_queues(&queues)
        })
        .collect()
}

fn median_p95(samples: &mut [u128]) -> (u128, u128) {
    samples.sort_unstable();
    let n = samples.len();
    let median = samples[n / 2];
    let p95 = samples[((n * 95) / 100).min(n - 1)];
    (median, p95)
}

/// Times `reps` evaluations of the whole population batch under one
/// evaluator; returns (median, p95) in nanoseconds plus a checksum that
/// keeps the work observable.
fn time_eval_batch(
    problem: &BatchProblem<'_>,
    pop: &[Chromosome],
    evaluator: Evaluator,
    reps: usize,
) -> (u128, u128, f64) {
    let mut samples = Vec::with_capacity(reps);
    let mut checksum = 0.0f64;
    evaluator.with_context(problem, |ctx| {
        // Warm-up: fault in code paths and wake the pool once.
        let jobs: Vec<(usize, Chromosome)> = pop.iter().cloned().enumerate().collect();
        checksum += ctx.eval_batch(jobs).iter().map(|e| e.fitness).sum::<f64>();
        for _ in 0..reps {
            // Job construction (clones) happens outside the timed window:
            // the engine hands the evaluator already-built chromosomes.
            let jobs: Vec<(usize, Chromosome)> = pop.iter().cloned().enumerate().collect();
            let t0 = Instant::now();
            let done = ctx.eval_batch(jobs);
            samples.push(t0.elapsed().as_nanos());
            checksum += done.iter().map(|e| e.makespan).sum::<f64>();
        }
    });
    let (median, p95) = median_p95(&mut samples);
    (median, p95, checksum)
}

fn main() {
    let reps: usize = env_or("DTS_REPS", 41);
    let seed: u64 = env_or("DTS_SEED", 20_050_404);
    let m: usize = env_or("DTS_PROCS", 50);
    let full = env_flag("DTS_FULL");
    let out_path: String = env_or("DTS_OUT", "BENCH_parallel_eval.json".to_string());
    let cores = HostMeta::probe().available_parallelism;

    let worker_counts = [1usize, 2, 4, 8];
    let mut shapes: Vec<(usize, usize)> = vec![(20, 200), (100, 200), (100, 1000), (500, 1000)];
    if full {
        shapes.push((1000, 5000));
    }

    eprintln!(
        "perf_eval: {} shapes × workers {:?}, {} reps/cell, M={m}, {cores} core(s), seed={seed}",
        shapes.len(),
        worker_counts,
        reps
    );

    let mut seq = SeedSequence::new(seed);
    let mut cells: Vec<Cell> = Vec::new();
    let mut checksum = 0.0f64;

    println!(
        "{:>6} {:>6} {:>8} {:>12} {:>12} {:>8}",
        "pop", "tasks", "workers", "median_us", "p95_us", "speedup"
    );
    for &(pop_size, h) in &shapes {
        let mut rng = Prng::seed_from(seq.next_seed());
        let batch = tasks(h, &mut rng);
        let procs = processors(m, &mut rng);
        let config = PnConfig::default();
        let problem = BatchProblem::new(&batch, &procs, &config);
        let pop = population(pop_size, h, m, &mut rng);

        let mut serial_median = 0u128;
        for &workers in &worker_counts {
            let evaluator = Evaluator::threads(workers);
            let (median, p95, sum) = time_eval_batch(&problem, &pop, evaluator, reps);
            checksum += sum;
            if workers == 1 {
                serial_median = median;
            }
            let speedup = serial_median as f64 / median.max(1) as f64;
            println!(
                "{:>6} {:>6} {:>8} {:>12.1} {:>12.1} {:>7.2}x",
                pop_size,
                h,
                workers,
                median as f64 / 1e3,
                p95 as f64 / 1e3,
                speedup
            );
            cells.push(Cell {
                population: pop_size,
                tasks: h,
                workers,
                median_ns: median,
                p95_ns: p95,
                speedup,
            });
        }
    }

    // ---- end-to-end: one whole GA run, serial vs parallel ----------------
    // Smaller and noisier than the pipeline sweep, but it keeps the Amdahl
    // gap honest: selection, crossover, mutation, and (when enabled)
    // rebalancing stay serial, so whole-run speedup trails pipeline speedup.
    let e2e_gens: u32 = env_or("DTS_GENS", 60);
    let e2e_reps = (reps / 4).max(5);
    let mut rng = Prng::seed_from(seq.next_seed());
    let e2e_batch = tasks(500, &mut rng);
    let e2e_procs = processors(m, &mut rng);
    let mut e2e: Vec<(usize, u128, f64)> = Vec::new();
    let mut e2e_serial = 0u128;
    for &workers in &worker_counts {
        let mut cfg = PnConfig::default().with_eval_workers(workers);
        cfg.ga.population_size = 100;
        cfg.ga.max_generations = e2e_gens;
        cfg.rebalances_per_generation = 0; // time the pipeline, not §3.5
        let states: Vec<ProcessorState> = e2e_procs.clone();
        let mut samples: Vec<u128> = Vec::with_capacity(e2e_reps);
        for _ in 0..e2e_reps {
            let t0 = Instant::now();
            let outcome = plan_batch(&PlanRequest::new(&e2e_batch, &states, seed ^ 0xE2E), &cfg);
            samples.push(t0.elapsed().as_nanos());
            checksum += outcome.best_makespan;
        }
        let (median, _) = median_p95(&mut samples);
        if workers == 1 {
            e2e_serial = median;
        }
        e2e.push((workers, median, e2e_serial as f64 / median.max(1) as f64));
    }
    println!("\nend-to-end plan_batch (pop=100, tasks=500, gens={e2e_gens}, R=0):");
    for &(workers, median, speedup) in &e2e {
        println!(
            "  workers={workers:<2} median={:>9.1}us speedup={speedup:.2}x",
            median as f64 / 1e3
        );
    }

    // How much the pool costs when it cannot help: serial median over the
    // 1-worker... measured directly as ThreadPool{2} on a 1-core host it is
    // visible in the table; record the (100, 1000) ratio for the trajectory.
    let overhead = cells
        .iter()
        .find(|c| c.population == 100 && c.tasks == 1000 && c.workers == 2)
        .map(|c| 1.0 / c.speedup.max(1e-9))
        .unwrap_or(f64::NAN);

    // ---- JSON ------------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"parallel_eval\",\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str(&host_json());
    json.push_str(&format!(
        "  \"config\": {{ \"reps\": {reps}, \"seed\": {seed}, \"procs\": {m} }},\n"
    ));
    json.push_str(
        "  \"note\": \"speedup_vs_serial is measured on this host and bounded by host.cores; \
         parallel_overhead_vs_serial is the ThreadPool/serial time ratio at pop=100/tasks=1000/\
         workers=2, i.e. what the pool costs where parallelism cannot help\",\n",
    );
    json.push_str(&format!(
        "  \"parallel_overhead_vs_serial\": {:.4},\n",
        overhead
    ));
    json.push_str("  \"eval_pipeline\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"population\": {}, \"tasks\": {}, \"workers\": {}, \"median_ns\": {}, \
             \"p95_ns\": {}, \"speedup_vs_serial\": {:.4} }}{}\n",
            c.population,
            c.tasks,
            c.workers,
            c.median_ns,
            c.p95_ns,
            c.speedup,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"end_to_end_ga\": [\n");
    for (i, &(workers, median, speedup)) in e2e.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"workers\": {workers}, \"population\": 100, \"tasks\": 500, \
             \"generations\": {e2e_gens}, \"median_ns\": {median}, \
             \"speedup_vs_serial\": {speedup:.4} }}{}\n",
            if i + 1 < e2e.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_parallel_eval.json");
    eprintln!("wrote {out_path}   (checksum {checksum:.3})");

    incremental_bench(reps, seed, m);
}

// ======================= incremental evaluation ==========================

/// The evaluation pipeline the engine ran before the incremental paths
/// existed, vendored so the baseline cannot silently inherit the
/// optimisations it is being measured against: every chromosome gets a
/// full-walk evaluation, and every §3.5 rebalance attempt recomputes the
/// completion times from scratch and scores a tentative swap with a full
/// fitness walk (swap → evaluate → revert if not fitter).
fn legacy_rebalance_once(
    problem: &BatchProblem<'_>,
    c: &mut Chromosome,
    current_fitness: f64,
    probes: u32,
    rng: &mut Prng,
) -> Option<f64> {
    let n_procs = c.n_procs() as usize;
    if n_procs < 2 {
        return None;
    }
    let mut completions = Vec::with_capacity(n_procs);
    problem.completion_times(c, &mut completions);
    let heavy = completions
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite completion times"))
        .map(|(i, _)| i)
        .expect("at least one processor");
    let mut heavy_positions: Vec<usize> = Vec::new();
    let mut donor_positions: Vec<usize> = Vec::new();
    let mut proc = 0usize;
    for (i, g) in c.genes().iter().enumerate() {
        match g {
            Gene::Task(_) => {
                if proc == heavy {
                    heavy_positions.push(i);
                } else {
                    donor_positions.push(i);
                }
            }
            Gene::Delim(_) => proc += 1,
        }
    }
    if heavy_positions.is_empty() || donor_positions.is_empty() {
        return None;
    }
    let donor_pos = donor_positions[rng.below(donor_positions.len())];
    let donor_slot = match c.genes()[donor_pos] {
        Gene::Task(s) => s,
        Gene::Delim(_) => unreachable!(),
    };
    let donor_size = problem.batch()[donor_slot as usize].mflops;
    let mut swap_pos = None;
    for _ in 0..probes.max(1) {
        let pos = heavy_positions[rng.below(heavy_positions.len())];
        let slot = match c.genes()[pos] {
            Gene::Task(s) => s,
            Gene::Delim(_) => unreachable!(),
        };
        if problem.batch()[slot as usize].mflops > donor_size {
            swap_pos = Some(pos);
            break;
        }
    }
    let heavy_pos = swap_pos?;
    c.genes_swap(donor_pos, heavy_pos);
    let new_fitness = problem.fitness(c);
    if new_fitness > current_fitness {
        Some(new_fitness)
    } else {
        c.genes_swap(donor_pos, heavy_pos);
        None
    }
}

/// A converged-generation offspring batch: `dup_rate` of the `pop` entries
/// are copies drawn from a 10-genome elite pool (what elitism + roulette
/// over a converged population actually produces), the rest unique. The
/// elite pool is returned too so the memo can be pre-warmed with it — in
/// the engine those genomes were inserted when the *previous* generation
/// evaluated them.
fn offspring_population(
    pop: usize,
    h: usize,
    m: usize,
    dup_rate: f64,
    rng: &mut Prng,
) -> (Vec<Chromosome>, Vec<Chromosome>) {
    let elites = population(10, h, m, rng);
    let offspring = (0..pop)
        .map(|i| {
            if (i as f64) < dup_rate * pop as f64 {
                elites[i % elites.len()].clone()
            } else {
                population(1, h, m, rng).pop().expect("one individual")
            }
        })
        .collect();
    (elites, offspring)
}

struct IncrCell {
    dup_rate: f64,
    baseline_ns: u128,
    incremental_ns: u128,
    speedup: f64,
    memo_hits: u64,
}

fn incremental_bench(reps: usize, seed: u64, m: usize) {
    let out_path: String = env_or("DTS_INCR_OUT", "BENCH_incremental_eval.json".to_string());
    let pop_size = 500usize;
    let h = 1000usize;
    let swaps_per_gen = 50usize;
    let reps = (reps / 2).max(9);
    let mut seq = SeedSequence::new(seed ^ 0x14C2);
    let mut checksum = 0.0f64;

    eprintln!(
        "perf_eval/incremental: pop={pop_size}, tasks={h}, M={m}, {reps} reps/cell, \
         {swaps_per_gen} swap mutations/generation"
    );

    let mut rng = Prng::seed_from(seq.next_seed());
    let batch = tasks(h, &mut rng);
    let procs = processors(m, &mut rng);
    let config = PnConfig::default();
    let problem = BatchProblem::new(&batch, &procs, &config);
    let genes_len = h + m - 1;

    // ---- per-generation evaluation: memo + delta vs full walks ----------
    println!("\nincremental evaluation (pop={pop_size}, tasks={h}):");
    println!(
        "{:>8} {:>14} {:>14} {:>8} {:>10}",
        "dup", "baseline_us", "incremental_us", "speedup", "memo_hits"
    );
    let mut cells: Vec<IncrCell> = Vec::new();
    for &dup_rate in &[0.0f64, 0.5, 0.9] {
        let (elites, offspring) = offspring_population(pop_size, h, m, dup_rate, &mut rng);
        let swaps: Vec<(usize, usize)> = (0..swaps_per_gen)
            .map(|_| (rng.below(genes_len), rng.below(genes_len)))
            .collect();

        let mut base_samples = Vec::with_capacity(reps);
        let mut incr_samples = Vec::with_capacity(reps);
        let mut memo_hits = 0u64;
        for _ in 0..reps {
            // Baseline generation: full walk for every offspring and after
            // every mutation.
            let mut scratch = offspring[0].clone();
            let mut comps = Vec::new();
            let t0 = Instant::now();
            for c in &offspring {
                checksum += problem.evaluate_into(c, &mut comps).0;
            }
            for &(i, j) in &swaps {
                scratch.genes_swap(i, j);
                checksum += problem.evaluate_into(&scratch, &mut comps).0;
            }
            base_samples.push(t0.elapsed().as_nanos());

            // Incremental generation, shaped like the engine's evaluate
            // phase: memo probes in submission order, then full walks for
            // the misses only, then delta-evaluated swap mutations (full
            // walk only when the delta path declines). The memo is
            // pre-warmed with the elite pool outside the timed window —
            // the engine inserted those when the previous generation
            // evaluated them.
            let mut scratch = offspring[0].clone();
            let mut scomps = Vec::new();
            problem.evaluate_into(&scratch, &mut scomps);
            let mut memo = FitnessMemo::new(DEFAULT_MEMO_CAPACITY);
            memo.begin_epoch(problem.epoch_key());
            let mut comps = Vec::new();
            for e in &elites {
                let (f, ms) = problem.evaluate_into(e, &mut comps);
                memo.insert(e, f, ms, &comps);
            }
            let t0 = Instant::now();
            let mut misses: Vec<&Chromosome> = Vec::new();
            for c in &offspring {
                match memo.lookup(c) {
                    Some((f, _, _)) => checksum += f,
                    None => misses.push(c),
                }
            }
            for c in misses {
                let (f, ms) = problem.evaluate_into(c, &mut comps);
                memo.insert(c, f, ms, &comps);
                checksum += f;
            }
            for &(i, j) in &swaps {
                scratch.genes_swap(i, j);
                match problem.evaluate_swap_delta(&scratch, i, j, &mut scomps) {
                    Some((f, _)) => checksum += f,
                    None => checksum += problem.evaluate_into(&scratch, &mut scomps).0,
                }
            }
            incr_samples.push(t0.elapsed().as_nanos());
            memo_hits = memo.hits();
        }
        let (base_median, _) = median_p95(&mut base_samples);
        let (incr_median, _) = median_p95(&mut incr_samples);
        let speedup = base_median as f64 / incr_median.max(1) as f64;
        println!(
            "{:>8.1} {:>14.1} {:>14.1} {:>7.2}x {:>10}",
            dup_rate,
            base_median as f64 / 1e3,
            incr_median as f64 / 1e3,
            speedup,
            memo_hits
        );
        cells.push(IncrCell {
            dup_rate,
            baseline_ns: base_median,
            incremental_ns: incr_median,
            speedup,
            memo_hits,
        });
    }

    // ---- §3.5 rebalance: maintained completions vs fresh-walk legacy -----
    let attempts = 200u32;
    let start = population(1, h, m, &mut rng).pop().expect("one");
    let probes = config.rebalance_probes;
    let mut legacy_samples = Vec::with_capacity(reps);
    let mut incr_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut c = start.clone();
        let mut fitness = problem.fitness(&c);
        let mut r = Prng::seed_from(0x0BA1_A4CE);
        let t0 = Instant::now();
        for _ in 0..attempts {
            if let Some(f) = legacy_rebalance_once(&problem, &mut c, fitness, probes, &mut r) {
                fitness = f;
            }
        }
        legacy_samples.push(t0.elapsed().as_nanos());
        checksum += fitness;

        let mut c = start.clone();
        let mut fitness = problem.fitness(&c);
        let mut completions = Vec::new();
        problem.completion_times(&c, &mut completions);
        let mut r = Prng::seed_from(0x0BA1_A4CE);
        let t0 = Instant::now();
        for _ in 0..attempts {
            if let Some(f) =
                rebalance_once(&problem, &mut c, fitness, &mut completions, probes, &mut r)
            {
                fitness = f;
            }
        }
        incr_samples.push(t0.elapsed().as_nanos());
        checksum += fitness;
    }
    let (legacy_median, _) = median_p95(&mut legacy_samples);
    let (rebal_median, _) = median_p95(&mut incr_samples);
    let rebal_speedup = legacy_median as f64 / rebal_median.max(1) as f64;
    println!(
        "rebalance ({attempts} attempts): legacy={:.1}us incremental={:.1}us speedup={rebal_speedup:.2}x",
        legacy_median as f64 / 1e3,
        rebal_median as f64 / 1e3
    );

    // ---- end-to-end GA with the memo on vs off ---------------------------
    // Two shapes: the thread-pool break-even shape from the parallel sweep,
    // and a convergence-heavy one (the paper's micro-population of 20 run
    // to 1000 generations on a small batch) where most late-generation
    // offspring are copies of the incumbent elite and the memo should carry
    // a large share of the evaluations.
    struct E2eCell {
        label: &'static str,
        capacity: usize,
        population: usize,
        tasks: usize,
        generations: u32,
        median_ns: u128,
        hit_rate: f64,
        speedup: f64,
    }
    let e2e_reps = (reps / 2).max(5);
    let e2e_batch = tasks(500, &mut rng);
    let small_batch = tasks(50, &mut rng);
    let e2e_procs = processors(m, &mut rng);
    let mut e2e: Vec<E2eCell> = Vec::new();
    for &(label, pop, gens, batch) in &[
        ("breakeven", 100usize, 60u32, &e2e_batch),
        ("converged", 20, 1000, &small_batch),
    ] {
        let mut off_median = 0u128;
        for &capacity in &[0usize, DEFAULT_MEMO_CAPACITY] {
            let mut cfg = PnConfig::default();
            cfg.ga.population_size = pop;
            cfg.ga.max_generations = gens;
            cfg.ga.memo_capacity = capacity;
            let mut samples = Vec::with_capacity(e2e_reps);
            let mut hit_rate = 0.0f64;
            for _ in 0..e2e_reps {
                let t0 = Instant::now();
                let out = plan_batch(&PlanRequest::new(batch, &e2e_procs, seed ^ 0x1CE), &cfg);
                samples.push(t0.elapsed().as_nanos());
                checksum += out.best_makespan;
                let total = out.ga.memo_hits + out.ga.memo_misses;
                hit_rate = out.ga.memo_hits as f64 / (total.max(1)) as f64;
                if capacity > 0 && label == "converged" && env_flag("DTS_REQUIRE_MEMO_HITS") {
                    assert!(
                        hit_rate > 0.0,
                        "DTS_REQUIRE_MEMO_HITS: convergence-heavy GA run served no \
                         evaluations from the memo ({} hits / {} lookups)",
                        out.ga.memo_hits,
                        total
                    );
                }
            }
            let (median, _) = median_p95(&mut samples);
            if capacity == 0 {
                off_median = median;
            }
            let speedup = off_median as f64 / median.max(1) as f64;
            println!(
                "end-to-end {label} (pop={pop}, tasks={}, gens={gens}) memo_capacity={capacity}: \
                 median={:.1}us hit_rate={:.3} speedup={:.2}x",
                batch.len(),
                median as f64 / 1e3,
                hit_rate,
                speedup
            );
            e2e.push(E2eCell {
                label,
                capacity,
                population: pop,
                tasks: batch.len(),
                generations: gens,
                median_ns: median,
                hit_rate,
                speedup,
            });
        }
    }

    let headline = cells
        .iter()
        .find(|c| (c.dup_rate - 0.9).abs() < 1e-9)
        .expect("0.9 cell");
    if headline.speedup < 5.0 {
        eprintln!(
            "WARNING: headline incremental speedup {:.2}x below the 5x target",
            headline.speedup
        );
    }

    // ---- JSON ------------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"incremental_eval\",\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str(&host_json());
    json.push_str(&format!(
        "  \"config\": {{ \"reps\": {reps}, \"seed\": {seed}, \"procs\": {m}, \
         \"population\": {pop_size}, \"tasks\": {h}, \"swap_mutations\": {swaps_per_gen} }},\n"
    ));
    json.push_str(
        "  \"note\": \"per_generation cells time one generation of evaluation work (offspring \
         batch + swap mutations) with the incremental pipeline (fitness memo + delta-evaluation) \
         against a vendored full-walk baseline; dup_rate models convergence (fraction of \
         offspring that are copies of elites). rebalance compares the completions-carrying \
         rebalance against the legacy fresh-walk form. All paths are bit-identical; only the \
         wall-clock differs\",\n",
    );
    json.push_str("  \"per_generation\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"dup_rate\": {:.1}, \"baseline_median_ns\": {}, \
             \"incremental_median_ns\": {}, \"speedup\": {:.4}, \"memo_hits\": {} }}{}\n",
            c.dup_rate,
            c.baseline_ns,
            c.incremental_ns,
            c.speedup,
            c.memo_hits,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"headline_speedup_dup_0_9\": {:.4},\n",
        headline.speedup
    ));
    json.push_str(&format!(
        "  \"rebalance\": {{ \"attempts\": {attempts}, \"legacy_median_ns\": {legacy_median}, \
         \"incremental_median_ns\": {rebal_median}, \"speedup\": {rebal_speedup:.4} }},\n"
    ));
    json.push_str("  \"end_to_end_ga\": [\n");
    for (i, c) in e2e.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"shape\": \"{}\", \"memo_capacity\": {}, \"population\": {}, \
             \"tasks\": {}, \"generations\": {}, \"median_ns\": {}, \"memo_hit_rate\": {:.4}, \
             \"speedup_vs_memo_off\": {:.4} }}{}\n",
            c.label,
            c.capacity,
            c.population,
            c.tasks,
            c.generations,
            c.median_ns,
            c.hit_rate,
            c.speedup,
            if i + 1 < e2e.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_incremental_eval.json");
    eprintln!("wrote {out_path}   (checksum {checksum:.3})");
}
