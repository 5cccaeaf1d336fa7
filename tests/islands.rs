//! Island-model conformance suite: the sharded GA is *equivalent* to the
//! monolithic engine where it must be, and *no worse* where it may differ.
//!
//! Four contracts, each enforced bitwise (not approximately):
//!
//! 1. **Identity** — `islands = 1` is the monolithic engine, bit for bit:
//!    same best schedule, same fitness/makespan bits, same generation
//!    count, same stop reason, same memo counters, same final population.
//!    CI greps for this test by name; renaming it breaks the build.
//! 2. **Worker invariance** — an N-island run is bit-identical at every
//!    evaluator worker count, fresh or warm-started. Thread scheduling
//!    must never leak into migration or any RNG stream.
//! 3. **Conservation** — migration swaps individuals, it never fabricates,
//!    duplicates, or loses them: every task is scheduled exactly once and
//!    every island keeps its exact population size.
//! 4. **Quality at equal budget** — the configured population is
//!    *partitioned* across islands (same total evaluations per
//!    generation), and at that equal budget the ensemble's best makespan
//!    stays within a seeded tolerance of the monolithic run.

use dts::core::fitness::{BatchProblem, ProcessorState};
use dts::core::init::initial_population;
use dts::core::{plan_batch, PlanRequest, PnConfig};
use dts::distributions::{Prng, Rng};
use dts::ga::{
    island_sizes, Chromosome, CycleCrossover, GaEngine, IslandConfig, IslandEngine, RouletteWheel,
    SwapMutation, Topology,
};
use dts::model::{SimTime, Task, TaskId};

fn batch(sizes: &[f64]) -> Vec<Task> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &m)| Task::new(TaskId(i as u32), m, SimTime::ZERO))
        .collect()
}

fn procs(rates: &[f64]) -> Vec<ProcessorState> {
    rates
        .iter()
        .map(|&rate| ProcessorState {
            rate,
            existing_load_mflops: 0.0,
            comm_cost: 0.05,
        })
        .collect()
}

/// A mid-size heterogeneous batch: large enough that islands actually
/// diverge and migrate, small enough to keep the suite fast.
fn paper_batch() -> (Vec<Task>, Vec<ProcessorState>) {
    let sizes: Vec<f64> = (0..24).map(|i| 60.0 + 37.0 * (i % 7) as f64).collect();
    (batch(&sizes), procs(&[100.0, 150.0, 80.0, 120.0]))
}

fn island_cfg(islands: usize) -> IslandConfig {
    IslandConfig {
        islands,
        migration_interval: 5,
        migrants: 1,
        topology: Topology::Ring,
    }
}

fn pn_config(max_gens: u32, islands: usize) -> PnConfig {
    let mut cfg = PnConfig::default().with_islands(island_cfg(islands));
    cfg.ga.max_generations = max_gens;
    cfg
}

// ---------------------------------------------------------------------
// 1. Identity: islands = 1 IS the monolithic engine.
// ---------------------------------------------------------------------

/// The CI-guarded identity test: a 1-island `IslandEngine` run on the PN
/// batch problem is bitwise the monolithic `GaEngine::run`, including the
/// memo counters and the stop reason. Do not rename without updating
/// `.github/workflows/ci.yml`.
#[test]
fn one_island_is_bitwise_identical_to_the_monolithic_engine() {
    let (b, p) = paper_batch();
    let config = pn_config(40, 1);
    let problem = BatchProblem::new(&b, &p, &config);

    let mut seed_rng = Prng::seed_from(0xA11A0D);
    let initial = initial_population(&b, &p, config.ga.population_size, (0.4, 0.8), &mut seed_rng);

    let (sel, cx, mu) = (RouletteWheel, CycleCrossover, SwapMutation);
    let mono_engine = GaEngine::new(&sel, &cx, &mu, config.ga.clone());
    let mut mono_rng = Prng::seed_from(0xFEED);
    let mono = mono_engine.run(&problem, initial.clone(), None, &mut mono_rng);

    let island_engine =
        IslandEngine::new(&sel, &cx, &mu, config.ga.clone(), island_cfg(1)).expect("valid config");
    let mut island_rng = Prng::seed_from(0xFEED);
    let sharded = island_engine.run(&problem, vec![initial], None, &mut island_rng);

    assert_eq!(sharded.best, mono.best, "best chromosome diverged");
    assert_eq!(
        sharded.best_makespan.to_bits(),
        mono.best_makespan.to_bits()
    );
    assert_eq!(sharded.best_fitness.to_bits(), mono.best_fitness.to_bits());
    assert_eq!(sharded.generations, mono.generations);
    assert_eq!(sharded.stop_reason, mono.stop_reason);
    assert_eq!(sharded.memo_hits, mono.memo_hits, "memo hits diverged");
    assert_eq!(
        sharded.memo_misses, mono.memo_misses,
        "memo misses diverged"
    );
    assert_eq!(sharded.islands.len(), 1);
    assert_eq!(
        sharded.merged_final_population(),
        mono.final_population,
        "final population diverged"
    );
    // Both runs must consume the caller's RNG identically, so anything
    // seeded afterwards stays aligned too.
    assert_eq!(mono_rng.next_u64(), island_rng.next_u64());
}

/// Same identity one layer up: `plan_batch` with `islands = 1` takes
/// the monolithic code path whatever the (unused) migration knobs say.
#[test]
fn one_island_schedule_batch_matches_the_default_pipeline() {
    let (b, p) = paper_batch();
    let plain = plan_batch(&PlanRequest::new(&b, &p, 0xBEEF), &pn_config(40, 1));
    let mut knobs = pn_config(40, 1);
    knobs.islands.migration_interval = 1;
    knobs.islands.migrants = 7;
    knobs.islands.topology = Topology::FullyConnected;
    let with_knobs = plan_batch(&PlanRequest::new(&b, &p, 0xBEEF), &knobs);

    assert_eq!(plain.queues, with_knobs.queues);
    assert_eq!(plain.best, with_knobs.best);
    assert_eq!(
        plain.best_makespan.to_bits(),
        with_knobs.best_makespan.to_bits()
    );
    assert_eq!(plain.generations, with_knobs.generations);
    assert_eq!(plain.ga.stop_reason, with_knobs.ga.stop_reason);
    assert_eq!(plain.ga.memo_hits, with_knobs.ga.memo_hits);
    assert!(plain.islands.is_empty() && with_knobs.islands.is_empty());
}

// ---------------------------------------------------------------------
// 2. Worker invariance: bit-identical at any worker count, warm or not.
// ---------------------------------------------------------------------

fn assert_outcomes_identical(
    label: &str,
    a: &dts::core::BatchOutcome,
    b: &dts::core::BatchOutcome,
) {
    assert_eq!(a.queues, b.queues, "{label}: queues");
    assert_eq!(a.best, b.best, "{label}: best chromosome");
    assert_eq!(
        a.best_makespan.to_bits(),
        b.best_makespan.to_bits(),
        "{label}: makespan"
    );
    assert_eq!(
        a.best_fitness.to_bits(),
        b.best_fitness.to_bits(),
        "{label}: fitness"
    );
    assert_eq!(a.generations, b.generations, "{label}: generations");
    assert_eq!(a.ga.stop_reason, b.ga.stop_reason, "{label}: stop reason");
    assert_eq!(a.ga.memo_hits, b.ga.memo_hits, "{label}: memo hits");
    assert_eq!(a.ga.memo_misses, b.ga.memo_misses, "{label}: memo misses");
    assert_eq!(
        a.ga.final_population, b.ga.final_population,
        "{label}: merged final population"
    );
    assert_eq!(a.islands.len(), b.islands.len(), "{label}: island count");
    for (k, (ia, ib)) in a.islands.iter().zip(&b.islands).enumerate() {
        assert_eq!(ia.best, ib.best, "{label}: island {k} best");
        assert_eq!(
            ia.best_makespan.to_bits(),
            ib.best_makespan.to_bits(),
            "{label}: island {k} makespan"
        );
        assert_eq!(ia.generations, ib.generations, "{label}: island {k} gens");
        assert_eq!(
            ia.stop_reason, ib.stop_reason,
            "{label}: island {k} stop reason"
        );
        assert_eq!(
            ia.final_population, ib.final_population,
            "{label}: island {k} final population"
        );
    }
}

#[test]
fn island_runs_are_bit_identical_across_worker_counts_fresh_and_warm() {
    let (b, p) = paper_batch();
    // Warm seeds shaped for this batch: a round-robin deal, best first.
    let warm: Vec<Chromosome> = (0..4)
        .map(|rot| {
            let mut queues = vec![Vec::new(); p.len()];
            for slot in 0..b.len() as u32 {
                queues[(slot as usize + rot) % p.len()].push(slot);
            }
            Chromosome::from_queues(&queues)
        })
        .collect();

    for islands in [2, 4] {
        for warm_on in [false, true] {
            let seeds: &[Chromosome] = if warm_on { &warm } else { &[] };
            let reference = plan_batch(
                &PlanRequest::new(&b, &p, 0x151A4D).with_warm_seeds(seeds),
                &pn_config(40, islands),
            );
            for workers in [2, 8] {
                let cfg = pn_config(40, islands).with_eval_workers(workers);
                let run = plan_batch(
                    &PlanRequest::new(&b, &p, 0x151A4D).with_warm_seeds(seeds),
                    &cfg,
                );
                assert_outcomes_identical(
                    &format!("islands={islands}/warm={warm_on}/workers={workers}"),
                    &reference,
                    &run,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// 3. Conservation: migration never fabricates, duplicates, or loses work.
// ---------------------------------------------------------------------

#[test]
fn island_runs_schedule_every_task_exactly_once() {
    let (b, p) = paper_batch();
    for islands in [2, 3, 4] {
        for topology in [Topology::Ring, Topology::FullyConnected] {
            let mut cfg = pn_config(30, islands);
            cfg.islands.topology = topology;
            cfg.islands.migration_interval = 2; // migrate often
            let out = plan_batch(&PlanRequest::new(&b, &p, 0xC0DE + islands as u64), &cfg);
            let mut seen: Vec<u32> = out.queues.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(
                seen,
                (0..b.len() as u32).collect::<Vec<_>>(),
                "islands={islands} {topology:?}: schedule is not a permutation"
            );
        }
    }
}

#[test]
fn island_populations_keep_their_exact_sizes_and_stay_valid() {
    let (b, p) = paper_batch();
    let cfg = pn_config(30, 3);
    let out = plan_batch(&PlanRequest::new(&b, &p, 0xACC7), &cfg);
    let sizes = island_sizes(cfg.ga.population_size, 3);
    assert_eq!(out.islands.len(), 3);
    for (k, island) in out.islands.iter().enumerate() {
        assert_eq!(
            island.final_population.len(),
            sizes[k],
            "island {k} population size drifted"
        );
        for c in &island.final_population {
            assert!(c.validate().is_ok(), "island {k} holds a broken chromosome");
            assert_eq!(c.n_tasks() as usize, b.len());
        }
    }
    // The merged view is exactly the union, nothing dropped.
    let total: usize = out.islands.iter().map(|i| i.final_population.len()).sum();
    assert_eq!(out.ga.final_population.len(), total);
    assert_eq!(total, cfg.ga.population_size);
}

// ---------------------------------------------------------------------
// 4. Quality at equal evaluation budget.
// ---------------------------------------------------------------------

/// The population is partitioned, not multiplied: per generation the
/// ensemble evaluates exactly as many individuals as the monolithic run.
/// At that equal budget the islands' best makespan must stay within a
/// seeded tolerance of the monolithic best — sharding plus migration may
/// trade a little convergence speed for diversity, but it must never
/// collapse schedule quality.
#[test]
fn equal_budget_islands_stay_within_tolerance_of_monolithic() {
    let (b, p) = paper_batch();
    const TOLERANCE: f64 = 1.10;
    for seed in [11u64, 29, 47, 83] {
        let mono = plan_batch(&PlanRequest::new(&b, &p, seed), &pn_config(60, 1));
        let isl = plan_batch(&PlanRequest::new(&b, &p, seed), &pn_config(60, 4));
        assert!(
            isl.best_makespan <= mono.best_makespan * TOLERANCE,
            "seed {seed}: islands {} vs monolithic {} exceeds tolerance",
            isl.best_makespan,
            mono.best_makespan,
        );
    }
}

/// Stop reasons propagate through the ensemble: a reachable target
/// makespan stops the whole run as `TargetReached`.
#[test]
fn island_target_makespan_stops_the_ensemble() {
    let (b, p) = paper_batch();
    let mut cfg = pn_config(200, 2);
    // Total work / total rate is a lower bound; any achievable ceiling
    // above the optimum triggers the early stop.
    let total: f64 = b.iter().map(|t| t.mflops).sum();
    let rates: f64 = p.iter().map(|s| s.rate).sum();
    cfg.ga.target_makespan = Some(total / rates * 3.0);
    let out = plan_batch(&PlanRequest::new(&b, &p, 0x7A26E7), &cfg);
    assert_eq!(out.ga.stop_reason, dts::ga::StopReason::TargetReached);
    assert!(out.generations < 200, "early stop never fired");
}
