//! Criterion micro-benchmarks of the GA building blocks at the paper's
//! operating point (batch H = 200, M = 50 processors, micro-population).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dts_bench::figures::{batch_processors, batch_tasks};
use dts_core::fitness::BatchProblem;
use dts_core::rebalance::rebalance_once;
use dts_core::{plan_batch, PlanRequest, PnConfig};
use dts_distributions::Prng;
use dts_ga::{Chromosome, CrossoverOp, CycleCrossover, MutationOp, Problem, SwapMutation};
use dts_model::SizeDistribution;

fn setup() -> (Vec<dts_model::Task>, Vec<dts_core::fitness::ProcessorState>) {
    let sizes = SizeDistribution::Normal {
        mean: 1000.0,
        variance: 9.0e5,
    };
    (batch_tasks(200, &sizes, 1), batch_processors(50, 2))
}

fn random_chromosome(h: u32, m: u16, rng: &mut Prng) -> Chromosome {
    use dts_distributions::Rng;
    let mut queues = vec![Vec::new(); m as usize];
    for slot in 0..h {
        let j = rng.below(m as usize);
        queues[j].push(slot);
    }
    Chromosome::from_queues(&queues)
}

fn bench_ops(c: &mut Criterion) {
    let (tasks, procs) = setup();
    let cfg = PnConfig::default();
    let problem = BatchProblem::new(&tasks, &procs, &cfg);
    let mut rng = Prng::seed_from(3);
    let a = random_chromosome(200, 50, &mut rng);
    let b = random_chromosome(200, 50, &mut rng);

    c.bench_function("fitness_eval_H200_M50", |bench| {
        bench.iter(|| std::hint::black_box(problem.fitness(&a)))
    });

    c.bench_function("cycle_crossover_H200_M50", |bench| {
        bench.iter(|| std::hint::black_box(CycleCrossover.cross(&a, &b, &mut rng)))
    });

    c.bench_function("swap_mutation_H200_M50", |bench| {
        bench.iter_batched(
            || a.clone(),
            |mut c| {
                SwapMutation.mutate(&mut c, &mut rng);
                c
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("rebalance_once_H200_M50", |bench| {
        let fitness = problem.fitness(&a);
        let mut base = Vec::new();
        problem.completion_times(&a, &mut base);
        bench.iter_batched(
            || (a.clone(), base.clone()),
            |(mut c, mut completions)| {
                let _ = rebalance_once(&problem, &mut c, fitness, &mut completions, 5, &mut rng);
                c
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_full_ga(c: &mut Criterion) {
    let (tasks, procs) = setup();
    let mut group = c.benchmark_group("ga_run");
    group.sample_size(10);
    for gens in [50u32, 200] {
        group.bench_function(format!("H200_M50_{gens}gens"), |bench| {
            let mut cfg = PnConfig::default();
            cfg.ga.max_generations = gens;
            bench.iter(|| {
                std::hint::black_box(plan_batch(&PlanRequest::new(&tasks, &procs, 42), &cfg))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ops, bench_full_ga);
criterion_main!(benches);
