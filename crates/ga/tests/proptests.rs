//! Property tests: every GA operator preserves the permutation invariant
//! for arbitrary chromosome shapes, and the engine never fabricates or
//! loses tasks.

use dts_distributions::Prng;
use dts_ga::crossover::UnreportedCycle;
use dts_ga::{
    repair_topological, Chromosome, CrossoverOp, CycleCrossover, Evaluator, GaConfig, GaEngine,
    Gene, MutationOp, OnePointOrder, OrderCrossover, Problem, RankSelection, RouletteWheel,
    SelectionOp, SlotPrecedence, SwapMutation, Tournament,
};
use proptest::prelude::*;

/// Strategy: a random chromosome with `h` tasks over `m` processors, built
/// by dealing slots into random queues.
fn chromosome(h: u32, m: u16, deal: Vec<u16>) -> Chromosome {
    let mut queues = vec![Vec::new(); m as usize];
    for slot in 0..h {
        let j = deal[slot as usize % deal.len()] % m;
        queues[j as usize].push(slot);
    }
    Chromosome::from_queues(&queues)
}

/// Unit tasks on unit-rate processors: the makespan is the longest queue,
/// and fitness rewards balance.
struct Balance;

impl Balance {
    fn makespan(&self, c: &Chromosome) -> f64 {
        c.queue_lengths().into_iter().max().unwrap_or(0) as f64
    }
}

impl Problem for Balance {
    fn evaluate_into(&self, c: &Chromosome, completions: &mut Vec<f64>) -> (f64, f64) {
        completions.clear();
        let makespan = self.makespan(c);
        (1.0 / (1.0 + makespan), makespan)
    }
}

fn chromosome_strategy() -> impl Strategy<Value = (Chromosome, Chromosome, u64)> {
    (
        1u32..80,
        1u16..12,
        proptest::collection::vec(0u16..12, 1..80),
        proptest::collection::vec(0u16..12, 1..80),
        0u64..u64::MAX,
    )
        .prop_map(|(h, m, deal_a, deal_b, seed)| {
            (chromosome(h, m, deal_a), chromosome(h, m, deal_b), seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn crossover_preserves_permutation((a, b, seed) in chromosome_strategy()) {
        let mut rng = Prng::seed_from(seed);
        for op in [&CycleCrossover as &dyn CrossoverOp, &OrderCrossover, &OnePointOrder] {
            let (c, d) = op.cross(&a, &b, &mut rng);
            prop_assert!(c.validate().is_ok(), "{} child invalid", op.label());
            prop_assert!(d.validate().is_ok(), "{} child invalid", op.label());
            prop_assert!(c.same_symbol_set(&a));
            prop_assert!(d.same_symbol_set(&a));
        }
    }

    #[test]
    fn cycle_crossover_alleles_positional((a, b, seed) in chromosome_strategy()) {
        let mut rng = Prng::seed_from(seed);
        let (c, d) = CycleCrossover.cross(&a, &b, &mut rng);
        for i in 0..a.genes().len() {
            prop_assert!(c.genes()[i] == a.genes()[i] || c.genes()[i] == b.genes()[i]);
            prop_assert!(d.genes()[i] == a.genes()[i] || d.genes()[i] == b.genes()[i]);
        }
    }

    #[test]
    fn mutation_preserves_permutation((a, _b, seed) in chromosome_strategy()) {
        let mut rng = Prng::seed_from(seed);
        let mut c = a.clone();
        for _ in 0..8 {
            SwapMutation.mutate(&mut c, &mut rng);
            prop_assert!(c.validate().is_ok(), "{} broke the permutation", SwapMutation.label());
        }
    }

    #[test]
    fn selection_returns_valid_index(
        fitness in proptest::collection::vec(0.0..1.0f64, 1..40),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Prng::seed_from(seed);
        for op in [&RouletteWheel as &dyn SelectionOp, &Tournament::new(3), &RankSelection] {
            let idx = op.select(&fitness, &mut rng);
            prop_assert!(idx < fitness.len(), "{} out of range", op.label());
        }
    }

    #[test]
    fn engine_best_is_valid_and_no_worse_than_initial(
        (a, b, seed) in chromosome_strategy(),
    ) {
        let sel = RouletteWheel;
        let cx = CycleCrossover;
        let mu = SwapMutation;
        let engine = GaEngine::new(&sel, &cx, &mu, GaConfig {
            population_size: 8,
            max_generations: 12,
            ..GaConfig::default()
        });
        let mut rng = Prng::seed_from(seed);
        let initial_best = Balance.makespan(&a).min(Balance.makespan(&b));
        let result = engine.run(&Balance, vec![a, b], None, &mut rng);
        prop_assert!(result.best.validate().is_ok());
        prop_assert!(result.best_makespan <= initial_best + 1e-9,
            "GA returned something worse than its seeds");
    }

    /// Inheritance is invisible: a run whose parent copies inherit their
    /// evaluation is bit-identical, generation by generation, to one whose
    /// crossover reports no parentage, so that every child is evaluated —
    /// serially and on a two-worker pool.
    #[test]
    fn engine_memo_is_invisible((a, b, seed) in chromosome_strategy()) {
        let sel = RouletteWheel;
        let mu = SwapMutation;
        let run = |cx: &dyn CrossoverOp, evaluator: Evaluator| {
            let engine = GaEngine::new(&sel, cx, &mu, GaConfig {
                population_size: 8,
                max_generations: 10,
                record_history: true,
                evaluator,
                ..GaConfig::default()
            });
            let mut rng = Prng::seed_from(seed);
            engine.run(&Balance, vec![a.clone(), b.clone()], None, &mut rng)
        };
        let off = run(&UnreportedCycle, Evaluator::Serial);
        prop_assert_eq!(off.memo_hits, 0, "unreported parentage must never inherit");
        for evaluator in [Evaluator::Serial, Evaluator::ThreadPool { workers: 2 }] {
            let on = run(&CycleCrossover, evaluator);
            prop_assert_eq!(&on.best, &off.best);
            prop_assert_eq!(on.best_fitness.to_bits(), off.best_fitness.to_bits());
            prop_assert_eq!(on.best_makespan.to_bits(), off.best_makespan.to_bits());
            prop_assert_eq!(on.generations, off.generations);
            prop_assert_eq!(on.history.len(), off.history.len());
            for (sa, sb) in on.history.iter().zip(&off.history) {
                prop_assert_eq!(sa.best_makespan.to_bits(), sb.best_makespan.to_bits());
                prop_assert_eq!(sa.best_fitness.to_bits(), sb.best_fitness.to_bits());
                prop_assert_eq!(sa.mean_fitness.to_bits(), sb.mean_fitness.to_bits());
            }
            prop_assert_eq!(on.memo_hits + on.memo_misses, off.memo_misses);
        }
    }

    #[test]
    fn engine_run_is_evaluator_invariant((a, b, seed) in chromosome_strategy()) {
        let sel = RouletteWheel;
        let cx = CycleCrossover;
        let mu = SwapMutation;
        let run = |evaluator: Evaluator| {
            let engine = GaEngine::new(&sel, &cx, &mu, GaConfig {
                population_size: 8,
                max_generations: 10,
                evaluator,
                ..GaConfig::default()
            });
            let mut rng = Prng::seed_from(seed);
            engine.run(&Balance, vec![a.clone(), b.clone()], None, &mut rng)
        };
        let serial = run(Evaluator::Serial);
        let parallel = run(Evaluator::ThreadPool { workers: 3 });
        prop_assert_eq!(&parallel.best, &serial.best);
        prop_assert_eq!(parallel.best_makespan.to_bits(), serial.best_makespan.to_bits());
        prop_assert_eq!(parallel.best_fitness.to_bits(), serial.best_fitness.to_bits());
        prop_assert_eq!(parallel.generations, serial.generations);
    }
}

/// Strategy for repair: a random chromosome plus a random acyclic
/// precedence relation over its task slots (every generated edge points
/// from a smaller to a larger slot id, so acyclicity holds by
/// construction while still exercising arbitrary partial orders).
fn repair_strategy() -> impl Strategy<Value = (Chromosome, Vec<(u32, u32)>)> {
    (
        2u32..60,
        1u16..8,
        proptest::collection::vec(0u16..8, 1..60),
        proptest::collection::vec((0u32..60, 0u32..60), 0..120),
    )
        .prop_map(|(h, m, deal, raw)| {
            let c = chromosome(h, m, deal);
            let pairs: Vec<(u32, u32)> = raw
                .into_iter()
                .filter_map(|(a, b)| {
                    let (a, b) = (a % h, b % h);
                    match a.cmp(&b) {
                        std::cmp::Ordering::Less => Some((a, b)),
                        std::cmp::Ordering::Greater => Some((b, a)),
                        std::cmp::Ordering::Equal => None,
                    }
                })
                .collect();
            (c, pairs)
        })
}

/// The slot count and delimiter positions of a chromosome's gene string.
fn shape_of(c: &Chromosome) -> (usize, Vec<usize>) {
    let mut tasks = 0usize;
    let mut delims = Vec::new();
    for (i, g) in c.genes().iter().enumerate() {
        match g {
            Gene::Task(_) => tasks += 1,
            Gene::Delim(_) => delims.push(i),
        }
    }
    (tasks, delims)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The repair operator's contract: for any chromosome and any acyclic
    /// precedence relation, the repaired chromosome (a) is still a valid
    /// permutation with the same task multiset, (b) keeps every delimiter
    /// in place (queue lengths are untouched), (c) lists every task after
    /// all of its predecessors, and (d) is a fixed point — repairing
    /// twice changes nothing, so the operator is deterministic and
    /// convergent.
    #[test]
    fn repair_emits_topologically_valid_multiset_preserving_orders(
        (original, pairs) in repair_strategy(),
    ) {
        let (h, delims_before) = shape_of(&original);
        let mut preds = vec![Vec::new(); h];
        for &(p, s) in &pairs {
            preds[s as usize].push(p);
        }
        let prec = SlotPrecedence::new(preds);

        let mut repaired = original.clone();
        let changed = repair_topological(&mut repaired, &prec);

        // (a) Permutation invariant and multiset preservation.
        prop_assert!(repaired.validate().is_ok());
        prop_assert!(repaired.same_symbol_set(&original));
        // (b) Delimiters (queue lengths) are untouched.
        let (h_after, delims_after) = shape_of(&repaired);
        prop_assert_eq!(h, h_after);
        prop_assert_eq!(delims_before, delims_after);
        // (c) Topological validity of the flattened gene order.
        let mut emitted = vec![false; h];
        for g in repaired.genes() {
            if let Gene::Task(t) = g {
                for &p in prec.preds_of(*t) {
                    prop_assert!(
                        emitted[p as usize],
                        "task {} emitted before predecessor {}", t, p
                    );
                }
                emitted[*t as usize] = true;
            }
        }
        // (d) Idempotence, and the change flag tells the truth.
        let mut again = repaired.clone();
        prop_assert!(!repair_topological(&mut again, &prec), "repair of a repaired chromosome must be a no-op");
        prop_assert_eq!(&again, &repaired);
        prop_assert_eq!(changed, repaired != original, "change flag must reflect an actual edit");
        // An unconstrained relation never edits anything.
        if pairs.is_empty() {
            prop_assert!(!changed);
            prop_assert_eq!(&repaired, &original);
        }
    }
}
