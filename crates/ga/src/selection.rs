//! Parent selection operators.
//!
//! The paper (§3.3): "We choose to use the standard weighted roulette wheel
//! method of selection which is widely used by previous researchers who have
//! applied GAs to task scheduling. Each individual i in the population is
//! assigned a slot between 0 and 1. The size of slot i is
//! ςᵢ = Fᵢ × (Σⱼ Fⱼ)⁻¹."
//!
//! [`RouletteWheel`] implements exactly that; [`Tournament`] and
//! [`RankSelection`] exist for the `ablate_selection` study.
//!
//! A generation draws all its parents from one fitness vector, so the
//! engine readies the operator once per generation
//! ([`SelectionOp::prepare`]) and then draws with
//! [`SelectionOp::select_prepared`]. The roulette wheel builds its slot
//! boundaries there, once, and each draw is a binary search instead of a
//! walk over the population; the draw picks the same index from the same
//! RNG words as [`SelectionOp::select`].

use dts_distributions::{Prng, Rng};

/// Chooses the index of one parent given the population's fitness values.
pub trait SelectionOp: Send + Sync {
    /// Returns the index of the selected individual. `fitness` is
    /// non-empty; values are finite and ≥ 0.
    fn select(&self, fitness: &[f64], rng: &mut Prng) -> usize;

    /// Readies `table` for a generation of draws from `fitness` with
    /// [`SelectionOp::select_prepared`], overwriting whatever it held. The
    /// default keeps nothing: its draws are [`SelectionOp::select`]'s.
    fn prepare(&self, fitness: &[f64], table: &mut Vec<f64>) {
        let _ = fitness;
        table.clear();
    }

    /// One draw from `fitness` after [`SelectionOp::prepare`] readied
    /// `table` for it: the index [`SelectionOp::select`] returns, from the
    /// same RNG draws. The default is `select`.
    fn select_prepared(&self, fitness: &[f64], table: &[f64], rng: &mut Prng) -> usize {
        let _ = table;
        self.select(fitness, rng)
    }

    /// Short label for experiment tables.
    fn label(&self) -> &'static str;
}

/// Fitness-proportionate (roulette-wheel) selection — the paper's operator.
///
/// Degenerate case: when every fitness is zero (all schedules equally bad),
/// selection falls back to uniform, which matches the limiting behaviour of
/// equal slots.
///
/// Prepared, the wheel is the running sums of `fitness` — the partial sums
/// [`SelectionOp::select`]'s walk forms, added in the same order, so the
/// last one is its total — and a draw is the first slot whose running sum
/// exceeds the spin, found by binary search.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouletteWheel;

impl SelectionOp for RouletteWheel {
    fn select(&self, fitness: &[f64], rng: &mut Prng) -> usize {
        debug_assert!(!fitness.is_empty());
        let total: f64 = fitness.iter().sum();
        if total <= 0.0 || !total.is_finite() {
            return rng.below(fitness.len());
        }
        let spin = rng.next_f64() * total;
        let mut acc = 0.0;
        for (i, &f) in fitness.iter().enumerate() {
            acc += f;
            if spin < acc {
                return i;
            }
        }
        // Floating-point slack: the spin landed on the final boundary.
        fitness.len() - 1
    }

    fn prepare(&self, fitness: &[f64], table: &mut Vec<f64>) {
        debug_assert!(
            fitness.iter().all(|f| f.is_nan() || *f >= 0.0),
            "negative fitness"
        );
        table.clear();
        let mut acc = 0.0;
        table.extend(fitness.iter().map(|&f| {
            acc += f;
            acc
        }));
    }

    fn select_prepared(&self, fitness: &[f64], table: &[f64], rng: &mut Prng) -> usize {
        debug_assert_eq!(table.len(), fitness.len());
        let total = table[table.len() - 1];
        if total <= 0.0 || !total.is_finite() {
            return rng.below(table.len());
        }
        let spin = rng.next_f64() * total;
        // Running sums of non-negative terms never decrease, so the slots
        // at or below the spin form a prefix.
        table
            .partition_point(|&acc| acc <= spin)
            .min(table.len() - 1)
    }

    fn label(&self) -> &'static str {
        "roulette"
    }
}

/// k-way tournament selection: draw `k` individuals uniformly, keep the
/// fittest.
#[derive(Debug, Clone, Copy)]
pub struct Tournament {
    /// Tournament size (≥ 1). `k = 1` degenerates to uniform selection;
    /// larger `k` raises selection pressure.
    pub k: usize,
}

impl Tournament {
    /// Creates a tournament of size `k ≥ 1`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "tournament size must be at least 1");
        Self { k }
    }
}

impl SelectionOp for Tournament {
    fn select(&self, fitness: &[f64], rng: &mut Prng) -> usize {
        debug_assert!(!fitness.is_empty());
        let mut best = rng.below(fitness.len());
        for _ in 1..self.k {
            let challenger = rng.below(fitness.len());
            if fitness[challenger] > fitness[best] {
                best = challenger;
            }
        }
        best
    }

    fn label(&self) -> &'static str {
        "tournament"
    }
}

/// Linear rank selection: individuals are sorted by fitness and selected
/// with probability proportional to `rank + 1` (worst gets weight 1, best
/// gets weight n). Insensitive to the fitness scale, unlike roulette.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankSelection;

impl SelectionOp for RankSelection {
    fn select(&self, fitness: &[f64], rng: &mut Prng) -> usize {
        debug_assert!(!fitness.is_empty());
        let n = fitness.len();
        // rank[i] = position of individual i in ascending fitness order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| fitness[a].partial_cmp(&fitness[b]).expect("finite fitness"));
        // Total weight = n(n+1)/2; draw a weight and walk the ranks.
        let total = n * (n + 1) / 2;
        let mut spin = rng.below(total) + 1; // 1..=total
        for (rank_minus_one, &idx) in order.iter().enumerate() {
            let weight = rank_minus_one + 1;
            if spin <= weight {
                return idx;
            }
            spin -= weight;
        }
        order[n - 1]
    }

    fn label(&self) -> &'static str {
        "rank"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frequencies(op: &dyn SelectionOp, fitness: &[f64], draws: usize, seed: u64) -> Vec<f64> {
        let mut rng = Prng::seed_from(seed);
        let mut counts = vec![0usize; fitness.len()];
        for _ in 0..draws {
            counts[op.select(fitness, &mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn roulette_matches_slot_sizes() {
        // ς = F / ΣF per the paper; empirical frequencies must match.
        let fitness = [1.0, 2.0, 3.0, 4.0];
        let freq = frequencies(&RouletteWheel, &fitness, 100_000, 1);
        for (i, &f) in fitness.iter().enumerate() {
            let expect = f / 10.0;
            assert!(
                (freq[i] - expect).abs() < 0.01,
                "slot {i}: {} vs {expect}",
                freq[i]
            );
        }
    }

    #[test]
    fn roulette_zero_fitness_uniform() {
        let freq = frequencies(&RouletteWheel, &[0.0, 0.0, 0.0], 30_000, 2);
        for f in freq {
            assert!((f - 1.0 / 3.0).abs() < 0.02);
        }
    }

    #[test]
    fn roulette_single_individual() {
        let mut rng = Prng::seed_from(3);
        assert_eq!(RouletteWheel.select(&[0.5], &mut rng), 0);
    }

    #[test]
    fn roulette_dominant_individual_dominates() {
        let freq = frequencies(&RouletteWheel, &[0.001, 0.998, 0.001], 20_000, 4);
        assert!(freq[1] > 0.95);
    }

    /// Eight draws each way from one RNG state: per-draw `select` and
    /// `select_prepared` on a table left stale by another vector must give
    /// the same indices and leave the RNG at the same word.
    fn assert_prepared_matches(fitness: &[f64], seed: u64) {
        let mut table = vec![7.0; 3];
        RouletteWheel.prepare(fitness, &mut table);
        let mut by_walk = Prng::seed_from(seed);
        let mut by_table = by_walk.clone();
        for draw in 0..8 {
            assert_eq!(
                RouletteWheel.select(fitness, &mut by_walk),
                RouletteWheel.select_prepared(fitness, &table, &mut by_table),
                "draw {draw} from {fitness:?}"
            );
        }
        assert_eq!(by_walk.next_u64(), by_table.next_u64(), "{fitness:?}");
    }

    #[test]
    fn prepared_roulette_matches_select() {
        let mut rng = Prng::seed_from(21);
        for n in [1, 2, 20, 100] {
            for seed in 0..50 {
                let random: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
                let with_zeros = (0..n)
                    .map(|_| if rng.chance(0.5) { 0.0 } else { rng.next_f64() })
                    .collect();
                let mut single = vec![0.0; n];
                single[rng.below(n)] = 0.3;
                let mut nan = random.clone();
                nan[rng.below(n)] = f64::NAN;
                let mut infinite = random.clone();
                infinite[rng.below(n)] = f64::INFINITY;
                // One term is finite; two or more overflow to an infinite
                // total.
                let overflowing = vec![f64::MAX; n];
                for fitness in [
                    random,
                    with_zeros,
                    vec![0.0; n],
                    single,
                    nan,
                    infinite,
                    overflowing,
                ] {
                    assert_prepared_matches(&fitness, seed);
                }
            }
        }

        // Spins that land exactly on a slot boundary: with u ≥ ½ the first
        // spin's fraction, the slots u and 1 − u (exact, and summing to
        // exactly 1) put a boundary at u, followed by empty slots.
        let mut on_boundary = 0;
        for seed in 0..200 {
            let u = Prng::seed_from(seed).next_f64();
            if u < 0.5 {
                continue;
            }
            for n in [2, 20, 100] {
                let i = rng.below(n - 1);
                let j = i + 1 + rng.below(n - 1 - i);
                let mut fitness = vec![0.0; n];
                fitness[i] = u;
                fitness[j] = 1.0 - u;
                let mut table = Vec::new();
                RouletteWheel.prepare(&fitness, &mut table);
                assert_eq!((table[i], table[n - 1]), (u * table[n - 1], 1.0));
                let first = RouletteWheel.select(&fitness, &mut Prng::seed_from(seed));
                assert_eq!(first, j, "the spin u picks the slot after the boundary");
                assert_prepared_matches(&fitness, seed);
                on_boundary += 1;
            }
        }
        assert!(on_boundary > 100, "{on_boundary} boundary spins");
    }

    #[test]
    fn tournament_prefers_fitter() {
        let fitness = [0.1, 0.9, 0.5];
        let freq = frequencies(&Tournament::new(3), &fitness, 50_000, 5);
        assert!(freq[1] > freq[2] && freq[2] > freq[0]);
    }

    #[test]
    fn tournament_k1_is_uniform() {
        let freq = frequencies(&Tournament::new(1), &[0.1, 0.9], 50_000, 6);
        assert!((freq[0] - 0.5).abs() < 0.02);
    }

    #[test]
    fn rank_ignores_scale() {
        // Rank selection must behave identically for fitness vectors with
        // the same ordering.
        let a = frequencies(&RankSelection, &[1.0, 2.0, 3.0], 60_000, 7);
        let b = frequencies(&RankSelection, &[1.0, 100.0, 10_000.0], 60_000, 7);
        for i in 0..3 {
            assert!((a[i] - b[i]).abs() < 0.01, "{a:?} vs {b:?}");
        }
        // Expected weights 1:2:3 → 1/6, 2/6, 3/6.
        assert!((a[0] - 1.0 / 6.0).abs() < 0.01);
        assert!((a[2] - 0.5).abs() < 0.01);
    }

    #[test]
    fn labels() {
        assert_eq!(RouletteWheel.label(), "roulette");
        assert_eq!(Tournament::new(2).label(), "tournament");
        assert_eq!(RankSelection.label(), "rank");
    }
}
