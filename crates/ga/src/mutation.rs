//! Mutation operators.
//!
//! The paper (§3.3): "we randomly swap elements of a randomly chosen
//! individual in the population" — [`SwapMutation`]. Swapping two task genes
//! reorders or exchanges queue entries; swapping a task with a delimiter
//! moves the task between adjacent queues. Either way the permutation
//! invariant is preserved by construction.
//!
//! [`InsertMutation`] (remove a gene, reinsert elsewhere) is included for
//! the ablation studies; it displaces a single task with less disruption
//! than a swap.

use dts_distributions::{Prng, Rng};

use crate::encoding::Chromosome;

/// A compact description of the edit one mutation applied, reported by
/// [`MutationOp::mutate_tracked`] so the engine can delta-evaluate the
/// mutant instead of walking the whole chromosome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneEdit {
    /// The chromosome is unchanged (degenerate draw, e.g. `i == j`). Its
    /// cached fitness and completion times remain valid.
    Unchanged,
    /// Exactly the genes at positions `i` and `j` were exchanged
    /// (`i != j`). Eligible for [`crate::Problem::evaluate_swap_delta`].
    Swap {
        /// First swapped position.
        i: usize,
        /// Second swapped position.
        j: usize,
    },
    /// An edit with no compact description; the mutant needs a full
    /// re-evaluation.
    Opaque,
}

/// Mutates a chromosome in place.
pub trait MutationOp: Send + Sync {
    /// Applies one mutation. Must preserve the permutation invariant.
    fn mutate(&self, c: &mut Chromosome, rng: &mut Prng);

    /// Applies one mutation and reports what it did as a [`GeneEdit`].
    ///
    /// Must draw exactly the same RNG stream as [`MutationOp::mutate`] —
    /// the engine uses this variant unconditionally, and the determinism
    /// contract requires the draw sequence to be independent of whether
    /// the report is acted on. The default wraps `mutate` and reports
    /// [`GeneEdit::Opaque`] (always correct, never fast).
    fn mutate_tracked(&self, c: &mut Chromosome, rng: &mut Prng) -> GeneEdit {
        self.mutate(c, rng);
        GeneEdit::Opaque
    }

    /// Short label for experiment tables.
    fn label(&self) -> &'static str;
}

/// Swap two uniformly chosen positions (the paper's operator).
#[derive(Debug, Clone, Copy, Default)]
pub struct SwapMutation;

impl MutationOp for SwapMutation {
    fn mutate(&self, c: &mut Chromosome, rng: &mut Prng) {
        let _ = self.mutate_tracked(c, rng);
    }

    fn mutate_tracked(&self, c: &mut Chromosome, rng: &mut Prng) -> GeneEdit {
        let n = c.genes().len();
        if n < 2 {
            return GeneEdit::Unchanged;
        }
        let i = rng.below(n);
        let j = rng.below(n);
        c.genes_swap(i, j);
        debug_assert!(c.validate().is_ok());
        if i == j {
            GeneEdit::Unchanged
        } else {
            GeneEdit::Swap { i, j }
        }
    }

    fn label(&self) -> &'static str {
        "swap"
    }
}

/// Remove the gene at a random position and reinsert it at another.
#[derive(Debug, Clone, Copy, Default)]
pub struct InsertMutation;

impl MutationOp for InsertMutation {
    fn mutate(&self, c: &mut Chromosome, rng: &mut Prng) {
        let _ = self.mutate_tracked(c, rng);
    }

    fn mutate_tracked(&self, c: &mut Chromosome, rng: &mut Prng) -> GeneEdit {
        let n = c.genes().len();
        if n < 2 {
            return GeneEdit::Unchanged;
        }
        let from = rng.below(n);
        let to = rng.below(n);
        if from == to {
            return GeneEdit::Unchanged;
        }
        c.rewrite_genes(|genes| {
            let g = genes[from];
            if from < to {
                genes.copy_within(from + 1..=to, from);
            } else {
                genes.copy_within(to..from, to + 1);
            }
            genes[to] = g;
        });
        GeneEdit::Opaque
    }

    fn label(&self) -> &'static str {
        "insert"
    }
}

/// Reverse a random segment (inversion mutation): preserves adjacency at
/// the segment ends only, shaking up queue *order* more than membership.
#[derive(Debug, Clone, Copy, Default)]
pub struct InversionMutation;

impl MutationOp for InversionMutation {
    fn mutate(&self, c: &mut Chromosome, rng: &mut Prng) {
        let _ = self.mutate_tracked(c, rng);
    }

    fn mutate_tracked(&self, c: &mut Chromosome, rng: &mut Prng) -> GeneEdit {
        let n = c.genes().len();
        if n < 2 {
            return GeneEdit::Unchanged;
        }
        let i = rng.below(n);
        let j = rng.below(n);
        let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
        match hi - lo {
            0 => GeneEdit::Unchanged,
            1 => {
                // A two-gene reversal is exactly a transposition: report it
                // as such so the engine can delta-evaluate.
                c.genes_swap(lo, hi);
                debug_assert!(c.validate().is_ok());
                GeneEdit::Swap { i: lo, j: hi }
            }
            _ => {
                c.rewrite_genes(|genes| genes[lo..=hi].reverse());
                GeneEdit::Opaque
            }
        }
    }

    fn label(&self) -> &'static str {
        "inversion"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chrom() -> Chromosome {
        Chromosome::from_queues(&[vec![0, 1, 2], vec![3, 4], vec![5]])
    }

    #[test]
    fn swap_preserves_permutation() {
        let mut rng = Prng::seed_from(1);
        for _ in 0..500 {
            let mut c = chrom();
            SwapMutation.mutate(&mut c, &mut rng);
            assert!(c.validate().is_ok());
        }
    }

    #[test]
    fn swap_changes_something_eventually() {
        let mut rng = Prng::seed_from(2);
        let base = chrom();
        let mut changed = false;
        for _ in 0..50 {
            let mut c = base.clone();
            SwapMutation.mutate(&mut c, &mut rng);
            if c != base {
                changed = true;
                break;
            }
        }
        assert!(changed);
    }

    #[test]
    fn insert_preserves_permutation() {
        let mut rng = Prng::seed_from(3);
        for _ in 0..500 {
            let mut c = chrom();
            InsertMutation.mutate(&mut c, &mut rng);
            assert!(c.validate().is_ok());
        }
    }

    #[test]
    fn insert_moves_single_gene() {
        // Deterministic check of the copy_within arithmetic in both
        // directions.
        let base = chrom();
        let genes = base.genes().to_vec();
        // Simulate from=0 → to=2 manually.
        let mut forward = genes.clone();
        let g = forward[0];
        forward.copy_within(1..=2, 0);
        forward[2] = g;
        let mut expect = genes.clone();
        expect.remove(0);
        expect.insert(2, g);
        assert_eq!(forward, expect);
        // And from=3 → to=1.
        let mut backward = genes.clone();
        let g = backward[3];
        backward.copy_within(1..3, 2);
        backward[1] = g;
        let mut expect = genes;
        let moved = expect.remove(3);
        expect.insert(1, moved);
        assert_eq!(backward, expect);
    }

    #[test]
    fn single_gene_chromosome_is_noop() {
        let mut c = Chromosome::from_queues(&[vec![0]]);
        let mut rng = Prng::seed_from(4);
        SwapMutation.mutate(&mut c, &mut rng);
        InsertMutation.mutate(&mut c, &mut rng);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn labels() {
        assert_eq!(SwapMutation.label(), "swap");
        assert_eq!(InsertMutation.label(), "insert");
    }

    #[test]
    fn tracked_swap_reports_the_actual_transposition() {
        let mut rng = Prng::seed_from(21);
        for _ in 0..200 {
            let before = chrom();
            let mut c = before.clone();
            match SwapMutation.mutate_tracked(&mut c, &mut rng) {
                GeneEdit::Swap { i, j } => {
                    assert_ne!(i, j);
                    let mut replayed = before.clone();
                    replayed.genes_swap(i, j);
                    assert_eq!(replayed, c, "reported edit does not replay");
                }
                GeneEdit::Unchanged => assert_eq!(c, before),
                GeneEdit::Opaque => panic!("swap mutation must be trackable"),
            }
        }
    }

    #[test]
    fn tracked_and_untracked_draw_identical_rng_streams() {
        // mutate() and mutate_tracked() must consume the same number of
        // draws in the same order for every operator, or the engine's
        // switch to the tracked form would shift downstream randomness.
        let ops: [&dyn MutationOp; 3] = [&SwapMutation, &InsertMutation, &InversionMutation];
        for op in ops {
            let mut ra = Prng::seed_from(31);
            let mut rb = Prng::seed_from(31);
            for _ in 0..100 {
                let mut a = chrom();
                let mut b = chrom();
                op.mutate(&mut a, &mut ra);
                let _ = op.mutate_tracked(&mut b, &mut rb);
                assert_eq!(a, b, "{}: divergent mutants", op.label());
            }
            // Post-run draws must coincide, proving equal consumption.
            assert_eq!(ra.below(1 << 30), rb.below(1 << 30), "{}", op.label());
        }
    }

    #[test]
    fn tracked_insert_and_inversion_report_conservatively() {
        let mut rng = Prng::seed_from(41);
        for _ in 0..200 {
            let before = chrom();
            let mut c = before.clone();
            let edit = InsertMutation.mutate_tracked(&mut c, &mut rng);
            match edit {
                GeneEdit::Unchanged => assert_eq!(c, before),
                GeneEdit::Opaque => {}
                GeneEdit::Swap { .. } => panic!("insert never reports Swap"),
            }
            let mut c = before.clone();
            match InversionMutation.mutate_tracked(&mut c, &mut rng) {
                GeneEdit::Unchanged => assert_eq!(c, before),
                GeneEdit::Swap { i, j } => {
                    let mut replayed = before.clone();
                    replayed.genes_swap(i, j);
                    assert_eq!(replayed, c);
                }
                GeneEdit::Opaque => {}
            }
        }
    }
}

#[cfg(test)]
mod inversion_tests {
    use super::*;

    #[test]
    fn inversion_preserves_permutation() {
        let mut rng = Prng::seed_from(11);
        for _ in 0..300 {
            let mut c = Chromosome::from_queues(&[vec![0, 1, 2], vec![3, 4], vec![5]]);
            InversionMutation.mutate(&mut c, &mut rng);
            assert!(c.validate().is_ok());
        }
    }

    #[test]
    fn inversion_reverses_a_segment() {
        // With n = 2, any non-trivial inversion swaps the two genes.
        let base = Chromosome::from_queues(&[vec![0], vec![1]]);
        let mut rng = Prng::seed_from(12);
        let mut saw_change = false;
        for _ in 0..50 {
            let mut c = base.clone();
            InversionMutation.mutate(&mut c, &mut rng);
            if c != base {
                saw_change = true;
                break;
            }
        }
        assert!(saw_change);
    }

    #[test]
    fn inversion_label() {
        assert_eq!(InversionMutation.label(), "inversion");
    }
}
