//! Mutation operators.
//!
//! The paper (§3.3): "we randomly swap elements of a randomly chosen
//! individual in the population" — [`SwapMutation`]. Swapping two task genes
//! reorders or exchanges queue entries; swapping a task with a delimiter
//! moves the task between adjacent queues. Either way the permutation
//! invariant is preserved by construction.

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
}

/// Mutates a chromosome in place.
pub trait MutationOp: Send + Sync {
    /// Applies one mutation and reports what it did as a [`GeneEdit`]:
    /// the form the engine calls. Must preserve the permutation invariant.
    fn mutate_tracked(&self, c: &mut Chromosome, rng: &mut Prng) -> GeneEdit;

    /// Applies one mutation and drops the report: [`MutationOp::mutate_tracked`]
    /// with the same RNG stream.
    fn mutate(&self, c: &mut Chromosome, rng: &mut Prng) {
        let _ = self.mutate_tracked(c, rng);
    }

    /// Short label for experiment tables.
    fn label(&self) -> &'static str;
}

/// Swap two uniformly chosen positions (the paper's operator).
#[derive(Debug, Clone, Copy, Default)]
pub struct SwapMutation;

impl MutationOp for SwapMutation {
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
    fn single_gene_chromosome_is_noop() {
        let mut c = Chromosome::from_queues(&[vec![0]]);
        let mut rng = Prng::seed_from(4);
        SwapMutation.mutate(&mut c, &mut rng);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn labels() {
        assert_eq!(SwapMutation.label(), "swap");
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
            }
        }
    }

    #[test]
    fn tracked_and_untracked_draw_identical_rng_streams() {
        // mutate() and mutate_tracked() must consume the same number of
        // draws in the same order, or the engine's use of the tracked form
        // would shift downstream randomness.
        let mut ra = Prng::seed_from(31);
        let mut rb = Prng::seed_from(31);
        for _ in 0..100 {
            let mut a = chrom();
            let mut b = chrom();
            SwapMutation.mutate(&mut a, &mut ra);
            let _ = SwapMutation.mutate_tracked(&mut b, &mut rb);
            assert_eq!(a, b, "divergent mutants");
        }
        // Post-run draws must coincide, proving equal consumption.
        assert_eq!(ra.below(1 << 30), rb.below(1 << 30));
    }
}
