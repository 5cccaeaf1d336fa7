//! Crossover operators on permutation chromosomes.
//!
//! The paper (§3.3) uses the **cycle crossover** of Oliver, Smith & Holland
//! (1987), "to promote exploration as used in [Zomaya & Teh]". Because our
//! delimiters are unique symbols (see [`crate::encoding`]), every classical
//! permutation crossover applies directly; [`OrderCrossover`] and
//! [`OnePointOrder`] are provided for the `ablate_crossover` study.

use std::cell::RefCell;

use dts_distributions::{Prng, Rng};

use crate::encoding::{substitution_delta, Chromosome, Gene};

/// Produces two children from two parents of the same symbol set.
pub trait CrossoverOp: Send + Sync {
    /// Recombines `a` and `b`, overwriting `out_a` and `out_b` with the two
    /// children — whatever they held before, of any shape. The engine
    /// breeds straight into its spare population this way, reusing each
    /// slot's gene buffer. Implementations must preserve the symbol
    /// multiset (each task slot and delimiter appears exactly once in each
    /// child).
    fn cross_into(
        &self,
        a: &Chromosome,
        b: &Chromosome,
        out_a: &mut Chromosome,
        out_b: &mut Chromosome,
        rng: &mut Prng,
    );

    /// Recombines `a` and `b` into two new chromosomes: clones of the
    /// parents overwritten by [`CrossoverOp::cross_into`], drawing the same
    /// RNG stream.
    fn cross(&self, a: &Chromosome, b: &Chromosome, rng: &mut Prng) -> (Chromosome, Chromosome) {
        let (mut out_a, mut out_b) = (a.clone(), b.clone());
        self.cross_into(a, b, &mut out_a, &mut out_b, rng);
        (out_a, out_b)
    }

    /// Short label for experiment tables.
    fn label(&self) -> &'static str;
}

/// The two tables of one [`CycleCrossover`] call. The operators stay `&self`
/// for easy sharing, so the tables live per thread instead of in the
/// operator: breeding a generation into reused children allocates nothing.
/// Both are resized and overwritten at the start of every call, so no call
/// reads anything an earlier call (or another chromosome shape) left behind.
struct CxScratch {
    /// `pos_in_a[s]` = position of dense symbol `s` in parent `a`.
    pos_in_a: Vec<u32>,
    /// `next[p]` = position that follows `p` on its cycle; [`VISITED`] once
    /// the walk has passed `p`.
    next: Vec<u32>,
}

thread_local! {
    static CX_SCRATCH: RefCell<CxScratch> = const {
        RefCell::new(CxScratch {
            pos_in_a: Vec::new(),
            next: Vec::new(),
        })
    };
}

/// Marks a symbol of `a` not yet met while the position table is built.
const UNSEEN: u32 = u32::MAX;
/// Marks a position the cycle walk has already assigned to a cycle.
const VISITED: u32 = u32::MAX;

#[cold]
#[inline(never)]
fn not_a_permutation(parent: char, pos: usize, g: Gene) -> ! {
    panic!(
        "cycle crossover: parent {parent} is not a permutation of the shared symbol set \
         (gene {g:?} at position {pos} is out of range or repeated)"
    );
}

/// Cycle crossover (CX): children inherit *positions* from alternating
/// parental cycles, guaranteeing each child is a valid permutation and each
/// allele comes from one of its parents at the same position.
///
/// One pass over the cycles builds both children, their content digests and
/// the proof that they are permutations:
///
/// * Child A is parent A with parent B's genes at the positions of the odd
///   cycles and child B is the mirror image, so both children start as
///   copies of their parents and both digests move by **one shared delta** —
///   the Zobrist terms of every swapped position where the parents differ,
///   XOR-ed in place. Nothing is re-hashed.
/// * Building the position table checks that every symbol occurs once in
///   `a`; the walk checks that it never steps onto a position another cycle
///   already owns, which holds iff `b` is a permutation of the same symbols.
///   The children of two such parents are permutations (the CX theorem), so
///   they are not validated again.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleCrossover;

impl CycleCrossover {
    /// The fused pass over the cycles: writes `genes_b` into `child_a` and
    /// `genes_a` into `child_b` at the positions of the odd cycles — the
    /// children must start as copies of their parents — and returns the
    /// digest delta the two children share.
    fn swap_odd_cycles(
        genes_a: &[Gene],
        genes_b: &[Gene],
        h: usize,
        child_a: &mut [Gene],
        child_b: &mut [Gene],
    ) -> [u64; 2] {
        let n = genes_a.len();
        let mut delta = [0u64; 2];
        CX_SCRATCH.with_borrow_mut(|scratch| {
            let CxScratch { pos_in_a, next } = scratch;
            pos_in_a.clear();
            pos_in_a.resize(n, UNSEEN);
            for (i, &g) in genes_a.iter().enumerate() {
                match g.checked_dense_index(h, n) {
                    Some(s) if pos_in_a[s] == UNSEEN => pos_in_a[s] = i as u32,
                    _ => not_a_permutation('a', i, g),
                }
            }
            // The symbol b has at a position sits somewhere in a; that
            // position continues the cycle.
            next.clear();
            next.extend(genes_b.iter().enumerate().map(
                |(i, &g)| match g.checked_dense_index(h, n) {
                    Some(s) => pos_in_a[s],
                    None => not_a_permutation('b', i, g),
                },
            ));

            // Every position is walked exactly once: it is either already
            // `VISITED` when the outer loop reaches it or starts a cycle,
            // and the walk only ever moves onto unvisited positions.
            let mut swap = false; // even cycles keep the own parent's genes
            for start in 0..n {
                if next[start] == VISITED {
                    continue;
                }
                let mut p = start;
                loop {
                    let step = next[p] as usize;
                    next[p] = VISITED;
                    // A position is its own successor iff the parents
                    // agree there; swapping it would change nothing.
                    if swap && step != p {
                        let (from_a, from_b) = (genes_a[p], genes_b[p]);
                        child_a[p] = from_b;
                        child_b[p] = from_a;
                        let d = substitution_delta(p, from_a, from_b);
                        delta = [delta[0] ^ d[0], delta[1] ^ d[1]];
                    }
                    if step == start {
                        break;
                    }
                    if next[step] == VISITED {
                        not_a_permutation('b', p, genes_b[p]);
                    }
                    p = step;
                }
                swap = !swap;
            }
        });
        delta
    }
}

impl CrossoverOp for CycleCrossover {
    fn cross_into(
        &self,
        a: &Chromosome,
        b: &Chromosome,
        out_a: &mut Chromosome,
        out_b: &mut Chromosome,
        _rng: &mut Prng,
    ) {
        assert!(a.same_symbol_set(b), "parents must share a symbol set");
        let h = a.n_tasks() as usize;
        out_a.clone_from(a);
        out_b.clone_from(b);
        out_a.rewrite_genes(|child_a| {
            let mut delta = [0u64; 2];
            out_b.rewrite_genes(|child_b| {
                delta = Self::swap_odd_cycles(a.genes(), b.genes(), h, child_a, child_b);
                delta
            });
            delta
        });
    }

    fn label(&self) -> &'static str {
        "cycle"
    }
}

/// Order crossover (OX): a random segment is kept from one parent; the
/// remaining symbols fill in, in the order they appear in the other parent.
#[derive(Debug, Clone, Copy, Default)]
pub struct OrderCrossover;

impl OrderCrossover {
    fn one_child(keep: &Chromosome, fill: &Chromosome, lo: usize, hi: usize) -> Chromosome {
        let n = keep.genes().len();
        let h = keep.n_tasks() as usize;
        let mut in_segment = vec![false; n];
        for g in &keep.genes()[lo..hi] {
            in_segment[g.dense_index(h)] = true;
        }
        let mut child: Vec<Gene> = Vec::with_capacity(n);
        let mut filler = fill
            .genes()
            .iter()
            .copied()
            .filter(|g| !in_segment[g.dense_index(h)]);
        for i in 0..n {
            if i >= lo && i < hi {
                child.push(keep.genes()[i]);
            } else {
                child.push(filler.next().expect("filler exhausted"));
            }
        }
        Chromosome::from_genes(child, keep.n_tasks(), keep.n_procs())
    }
}

impl CrossoverOp for OrderCrossover {
    fn cross_into(
        &self,
        a: &Chromosome,
        b: &Chromosome,
        out_a: &mut Chromosome,
        out_b: &mut Chromosome,
        rng: &mut Prng,
    ) {
        assert!(a.same_symbol_set(b), "parents must share a symbol set");
        let n = a.genes().len();
        if n < 2 {
            out_a.clone_from(a);
            out_b.clone_from(b);
            return;
        }
        let i = rng.below(n);
        let j = rng.below(n);
        let (lo, hi) = if i <= j { (i, j + 1) } else { (j, i + 1) };
        *out_a = Self::one_child(a, b, lo, hi);
        *out_b = Self::one_child(b, a, lo, hi);
    }

    fn label(&self) -> &'static str {
        "order"
    }
}

/// One-point crossover with order repair: the child keeps a prefix of one
/// parent and appends the missing symbols in the other parent's order.
/// The simplest permutation-safe recombination; used as the ablation
/// baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnePointOrder;

impl CrossoverOp for OnePointOrder {
    fn cross_into(
        &self,
        a: &Chromosome,
        b: &Chromosome,
        out_a: &mut Chromosome,
        out_b: &mut Chromosome,
        rng: &mut Prng,
    ) {
        assert!(a.same_symbol_set(b), "parents must share a symbol set");
        let n = a.genes().len();
        if n < 2 {
            out_a.clone_from(a);
            out_b.clone_from(b);
            return;
        }
        let cut = rng.range_usize(1, n);
        let h = a.n_tasks() as usize;
        let make = |head: &Chromosome, tail: &Chromosome| {
            let mut used = vec![false; n];
            let mut child: Vec<Gene> = Vec::with_capacity(n);
            for g in &head.genes()[..cut] {
                used[g.dense_index(h)] = true;
                child.push(*g);
            }
            child.extend(
                tail.genes()
                    .iter()
                    .copied()
                    .filter(|g| !used[g.dense_index(h)]),
            );
            Chromosome::from_genes(child, head.n_tasks(), head.n_procs())
        };
        *out_a = make(a, b);
        *out_b = make(b, a);
    }

    fn label(&self) -> &'static str {
        "one-point"
    }
}

/// Partially-mapped crossover (PMX, Goldberg & Lingle 1985): a random
/// segment is exchanged between the parents and the conflicts outside the
/// segment are repaired through the induced symbol mapping. Preserves more
/// absolute positions than OX; the classic TSP operator.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartiallyMapped;

impl PartiallyMapped {
    fn one_child(base: &Chromosome, donor: &Chromosome, lo: usize, hi: usize) -> Chromosome {
        let n = base.genes().len();
        let h = base.n_tasks() as usize;
        let mut child: Vec<Gene> = base.genes().to_vec();
        // Where does each symbol currently sit in the child?
        let mut pos = vec![0usize; n];
        for (i, g) in child.iter().enumerate() {
            pos[g.dense_index(h)] = i;
        }
        // Transplant the donor segment, swapping out conflicts.
        for i in lo..hi {
            let incoming = donor.genes()[i];
            let incoming_idx = incoming.dense_index(h);
            let current_idx = child[i].dense_index(h);
            if incoming_idx != current_idx {
                let j = pos[incoming_idx];
                child.swap(i, j);
                pos[current_idx] = j;
                pos[incoming_idx] = i;
            }
        }
        Chromosome::from_genes(child, base.n_tasks(), base.n_procs())
    }
}

impl CrossoverOp for PartiallyMapped {
    fn cross_into(
        &self,
        a: &Chromosome,
        b: &Chromosome,
        out_a: &mut Chromosome,
        out_b: &mut Chromosome,
        rng: &mut Prng,
    ) {
        assert!(a.same_symbol_set(b), "parents must share a symbol set");
        let n = a.genes().len();
        if n < 2 {
            out_a.clone_from(a);
            out_b.clone_from(b);
            return;
        }
        let i = rng.below(n);
        let j = rng.below(n);
        let (lo, hi) = if i <= j { (i, j + 1) } else { (j, i + 1) };
        *out_a = Self::one_child(a, b, lo, hi);
        *out_b = Self::one_child(b, a, lo, hi);
    }

    fn label(&self) -> &'static str {
        "pmx"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn chrom(queues: &[Vec<u32>]) -> Chromosome {
        Chromosome::from_queues(queues)
    }

    fn parents() -> (Chromosome, Chromosome) {
        (
            chrom(&[vec![0, 1], vec![2, 3], vec![4, 5]]),
            chrom(&[vec![5, 4], vec![3, 2], vec![1, 0]]),
        )
    }

    #[test]
    fn cycle_children_are_valid_permutations() {
        let (a, b) = parents();
        let mut rng = Prng::seed_from(1);
        let (c, d) = CycleCrossover.cross(&a, &b, &mut rng);
        assert!(c.validate().is_ok());
        assert!(d.validate().is_ok());
    }

    #[test]
    fn cycle_alleles_come_from_a_parent_at_same_position() {
        let (a, b) = parents();
        let mut rng = Prng::seed_from(1);
        let (c, d) = CycleCrossover.cross(&a, &b, &mut rng);
        for i in 0..a.genes().len() {
            assert!(c.genes()[i] == a.genes()[i] || c.genes()[i] == b.genes()[i]);
            assert!(d.genes()[i] == a.genes()[i] || d.genes()[i] == b.genes()[i]);
        }
    }

    #[test]
    fn cycle_identical_parents_reproduce() {
        let (a, _) = parents();
        let mut rng = Prng::seed_from(2);
        let (c, d) = CycleCrossover.cross(&a, &a, &mut rng);
        assert_eq!(c, a);
        assert_eq!(d, a);
    }

    #[test]
    fn cycle_actually_mixes() {
        let (a, b) = parents();
        let mut rng = Prng::seed_from(3);
        let (c, d) = CycleCrossover.cross(&a, &b, &mut rng);
        // With fully reversed parents, CX produces children differing from
        // both parents whenever there is more than one cycle.
        assert!(c != a || d != b);
    }

    #[test]
    fn order_children_are_valid() {
        let (a, b) = parents();
        let mut rng = Prng::seed_from(4);
        for _ in 0..50 {
            let (c, d) = OrderCrossover.cross(&a, &b, &mut rng);
            assert!(c.validate().is_ok());
            assert!(d.validate().is_ok());
        }
    }

    #[test]
    fn one_point_children_are_valid() {
        let (a, b) = parents();
        let mut rng = Prng::seed_from(5);
        for _ in 0..50 {
            let (c, d) = OnePointOrder.cross(&a, &b, &mut rng);
            assert!(c.validate().is_ok());
            assert!(d.validate().is_ok());
        }
    }

    #[test]
    fn tiny_chromosomes_survive() {
        let a = chrom(&[vec![0]]);
        let b = chrom(&[vec![0]]);
        let mut rng = Prng::seed_from(6);
        for op in [
            &CycleCrossover as &dyn CrossoverOp,
            &OrderCrossover,
            &OnePointOrder,
        ] {
            let (c, d) = op.cross(&a, &b, &mut rng);
            assert!(c.validate().is_ok());
            assert!(d.validate().is_ok());
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_parents_rejected() {
        let a = chrom(&[vec![0, 1]]);
        let b = chrom(&[vec![0], vec![1]]);
        let mut rng = Prng::seed_from(7);
        let _ = CycleCrossover.cross(&a, &b, &mut rng);
    }

    /// The straightforward cycle crossover this module shipped before the
    /// fused pass: collect each cycle, swap the odd ones, then build both
    /// children through the validating, from-scratch-hashing public
    /// constructor. The oracle the fused kernel must match exactly.
    fn cycle_crossover_reference(a: &Chromosome, b: &Chromosome) -> (Chromosome, Chromosome) {
        let n = a.genes().len();
        let h = a.n_tasks() as usize;
        let mut pos_in_a = vec![0u32; n];
        for (i, g) in a.genes().iter().enumerate() {
            pos_in_a[g.dense_index(h)] = i as u32;
        }

        let mut child_a: Vec<Gene> = a.genes().to_vec();
        let mut child_b: Vec<Gene> = b.genes().to_vec();
        let mut visited = vec![false; n];
        let mut cycle_members: Vec<usize> = Vec::new();
        let mut cycle_parity = false; // false: keep from own parent

        for start in 0..n {
            if visited[start] {
                continue;
            }
            cycle_members.clear();
            let mut p = start;
            loop {
                visited[p] = true;
                cycle_members.push(p);
                let sym = b.genes()[p];
                p = pos_in_a[sym.dense_index(h)] as usize;
                if p == start {
                    break;
                }
            }
            if cycle_parity {
                for &i in &cycle_members {
                    std::mem::swap(&mut child_a[i], &mut child_b[i]);
                }
            }
            cycle_parity = !cycle_parity;
        }

        (
            Chromosome::from_genes(child_a, a.n_tasks(), a.n_procs()),
            Chromosome::from_genes(child_b, b.n_tasks(), b.n_procs()),
        )
    }

    /// A uniformly shuffled chromosome of `h` tasks over `m` processors.
    fn shuffled(h: u32, m: u16, rng: &mut Prng) -> Chromosome {
        let mut genes: Vec<Gene> = (0..h)
            .map(Gene::Task)
            .chain((0..m - 1).map(Gene::Delim))
            .collect();
        for i in (1..genes.len()).rev() {
            genes.swap(i, rng.below(i + 1));
        }
        Chromosome::from_genes(genes, h, m)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fused kernel against the reference: same genes, and digests
        /// equal to the from-scratch digest of those genes. `distance`
        /// picks the second parent: 0 → the first parent itself, 1..=4 →
        /// that many transpositions away (a converged population), else an
        /// independent shuffle. `h` and `m` reach 1.
        #[test]
        fn fused_cycle_crossover_matches_reference(
            h in 1u32..70,
            m in 1u16..9,
            distance in 0usize..10,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = Prng::seed_from(seed);
            let a = shuffled(h, m, &mut rng);
            let b = if distance <= 4 {
                let mut b = a.clone();
                let n = b.genes().len();
                for _ in 0..distance {
                    b.genes_swap(rng.below(n), rng.below(n));
                }
                b
            } else {
                shuffled(h, m, &mut rng)
            };
            let (want_c, want_d) = cycle_crossover_reference(&a, &b);
            let (c, d) = CycleCrossover.cross(&a, &b, &mut rng);
            for (got, want) in [(&c, &want_c), (&d, &want_d)] {
                prop_assert_eq!(got.genes(), want.genes());
                let rebuilt = Chromosome::from_genes(got.genes().to_vec(), h, m);
                prop_assert_eq!(got.content_hash(), rebuilt.content_hash());
                prop_assert_eq!(got, want);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every operator's in-place form gives the children its
        /// allocating form gives, and draws the same RNG stream, whatever
        /// shape `out_a` / `out_b` held before; the children's digests are
        /// the from-scratch digests of their genes.
        #[test]
        fn cross_into_matches_cross(
            h in 1u32..40,
            m in 1u16..8,
            stale_h in 1u32..40,
            stale_m in 1u16..8,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = Prng::seed_from(seed);
            let (a, b) = (shuffled(h, m, &mut rng), shuffled(h, m, &mut rng));
            for op in [
                &CycleCrossover as &dyn CrossoverOp,
                &OrderCrossover,
                &OnePointOrder,
                &PartiallyMapped,
            ] {
                let mut want_rng = rng.clone();
                let (want_a, want_b) = op.cross(&a, &b, &mut want_rng);
                let mut out_a = shuffled(stale_h, stale_m, &mut rng.clone());
                let mut out_b = shuffled(stale_m as u32, stale_h as u16, &mut rng.clone());
                let mut got_rng = rng.clone();
                op.cross_into(&a, &b, &mut out_a, &mut out_b, &mut got_rng);
                prop_assert_eq!(&out_a, &want_a, "{}", op.label());
                prop_assert_eq!(&out_b, &want_b, "{}", op.label());
                prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64(), "{}", op.label());
                for child in [&out_a, &out_b] {
                    let rebuilt = Chromosome::from_genes(child.genes().to_vec(), h, m);
                    prop_assert_eq!(child.content_hash(), rebuilt.content_hash(), "{}", op.label());
                }
                rng.next_u64();
            }
        }
    }

    /// Parents of one shape that are not permutations of one symbol set can
    /// only be built by bypassing the constructors; the fused checks must
    /// still turn them into a diagnostic, not a loop or an invalid child.
    /// They run on the in-place form, into children of a different shape.
    fn cross_unchecked(a: Vec<Gene>, b: Vec<Gene>, h: u32, m: u16) {
        let a = Chromosome::unchecked(a, h, m);
        let b = Chromosome::unchecked(b, h, m);
        let mut out_a = Chromosome::from_queues(&[vec![0]]);
        let mut out_b = out_a.clone();
        CycleCrossover.cross_into(&a, &b, &mut out_a, &mut out_b, &mut Prng::seed_from(11));
    }

    #[test]
    #[should_panic(expected = "parent a is not a permutation")]
    fn repeated_symbol_in_first_parent_rejected() {
        use Gene::{Delim, Task};
        cross_unchecked(
            vec![Task(0), Task(0), Delim(0), Task(2)],
            vec![Task(2), Delim(0), Task(1), Task(0)],
            3,
            2,
        );
    }

    #[test]
    #[should_panic(expected = "parent b is not a permutation")]
    fn repeated_symbol_in_second_parent_rejected() {
        use Gene::{Delim, Task};
        // Task(1) twice, Task(2) never: the walk from position 0 is led back
        // onto a position the first cycle already owns.
        cross_unchecked(
            vec![Task(0), Task(1), Delim(0), Task(2)],
            vec![Task(1), Task(1), Task(0), Delim(0)],
            3,
            2,
        );
    }

    #[test]
    #[should_panic(expected = "parent b is not a permutation")]
    fn foreign_symbol_in_second_parent_rejected() {
        use Gene::{Delim, Task};
        // Task(3) aliases Delim(0)'s dense index when H = 3; it must be
        // rejected as out of range, not followed.
        cross_unchecked(
            vec![Task(0), Task(1), Delim(0), Task(2)],
            vec![Task(2), Task(3), Task(1), Task(0)],
            3,
            2,
        );
    }

    #[test]
    #[should_panic(expected = "parent a is not a permutation")]
    fn out_of_range_delimiter_in_first_parent_rejected() {
        use Gene::{Delim, Task};
        cross_unchecked(
            vec![Task(0), Task(1), Delim(1), Task(2)],
            vec![Task(2), Delim(0), Task(1), Task(0)],
            3,
            2,
        );
    }

    #[test]
    fn labels() {
        assert_eq!(CycleCrossover.label(), "cycle");
        assert_eq!(OrderCrossover.label(), "order");
        assert_eq!(OnePointOrder.label(), "one-point");
    }
}

#[cfg(test)]
mod pmx_tests {
    use super::*;

    fn parents() -> (Chromosome, Chromosome) {
        (
            Chromosome::from_queues(&[vec![0, 1, 2], vec![3, 4], vec![5, 6]]),
            Chromosome::from_queues(&[vec![6, 5], vec![4, 3, 2], vec![1, 0]]),
        )
    }

    #[test]
    fn pmx_children_valid() {
        let (a, b) = parents();
        let mut rng = Prng::seed_from(8);
        for _ in 0..100 {
            let (c, d) = PartiallyMapped.cross(&a, &b, &mut rng);
            assert!(c.validate().is_ok());
            assert!(d.validate().is_ok());
        }
    }

    #[test]
    fn pmx_identical_parents_reproduce() {
        let (a, _) = parents();
        let mut rng = Prng::seed_from(9);
        let (c, d) = PartiallyMapped.cross(&a, &a, &mut rng);
        assert_eq!(c, a);
        assert_eq!(d, a);
    }

    #[test]
    fn pmx_mixes_material() {
        let (a, b) = parents();
        let mut rng = Prng::seed_from(10);
        let mut mixed = false;
        for _ in 0..20 {
            let (c, _) = PartiallyMapped.cross(&a, &b, &mut rng);
            if c != a && c != b {
                mixed = true;
                break;
            }
        }
        assert!(mixed, "PMX never produced novel children");
    }

    #[test]
    fn pmx_label() {
        assert_eq!(PartiallyMapped.label(), "pmx");
    }
}
