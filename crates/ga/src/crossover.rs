//! Crossover operators on permutation chromosomes.
//!
//! The paper (§3.3) uses the **cycle crossover** of Oliver, Smith & Holland
//! (1987), "to promote exploration as used in [Zomaya & Teh]". Because our
//! delimiters are unique symbols (see [`crate::encoding`]), every classical
//! permutation crossover applies directly; [`OrderCrossover`] and
//! [`OnePointOrder`] are provided for the `ablate_crossover` study.
//!
//! [`CycleCrossover`] does work in proportion to how far apart its parents
//! are: every position where they agree is a cycle of one, which the
//! children copy, so its tables and its walk cover only the positions where
//! they differ. A converged population differs at a few per cent of them.

use std::cell::RefCell;

use dts_distributions::{Prng, Rng};

use crate::encoding::{Chromosome, Gene};

/// A parent a crossover child is known to equal, gene for gene.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parent {
    /// The first parent, `a`.
    A,
    /// The second parent, `b`.
    B,
}

/// Produces two children from two parents of the same symbol set.
pub trait CrossoverOp: Send + Sync {
    /// Recombines `a` and `b`, overwriting `out_a` and `out_b` with the two
    /// children — whatever they held before, of any shape. The engine
    /// breeds straight into its spare population this way, reusing each
    /// slot's gene buffer. Implementations must preserve the symbol
    /// multiset (each task slot and delimiter appears exactly once in each
    /// child).
    ///
    /// Returns, per child, the parent it is known to equal, or `None` when
    /// that is not known. A reported parent must be exact — the engine
    /// copies that parent's evaluation into the child instead of
    /// evaluating it — while `None` is always sound.
    fn cross_into(
        &self,
        a: &Chromosome,
        b: &Chromosome,
        out_a: &mut Chromosome,
        out_b: &mut Chromosome,
        rng: &mut Prng,
    ) -> [Option<Parent>; 2];

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

/// The tables of one [`CycleCrossover`] call. The operators stay `&self`
/// for easy sharing, so the tables live per thread instead of in the
/// operator: breeding a generation into reused children allocates nothing.
/// No call reads anything an earlier call (or another chromosome shape)
/// left behind: `diff` and `next` are written before they are read, and
/// `slot` is all [`UNSEEN`] whenever a walk starts.
struct CxScratch {
    /// The positions where the parents differ, ascending, in its first
    /// entries; the rest is stale.
    diff: Vec<u32>,
    /// `slot[s]` = index in the walked list of the position that holds
    /// dense symbol `s` in parent `a`; [`UNSEEN`] for the other symbols.
    /// A walk over the differing positions resets the entries it wrote; a
    /// walk over every position refills the whole table first.
    slot: Vec<u32>,
    /// False while `slot` may hold an earlier call's entries (after a walk
    /// over every position, or one that panicked); the next walk over the
    /// differing positions then clears it first.
    slot_clean: bool,
    /// `next[k]` = list index that follows `k` on its cycle; [`VISITED`]
    /// once the walk has passed `k`.
    next: Vec<u32>,
}

thread_local! {
    static CX_SCRATCH: RefCell<CxScratch> = const {
        RefCell::new(CxScratch {
            diff: Vec::new(),
            slot: Vec::new(),
            slot_clean: true,
            next: Vec::new(),
        })
    };
}

/// Marks a symbol of `a` that the walked positions do not hold.
const UNSEEN: u32 = u32::MAX;
/// Marks a position the cycle walk has already assigned to a cycle.
const VISITED: u32 = u32::MAX;

/// The positions whose differences decide alone whether a pair is walked
/// in full.
const PROBE: usize = 16;

/// Whether `d` differing positions are most of `n`: enough that a walk over
/// every position costs less than listing and walking the differing ones.
#[inline(always)]
fn mostly(d: usize, n: usize) -> bool {
    4 * d > 3 * n
}

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
/// Cycles are numbered by their first position, and the odd ones are
/// swapped. One pass over the cycles builds both children, the proof that
/// they are permutations, and their parentage, and it costs what the
/// parents' difference costs:
///
/// * A position where the parents agree is a cycle of one position, which
///   changes nothing whichever way it goes. Child A is parent A with parent
///   B's genes at the positions of the odd longer cycles and child B is the
///   mirror image, so both children start as copies of their parents and
///   only the swapped positions are written.
/// * The walk runs over the list of positions where the parents differ.
///   The longer cycle that starts at the `i`-th of them, position `p`,
///   follows `p − i` one-position cycles, so it is odd iff `p − i` plus the
///   number of longer cycles before it is odd. A converged population
///   differs at a few positions of each pair; when the parents differ at
///   most positions, the walk runs over all of them instead, where every
///   position is on the list and that count is zero.
/// * Child A equals `a` iff no longer cycle was swapped, and equals `b` iff
///   every longer cycle was; child B mirrors it. A converged population
///   breeds mostly such copies, and the engine inherits their evaluations.
/// * The walk checks what it reads: building the position table checks
///   that every walked symbol of `a` is in range and occurs once, and the
///   walk checks that each symbol of `b` it meets is one of them and never
///   leads onto a position another cycle already owns. Positions where the
///   parents agree are copied, not checked: that both parents are
///   permutations of one symbol set is [`Chromosome`]'s constructor
///   invariant, and the children of two such parents are permutations (the
///   CX theorem). Debug builds validate both children again.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleCrossover;

impl CycleCrossover {
    /// Writes `genes_b` into `child_a` and `genes_a` into `child_b` at the
    /// positions of the odd cycles — the children must start as copies of
    /// their parents — and returns the children's parentage.
    fn swap_odd_cycles(
        genes_a: &[Gene],
        genes_b: &[Gene],
        h: usize,
        child_a: &mut [Gene],
        child_b: &mut [Gene],
    ) -> [Option<Parent>; 2] {
        let n = genes_a.len();
        // Whether any cycle longer than one position was kept / swapped.
        let (kept, swapped) = CX_SCRATCH.with_borrow_mut(|scratch| {
            let CxScratch {
                diff,
                slot,
                slot_clean,
                next,
            } = scratch;
            if diff.len() < n {
                diff.resize(n, 0);
            }
            // The positions where the parents differ, unless they are most
            // of them: then the walk runs over every position. Parents that
            // differ at most of the first `PROBE` positions are taken to
            // differ at most positions without scanning the rest.
            let mut d = 0;
            let mut scan = |from: usize, to: usize| {
                let pairs = genes_a[from..to].iter().zip(&genes_b[from..to]);
                for (p, (&x, &y)) in (from..).zip(pairs) {
                    diff[d] = p as u32;
                    d += usize::from(x != y);
                }
                d
            };
            let probe = n.min(PROBE);
            if mostly(scan(0, probe), probe) || mostly(scan(probe, n), n) {
                *slot_clean = false;
                slot.clear();
                slot.resize(n, UNSEEN);
                let cycles = Walk {
                    genes_a,
                    genes_b,
                    h,
                    slot,
                    next,
                };
                return cycles.swap_odd(n, |k| k, child_a, child_b);
            }
            if d == 0 {
                return (false, false);
            }
            let diff = &diff[..d];
            if !*slot_clean {
                slot.clear();
            }
            if slot.len() < n {
                slot.resize(n, UNSEEN);
            }
            *slot_clean = false;
            let at = |k: usize| diff[k] as usize;
            let cycles = Walk {
                genes_a,
                genes_b,
                h,
                slot,
                next,
            };
            let flags = cycles.swap_odd(d, at, child_a, child_b);
            for &p in diff {
                slot[genes_a[p as usize].dense_index(h)] = UNSEEN;
            }
            *slot_clean = true;
            flags
        });
        match (kept, swapped) {
            (_, false) => [Some(Parent::A), Some(Parent::B)],
            (false, true) => [Some(Parent::B), Some(Parent::A)],
            (true, true) => [None, None],
        }
    }
}

/// One cycle walk over a list of positions: the parents, the number of
/// task slots, and the two tables.
struct Walk<'s> {
    genes_a: &'s [Gene],
    genes_b: &'s [Gene],
    h: usize,
    slot: &'s mut [u32],
    next: &'s mut Vec<u32>,
}

impl Walk<'_> {
    /// Swaps the odd cycles over the `len` positions `at(0) < at(1) < …`,
    /// which must include every position where the parents differ, and
    /// returns whether a cycle longer than one position was kept /
    /// swapped.
    #[inline(always)]
    fn swap_odd(
        self,
        len: usize,
        at: impl Fn(usize) -> usize,
        child_a: &mut [Gene],
        child_b: &mut [Gene],
    ) -> (bool, bool) {
        let Self {
            genes_a,
            genes_b,
            h,
            slot,
            next,
        } = self;
        let n = genes_a.len();
        for k in 0..len {
            let p = at(k);
            match genes_a[p].checked_dense_index(h, n) {
                Some(s) if slot[s] == UNSEEN => slot[s] = k as u32,
                _ => not_a_permutation('a', p, genes_a[p]),
            }
        }
        // The symbol b has at a position sits somewhere in a; that
        // position continues the cycle.
        next.clear();
        next.extend((0..len).map(|k| {
            let p = at(k);
            match genes_b[p].checked_dense_index(h, n) {
                Some(s) if slot[s] != UNSEEN => slot[s],
                _ => not_a_permutation('b', p, genes_b[p]),
            }
        }));

        // Every listed position is walked exactly once: it is either
        // already `VISITED` when the outer loop reaches it or starts a
        // cycle, and the walk only ever moves onto unvisited positions.
        let (mut kept, mut swapped) = (false, false);
        let mut cycles = 0; // walked so far
        for start in 0..len {
            if next[start] == VISITED {
                continue;
            }
            // Before this cycle come the `at(start) − start` unlisted
            // positions, each a cycle of one, and the walked cycles; even
            // cycles keep the own parent's genes.
            let swap = (at(start) - start + cycles) % 2 == 1;
            cycles += 1;
            // A position is its own successor iff the parents agree
            // there; such a cycle changes nothing whichever way it goes.
            if next[start] as usize != start {
                if swap {
                    swapped = true;
                } else {
                    kept = true;
                }
            }
            let mut k = start;
            loop {
                let step = next[k] as usize;
                next[k] = VISITED;
                // On a cycle of one this rewrites the gene both parents
                // share, which is cheaper than a branch on it.
                if swap {
                    let p = at(k);
                    child_a[p] = genes_b[p];
                    child_b[p] = genes_a[p];
                }
                if step == start {
                    break;
                }
                if next[step] == VISITED {
                    let p = at(k);
                    not_a_permutation('b', p, genes_b[p]);
                }
                k = step;
            }
        }
        (kept, swapped)
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
    ) -> [Option<Parent>; 2] {
        assert!(a.same_symbol_set(b), "parents must share a symbol set");
        let h = a.n_tasks() as usize;
        out_a.clone_from(a);
        out_b.clone_from(b);
        out_a.rewrite_genes(|child_a| {
            out_b.rewrite_genes(|child_b| {
                Self::swap_odd_cycles(a.genes(), b.genes(), h, child_a, child_b)
            })
        })
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
    ) -> [Option<Parent>; 2] {
        assert!(a.same_symbol_set(b), "parents must share a symbol set");
        let n = a.genes().len();
        if n < 2 {
            out_a.clone_from(a);
            out_b.clone_from(b);
            return [None, None];
        }
        let i = rng.below(n);
        let j = rng.below(n);
        let (lo, hi) = if i <= j { (i, j + 1) } else { (j, i + 1) };
        *out_a = Self::one_child(a, b, lo, hi);
        *out_b = Self::one_child(b, a, lo, hi);
        [None, None]
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
    ) -> [Option<Parent>; 2] {
        assert!(a.same_symbol_set(b), "parents must share a symbol set");
        let n = a.genes().len();
        if n < 2 {
            out_a.clone_from(a);
            out_b.clone_from(b);
            return [None, None];
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
        [None, None]
    }

    fn label(&self) -> &'static str {
        "one-point"
    }
}

/// Cycle crossover that reports no parentage, so the engine evaluates every
/// child it breeds: the oracle the inheriting engine is checked against.
/// Its children are [`CycleCrossover`]'s, drawn from the same RNG stream.
///
/// A test fixture, not an operator to schedule with: a run with it plans
/// exactly what a run with [`CycleCrossover`] plans and evaluates more.
/// It is public, but hidden from the docs, so the tests of every crate
/// share this one definition.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct UnreportedCycle;

impl CrossoverOp for UnreportedCycle {
    fn cross_into(
        &self,
        a: &Chromosome,
        b: &Chromosome,
        out_a: &mut Chromosome,
        out_b: &mut Chromosome,
        rng: &mut Prng,
    ) -> [Option<Parent>; 2] {
        CycleCrossover.cross_into(a, b, out_a, out_b, rng);
        [None, None]
    }

    fn label(&self) -> &'static str {
        "cycle, parentage unreported"
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
    /// children through the validating public constructor. The oracle the
    /// fused kernel must match exactly.
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

    /// The fused walk over every position that this module shipped before
    /// the walk over the differing positions, with its own tables: the
    /// oracle the kernel must match exactly, genes and parentage.
    fn full_walk_reference(
        a: &Chromosome,
        b: &Chromosome,
    ) -> ([Vec<Gene>; 2], [Option<Parent>; 2]) {
        let (genes_a, genes_b) = (a.genes(), b.genes());
        let (mut child_a, mut child_b) = (genes_a.to_vec(), genes_b.to_vec());
        let n = genes_a.len();
        let h = a.n_tasks() as usize;
        let (mut kept, mut swapped) = (false, false);
        let mut pos_in_a = vec![UNSEEN; n];
        for (i, &g) in genes_a.iter().enumerate() {
            match g.checked_dense_index(h, n) {
                Some(s) if pos_in_a[s] == UNSEEN => pos_in_a[s] = i as u32,
                _ => not_a_permutation('a', i, g),
            }
        }
        let mut next: Vec<u32> = genes_b
            .iter()
            .enumerate()
            .map(|(i, &g)| match g.checked_dense_index(h, n) {
                Some(s) => pos_in_a[s],
                None => not_a_permutation('b', i, g),
            })
            .collect();
        let mut swap = false;
        for start in 0..n {
            if next[start] == VISITED {
                continue;
            }
            if next[start] as usize != start {
                if swap {
                    swapped = true;
                } else {
                    kept = true;
                }
            }
            let mut p = start;
            loop {
                let step = next[p] as usize;
                next[p] = VISITED;
                if swap && step != p {
                    child_a[p] = genes_b[p];
                    child_b[p] = genes_a[p];
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
        let parentage = match (kept, swapped) {
            (_, false) => [Some(Parent::A), Some(Parent::B)],
            (false, true) => [Some(Parent::B), Some(Parent::A)],
            (true, true) => [None, None],
        };
        ([child_a, child_b], parentage)
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

        /// The fused kernel against the reference: same genes. `distance`
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
                prop_assert_eq!(got, want);
            }
        }

        /// The parentage cycle crossover reports is gene equality: a child
        /// reported as a copy of a parent equals it, and a child reported
        /// as unknown equals neither parent. `distance` picks the second
        /// parent: 0 → the first parent itself, 1 → one transposition away,
        /// else an independent shuffle; one case in eight has H ∈ {0, 1}.
        #[test]
        fn cycle_parentage_is_gene_equality(
            h_pick in 0u32..64,
            m in 1u16..9,
            distance in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let h = if h_pick < 8 { h_pick % 2 } else { h_pick };
            let mut rng = Prng::seed_from(seed);
            let a = shuffled(h, m, &mut rng);
            let b = match distance {
                0 => a.clone(),
                1 => {
                    let mut b = a.clone();
                    let n = b.genes().len();
                    if n >= 2 {
                        let i = rng.below(n);
                        b.genes_swap(i, (i + 1 + rng.below(n - 1)) % n);
                    }
                    b
                }
                _ => shuffled(h, m, &mut rng),
            };
            let mut out = [Chromosome::vacant(), Chromosome::vacant()];
            let [out_a, out_b] = &mut out;
            let parentage = CycleCrossover.cross_into(&a, &b, out_a, out_b, &mut rng);
            for (child, parent) in out.iter().zip(parentage) {
                match parent {
                    Some(Parent::A) => prop_assert_eq!(child, &a),
                    Some(Parent::B) => prop_assert_eq!(child, &b),
                    None => prop_assert!(child != &a && child != &b, "{:?}", child),
                }
            }
            if a == b {
                prop_assert_eq!(parentage, [Some(Parent::A), Some(Parent::B)]);
            }
        }

        /// The walk over the differing positions against the full walk:
        /// same genes in both children, same parentage. `distance` picks
        /// the second parent: 0 → the first parent itself, 1..=4 → that
        /// many transpositions away (a converged population), 5 → about
        /// 13 % of the positions shuffled among themselves, else an
        /// independent shuffle. `h` reaches 0 and `m` exceeds `h` (the
        /// simulator plans 1-task batches over 50 processors).
        #[test]
        fn differing_positions_walk_matches_the_full_walk(
            h in 0u32..300,
            m in 1u16..60,
            small in 0u32..4,
            distance in 0usize..7,
            seed in 0u64..u64::MAX,
        ) {
            // One case in four has a batch of at most three tasks.
            let h = if small == 0 { h % 4 } else { h };
            let mut rng = Prng::seed_from(seed);
            let a = shuffled(h, m, &mut rng);
            let n = a.genes().len();
            let mut b = a.clone();
            match distance {
                0..=4 => {
                    for _ in 0..distance.min(n) {
                        b.genes_swap(rng.below(n), rng.below(n));
                    }
                }
                5 => {
                    let mut picked: Vec<usize> = (0..n).filter(|_| rng.chance(0.13)).collect();
                    for i in (1..picked.len()).rev() {
                        let j = rng.below(i + 1);
                        b.genes_swap(picked[i], picked[j]);
                        picked.swap(i, j);
                    }
                }
                _ => b = shuffled(h, m, &mut rng),
            }
            let ([want_c, want_d], want_parentage) = full_walk_reference(&a, &b);
            let mut out = [Chromosome::vacant(), Chromosome::vacant()];
            let [out_a, out_b] = &mut out;
            let parentage = CycleCrossover.cross_into(&a, &b, out_a, out_b, &mut rng);
            prop_assert_eq!(out[0].genes(), &want_c[..]);
            prop_assert_eq!(out[1].genes(), &want_d[..]);
            prop_assert_eq!(parentage, want_parentage);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every operator's in-place form gives the children its
        /// allocating form gives, and draws the same RNG stream, whatever
        /// shape `out_a` / `out_b` held before. Only cycle crossover
        /// reports parentage.
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
            ] {
                let mut want_rng = rng.clone();
                let (want_a, want_b) = op.cross(&a, &b, &mut want_rng);
                let mut out_a = shuffled(stale_h, stale_m, &mut rng.clone());
                let mut out_b = shuffled(stale_m as u32, stale_h as u16, &mut rng.clone());
                let mut got_rng = rng.clone();
                let parentage = op.cross_into(&a, &b, &mut out_a, &mut out_b, &mut got_rng);
                prop_assert_eq!(&out_a, &want_a, "{}", op.label());
                prop_assert_eq!(&out_b, &want_b, "{}", op.label());
                prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64(), "{}", op.label());
                if op.label() != CycleCrossover.label() {
                    prop_assert_eq!(parentage, [None, None], "{}", op.label());
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
