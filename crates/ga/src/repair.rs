//! Topological gene repair: feasible-by-construction encoding for
//! precedence-constrained batches.
//!
//! The §3.1 encoding lets crossover and mutation produce *any* permutation
//! of task slots — fine for independent tasks, infeasible once slots have
//! predecessors. Rather than penalise infeasible schedules (which wastes
//! most of the search on garbage), the engine calls
//! [`crate::Problem::repair`] on every chromosome it creates — initial
//! population, crossover offspring, mutants — and precedence-aware
//! problems implement it with [`repair_topological`]:
//!
//! * **Delimiter positions are fixed** — every queue keeps its length, so
//!   repair never changes the task→processor *counts* an operator chose,
//!   only the order in which task genes appear.
//! * The task genes are reordered by a greedy stable pass: repeatedly emit
//!   the earliest not-yet-emitted task whose (batch-local) predecessors
//!   have all been emitted.
//! * The pass is a successor-count (Kahn) kernel. Each slot carries a count
//!   of its unemitted predecessors; emitting a slot decrements its
//!   successors' counts. A cursor walks the gene string, emitting ready
//!   slots and *parking* blocked ones at their gene positions. When a
//!   parked slot's last predecessor is emitted, its position is set in a
//!   `u64` bitset, and the next slot to emit is the lowest set bit, found by
//!   scanning forward from a low-water word; only when no bit is set does
//!   the cursor advance. Cost: O(H + M + pairs) plus the bitset scan, which
//!   is one word per 64 genes except where a newly ready slot rewinds the
//!   low-water word. Emissions never outrun the cursor, so the gene string
//!   is rewritten in place. The kernel's buffers are per-thread scratch:
//!   repair allocates nothing once they have grown to the batch size.
//! * The result is the *identity* on already-feasible chromosomes and is a
//!   pure function of the input — no RNG, so repairing preserves the
//!   engine's bit-determinism contract verbatim.
//!
//! The repaired gene string is topologically ordered **globally** (across
//! queue boundaries): every task appears after all of its predecessors in
//! the flattened string. This restricts the search space — a schedule
//! where a predecessor sits later in the string than its successor yet
//! still finishes first is unreachable — which is the standard
//! topological-list-encoding trade-off: every reachable string decodes to
//! a feasible schedule, and per-processor completion times can be computed
//! in one left-to-right pass.

use std::cell::RefCell;

use crate::encoding::{Chromosome, Gene};

/// Batch-local precedence constraints over the `H` task slots of a
/// chromosome: `preds_of(s)` lists the slots that must complete before
/// slot `s` starts.
///
/// This is the GA-side mirror of a task graph restricted to one batch —
/// the scheduler that owns the batch maps global task ids down to slot
/// indices (predecessors outside the batch are already complete by
/// construction and simply don't appear).
///
/// Predecessors and successors are stored as flat CSR arrays: slot `s`'s
/// predecessors are `preds[pred_start[s]..pred_start[s + 1]]`, and likewise
/// for successors.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotPrecedence {
    /// Offsets of each slot's predecessor run in `preds` (length `H + 1`).
    pred_start: Vec<usize>,
    /// Predecessor slots, slot by slot, each run ascending.
    preds: Vec<u32>,
    /// Offsets of each slot's successor run in `succs` (length `H + 1`).
    succ_start: Vec<usize>,
    /// Successor slots, slot by slot, each run ascending.
    succs: Vec<u32>,
    /// Number of predecessors of each slot.
    in_degree: Vec<u32>,
}

impl SlotPrecedence {
    /// Builds the table from per-slot predecessor lists (`preds[s]` =
    /// slots that must finish before slot `s`). Lists are sorted and
    /// deduplicated. Collecting per-slot iterators into a table
    /// ([`FromIterator`]) does the same without the list allocations.
    ///
    /// # Panics
    ///
    /// Panics if a predecessor index is out of range, a slot depends on
    /// itself, or the constraints contain a cycle — a precedence table
    /// must come from a validated DAG.
    pub fn new(preds: Vec<Vec<u32>>) -> Self {
        preds.into_iter().collect()
    }

    /// Kahn's algorithm, counting only: the constraints are acyclic iff
    /// every slot is emitted.
    fn is_acyclic(&self) -> bool {
        if self.preds.is_empty() {
            return true;
        }
        let mut remaining = self.in_degree.clone();
        let mut ready: Vec<u32> = (0..self.n_slots() as u32)
            .filter(|&s| remaining[s as usize] == 0)
            .collect();
        let mut emitted = 0;
        while let Some(slot) = ready.pop() {
            emitted += 1;
            for &t in self.succs_of(slot) {
                remaining[t as usize] -= 1;
                if remaining[t as usize] == 0 {
                    ready.push(t);
                }
            }
        }
        emitted == self.n_slots()
    }

    /// The empty table over `h` slots (no constraints): repair is a no-op.
    pub fn unconstrained(h: usize) -> Self {
        (0..h).map(|_| []).collect()
    }

    /// Number of slots the table spans.
    pub fn n_slots(&self) -> usize {
        self.in_degree.len()
    }

    /// True when no slot has a predecessor — repair is the identity.
    pub fn is_unconstrained(&self) -> bool {
        self.preds.is_empty()
    }

    /// The predecessor slots of `slot`, ascending.
    #[inline]
    pub fn preds_of(&self, slot: u32) -> &[u32] {
        let s = slot as usize;
        &self.preds[self.pred_start[s]..self.pred_start[s + 1]]
    }

    /// The slots that list `slot` as a predecessor, ascending.
    #[inline]
    fn succs_of(&self, slot: u32) -> &[u32] {
        let s = slot as usize;
        &self.succs[self.succ_start[s]..self.succ_start[s + 1]]
    }
}

/// Collects one predecessor iterator per slot (item `s` yields the slots
/// that must finish before slot `s`) straight into the flat tables; see
/// [`SlotPrecedence::new`] for the rules and panics.
impl<P: IntoIterator<Item = u32>> FromIterator<P> for SlotPrecedence {
    fn from_iter<I: IntoIterator<Item = P>>(lists: I) -> Self {
        let mut pred_start = vec![0];
        let mut preds: Vec<u32> = Vec::new();
        let mut in_degree = Vec::new();
        let mut run: Vec<u32> = Vec::new();
        for list in lists {
            run.clear();
            run.extend(list);
            run.sort_unstable();
            run.dedup();
            preds.extend_from_slice(&run);
            in_degree.push(run.len() as u32);
            pred_start.push(preds.len());
        }

        let h = in_degree.len();
        // Out-degree of slot `p` is counted at `succ_start[p + 1]`.
        let mut succ_start = vec![0usize; h + 1];
        for s in 0..h {
            for &p in &preds[pred_start[s]..pred_start[s + 1]] {
                assert!(
                    (p as usize) < h,
                    "slot {s} has out-of-range predecessor {p} (H = {h})"
                );
                assert!(p as usize != s, "slot {s} cannot depend on itself");
                succ_start[p as usize + 1] += 1;
            }
        }
        for p in 0..h {
            succ_start[p + 1] += succ_start[p];
        }
        // Fill each successor run using its start offset as the write
        // cursor; afterwards `succ_start[p]` holds the end of run `p`, so
        // shifting by one restores the offsets.
        let mut succs = vec![0u32; preds.len()];
        for s in 0..h {
            for &p in &preds[pred_start[s]..pred_start[s + 1]] {
                succs[succ_start[p as usize]] = s as u32;
                succ_start[p as usize] += 1;
            }
        }
        succ_start.copy_within(0..h, 1);
        succ_start[0] = 0;
        let table = Self {
            pred_start,
            preds,
            succ_start,
            succs,
            in_degree,
        };
        assert!(table.is_acyclic(), "precedence table contains a cycle");
        table
    }
}

/// Set in a slot's [`RepairScratch::remaining`] count, above any real
/// count, once the cursor has parked it: the count then reads exactly
/// `PARKED` when the parked slot becomes ready.
const PARKED: u32 = 1 << 31;

/// The buffers of one [`topological_reorder`] call. They live per thread,
/// like cycle crossover's tables, so repairing a generation's children
/// allocates nothing. Every call resets what it reads.
struct RepairScratch {
    /// Unemitted predecessors of each slot, `| PARKED` once parked.
    remaining: Vec<u32>,
    /// Gene position of each parked slot; read only for parked slots.
    parked_at: Vec<u32>,
    /// Slot parked at each gene position; read only where `ready` is set.
    parked: Vec<u32>,
    /// Bit `k` set: the slot parked at gene position `k` is ready.
    ready: Vec<u64>,
}

thread_local! {
    static REPAIR_SCRATCH: RefCell<RepairScratch> = const {
        RefCell::new(RepairScratch {
            remaining: Vec::new(),
            parked_at: Vec::new(),
            parked: Vec::new(),
            ready: Vec::new(),
        })
    };
}

/// Rewrites the task genes of `genes` in place into the greedy stable
/// topological order: repeatedly emit the earliest remaining slot whose
/// predecessors are all emitted. Delimiters stay where they are. Returns
/// whether any gene moved.
///
/// The remaining slots are the ones at or after the cursor plus the parked
/// ones before it, so the earliest ready slot is the lowest ready parked
/// position or, when none is ready, the first ready slot at or after the
/// cursor — every blocked slot met on the way is parked. Emissions never
/// outrun the cursor, so the genes the cursor reads are still the input's.
///
/// # Panics
///
/// Panics if the cursor runs off the end with slots left, which only a
/// cyclic table can cause; [`SlotPrecedence::new`] rejects those.
fn topological_reorder(
    genes: &mut [Gene],
    prec: &SlotPrecedence,
    scratch: &mut RepairScratch,
) -> bool {
    let RepairScratch {
        remaining,
        parked_at,
        parked,
        ready,
    } = scratch;
    remaining.clear();
    remaining.extend_from_slice(&prec.in_degree);
    parked_at.resize(prec.n_slots(), 0);
    parked.resize(genes.len(), 0);
    ready.clear();
    ready.resize(genes.len().div_ceil(64), 0);

    let mut changed = false;
    let mut cursor = 0usize;
    let mut write = 0usize;
    // Every word below `low` is zero; set bits all sit before `cursor`.
    let mut low = 0usize;
    for _ in 0..prec.n_slots() {
        let mut next = None;
        while low * 64 < cursor {
            let word = ready[low];
            if word != 0 {
                ready[low] = word & (word - 1);
                next = Some(parked[low * 64 + word.trailing_zeros() as usize]);
                break;
            }
            low += 1;
        }
        let slot = match next {
            Some(slot) => slot,
            None => loop {
                let Some(&gene) = genes.get(cursor) else {
                    panic!("validated precedence table cannot cycle");
                };
                cursor += 1;
                if let Gene::Task(t) = gene {
                    if remaining[t as usize] == 0 {
                        break t;
                    }
                    remaining[t as usize] |= PARKED;
                    parked_at[t as usize] = (cursor - 1) as u32;
                    parked[cursor - 1] = t;
                }
            },
        };

        while !genes[write].is_task() {
            write += 1;
        }
        let new = Gene::Task(slot);
        if genes[write] != new {
            genes[write] = new;
            changed = true;
        }
        write += 1;

        for &t in prec.succs_of(slot) {
            let left = remaining[t as usize] - 1;
            remaining[t as usize] = left;
            if left == PARKED {
                let k = parked_at[t as usize] as usize;
                ready[k / 64] |= 1 << (k % 64);
                low = low.min(k / 64);
            }
        }
    }
    changed
}

/// Repairs `c` into a topologically valid gene order under `prec`:
/// delimiter positions (and therefore every queue's length) are kept,
/// task genes are greedily reordered so each slot appears after all of
/// its predecessors in the flattened gene string. Deterministic and
/// RNG-free; the identity on already-feasible chromosomes. Returns `true`
/// iff the chromosome changed.
///
/// ```
/// use dts_ga::{repair_topological, Chromosome, SlotPrecedence};
/// // Slot 1 depends on slot 0; an operator put 1 before 0.
/// let mut c = Chromosome::from_queues(&[vec![1, 2], vec![0]]);
/// let prec = SlotPrecedence::new(vec![vec![], vec![0], vec![]]);
/// assert!(repair_topological(&mut c, &prec));
/// // Queue lengths survive; task order is now feasible: 0 before 1
/// // (slot 1 is deferred, the unconstrained slot 2 keeps its place).
/// assert_eq!(c.to_queues(), vec![vec![2, 0], vec![1]]);
/// assert!(!repair_topological(&mut c, &prec), "already feasible");
/// ```
///
/// # Panics
///
/// Panics if `prec` spans a different number of slots than `c` has tasks.
pub fn repair_topological(c: &mut Chromosome, prec: &SlotPrecedence) -> bool {
    assert_eq!(
        prec.n_slots(),
        c.n_tasks() as usize,
        "precedence table shape must match the chromosome"
    );
    if prec.is_unconstrained() {
        return false;
    }
    REPAIR_SCRATCH.with_borrow_mut(|scratch| {
        c.rewrite_genes(|genes| topological_reorder(genes, prec, scratch))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_distributions::{Prng, Rng};
    use proptest::prelude::*;

    /// A chain 0 → 1 → 2 → 3 over four slots.
    fn chain4() -> SlotPrecedence {
        SlotPrecedence::new(vec![vec![], vec![0], vec![1], vec![2]])
    }

    #[test]
    fn feasible_chromosome_is_untouched() {
        let mut c = Chromosome::from_queues(&[vec![0, 1], vec![2, 3]]);
        let before = c.clone();
        assert!(!repair_topological(&mut c, &chain4()));
        assert_eq!(c, before);
    }

    #[test]
    fn reversed_chain_is_fully_reordered() {
        let mut c = Chromosome::from_queues(&[vec![3, 2], vec![1, 0]]);
        assert!(repair_topological(&mut c, &chain4()));
        assert!(c.validate().is_ok());
        // Delimiters fixed: queue lengths survive.
        assert_eq!(c.queue_lengths(), vec![2, 2]);
        // Global gene order is the topological order 0,1,2,3.
        assert_eq!(c.to_queues(), vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn repair_is_stable_for_unconstrained_slots() {
        // Only 2 depends on 0; the relative order of everything else is
        // preserved (stability), and nothing moves unnecessarily.
        let prec = SlotPrecedence::new(vec![vec![], vec![], vec![0], vec![]]);
        let mut c = Chromosome::from_queues(&[vec![3, 2], vec![0, 1]]);
        assert!(repair_topological(&mut c, &prec));
        // Walk order 3,2,0,1 → 2 deferred until 0 emitted: 3,0,2,1.
        assert_eq!(c.to_queues(), vec![vec![3, 0], vec![2, 1]]);
    }

    #[test]
    fn repair_is_idempotent_and_deterministic() {
        let prec = SlotPrecedence::new(vec![vec![], vec![0], vec![0], vec![1, 2], vec![]]);
        let mut a = Chromosome::from_queues(&[vec![4, 3], vec![2, 1, 0]]);
        let mut b = a.clone();
        repair_topological(&mut a, &prec);
        repair_topological(&mut b, &prec);
        assert_eq!(a, b, "repair must be a pure function");
        let after = a.clone();
        assert!(!repair_topological(&mut a, &prec), "idempotent");
        assert_eq!(a, after);
    }

    #[test]
    fn unconstrained_table_is_a_noop() {
        let prec = SlotPrecedence::unconstrained(4);
        assert!(prec.is_unconstrained());
        let mut c = Chromosome::from_queues(&[vec![3, 1], vec![2, 0]]);
        let before = c.clone();
        assert!(!repair_topological(&mut c, &prec));
        assert_eq!(c, before);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cyclic_table_rejected() {
        let _ = SlotPrecedence::new(vec![vec![1], vec![0]]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_pred_rejected() {
        let _ = SlotPrecedence::new(vec![vec![7], vec![]]);
    }

    /// The rescan-from-the-blocked-prefix reorder this module shipped
    /// before the cursor-based forms; the oracle for the kernel.
    fn topological_reorder_reference(order: &mut [u32], prec: &SlotPrecedence) -> bool {
        let h = prec.n_slots();
        let mut emitted = vec![false; h];
        let mut taken = vec![false; order.len()];
        let remaining: Vec<u32> = order.to_vec();
        let mut write = 0usize;
        let mut scan_from = 0usize;
        while write < order.len() {
            let mut found = false;
            for (k, &slot) in remaining.iter().enumerate().skip(scan_from) {
                if taken[k] {
                    continue;
                }
                if prec.preds_of(slot).iter().all(|&p| emitted[p as usize]) {
                    order[write] = slot;
                    write += 1;
                    taken[k] = true;
                    emitted[slot as usize] = true;
                    if k == scan_from {
                        scan_from += 1;
                        while scan_from < remaining.len() && taken[scan_from] {
                            scan_from += 1;
                        }
                    }
                    found = true;
                    break;
                }
            }
            if !found {
                return false;
            }
        }
        true
    }

    /// The task slots of `c` in gene order, delimiters skipped.
    fn task_slots(c: &Chromosome) -> Vec<u32> {
        c.assignments().map(|(_, slot)| slot).collect()
    }

    /// Predecessor lists of a random layered DAG over `h` slots: slot `s`
    /// is in layer `s / width` and takes each slot of the previous layer as
    /// a predecessor with probability `edge_pct`%. Each list comes out
    /// descending with its first entry repeated, so building a table from
    /// it exercises the sort and the dedup.
    fn layered(h: usize, width: usize, edge_pct: usize, rng: &mut Prng) -> Vec<Vec<u32>> {
        (0..h)
            .map(|s| {
                let layer = s / width;
                let prev = layer.saturating_sub(1) * width..layer * width;
                let mut list: Vec<u32> = prev
                    .filter(|_| rng.below(100) < edge_pct)
                    .map(|p| p as u32)
                    .rev()
                    .collect();
                if let Some(&p) = list.first() {
                    list.push(p);
                }
                list
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The successor-count kernel against the reference over random
        /// DAGs × random permutations × random queue splits. `shape` picks
        /// a random layered DAG, a chain, one wide layer feeding the next,
        /// or a dense layered DAG (every edge between adjacent layers);
        /// `h` runs past 64 so the ready bitset spans several words and
        /// the low-water word rewinds. The repaired genes and the `changed`
        /// flag match, queue lengths
        /// survive, the output is feasible, feasible input comes back
        /// untouched, and `preds_of` is the sorted, deduplicated input.
        #[test]
        fn reorder_matches_reference(
            h in 1usize..300,
            shape in 0usize..4,
            width in 1usize..40,
            edge_pct in 0usize..101,
            m in 1usize..6,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = Prng::seed_from(seed);
            let (width, edge_pct) = match shape {
                0 => (width, edge_pct),
                1 => (1, 100),
                2 => (h.div_ceil(2), edge_pct),
                _ => (width, 100),
            };
            let lists = layered(h, width, edge_pct, &mut rng);
            let prec = SlotPrecedence::new(lists.clone());
            for (s, list) in lists.iter().enumerate() {
                let mut want = list.clone();
                want.sort_unstable();
                want.dedup();
                prop_assert_eq!(prec.preds_of(s as u32), &want[..]);
            }

            let mut order: Vec<u32> = (0..h as u32).collect();
            for i in (1..h).rev() {
                order.swap(i, rng.below(i + 1));
            }
            let mut queues = vec![Vec::new(); m];
            for &slot in &order {
                queues[rng.below(m)].push(slot);
            }
            let mut c = Chromosome::from_queues(&queues);
            let before = task_slots(&c);
            let mut want = before.clone();
            prop_assert!(topological_reorder_reference(&mut want, &prec));

            let lengths = c.queue_lengths();
            prop_assert_eq!(repair_topological(&mut c, &prec), want != before);
            let repaired = task_slots(&c);
            prop_assert_eq!(&repaired, &want);
            prop_assert_eq!(c.queue_lengths(), lengths);

            let mut seen = vec![false; h];
            for &slot in &repaired {
                prop_assert!(prec.preds_of(slot).iter().all(|&p| seen[p as usize]));
                seen[slot as usize] = true;
            }
            let feasible = c.clone();
            prop_assert!(!repair_topological(&mut c, &prec));
            prop_assert_eq!(c, feasible);
        }
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_behind_an_acyclic_prefix_rejected() {
        // 0 → 4 is fine; 1 → 2 → 3 → 1 is not. The cursor runs off the end
        // with the three cycle members deferred.
        let _ = SlotPrecedence::new(vec![vec![], vec![3], vec![1], vec![2], vec![0]]);
    }

    #[test]
    fn single_queue_repair() {
        let prec = chain4();
        let mut c = Chromosome::from_queues(&[vec![2, 0, 3, 1]]);
        assert!(repair_topological(&mut c, &prec));
        assert_eq!(c.to_queues(), vec![vec![0, 1, 2, 3]]);
    }
}
