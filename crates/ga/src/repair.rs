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
//! * The task genes are reordered by a greedy stable pass: walk the
//!   original gene order left to right, repeatedly emitting the first
//!   not-yet-emitted task whose (batch-local) predecessors have all been
//!   emitted. The walk keeps the blocked tasks it passed over in a deferred
//!   list, so the cost is O(H × |deferred| + pairs): O(H + pairs) when
//!   already feasible, O(H²) only when most of the string is blocked.
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

use crate::encoding::{Chromosome, Gene};

/// Batch-local precedence constraints over the `H` task slots of a
/// chromosome: `preds_of(s)` lists the slots that must complete before
/// slot `s` starts.
///
/// This is the GA-side mirror of a task graph restricted to one batch —
/// the scheduler that owns the batch maps global task ids down to slot
/// indices (predecessors outside the batch are already complete by
/// construction and simply don't appear).
#[derive(Debug, Clone, PartialEq)]
pub struct SlotPrecedence {
    /// Predecessor slots of each slot, ascending.
    preds: Vec<Vec<u32>>,
    /// Total number of precedence pairs.
    pairs: usize,
    /// Content digest, folded into the problem's fitness-memo epoch key.
    digest: u64,
}

/// The 64-bit finaliser of splitmix64.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl SlotPrecedence {
    /// Builds the table from per-slot predecessor lists (`preds[s]` =
    /// slots that must finish before slot `s`). Lists are sorted and
    /// deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if a predecessor index is out of range, a slot depends on
    /// itself, or the constraints contain a cycle — a precedence table
    /// must come from a validated DAG.
    pub fn new(mut preds: Vec<Vec<u32>>) -> Self {
        let h = preds.len();
        for (s, list) in preds.iter_mut().enumerate() {
            list.sort_unstable();
            list.dedup();
            for &p in list.iter() {
                assert!(
                    (p as usize) < h,
                    "slot {s} has out-of-range predecessor {p} (H = {h})"
                );
                assert!(p as usize != s, "slot {s} cannot depend on itself");
            }
        }
        let pairs = preds.iter().map(Vec::len).sum();
        let mut digest = mix(0x534C_4F54_5052_4543 ^ h as u64);
        for (s, list) in preds.iter().enumerate() {
            for &p in list {
                digest = mix(digest ^ ((s as u64) << 32 | p as u64));
            }
        }
        let table = Self {
            preds,
            pairs,
            digest,
        };
        // Cycle check: the greedy emission must be able to emit all slots.
        if table.pairs > 0 {
            let order: Vec<u32> = (0..h as u32).collect();
            let mut sorted = order;
            assert!(
                topological_reorder(&mut sorted, &table),
                "precedence table contains a cycle"
            );
        }
        table
    }

    /// The empty table over `h` slots (no constraints): repair is a no-op.
    pub fn unconstrained(h: usize) -> Self {
        Self::new(vec![Vec::new(); h])
    }

    /// Number of slots the table spans.
    pub fn n_slots(&self) -> usize {
        self.preds.len()
    }

    /// True when no slot has a predecessor — repair is the identity.
    pub fn is_unconstrained(&self) -> bool {
        self.pairs == 0
    }

    /// The predecessor slots of `slot`, ascending.
    #[inline]
    pub fn preds_of(&self, slot: u32) -> &[u32] {
        &self.preds[slot as usize]
    }

    /// A digest of the constraint set, for fitness-memo epoch keys.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// Reorders `order` in place into the greedy stable topological order:
/// repeatedly emit the earliest remaining slot whose predecessors are all
/// emitted. Returns `false` (leaving a partial prefix) only on a cycle.
///
/// The remaining slots are the ones the cursor has not reached plus the
/// `deferred` ones it passed over while they were blocked, and every
/// deferred slot sits earlier in `order` than the cursor. So the earliest
/// ready slot is the first ready entry of `deferred` (kept in position
/// order) or, when none is ready, the first ready slot at or after the
/// cursor — every blocked slot met on the way joins `deferred`. Emissions
/// never outrun the cursor, so `order` is rewritten in place.
fn topological_reorder(order: &mut [u32], prec: &SlotPrecedence) -> bool {
    let mut emitted = vec![false; prec.n_slots()];
    let mut deferred: Vec<u32> = Vec::new();
    let mut cursor = 0usize;
    for write in 0..order.len() {
        let ready = |slot: u32| prec.preds_of(slot).iter().all(|&p| emitted[p as usize]);
        let slot = if let Some(k) = deferred.iter().position(|&slot| ready(slot)) {
            deferred.remove(k)
        } else {
            loop {
                let Some(&slot) = order.get(cursor) else {
                    return false;
                };
                cursor += 1;
                if ready(slot) {
                    break slot;
                }
                deferred.push(slot);
            }
        };
        order[write] = slot;
        emitted[slot as usize] = true;
    }
    true
}

/// The task slots of `c` in gene order, delimiters skipped.
fn task_slots(c: &Chromosome) -> impl Iterator<Item = u32> + '_ {
    c.assignments().map(|(_, slot)| slot)
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
    let mut order: Vec<u32> = task_slots(c).collect();
    let ok = topological_reorder(&mut order, prec);
    assert!(ok, "validated precedence table cannot cycle");
    if task_slots(c).eq(order.iter().copied()) {
        return false;
    }
    c.with_genes_mut(|genes| {
        let mut next = order.iter();
        for g in genes.iter_mut() {
            if let Gene::Task(t) = g {
                *t = *next.next().expect("one reordered task per task gene");
            }
        }
    });
    true
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
    fn digest_tracks_constraints() {
        let a = SlotPrecedence::new(vec![vec![], vec![0], vec![]]);
        let b = SlotPrecedence::new(vec![vec![], vec![0], vec![]]);
        let c = SlotPrecedence::new(vec![vec![], vec![], vec![0]]);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_ne!(
            SlotPrecedence::unconstrained(3).digest(),
            SlotPrecedence::unconstrained(4).digest()
        );
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
    /// before the cursor + deferred-list form; the oracle for it.
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

    /// A random layered DAG over `h` slots: slot `s` is in layer
    /// `s / width` and takes each slot of the previous layer as a
    /// predecessor with probability `edge_pct`%.
    fn layered(h: usize, width: usize, edge_pct: usize, rng: &mut Prng) -> SlotPrecedence {
        let preds = (0..h)
            .map(|s| {
                let layer = s / width;
                let prev = layer.saturating_sub(1) * width..layer * width;
                prev.filter(|_| rng.below(100) < edge_pct)
                    .map(|p| p as u32)
                    .collect()
            })
            .collect();
        SlotPrecedence::new(preds)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Cursor + deferred list against the reference over random layered
        /// DAGs × random permutations, through both the slot-order kernel
        /// and `repair_topological`; the output is feasible, and feasible
        /// input comes back untouched.
        #[test]
        fn reorder_matches_reference(
            h in 1usize..60,
            width in 1usize..8,
            edge_pct in 0usize..101,
            m in 1usize..6,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = Prng::seed_from(seed);
            let prec = layered(h, width, edge_pct, &mut rng);
            let mut order: Vec<u32> = (0..h as u32).collect();
            for i in (1..h).rev() {
                order.swap(i, rng.below(i + 1));
            }
            let mut queues = vec![Vec::new(); m];
            for &slot in &order {
                queues[rng.below(m)].push(slot);
            }
            let mut c = Chromosome::from_queues(&queues);
            let mut order: Vec<u32> = task_slots(&c).collect();

            let mut want = order.clone();
            prop_assert!(topological_reorder_reference(&mut want, &prec));
            let before = order.clone();
            prop_assert!(topological_reorder(&mut order, &prec));
            prop_assert_eq!(&order, &want);

            let lengths = c.queue_lengths();
            prop_assert_eq!(repair_topological(&mut c, &prec), want != before);
            let repaired: Vec<u32> = task_slots(&c).collect();
            prop_assert_eq!(&repaired, &want);
            prop_assert_eq!(c.queue_lengths(), lengths);
            prop_assert_eq!(
                c.content_hash(),
                Chromosome::from_queues(&c.to_queues()).content_hash()
            );

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

    #[test]
    fn content_hash_stays_consistent_after_repair() {
        let prec = chain4();
        let mut c = Chromosome::from_queues(&[vec![3, 1], vec![2, 0]]);
        repair_topological(&mut c, &prec);
        let rebuilt = Chromosome::from_queues(&c.to_queues());
        assert_eq!(c, rebuilt);
        assert_eq!(c.content_hash(), rebuilt.content_hash());
    }
}
