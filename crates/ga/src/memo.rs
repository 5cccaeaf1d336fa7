//! The fitness memo: duplicate genomes are evaluated once per batch epoch.
//!
//! Late in convergence a GA population is dominated by copies of a few
//! elite genomes — elitism clones them, selection re-picks them, and cycle
//! crossover maps identical parents to identical children. Re-walking
//! `H + M − 1` genes for every copy is pure waste. [`FitnessMemo`] caches
//! `(fitness, makespan, completion times)` keyed by the chromosome's O(1)
//! [content digest](crate::Chromosome::content_hash), so a duplicate costs
//! one table probe instead of a full evaluation.
//!
//! The completion times of every entry sit back to back in one flat arena
//! that is cleared together with the table. A hit copies them into the
//! caller's buffer and a miss insert appends them to the arena, so once the
//! table and arena have grown to their working size the memo allocates
//! nothing, and eviction frees nothing.
//!
//! # Epochs and invalidation
//!
//! A cached value is only valid while the evaluation context — ψ, the
//! per-processor rate/load/communication estimates, the batch's task sizes
//! — is unchanged. [`crate::Problem::epoch_key`] digests that context;
//! [`FitnessMemo::begin_epoch`] clears the table whenever the key changes,
//! so values can never leak across batches. The engine constructs one memo
//! per run and opens the problem's epoch before the first evaluation.
//!
//! # Determinism
//!
//! The memo is consulted on the engine's (single) coordinating thread, in
//! population-index order, before jobs are handed to the evaluator — so
//! hit/miss decisions are a pure function of the chromosome sequence, and
//! a memoised run is bit-identical to an unmemoised one at any worker
//! count (`Problem::evaluate` is pure, so a cached value *is* the value a
//! fresh evaluation would produce). Eviction is all-or-nothing (the table
//! is cleared when full), which keeps it deterministic too: no LRU clocks,
//! no hash-order iteration.
//!
//! A key collision — two distinct genomes with equal 128-bit digests —
//! would return a wrong fitness. The digest is two independent 64-bit
//! Zobrist hashes, putting the probability for a run that sees `n` genomes
//! at ~`n²/2¹²⁸`; for even a billion genomes that is ~10⁻²¹.

// dts-lint: allow(unordered-iter, "lookup-only: probed by content digest in submission order, never iterated; eviction is an all-or-nothing clear")
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use crate::encoding::Chromosome;

/// Default capacity (entries) of the engine's per-run fitness memo.
pub const DEFAULT_MEMO_CAPACITY: usize = 4096;

/// Keys are already uniform 128-bit Zobrist digests, so feeding them
/// through SipHash on every probe is pure waste on the hot path: folding
/// the two independent 64-bit halves together is a perfectly distributed
/// bucket index.
#[derive(Debug, Default, Clone)]
struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("digest keys hash through write_u128");
    }
    fn write_u128(&mut self, v: u128) {
        self.0 = (v as u64) ^ ((v >> 64) as u64);
    }
}

#[derive(Debug, Default, Clone)]
struct DigestHashBuilder;

impl BuildHasher for DigestHashBuilder {
    type Hasher = DigestHasher;
    fn build_hasher(&self) -> DigestHasher {
        DigestHasher(0)
    }
}

/// One cached evaluation. Its completion times live in the memo's flat
/// arena at `start..start + len`.
#[derive(Debug, Clone)]
struct MemoEntry {
    fitness: f64,
    makespan: f64,
    start: usize,
    len: usize,
}

/// A capacity-bounded, epoch-guarded cache of evaluation results keyed by
/// chromosome content digest. See the [module docs](self) for the
/// determinism and invalidation rules.
#[derive(Debug)]
pub struct FitnessMemo {
    // dts-lint: allow(unordered-iter, "lookup-only: get/insert by digest key; no code path iterates the map, so bucket order never leaks")
    map: HashMap<u128, MemoEntry, DigestHashBuilder>,
    /// Every entry's completion times, back to back. Cleared together with
    /// the table, so it keeps its capacity and a warmed-up memo never
    /// allocates.
    arena: Vec<f64>,
    capacity: usize,
    epoch: Option<u64>,
    hits: u64,
    misses: u64,
}

impl FitnessMemo {
    /// Creates a memo holding at most `capacity` entries. When an insert
    /// would exceed the capacity the whole table is cleared (deterministic
    /// all-or-nothing eviction). A capacity of 0 disables storage: every
    /// lookup misses.
    pub fn new(capacity: usize) -> Self {
        Self {
            // dts-lint: allow(unordered-iter, "constructing the lookup-only digest table documented on the `map` field")
            map: HashMap::with_capacity_and_hasher(
                capacity.min(DEFAULT_MEMO_CAPACITY),
                DigestHashBuilder,
            ),
            arena: Vec::new(),
            capacity,
            epoch: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Declares the evaluation context for subsequent lookups/inserts.
    /// Changing the key clears the table — cached values are only valid
    /// within the epoch (ψ, processor states, batch) they were computed
    /// in. Hit/miss counters persist across epochs.
    pub fn begin_epoch(&mut self, key: u64) {
        if self.epoch != Some(key) {
            self.clear();
            self.epoch = Some(key);
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.arena.clear();
    }

    /// Looks up a chromosome's cached evaluation. On a hit, copies the
    /// cached completion times into `completions` (reusing its buffer) and
    /// returns `(fitness, makespan)` — exactly the values a fresh
    /// `Problem::evaluate_into` call produced earlier this epoch. On a miss
    /// `completions` is left untouched. Counts a hit or a miss.
    pub fn lookup(&mut self, c: &Chromosome, completions: &mut Vec<f64>) -> Option<(f64, f64)> {
        match self.map.get(&c.content_hash()) {
            Some(e) => {
                self.hits += 1;
                completions.clear();
                completions.extend_from_slice(&self.arena[e.start..e.start + e.len]);
                Some((e.fitness, e.makespan))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Caches one evaluation result. Only the digest is stored, not the
    /// chromosome, so an insert is O(M) (the completions copy into the
    /// arena), not O(H). A genome already cached this epoch is left as it
    /// is: evaluation is pure, so the cached value already equals this one.
    pub fn insert(&mut self, c: &Chromosome, fitness: f64, makespan: f64, completions: &[f64]) {
        let key = c.content_hash();
        if self.capacity == 0 || self.map.contains_key(&key) {
            return;
        }
        if self.map.len() >= self.capacity {
            self.clear();
        }
        let start = self.arena.len();
        if start == 0 {
            // Size the arena for a full table at once. Grown by doubling, it
            // left each outgrown buffer behind as a heap fragment, which
            // raised peak RSS with two evaluation threads by half.
            let entries = self.capacity.min(DEFAULT_MEMO_CAPACITY);
            self.arena.reserve_exact(entries * completions.len());
        }
        self.arena.extend_from_slice(completions);
        self.map.insert(
            key,
            MemoEntry {
                fitness,
                makespan,
                start,
                len: completions.len(),
            },
        );
    }

    /// Number of lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that required a real evaluation.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chrom(k: u32) -> Chromosome {
        // A valid 4-task / 2-processor permutation parameterised by k.
        let a = k % 4;
        let rest: Vec<u32> = (0..4).filter(|&t| t != a).collect();
        Chromosome::from_queues(&[vec![a], rest])
    }

    #[test]
    fn miss_then_hit_round_trips_the_values() {
        let mut memo = FitnessMemo::new(16);
        memo.begin_epoch(7);
        let c = chrom(0);
        let mut comps = vec![9.0];
        assert!(memo.lookup(&c, &mut comps).is_none());
        assert_eq!(comps, vec![9.0], "a miss leaves the buffer untouched");
        memo.insert(&c, 0.25, 4.0, &[1.0, 2.0, 4.0]);
        let (f, ms) = memo.lookup(&c, &mut comps).expect("hit");
        assert_eq!(f.to_bits(), 0.25f64.to_bits());
        assert_eq!(ms.to_bits(), 4.0f64.to_bits());
        assert_eq!(comps, vec![1.0, 2.0, 4.0]);
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
    }

    #[test]
    fn epoch_change_invalidates_but_same_epoch_does_not() {
        let mut memo = FitnessMemo::new(16);
        memo.begin_epoch(1);
        memo.insert(&chrom(0), 0.5, 2.0, &[]);
        memo.begin_epoch(1);
        assert_eq!(memo.len(), 1, "re-opening the same epoch must keep values");
        memo.begin_epoch(2);
        assert!(memo.is_empty(), "new epoch must clear the table");
        assert!(memo.lookup(&chrom(0), &mut Vec::new()).is_none());
    }

    #[test]
    fn capacity_overflow_clears_everything() {
        let mut memo = FitnessMemo::new(2);
        memo.begin_epoch(0);
        memo.insert(&chrom(0), 0.1, 1.0, &[1.0, 1.5]);
        memo.insert(&chrom(1), 0.2, 2.0, &[2.0, 2.5]);
        assert_eq!(memo.len(), 2);
        memo.insert(&chrom(2), 0.3, 3.0, &[3.0, 3.5]);
        // Deterministic all-or-nothing eviction: old entries gone, the new
        // one present — with its own completions, not a stale arena slot.
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.arena.len(), 2, "the arena is cleared with the table");
        let mut comps = Vec::new();
        assert!(memo.lookup(&chrom(2), &mut comps).is_some());
        assert_eq!(comps, vec![3.0, 3.5]);
        assert!(memo.lookup(&chrom(0), &mut Vec::new()).is_none());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut memo = FitnessMemo::new(0);
        memo.begin_epoch(0);
        memo.insert(&chrom(0), 0.1, 1.0, &[]);
        assert!(memo.lookup(&chrom(0), &mut Vec::new()).is_none());
        assert_eq!(memo.misses(), 1);
    }

    #[test]
    fn distinct_genomes_do_not_alias() {
        let mut memo = FitnessMemo::new(16);
        memo.begin_epoch(0);
        memo.insert(&chrom(0), 0.1, 1.0, &[]);
        memo.insert(&chrom(1), 0.2, 2.0, &[]);
        let (f0, _) = memo.lookup(&chrom(0), &mut Vec::new()).unwrap();
        let (f1, _) = memo.lookup(&chrom(1), &mut Vec::new()).unwrap();
        assert_ne!(f0.to_bits(), f1.to_bits());
    }
}
