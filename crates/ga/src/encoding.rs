//! The schedule encoding of §3.1.
//!
//! > "Each individual in the population represents a possible schedule. …
//! > Each character contains the unique identification number of a task,
//! > with −1 being used to delimit different processor queues. … Thus the
//! > number of characters is H + M − 1, where H is the number of tasks in
//! > the batch, and M is the number of processors."
//!
//! One refinement over the paper's prose: cycle crossover requires *every*
//! symbol of the permutation to be unique, so instead of a single `−1`
//! delimiter repeated `M − 1` times we give each delimiter its own identity
//! ([`Gene::Delim`]`(k)`). The decoded schedule is identical; the operators
//! become well-defined.
//!
//! Genes carry **batch-local slot indices** (`0..H`), not global task ids —
//! the scheduler that owns the batch maps slots back to tasks. This keeps
//! the GA engine independent of the task model.
//!
//! # Content hashing
//!
//! Every chromosome carries a 128-bit position-sensitive content digest
//! ([`Chromosome::content_hash`]), maintained *incrementally*: a
//! [`Chromosome::genes_swap`] updates it in O(1) by XOR-ing out the two old
//! (position, gene) terms and XOR-ing in the two new ones (a Zobrist
//! hash). This is what makes the engine's fitness memo cheaper than the
//! evaluation it short-circuits — a memo lookup is a table probe, not a
//! walk over `H + M − 1` genes.

/// One symbol of the permutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Gene {
    /// A task slot: index into the batch being scheduled (`0..H`).
    Task(u32),
    /// Queue delimiter `k` separates processor `k`'s queue from processor
    /// `k+1`'s (`0..M−1` for `M` processors).
    Delim(u16),
}

impl Gene {
    /// Maps the gene to a dense unique integer in `0 .. H+M−1`
    /// (tasks first, then delimiters), used by crossover position tables.
    #[inline]
    pub fn dense_index(self, n_tasks: usize) -> usize {
        match self {
            Gene::Task(i) => i as usize,
            Gene::Delim(k) => n_tasks + k as usize,
        }
    }

    /// [`Gene::dense_index`] for a gene that may not belong to an
    /// `n_tasks`-slot, `n_symbols`-gene chromosome: `None` for a task slot
    /// `≥ H` or a delimiter `≥ M − 1`, so the two ranges cannot alias.
    #[inline]
    pub(crate) fn checked_dense_index(self, n_tasks: usize, n_symbols: usize) -> Option<usize> {
        match self {
            Gene::Task(i) => ((i as usize) < n_tasks).then_some(i as usize),
            Gene::Delim(k) => {
                let idx = n_tasks + k as usize;
                (idx < n_symbols).then_some(idx)
            }
        }
    }

    /// True if this gene is a task slot.
    #[inline]
    pub fn is_task(self) -> bool {
        matches!(self, Gene::Task(_))
    }

    /// A unique integer code for the gene: task slots map to `0..2³²`,
    /// delimiters to `2³²..`. Input to the content hash.
    #[inline]
    fn code(self) -> u64 {
        match self {
            Gene::Task(t) => t as u64,
            Gene::Delim(k) => (1u64 << 32) | k as u64,
        }
    }
}

/// The 64-bit finaliser of splitmix64 — a cheap, well-mixed permutation of
/// `u64` used to derive the per-(position, gene) Zobrist terms.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Salts for the two independent 64-bit halves of the content digest.
/// Two halves put an accidental collision at ~2⁻¹²⁸·n² for n distinct
/// genomes — beyond reach of any GA run.
const HASH_SALTS: [u64; 2] = [0xA076_1D64_78BD_642F, 0xE703_7ED1_A0B4_28DB];

/// The Zobrist term of one `(position, gene)` pair. `(pos << 33) | code`
/// is injective (codes fit in 33 bits), so distinct pairs get independent
/// pseudo-random terms.
#[inline]
fn position_term(pos: usize, g: Gene, salt: u64) -> u64 {
    splitmix64(((pos as u64) << 33 | g.code()) ^ salt)
}

/// The change to a content digest when the gene at `pos` is replaced:
/// XOR-ing it in takes the digest of a gene string holding `old` there to
/// the digest of the same string holding `new`. Deltas of distinct
/// positions XOR together, so an operator that rewrites a known set of
/// positions pays for those positions only (cycle crossover; see
/// [`Chromosome::rewrite_genes`]).
#[inline]
pub(crate) fn substitution_delta(pos: usize, old: Gene, new: Gene) -> [u64; 2] {
    HASH_SALTS.map(|salt| position_term(pos, old, salt) ^ position_term(pos, new, salt))
}

/// A schedule encoding: a permutation of `H` task slots and `M − 1`
/// delimiters.
///
/// ```
/// use dts_ga::Chromosome;
/// // 4 tasks over 3 processors: P0 ← {2}, P1 ← {0, 3}, P2 ← {1}
/// let c = Chromosome::from_queues(&[vec![2], vec![0, 3], vec![1]]);
/// assert_eq!(c.n_tasks(), 4);
/// assert_eq!(c.n_procs(), 3);
/// assert_eq!(c.to_queues(), vec![vec![2], vec![0, 3], vec![1]]);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct Chromosome {
    genes: Vec<Gene>,
    n_tasks: u32,
    n_procs: u16,
    /// Position-sensitive 128-bit content digest (two independent 64-bit
    /// Zobrist hashes). A pure function of `(genes, n_tasks, n_procs)`,
    /// maintained incrementally by the mutating operations.
    content_hash: [u64; 2],
}

/// The full-recompute form of the content digest: XOR of one Zobrist term
/// per `(position, gene)` pair over a shape-derived base value.
fn compute_content_hash(genes: &[Gene], n_tasks: u32, n_procs: u16) -> [u64; 2] {
    let shape = ((n_tasks as u64) << 16) | n_procs as u64;
    let mut h = [0u64; 2];
    for (half, &salt) in h.iter_mut().zip(&HASH_SALTS) {
        let mut acc = splitmix64(shape ^ salt);
        for (pos, &g) in genes.iter().enumerate() {
            acc ^= position_term(pos, g, salt);
        }
        *half = acc;
    }
    h
}

/// `clone_from` reuses the destination's gene buffer, so the engine can
/// overwrite a population slot without allocating once the buffer is large
/// enough.
impl Clone for Chromosome {
    fn clone(&self) -> Self {
        Self {
            genes: self.genes.clone(),
            n_tasks: self.n_tasks,
            n_procs: self.n_procs,
            content_hash: self.content_hash,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.genes.clone_from(&source.genes);
        self.n_tasks = source.n_tasks;
        self.n_procs = source.n_procs;
        self.content_hash = source.content_hash;
    }
}

/// `Hash` feeds the cached content digest, so hashing a chromosome is O(1)
/// instead of a walk over `H + M − 1` genes. Consistent with the derived
/// `Eq`: equal chromosomes have equal digests by construction.
impl std::hash::Hash for Chromosome {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.content_hash[0]);
        state.write_u64(self.content_hash[1]);
    }
}

impl Chromosome {
    /// Builds a chromosome from per-processor queues of batch-local slot
    /// indices. The queues must jointly contain each index `0..H` exactly
    /// once.
    ///
    /// # Panics
    ///
    /// Panics if there are no queues or they do not form a permutation.
    pub fn from_queues(queues: &[Vec<u32>]) -> Self {
        assert!(!queues.is_empty(), "need at least one processor queue");
        let n_tasks: usize = queues.iter().map(Vec::len).sum();
        let n_procs = queues.len();
        let mut genes = Vec::with_capacity(n_tasks + n_procs - 1);
        for (k, q) in queues.iter().enumerate() {
            genes.extend(q.iter().map(|&t| Gene::Task(t)));
            if k + 1 < n_procs {
                genes.push(Gene::Delim(k as u16));
            }
        }
        Self::from_genes(genes, n_tasks as u32, n_procs as u16)
    }

    /// Builds a chromosome directly from a gene string.
    ///
    /// # Panics
    ///
    /// Panics if the genes are not a valid permutation of `H` task slots
    /// and `M − 1` distinct delimiters.
    pub fn from_genes(genes: Vec<Gene>, n_tasks: u32, n_procs: u16) -> Self {
        let content_hash = compute_content_hash(&genes, n_tasks, n_procs);
        let c = Self {
            genes,
            n_tasks,
            n_procs,
            content_hash,
        };
        if let Err(e) = c.validate() {
            panic!("invalid chromosome: {e}");
        }
        c
    }

    /// The empty schedule: no tasks on one processor. Valid and
    /// allocation-free, so it can stand in for a chromosome whose buffer is
    /// moved out of a population slot for a moment.
    pub(crate) fn vacant() -> Self {
        Self {
            genes: Vec::new(),
            n_tasks: 0,
            n_procs: 1,
            content_hash: compute_content_hash(&[], 0, 1),
        }
    }

    /// Rewrites the gene string in place for an operator that knows which
    /// positions it changes and that the result is still a permutation:
    /// `f` returns the XOR of [`substitution_delta`] over every position it
    /// rewrote, and that delta is folded into the digest, so neither the
    /// O(H + M) re-hash nor the re-validation of
    /// [`Chromosome::from_genes`] is repeated. Both obligations are checked
    /// in debug builds.
    pub(crate) fn rewrite_genes(&mut self, f: impl FnOnce(&mut [Gene]) -> [u64; 2]) {
        let delta = f(&mut self.genes);
        self.content_hash = [
            self.content_hash[0] ^ delta[0],
            self.content_hash[1] ^ delta[1],
        ];
        debug_assert!(self.validate().is_ok(), "{:?}", self.validate());
        debug_assert_eq!(
            self.content_hash,
            compute_content_hash(&self.genes, self.n_tasks, self.n_procs),
            "digest delta diverged from the from-scratch digest"
        );
    }

    /// Builds a (possibly invalid) chromosome without any validation, for
    /// tests that exercise the checks themselves.
    #[cfg(test)]
    pub(crate) fn unchecked(genes: Vec<Gene>, n_tasks: u32, n_procs: u16) -> Self {
        let content_hash = compute_content_hash(&genes, n_tasks, n_procs);
        Self {
            genes,
            n_tasks,
            n_procs,
            content_hash,
        }
    }

    /// The 128-bit position-sensitive content digest: a pure function of
    /// the gene string and shape, equal for equal chromosomes. The
    /// engine's fitness memo keys on it; an accidental collision between
    /// distinct genomes has probability ~`n²/2¹²⁸` for `n` genomes seen —
    /// negligible against any run length.
    #[inline]
    pub fn content_hash(&self) -> u128 {
        ((self.content_hash[0] as u128) << 64) | self.content_hash[1] as u128
    }

    /// Number of task slots `H`.
    #[inline]
    pub fn n_tasks(&self) -> u32 {
        self.n_tasks
    }

    /// Number of processors `M`.
    #[inline]
    pub fn n_procs(&self) -> u16 {
        self.n_procs
    }

    /// The gene string (length `H + M − 1`).
    #[inline]
    pub fn genes(&self) -> &[Gene] {
        &self.genes
    }

    /// Mutable access for operators that rewrite arbitrary gene spans
    /// (insert, inversion). The content digest is recomputed from scratch
    /// after `f` returns — operators that only transpose two genes should
    /// use [`Chromosome::genes_swap`], which maintains it in O(1).
    /// Invariants are re-checked by [`Chromosome::validate`] in debug
    /// builds after each operator.
    pub(crate) fn with_genes_mut<R>(&mut self, f: impl FnOnce(&mut [Gene]) -> R) -> R {
        let out = f(&mut self.genes);
        self.content_hash = compute_content_hash(&self.genes, self.n_tasks, self.n_procs);
        out
    }

    /// Swaps the genes at positions `i` and `j`. Any transposition of a
    /// permutation is a permutation, so the invariant holds by
    /// construction; external local-search heuristics (the PN rebalancer)
    /// use this to make and revert tentative moves. The content digest is
    /// updated in O(1).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn genes_swap(&mut self, i: usize, j: usize) {
        let (gi, gj) = (self.genes[i], self.genes[j]);
        if i == j {
            return;
        }
        for (half, &salt) in self.content_hash.iter_mut().zip(&HASH_SALTS) {
            *half ^= position_term(i, gi, salt)
                ^ position_term(i, gj, salt)
                ^ position_term(j, gj, salt)
                ^ position_term(j, gi, salt);
        }
        self.genes.swap(i, j);
    }

    /// Iterates `(processor_index, task_slot)` pairs in queue order.
    ///
    /// This is the hot path of every fitness function: one linear pass, no
    /// allocation.
    #[inline]
    pub fn assignments(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        let mut proc = 0usize;
        self.genes.iter().filter_map(move |g| match *g {
            Gene::Task(t) => Some((proc, t)),
            Gene::Delim(_) => {
                proc += 1;
                None
            }
        })
    }

    /// Decodes into per-processor queues of slot indices.
    pub fn to_queues(&self) -> Vec<Vec<u32>> {
        let mut queues = vec![Vec::new(); self.n_procs as usize];
        for (p, t) in self.assignments() {
            queues[p].push(t);
        }
        queues
    }

    /// Checks the permutation invariant: length `H + M − 1`, each task slot
    /// `0..H` exactly once, each delimiter `0..M−1` exactly once.
    pub fn validate(&self) -> Result<(), String> {
        let h = self.n_tasks as usize;
        let m = self.n_procs as usize;
        if m == 0 {
            return Err("zero processors".into());
        }
        if self.genes.len() != h + m - 1 {
            return Err(format!(
                "length {} != H + M - 1 = {}",
                self.genes.len(),
                h + m - 1
            ));
        }
        let mut seen = vec![false; h + m - 1];
        for g in &self.genes {
            let idx = match *g {
                Gene::Task(t) if (t as usize) < h => g.dense_index(h),
                Gene::Delim(d) if (d as usize) < m - 1 => g.dense_index(h),
                other => return Err(format!("out-of-range gene {other:?}")),
            };
            if seen[idx] {
                return Err(format!("duplicate gene {g:?}"));
            }
            seen[idx] = true;
        }
        Ok(())
    }

    /// The multiset-preservation check used by property tests: true when
    /// `self` and `other` encode the same task set over the same cluster
    /// shape.
    pub fn same_symbol_set(&self, other: &Chromosome) -> bool {
        self.n_tasks == other.n_tasks
            && self.n_procs == other.n_procs
            && self.genes.len() == other.genes.len()
    }

    /// Queue length of each processor, without allocating queue contents.
    pub fn queue_lengths(&self) -> Vec<usize> {
        let mut lens = vec![0usize; self.n_procs as usize];
        for (p, _) in self.assignments() {
            lens[p] += 1;
        }
        lens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a (possibly invalid) chromosome without the `from_genes`
    /// validation, for exercising `validate` itself.
    fn raw(genes: Vec<Gene>, n_tasks: u32, n_procs: u16) -> Chromosome {
        Chromosome::unchecked(genes, n_tasks, n_procs)
    }

    #[test]
    fn round_trip_queues() {
        let queues = vec![vec![0, 3], vec![], vec![1, 2, 4]];
        let c = Chromosome::from_queues(&queues);
        assert_eq!(c.to_queues(), queues);
        assert_eq!(c.genes().len(), 5 + 2);
        assert_eq!(c.n_tasks(), 5);
        assert_eq!(c.n_procs(), 3);
    }

    #[test]
    fn empty_queues_are_fine() {
        let c = Chromosome::from_queues(&[vec![], vec![], vec![0]]);
        assert_eq!(c.to_queues(), vec![vec![], vec![], vec![0]]);
    }

    #[test]
    fn single_processor_no_delimiters() {
        let c = Chromosome::from_queues(&[vec![2, 0, 1]]);
        assert_eq!(c.genes().len(), 3);
        assert!(c.genes().iter().all(|g| g.is_task()));
    }

    #[test]
    fn assignments_iterate_in_queue_order() {
        let c = Chromosome::from_queues(&[vec![5, 1], vec![0], vec![2, 3, 4]]);
        let pairs: Vec<_> = c.assignments().collect();
        assert_eq!(pairs, vec![(0, 5), (0, 1), (1, 0), (2, 2), (2, 3), (2, 4)]);
    }

    #[test]
    fn queue_lengths() {
        let c = Chromosome::from_queues(&[vec![5, 1], vec![0], vec![2, 3, 4]]);
        assert_eq!(c.queue_lengths(), vec![2, 1, 3]);
    }

    #[test]
    fn validate_catches_duplicates() {
        let c = raw(vec![Gene::Task(0), Gene::Task(0), Gene::Delim(0)], 2, 2);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_catches_wrong_length() {
        let c = raw(vec![Gene::Task(0), Gene::Delim(0)], 2, 2);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_catches_out_of_range() {
        let c = raw(vec![Gene::Task(0), Gene::Task(7), Gene::Delim(0)], 2, 2);
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic]
    fn from_genes_panics_on_invalid() {
        let _ = Chromosome::from_genes(vec![Gene::Task(0), Gene::Task(1)], 2, 2);
    }

    #[test]
    #[should_panic(expected = "invalid chromosome: duplicate gene")]
    fn from_queues_panics_on_duplicated_slot() {
        let _ = Chromosome::from_queues(&[vec![0, 1], vec![1]]);
    }

    #[test]
    #[should_panic(expected = "invalid chromosome: out-of-range gene")]
    fn from_queues_panics_on_missing_slot() {
        // Three tasks, slot 1 missing: its place is taken by slot 3.
        let _ = Chromosome::from_queues(&[vec![0, 3], vec![2]]);
    }

    #[test]
    fn substitution_deltas_compose_to_the_from_scratch_digest() {
        let a = Chromosome::from_queues(&[vec![0, 3], vec![1], vec![2, 4, 5]]);
        let b = Chromosome::from_queues(&[vec![5, 0], vec![4, 2], vec![3, 1]]);
        let mut delta = [0u64; 2];
        for (pos, (&old, &new)) in a.genes().iter().zip(b.genes()).enumerate() {
            let d = substitution_delta(pos, old, new);
            delta = [delta[0] ^ d[0], delta[1] ^ d[1]];
        }
        let mut rebuilt = a.clone();
        rebuilt.rewrite_genes(|genes| {
            genes.copy_from_slice(b.genes());
            delta
        });
        assert_eq!(rebuilt, b);
        assert_eq!(rebuilt.content_hash(), b.content_hash());
    }

    #[test]
    fn checked_dense_index_rejects_aliasing_genes() {
        // H = 2, M = 2: the symbols are Task(0), Task(1), Delim(0).
        assert_eq!(Gene::Task(1).checked_dense_index(2, 3), Some(1));
        assert_eq!(Gene::Delim(0).checked_dense_index(2, 3), Some(2));
        assert_eq!(Gene::Task(2).checked_dense_index(2, 3), None);
        assert_eq!(Gene::Delim(1).checked_dense_index(2, 3), None);
    }

    #[test]
    fn content_hash_is_incrementally_maintained_across_swaps() {
        use dts_distributions::{Prng, Rng};
        let mut c = Chromosome::from_queues(&[vec![0, 3], vec![1], vec![2, 4, 5]]);
        let mut rng = Prng::seed_from(99);
        for _ in 0..500 {
            let n = c.genes().len();
            c.genes_swap(rng.below(n), rng.below(n));
            let fresh = compute_content_hash(c.genes(), c.n_tasks(), c.n_procs());
            assert_eq!(c.content_hash, fresh, "incremental hash diverged");
        }
    }

    #[test]
    fn swap_and_swap_back_restores_hash() {
        let mut c = Chromosome::from_queues(&[vec![0, 1], vec![2, 3]]);
        let before = c.content_hash();
        c.genes_swap(0, 3);
        assert_ne!(c.content_hash(), before, "swap should change the digest");
        c.genes_swap(0, 3);
        assert_eq!(c.content_hash(), before, "revert should restore it");
    }

    #[test]
    fn equal_chromosomes_hash_equal_regardless_of_construction() {
        let a = Chromosome::from_queues(&[vec![1, 0], vec![2]]);
        let b = Chromosome::from_genes(
            vec![Gene::Task(1), Gene::Task(0), Gene::Delim(0), Gene::Task(2)],
            3,
            2,
        );
        assert_eq!(a, b);
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn hash_is_position_sensitive() {
        // Same queue *membership* after reordering within a queue must
        // still change the digest: the fitness depends on queue order.
        let a = Chromosome::from_queues(&[vec![0, 1], vec![2]]);
        let b = Chromosome::from_queues(&[vec![1, 0], vec![2]]);
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn hash_distinguishes_shapes() {
        // One task on one processor vs. one task on the first of two: same
        // gene prefix, different shape, different digest.
        let a = Chromosome::from_queues(&[vec![0]]);
        let b = Chromosome::from_queues(&[vec![0], vec![]]);
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn with_genes_mut_rehashes() {
        let mut c = Chromosome::from_queues(&[vec![0, 1, 2], vec![3]]);
        c.with_genes_mut(|genes| genes[0..3].reverse());
        let fresh = compute_content_hash(c.genes(), c.n_tasks(), c.n_procs());
        assert_eq!(c.content_hash, fresh);
    }

    #[test]
    fn dense_index_unique() {
        let h = 4;
        // Uniqueness via sort + dedup rather than a hash set, keeping the
        // test free of iteration-order-sensitive collections.
        let mut seen: Vec<usize> = (0..4u32).map(|t| Gene::Task(t).dense_index(h)).collect();
        seen.extend((0..3u16).map(|d| Gene::Delim(d).dense_index(h)));
        let total = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), total);
        assert_eq!(seen.len(), 7);
    }
}
