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
//! # Equality
//!
//! Chromosomes compare by gene string and shape. The engine never hashes
//! them: it learns which offspring are copies of a parent from the
//! crossover that bred them ([`crate::crossover::Parent`]).

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
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.genes.clone_from(&source.genes);
        self.n_tasks = source.n_tasks;
        self.n_procs = source.n_procs;
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
        let c = Self {
            genes,
            n_tasks,
            n_procs,
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
        }
    }

    /// Rewrites the gene string in place, for operators that know the
    /// result is still a permutation (crossover, repair): the re-validation of [`Chromosome::from_genes`] is not
    /// repeated, but checked in debug builds.
    pub(crate) fn rewrite_genes<R>(&mut self, f: impl FnOnce(&mut [Gene]) -> R) -> R {
        let out = f(&mut self.genes);
        debug_assert!(self.validate().is_ok(), "{:?}", self.validate());
        out
    }

    /// Builds a (possibly invalid) chromosome without any validation, for
    /// tests that exercise the checks themselves.
    #[cfg(test)]
    pub(crate) fn unchecked(genes: Vec<Gene>, n_tasks: u32, n_procs: u16) -> Self {
        Self {
            genes,
            n_tasks,
            n_procs,
        }
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

    /// Swaps the genes at positions `i` and `j`. Any transposition of a
    /// permutation is a permutation, so the invariant holds by
    /// construction; external local-search heuristics (the PN rebalancer)
    /// use this to make and revert tentative moves.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn genes_swap(&mut self, i: usize, j: usize) {
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
    fn checked_dense_index_rejects_aliasing_genes() {
        // H = 2, M = 2: the symbols are Task(0), Task(1), Delim(0).
        assert_eq!(Gene::Task(1).checked_dense_index(2, 3), Some(1));
        assert_eq!(Gene::Delim(0).checked_dense_index(2, 3), Some(2));
        assert_eq!(Gene::Task(2).checked_dense_index(2, 3), None);
        assert_eq!(Gene::Delim(1).checked_dense_index(2, 3), None);
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
