//! The fitness function of §3.2.
//!
//! Previously assigned but unprocessed load is folded in through
//! `δⱼ = Lⱼ / Pⱼ`. The theoretical optimal processing time is
//!
//! ```text
//! ψ = ( Σᵢ tᵢ / Σⱼ Pⱼ ) + Σⱼ δⱼ
//! ```
//!
//! and the relative error of individual *i* is
//!
//! ```text
//! Eᵢ = sqrt( Σⱼ | ψ − ( δⱼ + Σ_{y→j} ( t_y / Pⱼ + Γc(y,j) ) ) |² )
//! ```
//!
//! where `Γc(y,j)` is the smoothed communication-cost estimate for
//! scheduling task *y* on processor *j*. A larger fitness indicates a
//! fitter schedule.
//!
//! **Deviation from the paper:** the paper computes `Fᵢ = 1/Eᵢ` clamped
//! into `(0, 1]`, which maps *every* schedule with `E ≤ 1` to exactly 1.0
//! — on small batches most near-optimal schedules tie and selection /
//! elitism pressure vanishes. This implementation uses `Fᵢ = 1/(1 + Eᵢ)`:
//! the same range `(0, 1]`, the same perfect score `F(0) = 1`, the same
//! ordering for `E > 1`, but strictly monotone everywhere so an `E = 0.2`
//! schedule outranks an `E = 0.9` one. The engine additionally tie-breaks
//! elites by makespan.
//!
//! # ZO's objective
//!
//! [`Fitness::MakespanRatio`] swaps the relative error for the
//! makespan-only fitness of the ZO baseline (§4.1):
//! `F = min(1, (Σt/ΣP + max δⱼ) / makespan)`. The numerator is *not* a
//! lower bound on the makespan (ARCHITECTURE.md, "Deviations from the
//! paper"), so makespans just above the optimum can tie at 1.0. Both
//! objectives score the same completion-time vector; only the final
//! formula differs.
//!
//! # Incremental evaluation
//!
//! [`BatchProblem`] keeps flat per-task and per-processor arrays (task
//! sizes, rates, effective comm costs, δⱼ) so the hot path walks cache-
//! friendly `f64` slices instead of chasing structs, and implements the
//! engine's incremental hooks: [`dts_ga::Problem::evaluate_into`] exports
//! the per-processor completion times, and
//! [`dts_ga::Problem::evaluate_swap_delta`] re-sums only the (at most two)
//! queues touched by a task–task transposition. Affected queues are always
//! re-accumulated **in gene order** — float addition is not associative,
//! so adding/subtracting single terms would drift off the full walk; the
//! re-sum keeps every path bit-identical to [`fill_completions`] (the
//! bitwise oracle, exercised by the proptests).
//!
//! # Precedence-constrained batches
//!
//! [`BatchProblem::with_precedence`] attaches a batch-local DAG
//! ([`dts_ga::SlotPrecedence`], typically built with [`slot_precedence`]):
//! completion times then charge each task the later of its queue
//! availability and its predecessors' finish times, the engine repairs
//! every chromosome into topological order
//! ([`dts_ga::repair_topological`]), and the queue-local incremental
//! paths (swap delta, §3.5 rebalance) decline because a task's cost now
//! couples queues. An unconstrained table is dropped entirely, so
//! edge-free workloads execute exactly the code described above — the
//! no-edges bit-identity contract.
//!
//! [`fill_completions`]: BatchProblem::completion_times

use std::cell::RefCell;

use dts_ga::{repair_topological, Chromosome, Gene, Problem, SlotPrecedence};
use dts_model::{Task, TaskGraph};

use crate::config::PnConfig;
use crate::rebalance::rebalance_once;
use dts_distributions::Prng;

/// What the fitness function knows about one processor at planning time.
///
/// All three fields are *estimates* from the scheduler's point of view:
/// `rate` is the smoothed execution-rate estimate (initialised from the
/// Linpack rating), `existing_load_mflops` is `Lⱼ` — work already assigned
/// to the processor but not yet completed — and `comm_cost` is the smoothed
/// per-message cost `Γc` for this link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessorState {
    /// Estimated execution rate `Pⱼ` in Mflop/s (> 0).
    pub rate: f64,
    /// Previously assigned, unprocessed load `Lⱼ` in MFLOPs.
    pub existing_load_mflops: f64,
    /// Estimated one-way communication cost per message, in seconds.
    pub comm_cost: f64,
}

impl ProcessorState {
    /// `δⱼ = Lⱼ / Pⱼ`: seconds until the existing load drains.
    #[inline]
    pub fn delta(&self) -> f64 {
        if self.rate > 0.0 {
            self.existing_load_mflops / self.rate
        } else {
            f64::INFINITY
        }
    }
}

/// What the GA maximises — the one objective that tells PN and ZO apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fitness {
    /// PN's §3.2 relative error: `F = 1/(1 + E)`, which rewards every
    /// processor finishing at ψ (comm costs included when enabled).
    #[default]
    RelativeError,
    /// ZO's makespan-only fitness: `F = min(1, (Σt/ΣP + max δⱼ) /
    /// makespan)`, which rewards only load balance.
    MakespanRatio,
}

impl Fitness {
    /// The label of the scheduler this objective defines (`"PN"` /
    /// `"ZO"`), as it appears in figures and `SimReport.scheduler`.
    pub fn label(self) -> &'static str {
        match self {
            Fitness::RelativeError => "PN",
            Fitness::MakespanRatio => "ZO",
        }
    }
}

/// The §3.2 optimisation problem for one batch: implements
/// [`dts_ga::Problem`] so the generic engine can evolve it, and carries the
/// §3.5 rebalancing heuristic as its `improve` hook.
pub struct BatchProblem<'a> {
    /// The batch being scheduled; chromosome slot `k` refers to
    /// `batch[k]`.
    batch: &'a [Task],
    /// Per-processor estimates.
    procs: &'a [ProcessorState],
    /// ψ: the theoretical optimal processing time for this batch.
    psi: f64,
    /// The objective scored from the completion times.
    fitness: Fitness,
    /// ZO's normaliser `Σt/ΣP + max δⱼ`, read by
    /// [`Fitness::MakespanRatio`] only.
    makespan_norm: f64,
    /// Whether Γc enters the fitness (PN: yes; the `no-comm` ablation: no).
    use_comm: bool,
    /// Rebalance attempts per improve() call (R in Fig. 3/4; 0 disables).
    rebalances: u32,
    /// Probes per rebalance attempt (paper: 5).
    rebalance_probes: u32,
    /// Task sizes by chromosome slot (SoA copy of `batch[k].mflops`).
    mflops: Vec<f64>,
    /// Per-processor rates `Pⱼ` (SoA copy of `procs[j].rate`).
    rate: Vec<f64>,
    /// Per-processor *effective* comm cost: `Γcⱼ` when communication
    /// estimates are in use, `0.0` otherwise. Pre-zeroing keeps the inner
    /// loop branch-free; adding `+0.0` to a non-negative cost is
    /// bit-identical to skipping the add.
    comm: Vec<f64>,
    /// Per-processor `δⱼ`, computed once at construction.
    delta: Vec<f64>,
    /// Batch-local precedence constraints, when the batch is a DAG slice.
    /// `None` — the paper's independent-task model — routes every
    /// evaluation through the original code path, so precedence support
    /// is structurally invisible to edge-free workloads.
    precedence: Option<&'a SlotPrecedence>,
}

thread_local! {
    /// Per-task finish times of [`BatchProblem::fill_completions_dag`].
    static DAG_FINISH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Stack buffer size for per-processor completion times: clusters up to
/// this many processors evaluate without heap allocation. The paper's
/// largest experiments use 100 processors.
const STACK_PROCS: usize = 128;

impl<'a> BatchProblem<'a> {
    /// Builds the problem for a batch and processor set.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is empty, any rate is non-positive or non-finite,
    /// any existing load or comm cost is negative/NaN/infinite, or any
    /// task size is non-positive or non-finite. [`Task::new`] already
    /// rejects bad sizes, but `Task` fields are public, so this is the
    /// diagnosable last line of defence — a NaN that slipped through here
    /// used to surface only as an opaque `partial_cmp` panic deep inside
    /// the §3.5 rebalance loop, mid-GA.
    pub fn new(batch: &'a [Task], procs: &'a [ProcessorState], config: &PnConfig) -> Self {
        assert!(!procs.is_empty(), "no processors to schedule onto");
        for (j, p) in procs.iter().enumerate() {
            assert!(
                p.rate > 0.0 && p.rate.is_finite(),
                "processor {j} has invalid rate estimate {}",
                p.rate
            );
            assert!(
                p.existing_load_mflops.is_finite() && p.existing_load_mflops >= 0.0,
                "processor {j} has invalid existing load {} MFLOPs",
                p.existing_load_mflops
            );
            assert!(
                p.comm_cost.is_finite() && p.comm_cost >= 0.0,
                "processor {j} has invalid comm cost {}",
                p.comm_cost
            );
        }
        for t in batch {
            assert!(
                t.mflops.is_finite() && t.mflops > 0.0,
                "task {} has invalid size {} MFLOPs",
                t.id,
                t.mflops
            );
        }
        let total_mflops: f64 = batch.iter().map(|t| t.mflops).sum();
        let total_rate: f64 = procs.iter().map(|p| p.rate).sum();
        let sum_delta: f64 = procs.iter().map(ProcessorState::delta).sum();
        let psi = total_mflops / total_rate + sum_delta;
        let mflops: Vec<f64> = batch.iter().map(|t| t.mflops).collect();
        let rate: Vec<f64> = procs.iter().map(|p| p.rate).collect();
        let comm: Vec<f64> = if config.use_comm_estimates {
            procs.iter().map(|p| p.comm_cost).collect()
        } else {
            vec![0.0; procs.len()]
        };
        let delta: Vec<f64> = procs.iter().map(ProcessorState::delta).collect();
        let max_delta = delta.iter().copied().fold(0.0, f64::max);
        Self {
            batch,
            procs,
            psi,
            fitness: config.fitness,
            makespan_norm: total_mflops / total_rate + max_delta,
            use_comm: config.use_comm_estimates,
            rebalances: config.rebalances_per_generation,
            rebalance_probes: config.rebalance_probes,
            mflops,
            rate,
            comm,
            delta,
            precedence: None,
        }
    }

    /// Attaches batch-local precedence constraints: completion times then
    /// charge each task the later of its queue position and its
    /// predecessors' finish times (the §3.2 sums become exact schedule
    /// lower bounds), and the problem implements [`Problem::repair`] with
    /// the topological gene repair so the engine only ever evaluates
    /// feasible orders.
    ///
    /// An unconstrained table is dropped (`None`): an edge-free DAG must
    /// take exactly the independent-task code path, not a behaviourally
    /// equivalent one — that structural delegation is what the
    /// no-edges bit-identity tests pin down. In DAG mode the incremental
    /// fast paths that assume queue-local costs (swap delta-evaluation and
    /// the §3.5 rebalance) decline, so every evaluation is the full
    /// precedence-aware walk.
    ///
    /// # Panics
    ///
    /// Panics if the table's slot count differs from the batch length.
    pub fn with_precedence(mut self, precedence: &'a SlotPrecedence) -> Self {
        assert_eq!(
            precedence.n_slots(),
            self.batch.len(),
            "precedence table must span exactly the batch"
        );
        self.precedence = (!precedence.is_unconstrained()).then_some(precedence);
        self
    }

    /// The attached precedence table, if the batch is constrained.
    pub fn precedence(&self) -> Option<&SlotPrecedence> {
        self.precedence
    }

    /// ψ — the theoretical optimal processing time (§3.2).
    pub fn psi(&self) -> f64 {
        self.psi
    }

    /// The batch under optimisation.
    pub fn batch(&self) -> &[Task] {
        self.batch
    }

    /// The processor estimates.
    pub fn procs(&self) -> &[ProcessorState] {
        self.procs
    }

    /// Fills `out` with per-processor completion times
    /// `Cⱼ = δⱼ + Σ_{y→j} (t_y/Pⱼ + Γc)` for the given schedule.
    pub fn completion_times(&self, c: &Chromosome, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.procs.len(), 0.0);
        self.fill_completions(c, out);
    }

    /// One pass over the chromosome: `out[j] = Cⱼ`. This is the hot path
    /// and the bitwise oracle every incremental path must match; it
    /// allocates nothing and draws no randomness, which is what lets the
    /// [`dts_ga::Evaluator`] thread pool run it concurrently. Each queue
    /// accumulates in a register (per-processor add order is identical to
    /// accumulating through `out`, so the results are bit-identical to
    /// the previous memory-accumulating form) over the flat SoA arrays.
    fn fill_completions(&self, c: &Chromosome, out: &mut [f64]) {
        match self.precedence {
            None => self.fill_completions_independent(c, out),
            Some(prec) => self.fill_completions_dag(c, out, prec),
        }
    }

    /// The independent-task walk — the original hot path, untouched, and
    /// the only code edge-free batches ever execute.
    fn fill_completions_independent(&self, c: &Chromosome, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.rate.len());
        let mut q = 0usize;
        let mut acc = self.delta[0];
        for &g in c.genes() {
            match g {
                Gene::Task(t) => {
                    acc += self.mflops[t as usize] / self.rate[q] + self.comm[q];
                }
                Gene::Delim(_) => {
                    out[q] = acc;
                    q += 1;
                    acc = self.delta[q];
                }
            }
        }
        out[q] = acc;
    }

    /// The precedence-aware walk: each task starts at the later of its
    /// queue's current availability and its predecessors' finish times, so
    /// per-processor completion times — and therefore the makespan — are
    /// exact for the precedence-constrained schedule, not optimistic
    /// queue-sum lower bounds. The repaired gene string is globally
    /// topological (every predecessor appears earlier), which is what
    /// makes one left-to-right pass sufficient. Per-task finish times live
    /// in a per-thread scratch buffer, zeroed on every call: the walk
    /// allocates nothing once the buffer has grown to the batch size, and
    /// the problem stays `Sync` for the parallel evaluator, whose workers
    /// each get their own buffer.
    fn fill_completions_dag(&self, c: &Chromosome, out: &mut [f64], prec: &SlotPrecedence) {
        debug_assert_eq!(out.len(), self.rate.len());
        DAG_FINISH.with_borrow_mut(|finish| {
            finish.clear();
            finish.resize(self.mflops.len(), 0.0);
            let mut q = 0usize;
            let mut acc = self.delta[0];
            for &g in c.genes() {
                match g {
                    Gene::Task(t) => {
                        let mut start = acc;
                        for &p in prec.preds_of(t) {
                            start = start.max(finish[p as usize]);
                        }
                        let fin = start + (self.mflops[t as usize] / self.rate[q] + self.comm[q]);
                        finish[t as usize] = fin;
                        acc = fin;
                    }
                    Gene::Delim(_) => {
                        out[q] = acc;
                        q += 1;
                        acc = self.delta[q];
                    }
                }
            }
            out[q] = acc;
        });
    }

    /// `Cⱼ` for the queue `q` whose task genes start at `start`:
    /// re-accumulates `δ_q + Σ (t/P_q + Γc_q)` in gene order until the
    /// next delimiter — the same add sequence `fill_completions` performs
    /// for that queue.
    fn queue_cost(&self, genes: &[Gene], q: usize, start: usize) -> f64 {
        let mut acc = self.delta[q];
        for &g in &genes[start..] {
            match g {
                Gene::Task(t) => {
                    acc += self.mflops[t as usize] / self.rate[q] + self.comm[q];
                }
                Gene::Delim(_) => break,
            }
        }
        acc
    }

    /// `Cⱼ` for the queue `q` whose task genes start at `start`, with the
    /// task at `replace_pos` substituted by `replace_slot` — exactly the
    /// sum `fill_completions` would produce for that queue after the swap
    /// (same gene order, stopping at the delimiter), without mutating the
    /// chromosome. Used by the §3.5 rebalance to cost candidate swaps.
    pub(crate) fn queue_cost_substituted(
        &self,
        c: &Chromosome,
        q: usize,
        start: usize,
        replace_pos: usize,
        replace_slot: u32,
    ) -> f64 {
        let mut acc = self.delta[q];
        for (pos, &g) in c.genes().iter().enumerate().skip(start) {
            let slot = match g {
                Gene::Task(_) if pos == replace_pos => replace_slot,
                Gene::Task(s) => s,
                Gene::Delim(_) => break,
            };
            acc += self.mflops[slot as usize] / self.rate[q] + self.comm[q];
        }
        acc
    }

    /// The position-list form of [`BatchProblem::queue_cost_substituted`]
    /// that the reference rebalance in `rebalance.rs`'s tests is costed
    /// with: `positions` are the queue's task-gene positions in gene order.
    #[cfg(test)]
    pub(crate) fn queue_cost_substituted_reference(
        &self,
        c: &Chromosome,
        q: usize,
        positions: &[usize],
        replace_pos: usize,
        replace_slot: u32,
    ) -> f64 {
        let genes = c.genes();
        let mut acc = self.delta[q];
        for &pos in positions {
            let slot = if pos == replace_pos {
                replace_slot
            } else {
                match genes[pos] {
                    Gene::Task(s) => s,
                    Gene::Delim(_) => unreachable!("queue positions contain only tasks"),
                }
            };
            acc += self.mflops[slot as usize] / self.rate[q] + self.comm[q];
        }
        acc
    }

    /// Scores a completion-time vector as `(fitness, makespan)`. Every
    /// evaluation path — full walk, swap delta, rebalance substitution —
    /// funnels through the same j-ordered loop, which is what keeps their
    /// results bit-identical.
    pub(crate) fn score_completions(&self, completions: &[f64]) -> (f64, f64) {
        let mut sum_sq = 0.0f64;
        let mut max = 0.0f64;
        for &cj in completions {
            let d = self.psi - cj;
            sum_sq += d * d;
            max = max.max(cj);
        }
        (self.fitness_of(sum_sq, max), max)
    }

    /// Fitness of the schedule whose completion times equal `completions`
    /// with entries `a.0` / `b.0` replaced by `a.1` / `b.1` — the
    /// j-ordered loop matches [`BatchProblem::score_completions`]
    /// bit-for-bit without materialising the substituted vector.
    pub(crate) fn fitness_with_substitution(
        &self,
        completions: &[f64],
        a: (usize, f64),
        b: (usize, f64),
    ) -> f64 {
        let mut sum_sq = 0.0f64;
        let mut max = 0.0f64;
        for (j, &cj) in completions.iter().enumerate() {
            let v = if j == a.0 {
                a.1
            } else if j == b.0 {
                b.1
            } else {
                cj
            };
            let d = self.psi - v;
            sum_sq += d * d;
            max = max.max(v);
        }
        self.fitness_of(sum_sq, max)
    }

    /// Computes the completion times into a stack buffer (clusters of up
    /// to [`STACK_PROCS`] processors never touch the heap) and hands them
    /// to `f`.
    fn with_completions<R>(&self, c: &Chromosome, f: impl FnOnce(&[f64]) -> R) -> R {
        let m = self.procs.len();
        if m <= STACK_PROCS {
            let mut buf = [0.0f64; STACK_PROCS];
            self.fill_completions(c, &mut buf[..m]);
            f(&buf[..m])
        } else {
            let mut buf = vec![0.0f64; m];
            self.fill_completions(c, &mut buf);
            f(&buf)
        }
    }

    /// Fitness from a relative error: `F = 1/(1 + E)` — range `(0, 1]`,
    /// `F(0) = 1` exactly, strictly monotone decreasing. See the module
    /// docs for why this deviates from the paper's clamped `1/E` (which
    /// tied every schedule with `E ≤ 1` at exactly 1.0, killing selection
    /// pressure near the optimum).
    #[inline]
    fn fitness_of_error(e: f64) -> f64 {
        1.0 / (1.0 + e)
    }

    /// The configured objective from one scoring loop's two sums: the
    /// squared error `Σ(ψ − Cⱼ)²` and the makespan `max Cⱼ`. One branch
    /// per evaluation, after the loop, so the loop's arithmetic — and
    /// every `RelativeError` fitness bit — does not depend on the
    /// objective.
    #[inline]
    fn fitness_of(&self, sum_sq: f64, makespan: f64) -> f64 {
        match self.fitness {
            Fitness::RelativeError => Self::fitness_of_error(sum_sq.sqrt()),
            Fitness::MakespanRatio => (self.makespan_norm / makespan).min(1.0),
        }
    }

    /// The relative error `E` of a schedule (§3.2). Zero means every
    /// processor finishes exactly at ψ.
    pub fn relative_error(&self, c: &Chromosome) -> f64 {
        self.with_completions(c, |completions| {
            let sum_sq: f64 = completions
                .iter()
                .map(|&cj| {
                    let d = self.psi - cj;
                    d * d
                })
                .sum();
            sum_sq.sqrt()
        })
    }
}

impl Problem for BatchProblem<'_> {
    /// The configured [`Fitness`]: `F = 1/(1 + E)` (`E = 0` maps to the
    /// perfect score 1), or ZO's makespan ratio.
    fn fitness(&self, c: &Chromosome) -> f64 {
        self.evaluate(c).0
    }

    /// Estimated makespan: the largest per-processor completion time.
    fn makespan(&self, c: &Chromosome) -> f64 {
        self.with_completions(c, |completions| {
            completions.iter().copied().fold(0.0, f64::max)
        })
    }

    /// Fast path: fitness and makespan both derive from the per-processor
    /// completion times, so one fill serves both — separate
    /// [`Problem::fitness`] + [`Problem::makespan`] calls would walk the
    /// chromosome twice. Bit-identical to the two-call form because the
    /// completions are computed by the same pass either way.
    fn evaluate(&self, c: &Chromosome) -> (f64, f64) {
        self.with_completions(c, |completions| self.score_completions(completions))
    }

    /// The full walk, exporting the completion times for the engine's
    /// incremental machinery (delta-evaluation, memo, §3.5 rebalance).
    fn evaluate_into(&self, c: &Chromosome, completions: &mut Vec<f64>) -> (f64, f64) {
        self.completion_times(c, completions);
        self.score_completions(completions)
    }

    /// Task–task transpositions touch at most two queues; only those are
    /// re-summed (in gene order, off the SoA arrays) and the score is
    /// recomputed over the updated completions. Declines delimiter moves —
    /// those shift queue boundaries for every queue between the two
    /// positions, so the full walk is the honest cost.
    fn evaluate_swap_delta(
        &self,
        c: &Chromosome,
        i: usize,
        j: usize,
        completions: &mut [f64],
    ) -> Option<(f64, f64)> {
        // A precedence-constrained batch has cross-queue coupling: a
        // task's start depends on predecessor finishes in other queues, so
        // queue-local re-summing is unsound. Decline and let the engine
        // fall back to the full DAG walk.
        if self.precedence.is_some() {
            return None;
        }
        if completions.len() != self.rate.len() || i == j {
            return None;
        }
        let genes = c.genes();
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        if !matches!(genes[lo], Gene::Task(_)) || !matches!(genes[hi], Gene::Task(_)) {
            return None;
        }
        // Locate the queues holding `lo` and `hi`: one delimiter-counting
        // pass (no divisions) that never looks past `hi`. Queue index is
        // the number of delimiters crossed — delimiter *labels* carry no
        // positional meaning, so they cannot be used as a shortcut.
        let mut q = 0usize;
        let mut start = 0usize;
        let (mut q_lo, mut start_lo) = (0usize, 0usize);
        for (pos, g) in genes[..hi].iter().enumerate() {
            if pos == lo {
                q_lo = q;
                start_lo = start;
            }
            if matches!(g, Gene::Delim(_)) {
                q += 1;
                start = pos + 1;
            }
        }
        let (q_hi, start_hi) = (q, start);
        // Re-accumulate the affected queue(s) in gene order. A same-queue
        // swap still needs the re-sum: the two tasks exchanged positions,
        // so the queue's addition order — and therefore its rounded sum —
        // can change.
        completions[q_lo] = self.queue_cost(genes, q_lo, start_lo);
        if q_hi != q_lo {
            completions[q_hi] = self.queue_cost(genes, q_hi, start_hi);
        }
        Some(self.score_completions(completions))
    }

    /// Digest of everything evaluation depends on besides the chromosome:
    /// ψ, the comm flag, every task size, every processor's rate/δ/comm
    /// estimate, and the objective. Equal keys ⇒ identical evaluation context,
    /// which is the fitness memo's invalidation rule.
    fn epoch_key(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            let mut x = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }
        let mut h = mix(0x5049_5053_3230_3035, self.mflops.len() as u64);
        h = mix(h, self.rate.len() as u64);
        h = mix(h, self.psi.to_bits());
        h = mix(h, self.use_comm as u64);
        for &m in &self.mflops {
            h = mix(h, m.to_bits());
        }
        for j in 0..self.rate.len() {
            h = mix(h, self.rate[j].to_bits());
            h = mix(h, self.delta[j].to_bits());
            h = mix(h, self.comm[j].to_bits());
        }
        // Precedence constraints change what a chromosome evaluates to, so
        // they are part of the evaluation context. The unconstrained case
        // folds nothing — bit-identical to the pre-DAG key.
        if let Some(prec) = self.precedence {
            h = mix(h, prec.digest());
        }
        // So is the objective; the default folds nothing, keeping PN's key.
        if self.fitness == Fitness::MakespanRatio {
            h = mix(h, self.makespan_norm.to_bits());
        }
        h
    }

    /// Topological gene repair ([`repair_topological`]) when the batch is
    /// precedence-constrained; the no-op identity otherwise, preserving
    /// the independent-task engine behaviour bit for bit.
    fn repair(&self, c: &mut Chromosome) -> bool {
        match self.precedence {
            Some(prec) => repair_topological(c, prec),
            None => false,
        }
    }

    /// The §3.5 rebalancing heuristic, applied `rebalances` times. The
    /// maintained completion times flow through every attempt, so neither
    /// the heavy-processor scan nor the final makespan re-walks the
    /// chromosome.
    fn improve(
        &self,
        c: &mut Chromosome,
        current_fitness: f64,
        completions: &mut Vec<f64>,
        rng: &mut Prng,
    ) -> Option<(f64, f64)> {
        // The §3.5 rebalance costs candidate moves with queue-local sums,
        // which ignore cross-queue precedence coupling; in DAG mode it is
        // disabled rather than allowed to report fitnesses the full walk
        // would contradict.
        if self.rebalances == 0 || self.precedence.is_some() {
            return None;
        }
        // Individuals evaluated through `evaluate_into` arrive with their
        // completions populated; recompute defensively otherwise.
        if completions.len() != self.procs.len() {
            self.completion_times(c, completions);
        }
        let mut fitness = current_fitness;
        let mut improved = false;
        for _ in 0..self.rebalances {
            if let Some(f) =
                rebalance_once(self, c, fitness, completions, self.rebalance_probes, rng)
            {
                fitness = f;
                improved = true;
            }
        }
        improved.then(|| {
            let makespan = completions.iter().copied().fold(0.0, f64::max);
            (fitness, makespan)
        })
    }
}

/// Restricts a workload-wide [`TaskGraph`] to one batch: slot `k` of the
/// resulting table corresponds to `batch[k]`, and a predecessor appears
/// only when it is itself in the batch — tasks outside the batch are
/// already complete (the simulator admits a task only after all of its
/// predecessors finish) or are handled by the caller, so they impose no
/// intra-batch ordering. A batch with no surviving edges yields an
/// unconstrained table, which [`BatchProblem::with_precedence`] treats as
/// "no constraints at all".
pub fn slot_precedence(batch: &[Task], graph: &TaskGraph) -> SlotPrecedence {
    // Task ids are dense (graph nodes are 0..n), so the id→slot index is
    // a plain vector — no hash table, no nondeterministic bucket order.
    const NO_SLOT: u32 = u32::MAX;
    let max_id = batch.iter().map(|t| t.id.0 as usize).max();
    let mut slot_of = vec![NO_SLOT; max_id.map_or(0, |m| m + 1)];
    for (k, t) in batch.iter().enumerate() {
        slot_of[t.id.0 as usize] = k as u32;
    }
    let slot_of = &slot_of;
    batch
        .iter()
        .map(|t| {
            graph
                .preds(t.id.0)
                .iter()
                .filter_map(move |&p| slot_of.get(p as usize).copied().filter(|&s| s != NO_SLOT))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_model::{SimTime, TaskId};

    fn task(id: u32, mflops: f64) -> Task {
        Task::new(TaskId(id), mflops, SimTime::ZERO)
    }

    fn proc(rate: f64, load: f64, comm: f64) -> ProcessorState {
        ProcessorState {
            rate,
            existing_load_mflops: load,
            comm_cost: comm,
        }
    }

    fn config() -> PnConfig {
        PnConfig::default()
    }

    #[test]
    fn psi_matches_hand_computation() {
        // Two processors at 100 and 300 Mflop/s with loads 100 and 0.
        // ψ = (600 / 400) + (100/100 + 0) = 1.5 + 1.0 = 2.5
        let batch = [task(0, 200.0), task(1, 400.0)];
        let procs = [proc(100.0, 100.0, 0.0), proc(300.0, 0.0, 0.0)];
        let p = BatchProblem::new(&batch, &procs, &config());
        assert!((p.psi() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn completion_times_include_delta_and_comm() {
        let batch = [task(0, 200.0), task(1, 400.0)];
        let procs = [proc(100.0, 100.0, 0.5), proc(200.0, 0.0, 0.25)];
        let p = BatchProblem::new(&batch, &procs, &config());
        // All tasks on processor 0: C0 = 1 + (200+400)/100 + 2×0.5 = 8, C1 = 0.
        let c = Chromosome::from_queues(&[vec![0, 1], vec![]]);
        let mut out = Vec::new();
        p.completion_times(&c, &mut out);
        assert!((out[0] - 8.0).abs() < 1e-12);
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn comm_can_be_disabled() {
        let batch = [task(0, 200.0)];
        let procs = [proc(100.0, 0.0, 5.0)];
        let mut cfg = config();
        cfg.use_comm_estimates = false;
        let p = BatchProblem::new(&batch, &procs, &cfg);
        let c = Chromosome::from_queues(&[vec![0]]);
        let mut out = Vec::new();
        p.completion_times(&c, &mut out);
        assert!((out[0] - 2.0).abs() < 1e-12, "no comm term expected");
    }

    #[test]
    fn perfectly_balanced_schedule_has_zero_error() {
        // Two identical processors, two identical tasks, no comm, no load.
        let batch = [task(0, 100.0), task(1, 100.0)];
        let procs = [proc(100.0, 0.0, 0.0), proc(100.0, 0.0, 0.0)];
        let p = BatchProblem::new(&batch, &procs, &config());
        let balanced = Chromosome::from_queues(&[vec![0], vec![1]]);
        assert!(p.relative_error(&balanced) < 1e-12);
        assert_eq!(p.fitness(&balanced), 1.0);
    }

    #[test]
    fn skewed_schedule_scores_worse() {
        let batch = [task(0, 100.0), task(1, 100.0)];
        let procs = [proc(100.0, 0.0, 0.0), proc(100.0, 0.0, 0.0)];
        let p = BatchProblem::new(&batch, &procs, &config());
        let balanced = Chromosome::from_queues(&[vec![0], vec![1]]);
        let skewed = Chromosome::from_queues(&[vec![0, 1], vec![]]);
        assert!(p.fitness(&balanced) > p.fitness(&skewed));
        assert!(p.makespan(&skewed) > p.makespan(&balanced));
    }

    #[test]
    fn fitness_is_clamped_to_unit_interval() {
        let batch: Vec<Task> = (0..20).map(|i| task(i, 1000.0)).collect();
        let procs = [proc(10.0, 0.0, 0.0), proc(1000.0, 0.0, 0.0)];
        let p = BatchProblem::new(&batch, &procs, &config());
        // Terrible schedule: everything on the slow machine.
        let all_slow = Chromosome::from_queues(&[(0..20).collect(), vec![]]);
        let f = p.fitness(&all_slow);
        assert!(f > 0.0 && f <= 1.0, "fitness {f} out of (0,1]");
    }

    #[test]
    fn makespan_prefers_fast_processor() {
        let batch = [task(0, 1000.0)];
        let procs = [proc(100.0, 0.0, 0.0), proc(500.0, 0.0, 0.0)];
        let p = BatchProblem::new(&batch, &procs, &config());
        let on_slow = Chromosome::from_queues(&[vec![0], vec![]]);
        let on_fast = Chromosome::from_queues(&[vec![], vec![0]]);
        assert!((p.makespan(&on_slow) - 10.0).abs() < 1e-12);
        assert!((p.makespan(&on_fast) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn comm_costs_steer_assignment_value() {
        // Equal rates, but processor 0's link is expensive. A schedule
        // using the cheap link must be fitter.
        let batch = [task(0, 100.0)];
        let procs = [proc(100.0, 0.0, 10.0), proc(100.0, 0.0, 0.1)];
        let p = BatchProblem::new(&batch, &procs, &config());
        let expensive = Chromosome::from_queues(&[vec![0], vec![]]);
        let cheap = Chromosome::from_queues(&[vec![], vec![0]]);
        assert!(p.fitness(&cheap) > p.fitness(&expensive));
    }

    /// Both objectives, for the equivalence tests below.
    const OBJECTIVES: [Fitness; 2] = [Fitness::RelativeError, Fitness::MakespanRatio];

    fn config_with(fitness: Fitness) -> PnConfig {
        PnConfig {
            fitness,
            ..config()
        }
    }

    #[test]
    fn combined_evaluate_matches_separate_calls() {
        let batch: Vec<Task> = (0..30).map(|i| task(i, 50.0 + 37.0 * i as f64)).collect();
        let procs = [
            proc(100.0, 250.0, 0.5),
            proc(200.0, 0.0, 0.25),
            proc(55.0, 10.0, 1.5),
        ];
        for fitness in OBJECTIVES {
            let p = BatchProblem::new(&batch, &procs, &config_with(fitness));
            let c = Chromosome::from_queues(&[
                (0..10).collect::<Vec<_>>(),
                (10..25).collect(),
                (25..30).collect(),
            ]);
            let (f, ms) = p.evaluate(&c);
            assert_eq!(f.to_bits(), p.fitness(&c).to_bits(), "{fitness:?}");
            assert_eq!(ms.to_bits(), p.makespan(&c).to_bits(), "{fitness:?}");
        }
    }

    #[test]
    fn zo_problem_makespan_by_hand() {
        let batch = [task(0, 100.0), task(1, 200.0)];
        let procs = [proc(100.0, 0.0, 0.5), proc(50.0, 50.0, 0.5)];
        let p = BatchProblem::new(&batch, &procs, &PnConfig::zo_preset());
        // Everything on processor 1: 50/50 + 300/50 = 7 (comm is off).
        let c = Chromosome::from_queues(&[vec![], vec![0, 1]]);
        assert!((p.makespan(&c) - 7.0).abs() < 1e-12);
        // Split: max(100/100, 50/50 + 200/50) = 5.
        let c2 = Chromosome::from_queues(&[vec![0], vec![1]]);
        assert!((p.makespan(&c2) - 5.0).abs() < 1e-12);
        assert!(p.fitness(&c2) > p.fitness(&c));
        // Normaliser 300/150 + 1 = 3: F = 3/5 and 3/7.
        assert!((p.fitness(&c2) - 0.6).abs() < 1e-12);
        assert!((p.fitness(&c) - 3.0 / 7.0).abs() < 1e-12);
    }

    /// ZO's normaliser `Σt/ΣP + max δⱼ` is not a lower bound (a recorded
    /// deviation): two rate-1 processors with loads [100, 0] and Σt = 10
    /// give 5 + 100 = 105, but the optimum makespan is 100, so every
    /// makespan in [100, 105] ties at fitness 1.0.
    #[test]
    fn zo_normaliser_is_not_a_lower_bound() {
        let batch = [task(0, 5.0), task(1, 5.0)];
        let procs = [proc(1.0, 100.0, 0.0), proc(1.0, 0.0, 0.0)];
        let p = BatchProblem::new(&batch, &procs, &PnConfig::zo_preset());
        let optimal = Chromosome::from_queues(&[vec![], vec![0, 1]]);
        let worse = Chromosome::from_queues(&[vec![0], vec![1]]);
        assert_eq!(p.makespan(&optimal), 100.0);
        assert_eq!(p.makespan(&worse), 105.0);
        assert_eq!(p.fitness(&optimal), 1.0);
        assert_eq!(p.fitness(&worse), 1.0, "105 s ties with the 100 s optimum");
        let worst = Chromosome::from_queues(&[vec![0, 1], vec![]]);
        assert!(p.fitness(&worst) < 1.0, "past the normaliser F drops");
    }

    #[test]
    fn large_clusters_spill_to_the_heap_identically() {
        // One processor past the stack-buffer bound: same answers.
        let n = super::STACK_PROCS + 1;
        let batch: Vec<Task> = (0..n as u32).map(|i| task(i, 100.0)).collect();
        let procs: Vec<ProcessorState> = (0..n).map(|_| proc(100.0, 0.0, 0.0)).collect();
        let p = BatchProblem::new(&batch, &procs, &config());
        let queues: Vec<Vec<u32>> = (0..n as u32).map(|i| vec![i]).collect();
        let c = Chromosome::from_queues(&queues);
        assert!(p.relative_error(&c) < 1e-9, "perfectly balanced");
        let (f, ms) = p.evaluate(&c);
        assert_eq!(f, 1.0);
        assert!((ms - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batch_problem_is_sync() {
        // The parallel evaluator shares `&BatchProblem` across worker
        // threads; losing `Sync` (e.g. by reintroducing interior
        // mutability) must fail to compile here first.
        fn assert_sync<T: Sync>() {}
        assert_sync::<BatchProblem<'static>>();
    }

    #[test]
    fn near_optimal_schedules_no_longer_tie() {
        // Two identical processors, two tasks 10+d / 10−d on separate
        // queues: ψ = 10, E = d·√2. With the paper's clamped 1/E both the
        // d = 0.2/√2 and d = 0.9/√2 schedules scored exactly 1.0 and
        // selection could not tell them apart; 1/(1+E) ranks them.
        let score = |e: f64| {
            let d = e / 2.0f64.sqrt();
            let batch = [task(0, 10.0 + d), task(1, 10.0 - d)];
            let procs = [proc(1.0, 0.0, 0.0), proc(1.0, 0.0, 0.0)];
            let p = BatchProblem::new(&batch, &procs, &config());
            let c = Chromosome::from_queues(&[vec![0], vec![1]]);
            p.fitness(&c)
        };
        let (near, far) = (score(0.2), score(0.9));
        assert!(
            near < 1.0 && far < 1.0,
            "imperfect schedules must not hit 1.0"
        );
        assert!(
            near > far,
            "E=0.2 ({near}) must outrank E=0.9 ({far}) — the old clamp tied them"
        );
    }

    #[test]
    #[should_panic(expected = "invalid size")]
    fn nan_task_size_is_rejected_up_front() {
        // Task fields are public, so a NaN can bypass Task::new; the
        // problem constructor must turn that into a diagnosable panic
        // instead of a partial_cmp crash deep inside the rebalance loop.
        let batch = [Task {
            id: TaskId(0),
            mflops: f64::NAN,
            arrival: SimTime::ZERO,
        }];
        let procs = [proc(100.0, 0.0, 0.0)];
        let _ = BatchProblem::new(&batch, &procs, &config());
    }

    #[test]
    fn swap_delta_matches_full_evaluation_bitwise() {
        for fitness in OBJECTIVES {
            swap_delta_matches_full_evaluation(fitness);
        }
    }

    fn swap_delta_matches_full_evaluation(fitness: Fitness) {
        use dts_distributions::{Prng, Rng};
        let batch: Vec<Task> = (0..40).map(|i| task(i, 10.0 + 13.7 * i as f64)).collect();
        let procs = [
            proc(100.0, 250.0, 0.5),
            proc(200.0, 0.0, 0.25),
            proc(55.0, 10.0, 1.5),
            proc(150.0, 40.0, 0.0),
        ];
        let p = BatchProblem::new(&batch, &procs, &config_with(fitness));
        let mut c = Chromosome::from_queues(&[
            (0..10).collect::<Vec<_>>(),
            (10..25).collect(),
            (25..33).collect(),
            (33..40).collect(),
        ]);
        let mut completions = Vec::new();
        p.evaluate_into(&c, &mut completions);
        let mut rng = Prng::seed_from(0xD17A);
        let mut deltas_taken = 0u32;
        for _ in 0..500 {
            let len = c.genes().len();
            let (i, j) = (rng.below(len), rng.below(len));
            c.genes_swap(i, j);
            let fresh = {
                let mut fresh_comps = Vec::new();
                let (f, ms) = p.evaluate_into(&c, &mut fresh_comps);
                (f, ms, fresh_comps)
            };
            match p.evaluate_swap_delta(&c, i, j, &mut completions) {
                Some((f, ms)) => {
                    deltas_taken += 1;
                    assert_eq!(f.to_bits(), fresh.0.to_bits(), "{fitness:?} drifted");
                    assert_eq!(ms.to_bits(), fresh.1.to_bits(), "makespan drifted");
                    for (a, b) in completions.iter().zip(&fresh.2) {
                        assert_eq!(a.to_bits(), b.to_bits(), "completions drifted");
                    }
                }
                None => completions = fresh.2,
            }
        }
        assert!(
            deltas_taken > 100,
            "task–task swaps should dominate ({deltas_taken}/500 deltas)"
        );
    }

    #[test]
    fn unconstrained_precedence_is_structurally_dropped() {
        let batch = [task(0, 100.0), task(1, 100.0)];
        let procs = [proc(100.0, 0.0, 0.0), proc(100.0, 0.0, 0.0)];
        let prec = SlotPrecedence::unconstrained(2);
        let p = BatchProblem::new(&batch, &procs, &config()).with_precedence(&prec);
        assert!(p.precedence().is_none(), "edge-free table must be dropped");
        // Identical epoch key to a problem never given a table: the memo
        // epoch is part of the no-edges bit-identity contract.
        let plain = BatchProblem::new(&batch, &procs, &config());
        assert_eq!(p.epoch_key(), plain.epoch_key());
    }

    #[test]
    fn dag_completion_times_charge_predecessor_finish() {
        // Slot 1 depends on slot 0, the two run on different processors:
        // C1 must wait for slot 0's finish instead of starting at δ.
        let batch = [task(0, 200.0), task(1, 100.0)];
        let procs = [proc(100.0, 0.0, 0.0), proc(100.0, 0.0, 0.0)];
        let prec = SlotPrecedence::new(vec![vec![], vec![0]]);
        let p = BatchProblem::new(&batch, &procs, &config()).with_precedence(&prec);
        let c = Chromosome::from_queues(&[vec![0], vec![1]]);
        let mut out = Vec::new();
        p.completion_times(&c, &mut out);
        // Slot 0 finishes at 2.0 on proc 0; slot 1 then runs 1.0 s on
        // proc 1, finishing at 3.0 — not at 1.0 as the independent walk
        // would claim.
        assert!((out[0] - 2.0).abs() < 1e-12);
        assert!((out[1] - 3.0).abs() < 1e-12);
        // Makespan reflects the precedence stall exactly.
        assert!((p.makespan(&c) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn dag_mode_declines_incremental_paths_and_repairs() {
        let batch = [task(0, 100.0), task(1, 100.0), task(2, 100.0)];
        let procs = [proc(100.0, 0.0, 0.0), proc(100.0, 0.0, 0.0)];
        let prec = SlotPrecedence::new(vec![vec![], vec![0], vec![0]]);
        let p = BatchProblem::new(&batch, &procs, &config()).with_precedence(&prec);
        // Swap delta declines: cross-queue coupling.
        let mut c = Chromosome::from_queues(&[vec![0, 1], vec![2]]);
        let mut comps = Vec::new();
        p.evaluate_into(&c, &mut comps);
        c.genes_swap(0, 1);
        assert!(p.evaluate_swap_delta(&c, 0, 1, &mut comps).is_none());
        // Repair is wired through the Problem trait: the swapped order
        // (1 before 0) violates the chain and is pulled back.
        assert!(p.repair(&mut c));
        assert_eq!(c.to_queues(), vec![vec![0, 1], vec![2]]);
        assert!(!p.repair(&mut c), "feasible order is the fixed point");
        // Improve declines in DAG mode.
        let mut rng = dts_distributions::Prng::seed_from(7);
        let (f, _) = p.evaluate_into(&c, &mut comps);
        assert!(p.improve(&mut c, f, &mut comps, &mut rng).is_none());
    }

    #[test]
    fn slot_precedence_maps_graph_edges_into_the_batch() {
        use dts_model::TaskGraph;
        // Global graph 0→1→2; the batch holds tasks 1 and 2 only, so the
        // edge 0→1 drops (0 is outside, i.e. already complete) and 1→2
        // maps to slots 0→1.
        let graph = TaskGraph::new(3, &[(0, 1), (1, 2)]).unwrap();
        let batch = [task(1, 10.0), task(2, 10.0)];
        let prec = slot_precedence(&batch, &graph);
        assert_eq!(prec.preds_of(0), &[] as &[u32]);
        assert_eq!(prec.preds_of(1), &[0]);
        // An all-edges-dropped batch yields the unconstrained table.
        let tail = [task(2, 10.0)];
        assert!(slot_precedence(&tail, &graph).is_unconstrained());
    }

    #[test]
    #[should_panic]
    fn empty_processors_rejected() {
        let batch = [task(0, 1.0)];
        let procs: [ProcessorState; 0] = [];
        let _ = BatchProblem::new(&batch, &procs, &config());
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        let batch = [task(0, 1.0)];
        let procs = [proc(0.0, 0.0, 0.0)];
        let _ = BatchProblem::new(&batch, &procs, &config());
    }
}
