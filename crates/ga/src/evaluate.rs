//! Deterministic serial and parallel fitness evaluation.
//!
//! Fitness evaluation — simulating every candidate schedule in the
//! population — is where a GA scheduler spends essentially all of its
//! wall-clock, so it is the one phase worth parallelising. The hard
//! constraint is the repo's determinism contract: *same seed ⇒ bit-identical
//! output*, regardless of how many threads run. Two facts make that
//! achievable:
//!
//! 1. Evaluation draws no random numbers: [`Problem::evaluate_into`] is a pure
//!    function of the chromosome, so the RNG stream is untouched by where
//!    (or in what order) evaluations execute.
//! 2. Results are written back **by chromosome index**, so the population
//!    ordering — and therefore selection pressure, crossover pairings, and
//!    every downstream RNG draw — is independent of thread scheduling.
//!
//! The engine never calls [`Problem::evaluate_into`] directly during a
//! generation. Instead it moves the chromosomes that need (re)evaluation,
//! each with its population slot's own completions buffer, into a batch of
//! [`Evaluated`] records, has a [`BatchEval`] context evaluate the records
//! **in place**, and moves each record back into the slot its index names.
//! Nothing is copied and, once the buffers have grown to size, nothing is
//! allocated. [`Evaluator`] selects the context:
//!
//! * [`Evaluator::Serial`] walks the records in order on the calling
//!   thread — the reference implementation.
//! * [`Evaluator::ThreadPool`] spawns `workers` scoped threads
//!   ([`std::thread::scope`]) that live for the duration of one GA run, so
//!   the spawn cost is amortised over every generation. Each batch is
//!   split into contiguous chunks of records that flow to the workers over
//!   a shared channel; every worker writes into the records' own buffers
//!   and sends the chunk back, and the records return to their positions.
//!
//! ```
//! use dts_ga::{Chromosome, Evaluator, Problem};
//!
//! struct Longest;
//! impl Problem for Longest {
//!     fn evaluate_into(&self, c: &Chromosome, completions: &mut Vec<f64>) -> (f64, f64) {
//!         completions.clear();
//!         let makespan = c.queue_lengths().into_iter().max().unwrap_or(0) as f64;
//!         (1.0 / (1.0 + makespan), makespan)
//!     }
//! }
//!
//! let pop: Vec<Chromosome> = vec![
//!     Chromosome::from_queues(&[vec![0, 1, 2], vec![]]),
//!     Chromosome::from_queues(&[vec![0], vec![1, 2]]),
//! ];
//! let jobs = |pop: &[Chromosome]| -> Vec<(usize, Chromosome)> {
//!     pop.iter().cloned().enumerate().collect()
//! };
//! let serial = Evaluator::Serial.with_context(&Longest, |ctx| ctx.eval_batch(jobs(&pop)));
//! let parallel =
//!     Evaluator::ThreadPool { workers: 2 }.with_context(&Longest, |ctx| ctx.eval_batch(jobs(&pop)));
//! // Bit-identical results, whatever the thread count.
//! for (s, p) in serial.iter().zip(&parallel) {
//!     assert_eq!(s.index, p.index);
//!     assert_eq!(s.fitness.to_bits(), p.fitness.to_bits());
//!     assert_eq!(s.makespan.to_bits(), p.makespan.to_bits());
//! }
//! ```

use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use crate::encoding::Chromosome;
use crate::engine::Problem;

/// How a population batch is evaluated. Stored in
/// [`GaConfig::evaluator`](crate::GaConfig::evaluator); both variants
/// produce bit-identical results (`tests/determinism.rs` locks this in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Evaluator {
    /// Evaluate on the calling thread, in index order.
    #[default]
    Serial,
    /// Evaluate on `workers` scoped threads. `workers == 0` resolves to
    /// [`std::thread::available_parallelism`] at run time; `workers == 1`
    /// degenerates to the serial path (no threads are spawned).
    ThreadPool {
        /// Worker thread count (0 = all available cores).
        workers: usize,
    },
}

impl Evaluator {
    /// Convenience constructor: `threads(1)` is [`Evaluator::Serial`],
    /// anything else a [`Evaluator::ThreadPool`] of that size.
    pub fn threads(workers: usize) -> Self {
        if workers == 1 {
            Evaluator::Serial
        } else {
            Evaluator::ThreadPool { workers }
        }
    }

    /// The number of worker threads this evaluator will actually use.
    pub fn effective_workers(&self) -> usize {
        match *self {
            Evaluator::Serial => 1,
            Evaluator::ThreadPool { workers: 0 } => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Evaluator::ThreadPool { workers } => workers,
        }
    }

    /// Runs `f` with an evaluation context.
    ///
    /// For [`Evaluator::ThreadPool`] the workers are spawned once, live for
    /// the whole closure (amortising spawn cost over every
    /// [`BatchEval::eval_batch`] call `f` makes — e.g. every generation of
    /// a GA run), and are joined before `with_context` returns.
    pub fn with_context<P, R>(&self, problem: &P, f: impl FnOnce(&dyn BatchEval) -> R) -> R
    where
        P: Problem + Sync,
    {
        let workers = self.effective_workers();
        if workers <= 1 {
            return f(&SerialCtx { problem });
        }
        std::thread::scope(|scope| {
            let (job_tx, job_rx) = mpsc::channel::<Chunk>();
            let (res_tx, res_rx) = mpsc::channel::<ChunkResult>();
            let job_rx = Arc::new(Mutex::new(job_rx));
            for _ in 0..workers {
                let job_rx = Arc::clone(&job_rx);
                let res_tx = res_tx.clone();
                scope.spawn(move || loop {
                    // Holding the lock across the blocking `recv` is the
                    // standard shared-channel hand-off: exactly one worker
                    // waits on the channel, the rest wait on the mutex.
                    let (start, mut chunk) = match job_rx.lock().expect("job queue poisoned").recv()
                    {
                        Ok(job) => job,
                        Err(_) => break, // coordinator hung up: run is over
                    };
                    // A panicking `evaluate` must not strand the
                    // coordinator in `recv` (the other workers keep the
                    // result channel open); ship the panic back instead so
                    // `eval_in_place` can resurface it on the calling thread.
                    let done = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        for record in &mut chunk {
                            record.evaluate(problem);
                        }
                        (start, chunk)
                    }));
                    let stop = done.is_err();
                    if res_tx.send(done.map_err(panic_message)).is_err() || stop {
                        break;
                    }
                });
            }
            let ctx = PoolCtx {
                job_tx,
                res_rx,
                workers,
            };
            let out = f(&ctx);
            drop(ctx); // hang up the job channel so the workers exit
            out
        })
    }
}

/// A run of records moved out of a batch, with the position of its first
/// record in that batch.
type Chunk = (usize, Vec<Evaluated>);

/// What a worker sends back per chunk: the evaluated records, or the message
/// of a panic caught inside `Problem::evaluate_into` (resurfaced on the calling
/// thread).
type ChunkResult = Result<Chunk, String>;

/// Best-effort extraction of a panic payload's message.
///
/// `&str` and `String` payloads (what `panic!` produces) pass through
/// verbatim. For `std::panic::panic_any` payloads the value is rendered
/// when the type is a common primitive; anything else is reported by its
/// [`std::any::TypeId`], which at least distinguishes *which* payload type
/// a worker died with instead of collapsing everything to one string.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    macro_rules! try_render {
        ($($ty:ty),+ $(,)?) => {$(
            if let Some(v) = payload.downcast_ref::<$ty>() {
                return format!("{v:?} (panic payload of type {})", stringify!($ty));
            }
        )+};
    }
    try_render!(i32, u32, i64, u64, i128, u128, usize, isize, f32, f64, bool, char);
    format!(
        "non-string panic payload ({:?})",
        std::any::Any::type_id(&*payload)
    )
}

/// One chromosome queued for evaluation, and its result.
///
/// A record is evaluated in place: [`BatchEval::eval_in_place`] reads
/// `chrom` and overwrites `fitness`, `makespan` and `completions`, reusing
/// the buffer the record arrived with.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluated {
    /// The population index the result must be written back to.
    pub index: usize,
    /// The evaluated chromosome, returned unchanged.
    pub chrom: Chromosome,
    /// Its fitness, as [`Problem::evaluate_into`] returns it.
    pub fitness: f64,
    /// Its makespan, as [`Problem::evaluate_into`] returns it.
    pub makespan: f64,
    /// Per-processor completion times, when the problem exports them via
    /// [`Problem::evaluate_into`] (empty otherwise). The engine keeps them
    /// alongside each individual so later single-swap edits can be
    /// delta-evaluated instead of re-walking the chromosome.
    pub completions: Vec<f64>,
}

impl Evaluated {
    /// A record holding no chromosome; allocation-free, so a record can be
    /// moved out of a batch and back.
    pub(crate) fn vacant() -> Self {
        Self {
            index: 0,
            chrom: Chromosome::vacant(),
            fitness: 0.0,
            makespan: 0.0,
            completions: Vec::new(),
        }
    }

    fn evaluate<P: Problem + ?Sized>(&mut self, problem: &P) {
        (self.fitness, self.makespan) = problem.evaluate_into(&self.chrom, &mut self.completions);
    }
}

/// An active evaluation context: evaluates batches of records in place.
///
/// Obtained through [`Evaluator::with_context`]. Implementations must set
/// every record's `fitness`/`makespan`/`completions` to exactly what
/// [`Problem::evaluate_into`] returns for its `chrom` on the calling
/// thread — the determinism suite compares the two bitwise — and leave
/// each record at its position in the batch.
pub trait BatchEval {
    /// Evaluates every record in place.
    fn eval_in_place(&self, records: &mut [Evaluated]);

    /// Evaluates every `(index, chromosome)` job and returns the results in
    /// submission order: [`BatchEval::eval_in_place`] over fresh records.
    fn eval_batch(&self, jobs: Vec<(usize, Chromosome)>) -> Vec<Evaluated> {
        let mut records: Vec<Evaluated> = jobs
            .into_iter()
            .map(|(index, chrom)| Evaluated {
                index,
                chrom,
                ..Evaluated::vacant()
            })
            .collect();
        self.eval_in_place(&mut records);
        records
    }
}

/// Serial evaluation context: walks the records in order on the calling
/// thread.
struct SerialCtx<'a, P: ?Sized> {
    problem: &'a P,
}

impl<P: Problem + ?Sized> BatchEval for SerialCtx<'_, P> {
    fn eval_in_place(&self, records: &mut [Evaluated]) {
        for record in records {
            record.evaluate(self.problem);
        }
    }
}

struct PoolCtx {
    job_tx: mpsc::Sender<Chunk>,
    res_rx: mpsc::Receiver<ChunkResult>,
    workers: usize,
}

impl BatchEval for PoolCtx {
    fn eval_in_place(&self, records: &mut [Evaluated]) {
        // Contiguous chunks, ~2 per worker: coarse enough to keep channel
        // traffic negligible, fine enough to absorb stragglers. Records are
        // moved out (a vacant record holds their place) and moved back; the
        // workers evaluate them in their own buffers.
        let chunk_len = records.len().div_ceil(self.workers * 2).max(1);
        let mut sent = 0usize;
        for (k, chunk) in records.chunks_mut(chunk_len).enumerate() {
            let owned = chunk
                .iter_mut()
                .map(|r| std::mem::replace(r, Evaluated::vacant()))
                .collect();
            self.job_tx
                .send((k * chunk_len, owned))
                .expect("evaluation workers alive");
            sent += 1;
        }
        for _ in 0..sent {
            match self.res_rx.recv().expect("evaluation workers alive") {
                Ok((start, done)) => {
                    for (slot, record) in records[start..].iter_mut().zip(done) {
                        *slot = record;
                    }
                }
                // Re-raise a worker-side panic here: unwinding drops the
                // job channel, the idle workers exit, and `thread::scope`
                // joins them before the panic propagates further.
                Err(msg) => panic!("evaluation worker panicked: {msg}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Balance;
    impl Problem for Balance {
        fn evaluate_into(&self, c: &Chromosome, completions: &mut Vec<f64>) -> (f64, f64) {
            completions.clear();
            let makespan = c.queue_lengths().into_iter().max().unwrap_or(0) as f64;
            (1.0 / (1.0 + makespan), makespan)
        }
    }

    fn population(n: usize) -> Vec<Chromosome> {
        (0..n)
            .map(|i| {
                let mut queues = vec![Vec::new(); 4];
                for t in 0..12u32 {
                    queues[(t as usize + i) % 4].push(t);
                }
                Chromosome::from_queues(&queues)
            })
            .collect()
    }

    fn jobs(pop: &[Chromosome]) -> Vec<(usize, Chromosome)> {
        pop.iter().cloned().enumerate().collect()
    }

    fn eval_with(evaluator: Evaluator, pop: &[Chromosome]) -> Vec<Evaluated> {
        evaluator.with_context(&Balance, |ctx| ctx.eval_batch(jobs(pop)))
    }

    #[test]
    fn serial_results_are_indexed_and_complete() {
        let pop = population(7);
        let out = eval_with(Evaluator::Serial, &pop);
        assert_eq!(out.len(), 7);
        for (i, e) in out.iter().enumerate() {
            assert_eq!(e.index, i);
            assert_eq!(e.chrom, pop[i]);
            let (fitness, makespan) = Balance.evaluate_into(&pop[i], &mut Vec::new());
            assert_eq!(e.fitness, fitness);
            assert_eq!(e.makespan, makespan);
        }
    }

    #[test]
    fn pool_matches_serial_bitwise() {
        let pop = population(33);
        let serial = eval_with(Evaluator::Serial, &pop);
        for workers in [2, 3, 8] {
            let par = eval_with(Evaluator::ThreadPool { workers }, &pop);
            assert_eq!(par.len(), serial.len(), "workers={workers}");
            for (s, p) in serial.iter().zip(&par) {
                assert_eq!(s.index, p.index);
                assert_eq!(s.chrom, p.chrom);
                assert_eq!(s.fitness.to_bits(), p.fitness.to_bits());
                assert_eq!(s.makespan.to_bits(), p.makespan.to_bits());
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        for evaluator in [Evaluator::Serial, Evaluator::ThreadPool { workers: 4 }] {
            let out = evaluator.with_context(&Balance, |ctx| ctx.eval_batch(Vec::new()));
            assert!(out.is_empty());
        }
    }

    #[test]
    fn many_batches_reuse_the_same_workers() {
        let pop = population(10);
        let sums: Vec<f64> = Evaluator::ThreadPool { workers: 4 }.with_context(&Balance, |ctx| {
            (0..50)
                .map(|_| ctx.eval_batch(jobs(&pop)).iter().map(|e| e.fitness).sum())
                .collect()
        });
        assert!(sums.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn worker_resolution() {
        assert_eq!(Evaluator::Serial.effective_workers(), 1);
        assert_eq!(Evaluator::ThreadPool { workers: 3 }.effective_workers(), 3);
        assert!(Evaluator::ThreadPool { workers: 0 }.effective_workers() >= 1);
        assert_eq!(Evaluator::threads(1), Evaluator::Serial);
        assert_eq!(Evaluator::threads(4), Evaluator::ThreadPool { workers: 4 });
        assert_eq!(Evaluator::default(), Evaluator::Serial);
    }

    #[test]
    #[should_panic(expected = "evaluation worker panicked")]
    fn worker_panic_propagates_instead_of_hanging() {
        struct Explosive;
        impl Problem for Explosive {
            fn evaluate_into(&self, _c: &Chromosome, _completions: &mut Vec<f64>) -> (f64, f64) {
                panic!("boom")
            }
        }
        let pop = population(8);
        Evaluator::ThreadPool { workers: 2 }
            .with_context(&Explosive, |ctx| ctx.eval_batch(jobs(&pop)));
    }

    #[test]
    #[should_panic(expected = "(panic payload of type i32)")]
    fn worker_panic_with_structured_payload_stays_diagnosable() {
        struct Structured;
        impl Problem for Structured {
            fn evaluate_into(&self, _c: &Chromosome, _completions: &mut Vec<f64>) -> (f64, f64) {
                std::panic::panic_any(42i32)
            }
        }
        let pop = population(8);
        Evaluator::ThreadPool { workers: 2 }
            .with_context(&Structured, |ctx| ctx.eval_batch(jobs(&pop)));
    }

    #[test]
    fn panic_message_preserves_payload_information() {
        assert_eq!(panic_message(Box::new("boom")), "boom");
        assert_eq!(panic_message(Box::new(String::from("sos"))), "sos");
        assert_eq!(
            panic_message(Box::new(42i32)),
            "42 (panic payload of type i32)"
        );
        assert_eq!(
            panic_message(Box::new(2.5f64)),
            "2.5 (panic payload of type f64)"
        );
        assert_eq!(
            panic_message(Box::new(true)),
            "true (panic payload of type bool)"
        );
        // Unrenderable payloads still report a distinguishing TypeId.
        let msg = panic_message(Box::new(vec![1u8, 2]));
        assert!(msg.starts_with("non-string panic payload ("), "{msg}");
    }

    #[test]
    fn single_worker_pool_degenerates_to_serial() {
        let pop = population(5);
        let a = eval_with(Evaluator::ThreadPool { workers: 1 }, &pop);
        let b = eval_with(Evaluator::Serial, &pop);
        assert_eq!(a, b);
    }
}
