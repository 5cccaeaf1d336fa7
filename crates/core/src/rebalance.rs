//! The rebalancing heuristic of §3.5.
//!
//! > "For each individual in the population, in each generation, we select
//! > the most heavily loaded processor. A task is then selected at random
//! > from another processor and if it is smaller than a task in the most
//! > heavily loaded processor, a swap is performed. We only allow a maximum
//! > of 5 random searches for a smaller task. If the resulting schedule is
//! > fitter, it is kept."
//!
//! The swap exchanges a *small* task from elsewhere with a *larger* task on
//! the bottleneck processor, shrinking the heaviest queue's load while
//! keeping queue lengths intact — a directed move no blind mutation would
//! find quickly.
//!
//! The caller supplies the schedule's per-processor completion times and
//! this function keeps them current: the heavy-processor scan reads them
//! directly, a candidate swap is costed by re-summing only the two affected
//! queues (`BatchProblem::queue_cost_substituted`), and on commit the two
//! entries are updated in place. Nothing is allocated and no fitness walk
//! runs: an attempt scans the genes up to the end of the heavy queue to
//! find its range, scans one side of it for the donor, and re-reads the
//! two affected queues — yet every number matches the full walk
//! bit-for-bit because affected queues are always re-accumulated in gene
//! order.

use dts_distributions::{Prng, Rng};
use dts_ga::{Chromosome, Gene};

use crate::fitness::BatchProblem;

/// The task slot at a position known to lie inside a queue.
#[inline]
fn task_slot(genes: &[Gene], pos: usize) -> u32 {
    match genes[pos] {
        Gene::Task(slot) => slot,
        Gene::Delim(_) => unreachable!("a queue holds only task genes"),
    }
}

/// One rebalance attempt. Returns the new fitness if a fitter schedule was
/// found and committed, `None` otherwise (the chromosome is unchanged).
///
/// `completions` must hold the schedule's current per-processor completion
/// times (as produced by `evaluate_into` / `completion_times`); on a commit
/// the two affected entries are updated so the vector stays current across
/// repeated attempts.
///
/// `probes` bounds the random searches for a larger task on the heaviest
/// processor (the paper uses 5).
pub fn rebalance_once(
    problem: &BatchProblem<'_>,
    c: &mut Chromosome,
    current_fitness: f64,
    completions: &mut [f64],
    probes: u32,
    rng: &mut Prng,
) -> Option<f64> {
    let n_procs = c.n_procs() as usize;
    if n_procs < 2 {
        return None;
    }
    debug_assert_eq!(completions.len(), n_procs);

    // ---- locate the most heavily loaded processor --------------------
    // Load = completion time (existing load + batch work + comm), matching
    // what the fitness function penalises. `total_cmp` keeps the scan
    // panic-free even if a NaN slips past the constructor's validation;
    // for the finite non-negative times it orders like `partial_cmp`.
    let heavy = completions
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("at least one processor");

    // ---- locate the heavy queue ---------------------------------------
    // A queue is the contiguous run of task genes between two delimiters,
    // so the heavy queue is the range `[heavy_start, heavy_end)` after the
    // `heavy`-th delimiter. Both scans below count instead of branching on
    // the gene kind: a delimiter is one gene in a few dozen, exactly the
    // pattern a branch predictor misses every time.
    let genes = c.genes();
    let is_delim = |g: &Gene| matches!(g, Gene::Delim(_));
    let mut heavy_start = 0usize;
    let mut crossed = 0usize;
    while crossed < heavy {
        crossed += is_delim(&genes[heavy_start]) as usize;
        heavy_start += 1;
    }
    let heavy_len = genes[heavy_start..]
        .iter()
        .position(is_delim)
        .unwrap_or(genes.len() - heavy_start);
    let n_donors = c.n_tasks() as usize - heavy_len;
    if heavy_len == 0 || n_donors == 0 {
        return None;
    }

    // ---- pick the random donor task ----------------------------------
    // The donor is the k-th task gene, in gene order, outside the heavy
    // queue. `heavy` delimiters precede the heavy queue, so the first
    // `heavy_start − heavy` ordinals lie before it and the rest after its
    // closing delimiter; one scan of that side finds the gene, its queue
    // and where that queue starts.
    let mut ordinal = rng.below(n_donors);
    let donors_before = heavy_start - heavy;
    let (mut donor_pos, mut donor_proc) = if ordinal < donors_before {
        (0, 0)
    } else {
        ordinal -= donors_before;
        (heavy_start + heavy_len + 1, heavy + 1)
    };
    let mut donor_start = donor_pos;
    loop {
        let delim = is_delim(&genes[donor_pos]);
        if !delim && ordinal == 0 {
            break;
        }
        ordinal -= !delim as usize;
        donor_proc += delim as usize;
        donor_pos += 1;
        if delim {
            donor_start = donor_pos;
        }
    }
    let donor_slot = task_slot(genes, donor_pos);
    let donor_size = problem.batch()[donor_slot as usize].mflops;

    // ---- probe for a larger task on the heavy processor --------------
    let mut swap = None;
    for _ in 0..probes.max(1) {
        let pos = heavy_start + rng.below(heavy_len);
        let slot = task_slot(genes, pos);
        if problem.batch()[slot as usize].mflops > donor_size {
            swap = Some((pos, slot));
            break;
        }
    }
    let (heavy_pos, heavy_slot) = swap?;

    // ---- cost the swap on the two affected queues only ----------------
    // Re-sum each queue in gene order with the candidate substitution in
    // place — the exact sums a full walk would produce after the swap — and
    // score the substituted completion vector. The chromosome itself is
    // only touched if the move wins.
    let new_heavy = problem.queue_cost_substituted(c, heavy, heavy_start, heavy_pos, donor_slot);
    let new_donor =
        problem.queue_cost_substituted(c, donor_proc, donor_start, donor_pos, heavy_slot);
    let new_fitness =
        problem.fitness_with_substitution(completions, (heavy, new_heavy), (donor_proc, new_donor));

    if new_fitness > current_fitness {
        c.genes_swap(donor_pos, heavy_pos);
        completions[heavy] = new_heavy;
        completions[donor_proc] = new_donor;
        Some(new_fitness)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PnConfig;
    use crate::fitness::ProcessorState;
    use dts_ga::Problem;
    use dts_model::{SimTime, Task, TaskId};
    use proptest::prelude::*;

    fn tasks(sizes: &[f64]) -> Vec<Task> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &m)| Task::new(TaskId(i as u32), m, SimTime::ZERO))
            .collect()
    }

    fn procs(n: usize) -> Vec<ProcessorState> {
        (0..n)
            .map(|_| ProcessorState {
                rate: 100.0,
                existing_load_mflops: 0.0,
                comm_cost: 0.0,
            })
            .collect()
    }

    fn completions_of(problem: &BatchProblem<'_>, c: &Chromosome) -> Vec<f64> {
        let mut out = Vec::new();
        problem.completion_times(c, &mut out);
        out
    }

    #[test]
    fn rebalance_moves_load_off_the_heavy_processor() {
        // Processor 0 holds two huge tasks; processor 1 a tiny one.
        let batch = tasks(&[1000.0, 1000.0, 10.0]);
        let ps = procs(2);
        let cfg = PnConfig::default();
        let problem = BatchProblem::new(&batch, &ps, &cfg);
        let mut c = Chromosome::from_queues(&[vec![0, 1], vec![2]]);
        let f0 = problem.fitness(&c);
        let mut completions = completions_of(&problem, &c);
        let mut rng = Prng::seed_from(1);
        let mut improved = false;
        for _ in 0..20 {
            if let Some(f) = rebalance_once(&problem, &mut c, f0, &mut completions, 5, &mut rng) {
                assert!(f > f0);
                improved = true;
                break;
            }
        }
        assert!(improved, "rebalance should find the obvious swap");
        // The big task moved off processor 0 in exchange for the small one.
        let queues = c.to_queues();
        let load0: f64 = queues[0].iter().map(|&s| batch[s as usize].mflops).sum();
        assert!(load0 < 2000.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rebalance_never_worsens() {
        let batch = tasks(&[500.0, 300.0, 200.0, 100.0, 50.0]);
        let ps = procs(3);
        let cfg = PnConfig::default();
        let problem = BatchProblem::new(&batch, &ps, &cfg);
        let mut c = Chromosome::from_queues(&[vec![0, 1], vec![2, 3], vec![4]]);
        let mut fitness = problem.fitness(&c);
        let mut completions = completions_of(&problem, &c);
        let mut rng = Prng::seed_from(2);
        for _ in 0..200 {
            if let Some(f) =
                rebalance_once(&problem, &mut c, fitness, &mut completions, 5, &mut rng)
            {
                assert!(f >= fitness, "keep-if-fitter violated");
                fitness = f;
            }
            assert!(c.validate().is_ok());
        }
    }

    #[test]
    fn maintained_completions_match_fresh_walk_bitwise() {
        // The in-place updates on commit must track the full walk exactly:
        // any drift here would silently desynchronise the delta-evaluation
        // and memo paths from the oracle.
        let batch = tasks(&[
            512.0, 480.0, 300.0, 250.0, 200.0, 130.0, 90.0, 60.0, 30.0, 10.0,
        ]);
        let ps = procs(4);
        let cfg = PnConfig::default();
        let problem = BatchProblem::new(&batch, &ps, &cfg);
        let mut c =
            Chromosome::from_queues(&[vec![0, 1, 2], vec![3, 4], vec![5, 6, 7], vec![8, 9]]);
        let mut fitness = problem.fitness(&c);
        let mut completions = completions_of(&problem, &c);
        let mut rng = Prng::seed_from(7);
        let mut commits = 0u32;
        for _ in 0..300 {
            if let Some(f) =
                rebalance_once(&problem, &mut c, fitness, &mut completions, 5, &mut rng)
            {
                fitness = f;
                commits += 1;
            }
            let fresh = completions_of(&problem, &c);
            for (a, b) in completions.iter().zip(&fresh) {
                assert_eq!(a.to_bits(), b.to_bits(), "maintained completions drifted");
            }
            assert_eq!(
                fitness.to_bits(),
                problem.fitness(&c).to_bits(),
                "maintained fitness drifted"
            );
        }
        assert!(commits > 0, "expected at least one committed rebalance");
    }

    /// The position-vector rebalance this module shipped before the
    /// range/ordinal form: index every task gene by queue, then pick. The
    /// oracle for the chromosome, the completions, the fitness and the RNG
    /// draw sequence.
    fn rebalance_once_reference(
        problem: &BatchProblem<'_>,
        c: &mut Chromosome,
        current_fitness: f64,
        completions: &mut [f64],
        probes: u32,
        rng: &mut Prng,
    ) -> Option<f64> {
        let n_procs = c.n_procs() as usize;
        if n_procs < 2 {
            return None;
        }
        let heavy = completions
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("at least one processor");

        let mut heavy_positions: Vec<usize> = Vec::new();
        let mut donor_positions: Vec<(usize, usize)> = Vec::new();
        let mut proc = 0usize;
        for (i, g) in c.genes().iter().enumerate() {
            match g {
                Gene::Task(_) if proc == heavy => heavy_positions.push(i),
                Gene::Task(_) => donor_positions.push((i, proc)),
                Gene::Delim(_) => proc += 1,
            }
        }
        if heavy_positions.is_empty() || donor_positions.is_empty() {
            return None;
        }

        let slot_at = |c: &Chromosome, pos: usize| match c.genes()[pos] {
            Gene::Task(s) => s,
            Gene::Delim(_) => unreachable!("positions contain only tasks"),
        };
        let (donor_pos, donor_proc) = donor_positions[rng.below(donor_positions.len())];
        let donor_slot = slot_at(c, donor_pos);
        let donor_size = problem.batch()[donor_slot as usize].mflops;

        let mut swap = None;
        for _ in 0..probes.max(1) {
            let pos = heavy_positions[rng.below(heavy_positions.len())];
            let slot = slot_at(c, pos);
            if problem.batch()[slot as usize].mflops > donor_size {
                swap = Some((pos, slot));
                break;
            }
        }
        let (heavy_pos, heavy_slot) = swap?;

        let new_heavy = problem.queue_cost_substituted_reference(
            c,
            heavy,
            &heavy_positions,
            heavy_pos,
            donor_slot,
        );
        let donor_queue: Vec<usize> = donor_positions
            .iter()
            .filter(|&&(_, p)| p == donor_proc)
            .map(|&(pos, _)| pos)
            .collect();
        let new_donor = problem.queue_cost_substituted_reference(
            c,
            donor_proc,
            &donor_queue,
            donor_pos,
            heavy_slot,
        );
        let new_fitness = problem.fitness_with_substitution(
            completions,
            (heavy, new_heavy),
            (donor_proc, new_donor),
        );

        if new_fitness > current_fitness {
            c.genes_swap(donor_pos, heavy_pos);
            completions[heavy] = new_heavy;
            completions[donor_proc] = new_donor;
            Some(new_fitness)
        } else {
            None
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Range/ordinal rebalance against the reference over a run of
        /// attempts on random batches: chromosome, every completion's
        /// bits, the returned fitness bits and the next RNG word agree
        /// after each attempt. `place` puts the initially heaviest queue
        /// first / in the middle / last; `empty_pct` leaves queues empty;
        /// `m` reaches 2.
        #[test]
        fn range_rebalance_matches_reference(
            h in 1usize..50,
            m in 2usize..9,
            place in 0usize..3,
            empty_pct in 0usize..60,
            probes in 0u32..7,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = Prng::seed_from(seed);
            let sizes: Vec<f64> = (0..h).map(|_| 1.0 + rng.below(2000) as f64 * 0.37).collect();
            let batch = tasks(&sizes);
            let ps: Vec<ProcessorState> = (0..m)
                .map(|_| ProcessorState {
                    rate: 50.0 + rng.below(100) as f64,
                    existing_load_mflops: rng.below(500) as f64,
                    comm_cost: rng.below(10) as f64 * 0.05,
                })
                .collect();
            let cfg = PnConfig::default();
            let problem = BatchProblem::new(&batch, &ps, &cfg);

            // Deal the slots over the non-empty queues, half of them onto
            // the queue chosen to start heaviest.
            let target = [0, m / 2, m - 1][place];
            let open: Vec<usize> = (0..m)
                .filter(|&j| j == target || rng.below(100) >= empty_pct)
                .collect();
            let mut queues = vec![Vec::new(); m];
            for slot in 0..h as u32 {
                let j = if rng.below(2) == 0 { target } else { open[rng.below(open.len())] };
                queues[j].push(slot);
            }
            let mut c = Chromosome::from_queues(&queues);
            let mut want_c = c.clone();
            let mut fitness = problem.fitness(&c);
            let mut completions = completions_of(&problem, &c);
            let mut want_completions = completions.clone();
            let mut want_rng = rng.clone();

            for _ in 0..12 {
                let got = rebalance_once(&problem, &mut c, fitness, &mut completions, probes, &mut rng);
                let want = rebalance_once_reference(
                    &problem,
                    &mut want_c,
                    fitness,
                    &mut want_completions,
                    probes,
                    &mut want_rng,
                );
                prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
                prop_assert_eq!(&c, &want_c);
                for (a, b) in completions.iter().zip(&want_completions) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                prop_assert_eq!(rng.clone().next_u64(), want_rng.clone().next_u64());
                fitness = got.unwrap_or(fitness);
            }
        }
    }

    #[test]
    fn single_processor_is_noop() {
        let batch = tasks(&[1.0, 2.0]);
        let ps = procs(1);
        let cfg = PnConfig::default();
        let problem = BatchProblem::new(&batch, &ps, &cfg);
        let mut c = Chromosome::from_queues(&[vec![0, 1]]);
        let f = problem.fitness(&c);
        let mut completions = completions_of(&problem, &c);
        let mut rng = Prng::seed_from(3);
        assert!(rebalance_once(&problem, &mut c, f, &mut completions, 5, &mut rng).is_none());
    }

    #[test]
    fn empty_donor_queues_are_handled() {
        // All tasks on the heavy processor: nothing to donate.
        let batch = tasks(&[10.0, 20.0]);
        let ps = procs(2);
        let cfg = PnConfig::default();
        let problem = BatchProblem::new(&batch, &ps, &cfg);
        let mut c = Chromosome::from_queues(&[vec![0, 1], vec![]]);
        let f = problem.fitness(&c);
        let mut completions = completions_of(&problem, &c);
        let mut rng = Prng::seed_from(4);
        assert!(rebalance_once(&problem, &mut c, f, &mut completions, 5, &mut rng).is_none());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn equal_sizes_cannot_swap() {
        // Donor task is never *smaller* than a heavy task: strict inequality.
        let batch = tasks(&[100.0, 100.0, 100.0]);
        let ps = procs(2);
        let cfg = PnConfig::default();
        let problem = BatchProblem::new(&batch, &ps, &cfg);
        let mut c = Chromosome::from_queues(&[vec![0, 1], vec![2]]);
        let f = problem.fitness(&c);
        let mut completions = completions_of(&problem, &c);
        let mut rng = Prng::seed_from(5);
        for _ in 0..50 {
            assert!(rebalance_once(&problem, &mut c, f, &mut completions, 5, &mut rng).is_none());
        }
    }
}
