//! Initial-population generation (§3.3).
//!
//! > "The initial population is generated using a list scheduling
//! > heuristic. A percentage of tasks are randomly assigned to processors
//! > with the remaining tasks being assigned to the processors that will
//! > finish processing them the earliest. This leads to a well balanced
//! > randomised initial population."
//!
//! The percentage is drawn per individual from a configurable range
//! (ARCHITECTURE.md, "Deviations from the paper"): low fractions give
//! near-greedy seeds, high fractions give diverse random seeds; mixing both
//! makes the initial population "well balanced \[and\] randomised".

use dts_distributions::{Prng, Rng};
use dts_ga::Chromosome;
use dts_model::Task;

use crate::fitness::ProcessorState;

/// Generates one list-scheduled individual with the given random fraction.
///
/// Tasks are visited in shuffled order; a `random_fraction` share of them
/// is placed uniformly at random, the rest go to the processor that would
/// finish them earliest given everything placed so far (including existing
/// load and communication estimates).
pub fn list_scheduled_individual(
    batch: &[Task],
    procs: &[ProcessorState],
    random_fraction: f64,
    rng: &mut Prng,
) -> Chromosome {
    assert!(!procs.is_empty());
    let m = procs.len();
    let h = batch.len();

    let mut order: Vec<u32> = (0..h as u32).collect();
    rng.shuffle(&mut order);
    let n_random = ((h as f64) * random_fraction.clamp(0.0, 1.0)).round() as usize;

    let mut queues: Vec<Vec<u32>> = vec![Vec::new(); m];
    // Running completion estimate per processor: δⱼ + assigned work.
    let mut completion: Vec<f64> = procs.iter().map(ProcessorState::delta).collect();

    for (k, &slot) in order.iter().enumerate() {
        let t = &batch[slot as usize];
        let j = if k < n_random {
            rng.below(m)
        } else {
            earliest_finish_proc(&completion, t, procs)
        };
        completion[j] += t.mflops / procs[j].rate + procs[j].comm_cost;
        queues[j].push(slot);
    }

    Chromosome::from_queues(&queues)
}

/// The §3.3 greedy placement step, shared by the list-scheduling
/// initialiser and the warm-start remap: index of the processor that
/// would finish `t` earliest — argminⱼ (completionⱼ + t/Pⱼ + commⱼ).
fn earliest_finish_proc(completion: &[f64], t: &Task, procs: &[ProcessorState]) -> usize {
    let mut best = 0usize;
    let mut best_finish = f64::INFINITY;
    for (j, p) in procs.iter().enumerate() {
        let finish = completion[j] + t.mflops / p.rate + p.comm_cost;
        if finish < best_finish {
            best_finish = finish;
            best = j;
        }
    }
    best
}

/// Remaps a chromosome evolved for a *previous* batch onto a new batch's
/// shape, for warm-starting the next GA run
/// ([`crate::config::SeedStrategy::CarryOver`]).
///
/// Genes are batch-local slot indices, so a carried elite cannot be reused
/// verbatim: the new batch has different tasks, a different size, and
/// possibly a different processor count. The remap keeps what *is*
/// transferable — the processor-queue structure:
///
/// * slots that exist in both batches (`slot < batch.len()`) keep their
///   processor and their relative queue position;
/// * slots the old batch had but the new one lacks are dropped;
/// * slots the new batch adds (or whose processor no longer exists) are
///   placed on the earliest-finishing processor given everything placed so
///   far — the greedy arm of the §3.3 initialiser.
///
/// The result is always a valid chromosome for `(batch, procs)`, and the
/// function draws no randomness, so warm-started runs stay deterministic.
pub fn remap_elite(prev: &Chromosome, batch: &[Task], procs: &[ProcessorState]) -> Chromosome {
    assert!(!procs.is_empty());
    let m = procs.len();
    let h = batch.len();

    let mut queues: Vec<Vec<u32>> = vec![Vec::new(); m];
    let mut placed = vec![false; h];
    for (p, slot) in prev.assignments() {
        if p < m && (slot as usize) < h {
            placed[slot as usize] = true;
            queues[p].push(slot);
        }
    }

    // Completion estimate per processor over what was kept, then fill the
    // missing slots earliest-finish (ascending slot order: deterministic).
    let mut completion: Vec<f64> = procs.iter().map(ProcessorState::delta).collect();
    for (j, q) in queues.iter().enumerate() {
        for &slot in q {
            completion[j] += batch[slot as usize].mflops / procs[j].rate + procs[j].comm_cost;
        }
    }
    for (slot, done) in placed.iter().enumerate() {
        if *done {
            continue;
        }
        let t = &batch[slot];
        let best = earliest_finish_proc(&completion, t, procs);
        completion[best] += t.mflops / procs[best].rate + procs[best].comm_cost;
        queues[best].push(slot as u32);
    }

    Chromosome::from_queues(&queues)
}

/// Remaps per-island carried populations onto a new batch's shape for
/// island-model warm starts: island `k` of the output is the first
/// `elites` chromosomes of `carried[k]`, each remapped with
/// [`remap_elite`] against the *same* `(batch, procs)`.
///
/// Every island is remapped independently — elites never move between
/// islands here (migration is the GA engine's job, not the carry-over's),
/// so each island's evolved niche survives a batch-shape change intact.
/// Like [`remap_elite`] this draws no randomness.
pub fn remap_islands(
    carried: &[Vec<Chromosome>],
    elites: usize,
    batch: &[Task],
    procs: &[ProcessorState],
) -> Vec<Vec<Chromosome>> {
    carried
        .iter()
        .map(|island| {
            island
                .iter()
                .take(elites)
                .map(|c| remap_elite(c, batch, procs))
                .collect()
        })
        .collect()
}

/// Generates a whole initial population. Each individual draws its own
/// random fraction from `fraction_range`.
pub fn initial_population(
    batch: &[Task],
    procs: &[ProcessorState],
    population_size: usize,
    fraction_range: (f64, f64),
    rng: &mut Prng,
) -> Vec<Chromosome> {
    let (lo, hi) = fraction_range;
    (0..population_size)
        .map(|_| {
            let f = if hi > lo { rng.range_f64(lo, hi) } else { lo };
            list_scheduled_individual(batch, procs, f, rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_model::{SimTime, TaskId};

    fn batch(n: usize, size: f64) -> Vec<Task> {
        (0..n)
            .map(|i| Task::new(TaskId(i as u32), size, SimTime::ZERO))
            .collect()
    }

    fn uniform_procs(n: usize, rate: f64) -> Vec<ProcessorState> {
        (0..n)
            .map(|_| ProcessorState {
                rate,
                existing_load_mflops: 0.0,
                comm_cost: 0.0,
            })
            .collect()
    }

    #[test]
    fn individuals_are_valid_permutations() {
        let b = batch(37, 10.0);
        let p = uniform_procs(5, 100.0);
        let mut rng = Prng::seed_from(1);
        for f in [0.0, 0.3, 1.0] {
            let c = list_scheduled_individual(&b, &p, f, &mut rng);
            assert!(c.validate().is_ok());
            assert_eq!(c.n_tasks(), 37);
            assert_eq!(c.n_procs(), 5);
        }
    }

    #[test]
    fn zero_fraction_is_well_balanced() {
        // Pure earliest-finish on identical processors/tasks balances the
        // queues to within one task.
        let b = batch(50, 10.0);
        let p = uniform_procs(5, 100.0);
        let mut rng = Prng::seed_from(2);
        let c = list_scheduled_individual(&b, &p, 0.0, &mut rng);
        let lens = c.queue_lengths();
        assert!(lens.iter().all(|&l| l == 10), "{lens:?}");
    }

    #[test]
    fn greedy_respects_heterogeneous_rates() {
        // A 4× faster processor should receive roughly 4× the work.
        let b = batch(100, 10.0);
        let p = vec![
            ProcessorState {
                rate: 400.0,
                existing_load_mflops: 0.0,
                comm_cost: 0.0,
            },
            ProcessorState {
                rate: 100.0,
                existing_load_mflops: 0.0,
                comm_cost: 0.0,
            },
        ];
        let mut rng = Prng::seed_from(3);
        let c = list_scheduled_individual(&b, &p, 0.0, &mut rng);
        let lens = c.queue_lengths();
        assert!(
            lens[0] >= 75 && lens[0] <= 85,
            "fast processor got {} of 100",
            lens[0]
        );
    }

    #[test]
    fn greedy_accounts_for_existing_load() {
        // Processor 0 is pre-loaded; the greedy pass must favour 1 first.
        let b = batch(2, 10.0);
        let p = vec![
            ProcessorState {
                rate: 100.0,
                existing_load_mflops: 10_000.0,
                comm_cost: 0.0,
            },
            ProcessorState {
                rate: 100.0,
                existing_load_mflops: 0.0,
                comm_cost: 0.0,
            },
        ];
        let mut rng = Prng::seed_from(4);
        let c = list_scheduled_individual(&b, &p, 0.0, &mut rng);
        assert_eq!(c.queue_lengths(), vec![0, 2]);
    }

    #[test]
    fn greedy_avoids_expensive_links() {
        let b = batch(1, 10.0);
        let p = vec![
            ProcessorState {
                rate: 100.0,
                existing_load_mflops: 0.0,
                comm_cost: 100.0,
            },
            ProcessorState {
                rate: 100.0,
                existing_load_mflops: 0.0,
                comm_cost: 0.0,
            },
        ];
        let mut rng = Prng::seed_from(5);
        let c = list_scheduled_individual(&b, &p, 0.0, &mut rng);
        assert_eq!(c.queue_lengths(), vec![0, 1]);
    }

    #[test]
    fn full_random_fraction_spreads_loosely() {
        let b = batch(200, 10.0);
        let p = uniform_procs(4, 100.0);
        let mut rng = Prng::seed_from(6);
        let c = list_scheduled_individual(&b, &p, 1.0, &mut rng);
        let lens = c.queue_lengths();
        // Random placement: every processor gets something, but exact
        // balance is unlikely.
        assert!(lens.iter().all(|&l| l > 0));
        assert_eq!(lens.iter().sum::<usize>(), 200);
    }

    #[test]
    fn population_has_requested_size_and_diversity() {
        let b = batch(60, 10.0);
        let p = uniform_procs(6, 100.0);
        let mut rng = Prng::seed_from(7);
        let pop = initial_population(&b, &p, 20, (0.5, 1.0), &mut rng);
        assert_eq!(pop.len(), 20);
        assert!(pop.iter().all(|c| c.validate().is_ok()));
        // Distinctness via the content digest (sort + dedup): no hash-set,
        // so the diversity count is iteration-order-free.
        let mut digests: Vec<u128> = pop.iter().map(|c| c.content_hash()).collect();
        digests.sort_unstable();
        digests.dedup();
        assert!(digests.len() > 10, "population should be diverse");
    }

    #[test]
    fn remap_preserves_overlapping_structure() {
        // A 6-task elite remapped onto a 6-task batch of the same shape is
        // unchanged.
        let prev = Chromosome::from_queues(&[vec![0, 3], vec![1, 4], vec![2, 5]]);
        let b = batch(6, 10.0);
        let p = uniform_procs(3, 100.0);
        let c = remap_elite(&prev, &b, &p);
        assert_eq!(c, prev);
    }

    #[test]
    fn remap_shrinks_to_smaller_batch() {
        let prev = Chromosome::from_queues(&[vec![0, 3, 6], vec![1, 4, 7], vec![2, 5, 8]]);
        let b = batch(5, 10.0);
        let p = uniform_procs(3, 100.0);
        let c = remap_elite(&prev, &b, &p);
        assert!(c.validate().is_ok());
        assert_eq!(c.n_tasks(), 5);
        // Surviving slots keep their processors: 0,3 → P0; 1,4 → P1; 2 → P2.
        assert_eq!(c.to_queues(), vec![vec![0, 3], vec![1, 4], vec![2]]);
    }

    #[test]
    fn remap_grows_to_larger_batch_earliest_finish() {
        let prev = Chromosome::from_queues(&[vec![0], vec![1]]);
        let b = batch(4, 10.0);
        let p = uniform_procs(2, 100.0);
        let c = remap_elite(&prev, &b, &p);
        assert!(c.validate().is_ok());
        assert_eq!(c.n_tasks(), 4);
        // The two new slots fill the two equally loaded processors.
        assert_eq!(c.queue_lengths(), vec![2, 2]);
    }

    #[test]
    fn remap_handles_processor_count_changes() {
        let prev = Chromosome::from_queues(&[vec![0, 2], vec![1, 3], vec![4]]);
        let b = batch(5, 10.0);
        // Cluster shrank 3 → 2: P2's tasks must be re-placed.
        let c2 = remap_elite(&prev, &b, &uniform_procs(2, 100.0));
        assert!(c2.validate().is_ok());
        assert_eq!(c2.n_procs(), 2);
        assert_eq!(c2.queue_lengths().iter().sum::<usize>(), 5);
        // Cluster grew 3 → 4: the old structure persists, P3 starts empty
        // (no slots were missing so nothing is placed on it).
        let c4 = remap_elite(&prev, &b, &uniform_procs(4, 100.0));
        assert!(c4.validate().is_ok());
        assert_eq!(
            c4.to_queues(),
            vec![vec![0, 2], vec![1, 3], vec![4], vec![]]
        );
    }

    #[test]
    fn remap_is_always_valid_across_shapes() {
        // Sweep old-batch × new-batch × proc-count combinations; validate()
        // must hold for every remapped chromosome (the carried population
        // can never poison the next run).
        let mut rng = Prng::seed_from(9);
        for &h_old in &[1usize, 3, 8, 20] {
            for &m_old in &[1usize, 2, 5] {
                let old_batch = batch(h_old, 10.0);
                let old_procs = uniform_procs(m_old, 100.0);
                let prev = list_scheduled_individual(&old_batch, &old_procs, 0.5, &mut rng);
                for &h_new in &[1usize, 2, 8, 31] {
                    for &m_new in &[1usize, 2, 4] {
                        let b = batch(h_new, 10.0);
                        let p = uniform_procs(m_new, 100.0);
                        let c = remap_elite(&prev, &b, &p);
                        assert!(
                            c.validate().is_ok(),
                            "remap {h_old}x{m_old} -> {h_new}x{m_new}: {:?}",
                            c.validate()
                        );
                        assert_eq!(c.n_tasks() as usize, h_new);
                        assert_eq!(c.n_procs() as usize, m_new);
                    }
                }
            }
        }
    }

    #[test]
    fn remap_islands_remaps_each_island_independently() {
        // Regression test for island warm-start: remap_elite used to be
        // exercised with one flat population only; the per-island remap
        // must be exactly "remap_elite per chromosome, island by island" —
        // never a remap of the concatenation, which would let the greedy
        // fill of one island's elite see (and react to) another island's.
        let island_a = vec![
            Chromosome::from_queues(&[vec![0, 1, 2], vec![3, 4], vec![5]]),
            Chromosome::from_queues(&[vec![0], vec![1, 2, 3], vec![4, 5]]),
        ];
        let island_b = vec![
            Chromosome::from_queues(&[vec![5, 4], vec![3, 2], vec![1, 0]]),
            Chromosome::from_queues(&[vec![], vec![], vec![0, 1, 2, 3, 4, 5]]),
        ];
        let carried = vec![island_a.clone(), island_b.clone()];
        // Shape change: 6 tasks → 8 tasks (two slots must be greedy-filled).
        let b = batch(8, 10.0);
        let p = uniform_procs(3, 100.0);

        let out = remap_islands(&carried, 2, &b, &p);
        assert_eq!(out.len(), 2, "island count preserved");
        for (k, island) in [island_a, island_b].iter().enumerate() {
            assert_eq!(out[k].len(), 2);
            for (i, prev) in island.iter().enumerate() {
                // Bit-for-bit the single-population remap of that elite:
                // no cross-island state leaks into the greedy fill.
                assert_eq!(out[k][i], remap_elite(prev, &b, &p), "island {k} elite {i}");
                assert!(out[k][i].validate().is_ok());
            }
        }
        // The two islands carried different structures and must still
        // differ after the remap — a mixed-up carry would collapse them.
        assert_ne!(out[0], out[1], "islands' elites must not be mixed");
    }

    #[test]
    fn remap_islands_truncates_to_elites_per_island() {
        let island: Vec<Chromosome> = (0..4)
            .map(|i| Chromosome::from_queues(&[vec![i], (0..4).filter(|&s| s != i).collect()]))
            .collect();
        let carried = vec![island.clone(), island];
        let b = batch(4, 10.0);
        let p = uniform_procs(2, 100.0);
        let out = remap_islands(&carried, 2, &b, &p);
        assert!(out.iter().all(|isl| isl.len() == 2), "per-island elite cap");
    }

    #[test]
    fn empty_batch_is_fine() {
        let p = uniform_procs(3, 100.0);
        let mut rng = Prng::seed_from(8);
        let c = list_scheduled_individual(&[], &p, 0.5, &mut rng);
        assert_eq!(c.n_tasks(), 0);
        assert!(c.validate().is_ok());
    }
}
