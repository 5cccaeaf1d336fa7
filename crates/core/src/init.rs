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
use dts_model::{earliest_finish, Task};

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
            // argminⱼ (completionⱼ + t/Pⱼ + commⱼ), lowest index on ties.
            earliest_finish(0..m, |j| {
                completion[j] + t.mflops / procs[j].rate + procs[j].comm_cost
            })
        };
        completion[j] += t.mflops / procs[j].rate + procs[j].comm_cost;
        queues[j].push(slot);
    }

    Chromosome::from_queues(&queues)
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
        // Distinctness via sort + dedup of the gene strings: no hash-set,
        // so the diversity count is iteration-order-free.
        let mut genomes: Vec<&[dts_ga::Gene]> = pop.iter().map(|c| c.genes()).collect();
        genomes.sort_unstable();
        genomes.dedup();
        assert!(genomes.len() > 10, "population should be diverse");
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
