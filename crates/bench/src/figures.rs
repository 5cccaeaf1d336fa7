//! Drivers for the paper's figures: each function regenerates one class of
//! plot and returns a [`Table`] ready for printing + CSV export; the rows
//! of [`crate::experiments`] call them.

use std::time::Instant;

use dts_core::{fitness::ProcessorState, plan_batch, PlanRequest, PnConfig};
use dts_distributions::{Prng, Rng, SeedSequence};
use dts_model::{SizeDistribution, Task, WorkloadSpec};

use crate::report::Table;
use crate::roster::ALL_SCHEDULERS;
use crate::scenarios::{env_or, Scenario};

/// The Fig. 5 task sizes (μ = 1000 MFLOPs, σ² = 9·10⁵), which Figs. 3, 4
/// and 6 and most ablations reuse.
pub const PAPER_NORMAL: SizeDistribution = SizeDistribution::Normal {
    mean: 1000.0,
    variance: 9.0e5,
};

// Default task count and replications of the simulated figures (5–11).
const FIGURE_TASKS: usize = 1000;
const FIGURE_REPS: usize = 10;

/// Builds a heterogeneous processor-state vector like the paper's clusters
/// (ratings uniform in [15, 40) Mflop/s, no pre-existing load, no comm) for
/// the batch-level experiments of Figs. 3–4.
pub fn batch_processors(m: usize, seed: u64) -> Vec<ProcessorState> {
    let mut rng = Prng::seed_from(seed);
    (0..m)
        .map(|_| ProcessorState {
            rate: rng.range_f64(15.0, 40.0),
            existing_load_mflops: 0.0,
            comm_cost: 0.0,
        })
        .collect()
}

/// Generates a batch of tasks from a size distribution.
pub fn batch_tasks(h: usize, sizes: &SizeDistribution, seed: u64) -> Vec<Task> {
    WorkloadSpec::batch(h, sizes.clone()).generate(seed)
}

/// Fig. 3 — average makespan ratio (best-so-far ÷ initial) after each
/// generation, for `rebalance_settings` (the paper uses 0, 1 and 50).
///
/// Returns `(table, series)` where `series[k][g]` is the mean ratio of
/// setting `k` at generation `g`.
pub fn convergence_series(
    h: usize,
    m: usize,
    generations: u32,
    reps: usize,
    rebalance_settings: &[u32],
    master_seed: u64,
) -> (Table, Vec<Vec<f64>>) {
    let mut series: Vec<Vec<f64>> = Vec::with_capacity(rebalance_settings.len());

    for &r in rebalance_settings {
        let mut sums = vec![0.0f64; generations as usize + 1];
        let seq = SeedSequence::new(master_seed ^ u64::from(r).wrapping_mul(0x9E37));
        for rep in 0..reps {
            let seed = seq.seed_at(rep as u64);
            let mut sub = SeedSequence::new(seed);
            let tasks = batch_tasks(h, &PAPER_NORMAL, sub.next_seed());
            let procs = batch_processors(m, sub.next_seed());
            let mut cfg = PnConfig::paper();
            cfg.ga.max_generations = generations;
            cfg.ga.record_history = true;
            cfg.rebalances_per_generation = r;
            // Fig. 3 isolates the GA: a fully random initial population
            // makes the improvement visible (ARCHITECTURE.md, "Deviations
            // from the paper").
            cfg.init_random_fraction = (1.0, 1.0);
            let out = plan_batch(&PlanRequest::new(&tasks, &procs, sub.next_seed()), &cfg);
            let initial = out.ga.history[0].best_makespan.max(1e-12);
            let mut best_so_far = f64::INFINITY;
            for (g, sum) in sums.iter_mut().enumerate().take(generations as usize + 1) {
                let at = out
                    .ga
                    .history
                    .get(g)
                    .map(|s| s.best_makespan)
                    .unwrap_or(best_so_far);
                best_so_far = best_so_far.min(at);
                *sum += best_so_far / initial;
            }
        }
        series.push(sums.into_iter().map(|s| s / reps as f64).collect());
    }

    let mut header = vec!["generation".to_string()];
    header.extend(rebalance_settings.iter().map(|r| format!("ratio_R{r}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        format!("Fig. 3 — makespan ratio vs generation (H={h}, M={m}, {reps} runs)"),
        &header_refs,
    );
    for g in (0..=generations as usize).step_by((generations as usize / 40).max(1)) {
        let mut row = vec![g.to_string()];
        row.extend(series.iter().map(|s| format!("{:.4}", s[g])));
        table.row(row);
    }
    (table, series)
}

/// Fig. 4 — wall-clock seconds to schedule `n_tasks` in batches of
/// `batch_size`, as a function of rebalances per generation.
///
/// Returns `(table, points)` with `points = [(rebalances, seconds), …]`.
pub fn rebalance_timing(
    n_tasks: usize,
    batch_size: usize,
    m: usize,
    generations: u32,
    rebalances: &[u32],
    master_seed: u64,
) -> (Table, Vec<(u32, f64)>) {
    let mut seq = SeedSequence::new(master_seed);
    let tasks = batch_tasks(n_tasks, &PAPER_NORMAL, seq.next_seed());
    let procs = batch_processors(m, seq.next_seed());

    let mut points = Vec::with_capacity(rebalances.len());
    for &r in rebalances {
        let mut cfg = PnConfig::paper();
        cfg.ga.max_generations = generations;
        cfg.rebalances_per_generation = r;
        let start = Instant::now();
        let mut offset = 0;
        let mut batch_seed = SeedSequence::new(master_seed ^ 0xBA7C4 ^ u64::from(r));
        while offset < tasks.len() {
            let end = (offset + batch_size).min(tasks.len());
            let _ = plan_batch(
                &PlanRequest::new(&tasks[offset..end], &procs, batch_seed.next_seed()),
                &cfg,
            );
            offset = end;
        }
        points.push((r, start.elapsed().as_secs_f64()));
    }

    let mut table = Table::new(
        format!(
            "Fig. 4 — time to schedule {n_tasks} tasks ({generations} gens/batch of {batch_size})"
        ),
        &["rebalances", "seconds"],
    );
    for &(r, s) in &points {
        table.row(vec![r.to_string(), format!("{s:.3}")]);
    }
    (table, points)
}

/// Least-squares fit `y = a + b·x` returning `(a, b, r²)` — used to verify
/// Fig. 4's linearity claim.
pub fn linear_fit(points: &[(u32, f64)]) -> (f64, f64, f64) {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0 as f64).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 as f64).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| p.0 as f64 * p.1).sum();
    let b = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let a = (sy - b * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| (p.1 - (a + b * p.0 as f64)).powi(2))
        .sum();
    let r2 = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    (a, b, r2)
}

/// Figs. 5 & 7 — efficiency of all seven schedulers as a function of
/// `1/mean-communication-cost`, over [`paper_inv_cost_axis`].
pub fn efficiency_sweep(figure: &str, sizes: SizeDistribution) -> Table {
    let inv_costs = paper_inv_cost_axis();
    let base = Scenario::paper_base(sizes.clone(), FIGURE_TASKS, FIGURE_REPS);
    let mut header = vec!["1/mean_comm_cost".to_string(), "mean_comm_cost".to_string()];
    header.extend(ALL_SCHEDULERS.iter().map(|k| k.label().to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        format!(
            "{figure} — efficiency vs 1/mean comm cost ({}, {} tasks, {} procs, {} reps)",
            sizes.label(),
            base.workload.count,
            base.cluster.processors,
            base.reps
        ),
        &header_refs,
    );

    for (i, &inv) in inv_costs.iter().enumerate() {
        let cost = 1.0 / inv;
        let mut point = base.clone().with_comm_cost(cost);
        point.seed = base.seed_for_point(i as u64);
        let mut row = vec![format!("{inv:.4}"), format!("{cost:.1}")];
        for kind in ALL_SCHEDULERS {
            let res = point.run(kind);
            assert_eq!(res.failures, 0, "{} failed at cost {cost}", kind.label());
            row.push(format!("{:.4}", res.efficiency.mean()));
        }
        table.row(row);
        eprintln!("  [{figure}] point {}/{} done", i + 1, inv_costs.len());
    }
    table
}

/// Figs. 6, 8–11 — mean makespan of all seven schedulers on one workload,
/// at mean communication cost `DTS_COMM` (default `default_comm`, in s).
pub fn makespan_bars(figure: &str, sizes: SizeDistribution, default_comm: f64) -> Table {
    let mean_comm_cost: f64 = env_or("DTS_COMM", default_comm);
    let base = Scenario::paper_base(sizes.clone(), FIGURE_TASKS, FIGURE_REPS)
        .with_comm_cost(mean_comm_cost);
    let mut table = Table::new(
        format!(
            "{figure} — makespan ({}, comm mean {mean_comm_cost}s, {} tasks, {} procs, {} reps)",
            sizes.label(),
            base.workload.count,
            base.cluster.processors,
            base.reps
        ),
        &["scheduler", "makespan_mean", "makespan_ci95", "efficiency"],
    );
    for kind in ALL_SCHEDULERS {
        let res = base.run(kind);
        assert_eq!(res.failures, 0, "{} failed", kind.label());
        table.row(vec![
            kind.label().to_string(),
            format!("{:.1}", res.makespan.mean()),
            format!("{:.1}", res.makespan.ci95_half_width()),
            format!("{:.4}", res.efficiency.mean()),
        ]);
        eprintln!("  [{figure}] {} done", kind.label());
    }
    table
}

/// The x-axis of the paper's efficiency sweeps: 1/mean-comm-cost values
/// spanning (0, 0.1], densest near the right edge like Figs. 5 and 7.
pub fn paper_inv_cost_axis() -> Vec<f64> {
    let points: usize = env_or("DTS_POINTS", 8);
    // Log-spaced between 0.004 and 0.1.
    let lo = 0.004f64.ln();
    let hi = 0.1f64.ln();
    (0..points)
        .map(|i| {
            let frac = if points > 1 {
                i as f64 / (points - 1) as f64
            } else {
                1.0
            };
            // Clamp: exp(ln(0.1)) can land a ULP above 0.1.
            (lo + (hi - lo) * frac).exp().min(0.1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_line() {
        let pts: Vec<(u32, f64)> = (0..10).map(|x| (x, 3.0 + 2.0 * x as f64)).collect();
        let (a, b, r2) = linear_fit(&pts);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn convergence_series_shrinks() {
        let (_table, series) = convergence_series(60, 8, 40, 2, &[0, 1], 99);
        for s in &series {
            assert_eq!(s.len(), 41);
            assert!((s[0] - 1.0).abs() < 1e-9, "normalised to the start");
            assert!(s[40] <= s[0] + 1e-9, "best-so-far never worsens");
            for w in s.windows(2) {
                assert!(w[1] <= w[0] + 1e-9, "monotone non-increasing");
            }
        }
    }

    #[test]
    fn rebalance_timing_returns_all_points() {
        let (_t, pts) = rebalance_timing(40, 20, 4, 5, &[0, 2], 7);
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|p| p.1 > 0.0));
    }

    #[test]
    fn paper_axis_in_range() {
        let axis = paper_inv_cost_axis();
        assert!(axis.iter().all(|&x| x > 0.0 && x <= 0.1));
        assert!(axis.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn batch_processors_heterogeneous() {
        let ps = batch_processors(20, 1);
        assert_eq!(ps.len(), 20);
        assert!(ps.iter().all(|p| (15.0..40.0).contains(&p.rate)));
        assert!(ps.windows(2).any(|w| w[0].rate != w[1].rate));
    }
}
