//! The experiment table: the paper's Figs. 3–11, the ablations A1–A7 and
//! the extension study, one [`Experiment`] row each, run by the `repro`
//! binary.
//!
//! An experiment's name is also its CSV file, `results/<name>.csv`.
//! Adding an experiment is one row in [`EXPERIMENTS`] plus its digest in
//! `tests/golden/figures.sha256`; a unit test keeps the two lists equal.
//!
//! Each row reads its own `DTS_*` knobs when it runs (see the crate docs
//! for the table of knobs), so two rows may read the same knob with
//! different defaults: the ablations use a 20-processor cluster where the
//! figures use 50.

use std::time::Instant;

use dts_core::{plan_batch, BatchOutcome, PlanRequest, PnConfig};
use dts_distributions::{OnlineStats, SeedSequence};
use dts_ga::{
    CrossoverOp, CycleCrossover, MutationOp, OnePointOrder, OrderCrossover, RankSelection,
    RouletteWheel, SelectionOp, SwapMutation, Tournament,
};
use dts_model::{Scheduler, SizeDistribution};
use dts_schedulers::{KPercentBest, Olb, Sufferage};
use dts_sim::run_replicated;

use crate::figures::{
    batch_processors, batch_tasks, convergence_series, efficiency_sweep, linear_fit, makespan_bars,
    rebalance_timing, PAPER_NORMAL,
};
use crate::report::Table;
use crate::roster::{SchedulerKind, ALL_SCHEDULERS};
use crate::scenarios::{env_flag, env_or, Scenario};

/// One experiment of the reproduction.
#[derive(Debug)]
pub struct Experiment {
    /// Selects the experiment on `repro`'s command line and names its CSV.
    pub name: &'static str,
    /// What the experiment measures, and the paper's result (or, for an
    /// ablation, the paper's design choice) it puts to the test.
    pub claim: &'static str,
    /// Reads the experiment's knobs, runs it and returns what it found.
    pub run: fn() -> Outcome,
}

/// What one run of an experiment produced.
#[derive(Debug)]
pub struct Outcome {
    /// The rows printed and written to the CSV.
    pub table: Table,
    /// Lines printed after the table: the verdict on the paper's claim,
    /// for the experiments that compute one.
    pub verdict: Option<String>,
}

impl From<Table> for Outcome {
    fn from(table: Table) -> Self {
        Self {
            table,
            verdict: None,
        }
    }
}

/// Every experiment, in the order `repro` runs them with no arguments.
pub static EXPERIMENTS: [Experiment; 17] = [
    Experiment {
        name: "fig3",
        claim: "Fig. 3 — average reduction in makespan after each GA generation, for 0 \
                (pure GA), 1 and 50 rebalances per individual per generation. Paper: after \
                1000 generations the best makespan falls to ~75 % (pure GA), ~70 % (1 \
                rebalance) and ~65 % (50 rebalances) of its initial value, with the \
                steepest drop in the first 100 generations.",
        run: fig3,
    },
    Experiment {
        name: "fig4",
        claim: "Fig. 4 — wall-clock time to schedule a task set with varying numbers of \
                rebalances per generation. Paper: time grows linearly in the number of \
                rebalances (≈ 10 s at R = 0 up to ≈ 250 s at R = 20 on 2005 hardware for \
                10 000 tasks); the slope and R² are the targets, not the absolute numbers. \
                DTS_FULL=1 runs the paper-scale 10 000-task / 1000-generation set.",
        run: fig4,
    },
    Experiment {
        name: "fig5",
        claim: "Fig. 5 — efficiency of the seven schedulers vs communication cost, task \
                sizes normal (μ = 1000 MFLOPs, σ² = 9·10⁵). Paper: PN gives the best \
                efficiency at every communication cost; RR is worst; efficiency rises as \
                communication gets cheaper.",
        run: || efficiency_sweep("Fig. 5", PAPER_NORMAL).into(),
    },
    Experiment {
        name: "fig6",
        claim: "Fig. 6 — makespan of the seven schedulers, task sizes normal (μ = 1000 \
                MFLOPs, σ² = 9·10⁵), PN with dynamic batch sizing. Paper: PN achieves the \
                lowest makespan of all seven.",
        run: || makespan_bars("Fig. 6", PAPER_NORMAL, 20.0).into(),
    },
    Experiment {
        name: "fig7",
        claim: "Fig. 7 — efficiency of the seven schedulers vs communication cost, task \
                sizes uniform in [10, 1000) MFLOPs. Paper: the two meta-heuristics (PN and \
                ZO) clearly beat the simple heuristics, with PN on top.",
        run: || efficiency_sweep("Fig. 7", uniform(10.0, 1000.0)).into(),
    },
    Experiment {
        name: "fig8",
        claim: "Fig. 8 — makespan, task sizes uniform in [10, 100) MFLOPs (1:10 ratio). \
                Paper: with nearly equal tasks most schedulers perform similarly.",
        run: || makespan_bars("Fig. 8", uniform(10.0, 100.0), 20.0).into(),
    },
    Experiment {
        name: "fig9",
        claim: "Fig. 9 — makespan, task sizes uniform in [10, 10000) MFLOPs (1:1000 \
                ratio). Paper: a wide size range accentuates the differences between \
                schedulers, and PN is lowest.",
        run: || makespan_bars("Fig. 9", uniform(10.0, 10_000.0), 20.0).into(),
    },
    Experiment {
        name: "fig10",
        claim: "Fig. 10 — makespan, Poisson(10) task sizes; a 0.2 s mean message keeps the \
                compute/communication balance of the paper's regime. Paper: PN performs \
                best, followed by MM, while MX performs poorly at this small mean.",
        run: || makespan_bars("Fig. 10", poisson(10.0), 0.2).into(),
    },
    Experiment {
        name: "fig11",
        claim: "Fig. 11 — makespan, Poisson(100) task sizes. Paper: the batch schedulers \
                (PN, ZO, MM, MX) all perform well; the immediate-mode schedulers fall \
                behind.",
        run: || makespan_bars("Fig. 11", poisson(100.0), 2.0).into(),
    },
    Experiment {
        name: "ablate_selection",
        claim: "A1 — selection operator: the paper chooses roulette-wheel selection (§3.3); \
                how do tournament and rank selection compare on the same batch problem?",
        run: ablate_selection,
    },
    Experiment {
        name: "ablate_crossover",
        claim: "A2 — crossover operator: the paper uses cycle crossover (Oliver et al.) \"to \
                promote exploration\"; order crossover and a one-point/repair variant are \
                the natural alternatives on permutation encodings.",
        run: ablate_crossover,
    },
    Experiment {
        name: "ablate_init",
        claim: "A3 — initial population: §3.3 seeds the GA with a list-scheduling \
                heuristic where \"a percentage of tasks are randomly assigned\"; sweep that \
                percentage from 0 % (pure greedy) to 100 % (pure random) and report the \
                converged makespan.",
        run: ablate_init,
    },
    Experiment {
        name: "ablate_smoothing",
        claim: "A4 — the smoothing factor ν (§3.6) of per-link communication estimates: \
                ν = 0 never updates the first observation, ν = 1 chases the last message. \
                Where is the sweet spot for PN's efficiency under costly, jittery \
                communication?",
        run: ablate_smoothing,
    },
    Experiment {
        name: "ablate_popsize",
        claim: "A5 — population size: the paper uses a micro-GA of 20 individuals \"which \
                speeds up computation time without impacting greatly on the final result\" \
                (§4.2); sweep the population to check.",
        run: ablate_popsize,
    },
    Experiment {
        name: "ablate_batch",
        claim: "A6 — batch size: fixed batches of 50–400 versus the §3.7 dynamic rule, \
                measured on the full simulator (makespan and efficiency).",
        run: ablate_batch,
    },
    Experiment {
        name: "ablate_comm",
        claim: "A7 — the paper's core mechanism, communication-cost prediction in the \
                fitness function: PN with the Γc term disabled isolates how much of its \
                advantage comes from prediction versus the GA machinery itself.",
        run: ablate_comm,
    },
    Experiment {
        name: "extra_baselines",
        claim: "Extension — the full Maheswaran et al. family: the paper's seven schedulers \
                plus OLB, KPB (k = 0.2) and Sufferage from its reference [11], on the Fig. 5 \
                workload at a moderate communication cost.",
        run: extra_baselines,
    },
];

/// Resolves `repro`'s arguments: no names selects every experiment in
/// table order, otherwise the named ones in the order given. An unknown
/// name is an error that lists the valid ones.
pub fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<&'static Experiment>, String> {
    if names.is_empty() {
        return Ok(EXPERIMENTS.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            let name = name.as_ref();
            EXPERIMENTS.iter().find(|e| e.name == name).ok_or_else(|| {
                let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                format!(
                    "unknown experiment `{name}`; valid names: {}",
                    valid.join(", ")
                )
            })
        })
        .collect()
}

fn uniform(lo: f64, hi: f64) -> SizeDistribution {
    SizeDistribution::Uniform { lo, hi }
}

fn poisson(lambda: f64) -> SizeDistribution {
    SizeDistribution::Poisson { lambda }
}

fn holds(ok: bool, otherwise: &str) -> &str {
    if ok {
        "HOLDS"
    } else {
        otherwise
    }
}

fn fig3() -> Outcome {
    let h: usize = env_or("DTS_TASKS", 500);
    let m: usize = env_or("DTS_PROCS", 50);
    let reps: usize = env_or("DTS_REPS", 10);
    let gens: u32 = env_or("DTS_GENS", 1000);
    let seed: u64 = env_or("DTS_SEED", 20_050_404);

    eprintln!("fig3: H={h} tasks, M={m} procs, {gens} generations, {reps} runs per setting");
    let (table, series) = convergence_series(h, m, gens, reps, &[0, 1, 50], seed);
    let finals: Vec<f64> = series.iter().map(|s| *s.last().unwrap()).collect();
    // The reproduction target is the paper's *shape*: rebalancing clearly
    // beats the pure GA, and 50 rebalances land at or below 1 rebalance
    // within noise (the paper's own gap between them is only ~0.05).
    let rebalance_wins = finals[1] < finals[0] - 0.02 && finals[2] < finals[0] - 0.02;
    let heavy_close_to_light = finals[2] <= finals[1] + 0.02;
    let verdict = format!(
        "final makespan ratios: pure GA {:.3}, 1 rebalance {:.3}, 50 rebalances {:.3}\n\
         paper: ~0.75 / ~0.70 / ~0.65 — rebalancing beats pure GA: {}; R50 ≤ R1 (within 0.02): {}",
        finals[0],
        finals[1],
        finals[2],
        holds(rebalance_wins, "VIOLATED"),
        holds(heavy_close_to_light, "VIOLATED"),
    );
    Outcome {
        table,
        verdict: Some(verdict),
    }
}

fn fig4() -> Outcome {
    let full = env_flag("DTS_FULL");
    let n_tasks: usize = env_or("DTS_TASKS", if full { 10_000 } else { 2_000 });
    let gens: u32 = env_or("DTS_GENS", if full { 1000 } else { 200 });
    let m: usize = env_or("DTS_PROCS", 50);
    let batch: usize = env_or("DTS_BATCH", 200);
    let seed: u64 = env_or("DTS_SEED", 20_050_404);
    let rebalances: Vec<u32> = (0..=20).step_by(2).collect();

    eprintln!("fig4: {n_tasks} tasks, batches of {batch}, {gens} gens/batch, M={m}");
    let (table, points) = rebalance_timing(n_tasks, batch, m, gens, &rebalances, seed);
    let (a, b, r2) = linear_fit(&points);
    let verdict = format!(
        "linear fit: time = {a:.3} + {b:.3}·R   (R² = {r2:.4})\n\
         paper: linear growth — linearity {} (wall-clock noise on shared hosts\n\
         lowers R²; rerun with DTS_FULL=1 for the paper-scale measurement)",
        holds(r2 > 0.95, "WEAK")
    );
    Outcome {
        table,
        verdict: Some(verdict),
    }
}

/// The paper's genetic operators with one of them replaced (A1, A2).
type Ops<'a> = (&'a dyn SelectionOp, &'a dyn CrossoverOp, &'a dyn MutationOp);

/// The batch-level ablations' setup (A1, A2, A3, A5): `reps` batches of
/// `h` Fig. 5 tasks on `m` processors, each planned once by `plan_batch`
/// with a `gens`-generation cap.
struct BatchStudy {
    h: usize,
    m: usize,
    reps: usize,
    gens: u32,
    seed: u64,
}

impl BatchStudy {
    fn from_env(default_reps: usize) -> Self {
        Self {
            h: env_or("DTS_TASKS", 300),
            m: env_or("DTS_PROCS", 20),
            reps: env_or("DTS_REPS", default_reps),
            gens: env_or("DTS_GENS", 400),
            seed: env_or("DTS_SEED", 20_050_404),
        }
    }

    fn title(&self, study: &str) -> String {
        let Self {
            h, m, reps, gens, ..
        } = self;
        format!("{study} (H={h}, M={m}, {gens} gens, {reps} reps)")
    }

    /// Plans every replication's batch under `PnConfig::paper()` with
    /// the generation cap, as changed by `configure`, and with `ops` in
    /// place of the paper's operators when given. Replication `rep` draws
    /// tasks, processors and GA seed from `seed_at(rep)` of the study
    /// seed, so every setting of a sweep sees the same batches.
    fn run(&self, configure: impl Fn(&mut PnConfig), ops: Option<Ops<'_>>) -> Vec<BatchOutcome> {
        let seq = SeedSequence::new(self.seed);
        (0..self.reps)
            .map(|rep| {
                let mut sub = SeedSequence::new(seq.seed_at(rep as u64));
                let tasks = batch_tasks(self.h, &PAPER_NORMAL, sub.next_seed());
                let procs = batch_processors(self.m, sub.next_seed());
                let mut cfg = PnConfig::paper();
                cfg.ga.max_generations = self.gens;
                configure(&mut cfg);
                let request = PlanRequest::new(&tasks, &procs, sub.next_seed());
                let request = match ops {
                    Some((selection, crossover, mutation)) => {
                        request.with_ops(selection, crossover, mutation)
                    }
                    None => request,
                };
                plan_batch(&request, &cfg)
            })
            .collect()
    }

    /// The table of A1 and A2: converged makespan per operator.
    fn operator_table(&self, study: &str, column: &str, ops: &[(&str, Ops<'_>)]) -> Table {
        let mut table = Table::new(
            self.title(study),
            &[column, "makespan_mean", "makespan_ci95"],
        );
        for &(name, ops) in ops {
            let stats = best_makespans(&self.run(|_| {}, Some(ops)));
            table.row(vec![
                name.to_string(),
                format!("{:.2}", stats.mean()),
                format!("{:.2}", stats.ci95_half_width()),
            ]);
        }
        table
    }
}

fn best_makespans(outcomes: &[BatchOutcome]) -> OnlineStats {
    outcomes.iter().map(|o| o.best_makespan).collect()
}

fn ablate_selection() -> Outcome {
    let study = BatchStudy::from_env(10);
    let tournament = Tournament::new(3);
    let ops: [(&str, Ops<'_>); 3] = [
        (
            "roulette (paper)",
            (&RouletteWheel, &CycleCrossover, &SwapMutation),
        ),
        (
            "tournament k=3",
            (&tournament, &CycleCrossover, &SwapMutation),
        ),
        ("rank", (&RankSelection, &CycleCrossover, &SwapMutation)),
    ];
    study
        .operator_table("A1 selection operators", "selection", &ops)
        .into()
}

fn ablate_crossover() -> Outcome {
    let study = BatchStudy::from_env(10);
    let ops: [(&str, Ops<'_>); 3] = [
        (
            "cycle (paper)",
            (&RouletteWheel, &CycleCrossover, &SwapMutation),
        ),
        ("order", (&RouletteWheel, &OrderCrossover, &SwapMutation)),
        ("one-point", (&RouletteWheel, &OnePointOrder, &SwapMutation)),
    ];
    study
        .operator_table("A2 crossover operators", "crossover", &ops)
        .into()
}

fn ablate_init() -> Outcome {
    let study = BatchStudy::from_env(10);
    let mut table = Table::new(
        study.title("A3 initial-population randomness"),
        &[
            "random_fraction",
            "initial_makespan",
            "final_makespan",
            "ci95",
        ],
    );
    for fraction in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let outcomes = study.run(
            |cfg| {
                cfg.ga.record_history = true;
                cfg.init_random_fraction = (fraction, fraction);
            },
            None,
        );
        let initial: OnlineStats = outcomes
            .iter()
            .map(|o| o.ga.history[0].best_makespan)
            .collect();
        let fin = best_makespans(&outcomes);
        table.row(vec![
            format!("{fraction:.2}"),
            format!("{:.2}", initial.mean()),
            format!("{:.2}", fin.mean()),
            format!("{:.2}", fin.ci95_half_width()),
        ]);
    }
    table.into()
}

fn ablate_popsize() -> Outcome {
    let study = BatchStudy::from_env(8);
    let mut table = Table::new(
        study.title("A5 population size"),
        &["population", "makespan_mean", "ci95", "wall_seconds"],
    );
    for pop in [5usize, 10, 20, 50, 100] {
        let start = Instant::now();
        let stats = best_makespans(&study.run(|cfg| cfg.ga.population_size = pop, None));
        table.row(vec![
            pop.to_string(),
            format!("{:.2}", stats.mean()),
            format!("{:.2}", stats.ci95_half_width()),
            format!("{:.2}", start.elapsed().as_secs_f64()),
        ]);
    }
    table.into()
}

/// The simulated ablations' and the extension's setup: the Fig. 5 workload
/// on [`Scenario::paper_base`]'s cluster at mean communication cost `comm`.
fn normal_scenario(default_tasks: usize, reps: usize, comm: f64) -> Scenario {
    Scenario::paper_base(PAPER_NORMAL, default_tasks, reps).with_comm_cost(comm)
}

/// [`normal_scenario`] on the ablations' cluster: `DTS_PROCS` is read a
/// second time, with default 20 in place of `paper_base`'s 50.
fn ablation_scenario(default_tasks: usize, reps: usize, comm: f64) -> Scenario {
    let mut s = normal_scenario(default_tasks, reps, comm);
    s.cluster.processors = env_or("DTS_PROCS", 20);
    s
}

fn ablate_smoothing() -> Outcome {
    let reps: usize = env_or("DTS_REPS", 8);
    let comm: f64 = env_or("DTS_COMM", 40.0);
    let mut table = Table::new(
        format!("A4 comm smoothing factor nu (PN, comm mean {comm}s, {reps} reps)"),
        &["nu", "efficiency", "makespan"],
    );
    for nu in [0.05, 0.1, 0.3, 0.6, 1.0] {
        let mut s = ablation_scenario(500, reps, comm);
        s.sim.comm_nu = nu;
        let res = s.run(SchedulerKind::Pn);
        assert_eq!(res.failures, 0);
        table.row(vec![
            format!("{nu:.2}"),
            format!("{:.4}", res.efficiency.mean()),
            format!("{:.1}", res.makespan.mean()),
        ]);
        eprintln!("  nu={nu} done");
    }
    table.into()
}

fn ablate_batch() -> Outcome {
    let reps: usize = env_or("DTS_REPS", 8);
    let comm: f64 = env_or("DTS_COMM", 20.0);
    let mut table = Table::new(
        format!("A6 batch size, fixed vs dynamic (PN, comm mean {comm}s, {reps} reps)"),
        &["batch", "efficiency", "makespan"],
    );
    for batch in [50usize, 100, 200, 400] {
        let mut s = ablation_scenario(1000, reps, comm);
        s.build.batch_size = batch;
        s.build.pn.max_batch = batch; // fixed size
        let res = s.run(SchedulerKind::Pn);
        assert_eq!(res.failures, 0);
        table.row(vec![
            format!("fixed {batch}"),
            format!("{:.4}", res.efficiency.mean()),
            format!("{:.1}", res.makespan.mean()),
        ]);
        eprintln!("  batch={batch} done");
    }
    // Dynamic: §3.7 rule with a generous cap.
    let mut s = ablation_scenario(1000, reps, comm);
    s.build.batch_size = 200;
    s.build.pn.max_batch = 1000;
    let res = s.run(SchedulerKind::Pn);
    table.row(vec![
        "dynamic (§3.7)".to_string(),
        format!("{:.4}", res.efficiency.mean()),
        format!("{:.1}", res.makespan.mean()),
    ]);
    table.into()
}

fn ablate_comm() -> Outcome {
    let reps: usize = env_or("DTS_REPS", 8);
    let mut table = Table::new(
        format!("A7 comm prediction on/off (PN, {reps} reps)"),
        &[
            "mean_comm_cost",
            "eff_with_comm",
            "eff_without",
            "advantage_%",
        ],
    );
    for comm in [10.0, 25.0, 50.0, 100.0] {
        let efficiency = |use_comm: bool| {
            let mut s = ablation_scenario(500, reps, comm);
            s.build.pn.use_comm_estimates = use_comm;
            let res = s.run(SchedulerKind::Pn);
            assert_eq!(res.failures, 0);
            res.efficiency.mean()
        };
        let e1 = efficiency(true);
        let e0 = efficiency(false);
        table.row(vec![
            format!("{comm:.0}"),
            format!("{e1:.4}"),
            format!("{e0:.4}"),
            format!("{:+.1}", (e1 / e0 - 1.0) * 100.0),
        ]);
        eprintln!("  comm={comm} done");
    }
    table.into()
}

fn extra_baselines() -> Outcome {
    let comm: f64 = env_or("DTS_COMM", 20.0);
    let reps: usize = env_or("DTS_REPS", 8);
    let scenario = normal_scenario(1000, reps, comm);

    let mut table = Table::new(
        format!(
            "Extension — paper roster + OLB/KPB/Sufferage (comm mean {comm}s, {} tasks, {} procs, {} reps)",
            scenario.workload.count, scenario.cluster.processors, scenario.reps
        ),
        &["scheduler", "makespan_mean", "efficiency"],
    );

    for kind in ALL_SCHEDULERS {
        let res = scenario.run(kind);
        assert_eq!(res.failures, 0);
        table.row(vec![
            kind.label().to_string(),
            format!("{:.1}", res.makespan.mean()),
            format!("{:.4}", res.efficiency.mean()),
        ]);
        eprintln!("  {} done", kind.label());
    }

    // The three extensions, through the same replication machinery.
    type Build = fn(usize) -> Box<dyn Scheduler>;
    let extras: [(&str, Build); 3] = [
        ("OLB", |n| Box::new(Olb::new(n))),
        ("KPB", |n| Box::new(KPercentBest::new(n, 0.2))),
        ("SUF", |n| Box::new(Sufferage::with_batch_size(n, 200))),
    ];
    for (label, build) in extras {
        let reports = run_replicated(
            &scenario.cluster,
            &scenario.workload,
            &|n: usize, _seed: u64| build(n),
            &scenario.sim,
            scenario.seed,
            scenario.reps,
            scenario.threads,
        );
        let mut makespan = OnlineStats::new();
        let mut efficiency = OnlineStats::new();
        for r in reports {
            let r = r.expect("simulation completes");
            makespan.push(r.makespan);
            efficiency.push(r.efficiency);
        }
        table.row(vec![
            label.to_string(),
            format!("{:.1}", makespan.mean()),
            format!("{:.4}", efficiency.mean()),
        ]);
        eprintln!("  {label} done");
    }
    table.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_match_the_golden_digests() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate experiment name");

        // Every CSV but fig4.csv (all wall-clock) has a committed digest.
        let golden = include_str!("../../../tests/golden/figures.sha256");
        let mut digested: Vec<&str> = golden
            .lines()
            .map(|line| {
                let (_, file) = line.split_once("  ").expect("`<sha256>  <file>` line");
                file.strip_suffix(".csv").expect("a CSV file name")
            })
            .chain(["fig4"])
            .collect();
        digested.sort_unstable();
        assert_eq!(unique, digested);
    }

    #[test]
    fn select_defaults_to_every_experiment_in_table_order() {
        let none: [&str; 0] = [];
        let all: Vec<&str> = select(&none).unwrap().iter().map(|e| e.name).collect();
        let table: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(all, table);
        assert_eq!(all[..2], ["fig3", "fig4"]);
        assert_eq!(all.last(), Some(&"extra_baselines"));

        let some: Vec<&str> = select(&["fig5", "ablate_comm"])
            .unwrap()
            .iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(some, ["fig5", "ablate_comm"]);
    }

    #[test]
    fn select_rejects_an_unknown_name_and_lists_the_valid_ones() {
        let err = select(&["fig5", "nosuch"]).unwrap_err();
        assert!(
            err.starts_with("unknown experiment `nosuch`; valid names: "),
            "{err}"
        );
        for e in &EXPERIMENTS {
            assert!(err.contains(e.name), "{err} lacks {}", e.name);
        }
    }
}
