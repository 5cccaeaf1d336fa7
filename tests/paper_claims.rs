//! Integration: the paper's qualitative claims, checked as assertions.
//!
//! These are the *shapes* the evaluation section reports — who wins, in
//! which regime — at test-suite scale (small clusters, reduced GA budgets,
//! a few replications). The full-scale regenerations live in
//! `crates/bench`; where they depart from the paper's setup is recorded in
//! ARCHITECTURE.md, "Deviations from the paper".

use dts::core::fitness::ProcessorState;
use dts::core::{plan_batch, GaTimeModel, PlanBudget, PlanRequest, PnConfig};
use dts::distributions::OnlineStats;
use dts::model::{ClusterSpec, SimTime, SizeDistribution, Task, TaskId, WorkloadSpec};
use dts::sim::{run_replicated, SimConfig};

fn batch(n: usize, seed: u64) -> Vec<Task> {
    WorkloadSpec::batch(
        n,
        SizeDistribution::Normal {
            mean: 1000.0,
            variance: 9.0e5,
        },
    )
    .generate(seed)
}

fn hetero_procs(m: usize) -> Vec<ProcessorState> {
    (0..m)
        .map(|i| ProcessorState {
            rate: 15.0 + (i as f64 * 7.3) % 25.0,
            existing_load_mflops: 0.0,
            comm_cost: 0.0,
        })
        .collect()
}

/// §3.5 / Fig. 3: rebalancing lowers the converged makespan relative to the
/// pure GA, and 50 rebalances lower it at least as much as 1.
#[test]
fn rebalancing_improves_convergence() {
    let mut finals = Vec::new();
    for rebalances in [0u32, 1, 50] {
        let mut stats = OnlineStats::new();
        for seed in 0..5u64 {
            let tasks = batch(120, 1000 + seed);
            let procs = hetero_procs(10);
            let mut cfg = PnConfig::default();
            cfg.ga.max_generations = 250;
            cfg.rebalances_per_generation = rebalances;
            cfg.init_random_fraction = (1.0, 1.0); // isolate the GA, as in Fig. 3
            let out = plan_batch(&PlanRequest::new(&tasks, &procs, 7000 + seed), &cfg);
            stats.push(out.best_makespan);
        }
        finals.push(stats.mean());
    }
    assert!(
        finals[1] <= finals[0] * 1.02,
        "1 rebalance ({}) should not lose to pure GA ({})",
        finals[1],
        finals[0]
    );
    assert!(
        finals[2] <= finals[1] * 1.02,
        "50 rebalances ({}) should not lose to 1 ({})",
        finals[2],
        finals[1]
    );
    // And the heavy setting must beat the pure GA outright.
    assert!(finals[2] < finals[0], "{finals:?}");
}

/// Fig. 4: the modelled GA cost is exactly linear in rebalances, and the
/// real GA time grows with rebalances.
#[test]
fn ga_cost_linear_in_rebalances() {
    let m = GaTimeModel::default();
    let t: Vec<f64> = (0..=4)
        .map(|r| m.seconds_per_generation(100, 10, 20, r))
        .collect();
    let d1 = t[1] - t[0];
    for w in t.windows(2) {
        assert!((w[1] - w[0] - d1).abs() < 1e-15, "non-linear step");
    }
}

/// §3.4: the GA must honour the generation budget imposed when a processor
/// is close to idle.
#[test]
fn generation_budget_respected() {
    let tasks = batch(60, 3);
    let procs = hetero_procs(6);
    let cfg = PnConfig::default();
    let out = plan_batch(
        &PlanRequest::new(&tasks, &procs, 9).with_budget(PlanBudget::Generations(7)),
        &cfg,
    );
    assert_eq!(out.generations, 7);
}

/// §4 headline: on a communication-heavy heterogeneous scenario, PN beats
/// the no-information baseline (RR) and the communication-blind GA (ZO) on
/// makespan, averaged over replications.
#[test]
fn pn_beats_rr_and_zo_when_communication_matters() {
    use dts_bench::{Scenario, SchedulerKind};
    let mut scenario = Scenario::paper_base(
        SizeDistribution::Normal {
            mean: 1000.0,
            variance: 9.0e5,
        },
        150,
        4,
    );
    scenario.cluster.processors = 8;
    scenario.reps = 4;
    scenario.threads = 2;
    scenario.build.batch_size = 50;
    scenario.build.max_generations = 150;
    let scenario = scenario.with_comm_cost(40.0);

    let pn = scenario.run(SchedulerKind::Pn);
    let rr = scenario.run(SchedulerKind::Rr);
    let zo = scenario.run(SchedulerKind::Zo);
    assert_eq!(pn.failures + rr.failures + zo.failures, 0);
    assert!(
        pn.makespan.mean() < rr.makespan.mean(),
        "PN {} should beat RR {}",
        pn.makespan.mean(),
        rr.makespan.mean()
    );
    assert!(
        pn.makespan.mean() < zo.makespan.mean(),
        "PN {} should beat ZO {}",
        pn.makespan.mean(),
        zo.makespan.mean()
    );
    assert!(pn.efficiency.mean() > rr.efficiency.mean());
}

/// §4: cheaper communication means higher efficiency for every scheduler —
/// the common monotone trend of Figs. 5 and 7.
#[test]
fn efficiency_rises_as_communication_gets_cheaper() {
    use dts_bench::{Scenario, SchedulerKind};
    let base = {
        let mut s = Scenario::paper_base(
            SizeDistribution::Uniform {
                lo: 10.0,
                hi: 1000.0,
            },
            100,
            3,
        );
        s.cluster.processors = 8;
        s.threads = 2;
        s.build.batch_size = 50;
        s.build.max_generations = 100;
        s
    };
    for kind in [SchedulerKind::Pn, SchedulerKind::Ef] {
        let costly = base.clone().with_comm_cost(100.0).run(kind);
        let cheap = base.clone().with_comm_cost(5.0).run(kind);
        assert!(
            cheap.efficiency.mean() > costly.efficiency.mean(),
            "{:?}: {} !> {}",
            kind,
            cheap.efficiency.mean(),
            costly.efficiency.mean()
        );
    }
}

/// The GA's schedule quality: on a bimodal batch the evolved makespan must
/// come within 25 % of the theoretical optimum (total work over total
/// rate), far better than a worst-case skew.
#[test]
fn ga_schedule_quality_near_bound() {
    let sizes: Vec<f64> = (0..80)
        .map(|i| if i % 4 == 0 { 2000.0 } else { 250.0 })
        .collect();
    let tasks: Vec<Task> = sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| Task::new(TaskId(i as u32), s, SimTime::ZERO))
        .collect();
    let procs = hetero_procs(8);
    let total: f64 = sizes.iter().sum();
    let capacity: f64 = procs.iter().map(|p| p.rate).sum();
    let bound = total / capacity;

    let mut cfg = PnConfig::default();
    cfg.ga.max_generations = 400;
    let out = plan_batch(&PlanRequest::new(&tasks, &procs, 0xBEEF), &cfg);
    assert!(
        out.best_makespan < bound * 1.25,
        "makespan {} vs bound {bound}",
        out.best_makespan
    );
}

/// Replication machinery: parallel replication must agree with sequential
/// (bitwise) — the experiments' averages do not depend on thread count.
#[test]
fn replication_is_thread_invariant() {
    let cluster = ClusterSpec::paper_defaults(6, 3.0);
    let workload = WorkloadSpec::batch(80, SizeDistribution::Poisson { lambda: 100.0 });
    let factory = |n: usize, _seed: u64| -> Box<dyn dts::model::Scheduler> {
        Box::new(dts::schedulers::EarliestFinish::new(n))
    };
    let seq = run_replicated(
        &cluster,
        &workload,
        &factory,
        &SimConfig::default(),
        1,
        6,
        1,
    );
    let par = run_replicated(
        &cluster,
        &workload,
        &factory,
        &SimConfig::default(),
        1,
        6,
        2,
    );
    for (a, b) in seq.iter().zip(par.iter()) {
        assert_eq!(a.as_ref().unwrap().makespan, b.as_ref().unwrap().makespan);
    }
}
