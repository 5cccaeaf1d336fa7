//! Oracle equivalence: the online server replaying a recorded trace must
//! place every task exactly where the batch pipeline places it.
//!
//! The oracle is the existing, simulator-proven [`PnScheduler`] driven
//! directly through the [`Scheduler`] trait: every task enqueued up
//! front, planned batch by batch against a static [`SystemView`] whose
//! rates and communication estimates equal the server's
//! [`ProcessorProfile`]s, queues drained only at the end (matching a
//! replay, where nothing is dispatched between plan calls). With the
//! batch size pinned (`initial_batch == max_batch == batch_size`) and an
//! effectively unbounded idle horizon, both pipelines see identical
//! batches, identical processor states, and identical per-call seeds —
//! so their placements must be **bit-identical**, at any evaluator
//! worker count.

use dts_core::{PnConfig, PnScheduler};
use dts_model::sched::ProcessorView;
use dts_model::{
    ArrivalProcess, ProcessorId, Scheduler, SimTime, SizeDistribution, SystemView, WorkloadSpec,
};
use dts_server::{replay_trace, PlanBudget, ProcessorProfile, ServerConfig};
use dts_sim::arrivals::ArrivalTrace;

/// The heterogeneous fleet both pipelines plan onto.
const RATES: [f64; 4] = [100.0, 150.0, 80.0, 120.0];
const COMMS: [f64; 4] = [0.1, 0.2, 0.05, 0.15];
const BATCH: usize = 12;

fn trace(n: usize, seed: u64, arrival: ArrivalProcess) -> ArrivalTrace {
    ArrivalTrace::record(
        &WorkloadSpec {
            count: n,
            sizes: SizeDistribution::Normal {
                mean: 1000.0,
                variance: 9.0e5,
            },
            arrival,
        },
        seed,
    )
    .unwrap()
}

fn pn_config(workers: usize) -> PnConfig {
    let mut pn = PnConfig::default();
    pn.ga.max_generations = 40;
    if workers > 1 {
        pn = pn.with_eval_workers(workers);
    }
    pn
}

fn server_config(pn: PnConfig) -> ServerConfig {
    ServerConfig {
        procs: RATES
            .iter()
            .zip(COMMS)
            .map(|(&rate, comm_cost)| ProcessorProfile { rate, comm_cost })
            .collect(),
        pn,
        tenants: 2,
        tenant_capacity: BATCH,
        batch_size: BATCH,
        budget: PlanBudget::Unlimited,
    }
}

/// Runs the batch pipeline: enqueue everything, plan until empty against
/// a static view, then drain the committed queues per processor.
fn oracle_queues(tasks: &[dts_model::Task], pn: PnConfig) -> Vec<Vec<u32>> {
    let mut cfg = pn;
    // Pin the §3.7 dynamic sizer so oracle batches equal server batches.
    cfg.initial_batch = BATCH;
    cfg.max_batch = BATCH;
    let mut sched = PnScheduler::new(RATES.len(), cfg);
    sched.enqueue(tasks);
    let view = SystemView {
        now: SimTime::ZERO,
        processors: RATES
            .iter()
            .zip(COMMS)
            .enumerate()
            .map(|(i, (&rate, comm))| ProcessorView {
                id: ProcessorId(i as u16),
                rate_estimate: rate,
                inflight_mflops: 0.0,
                comm_estimate: comm,
            })
            .collect(),
        // Effectively unbounded horizon: the §3.4 generation budget
        // saturates, so `ga.max_generations` is the binding cap on both
        // sides.
        seconds_until_first_idle: Some(1.0e15),
    };
    while sched.unscheduled_len() > 0 {
        sched.plan(&view);
    }
    (0..RATES.len())
        .map(|j| {
            let pid = ProcessorId(j as u16);
            let mut ids = Vec::new();
            while let Some(t) = sched.next_task_for(pid) {
                ids.push(t.id.0);
            }
            ids
        })
        .collect()
}

fn assert_oracle_equivalence(arrival: ArrivalProcess, n: usize, seed: u64) {
    let t = trace(n, seed, arrival);
    let reference = oracle_queues(t.tasks(), pn_config(1));
    for workers in [1usize, 2, 8] {
        let report = replay_trace(&t, server_config(pn_config(workers))).unwrap();
        assert_eq!(report.placements.len(), n);
        assert_eq!(
            report.queues(RATES.len()),
            reference,
            "server replay (workers={workers}) diverged from the batch pipeline"
        );
    }
}

#[test]
fn replay_matches_batch_pipeline_poisson_stream() {
    assert_oracle_equivalence(
        ArrivalProcess::PoissonStream {
            mean_interarrival: 0.3,
        },
        47,
        2005,
    );
}

#[test]
fn replay_matches_batch_pipeline_all_at_start() {
    assert_oracle_equivalence(ArrivalProcess::AllAtStart, 36, 7);
}

#[test]
fn committed_tiny_trace_replays_and_round_trips() {
    // Guards the trace CI smoke-runs (`crates/server/tests/data/tiny.trace`):
    // it must stay parseable, bit-identical under re-serialization, and
    // equivalent to the batch pipeline like any other trace.
    let text = include_str!("data/tiny.trace");
    let t = ArrivalTrace::parse(text).unwrap();
    assert_eq!(t.serialize(), text, "committed trace round-trips bitwise");
    let reference = oracle_queues(t.tasks(), pn_config(1));
    let report = replay_trace(&t, server_config(pn_config(1))).unwrap();
    assert_eq!(report.placements.len(), t.len());
    assert_eq!(report.queues(RATES.len()), reference);
}

#[test]
fn replay_from_serialized_trace_matches_too() {
    // The full loop: record → serialize → parse → replay ≡ oracle.
    let t = trace(
        30,
        13,
        ArrivalProcess::PoissonStream {
            mean_interarrival: 0.5,
        },
    );
    let reparsed = ArrivalTrace::parse(&t.serialize()).unwrap();
    let reference = oracle_queues(t.tasks(), pn_config(1));
    let report = replay_trace(&reparsed, server_config(pn_config(1))).unwrap();
    assert_eq!(report.queues(RATES.len()), reference);
}
