//! `sim_*`: full discrete-event simulations, run one after another; one
//! pass over the round's replication seeds is one round.

use std::time::Instant;

use crate::common::{
    measure_setup, overhead_share, report_plan_batch, report_setup_layers, report_unit_costs,
    write_trace, Args, Rounds, Window,
};
use crate::layers::{
    adapter_spans, plan_call, probe_units, sim_reference, sim_run, sim_sample, sim_setup,
    SimInputs, SimOutcome, UnitCosts, RUN, UNIT_PROBES,
};
use crate::report::Report;
use crate::stats::per;
use crate::trace::Tracer;
use crate::workloads::{SimParams, SimScheduler};

/// Runs replication `i` (cycling over the round), checks that it completed
/// every task and that a repeated seed repeats its report; keeps the first
/// report per seed. Returns the wall seconds of the run.
fn replicate(
    report: &mut Report,
    inputs: &SimInputs,
    firsts: &mut Vec<SimOutcome>,
    i: usize,
    tracer: &mut Tracer,
) -> f64 {
    let rep = i % inputs.reps();
    let started = Instant::now();
    let outcome = sim_run(inputs, rep, tracer);
    let wall_s = started.elapsed().as_secs_f64();
    match outcome {
        Err(e) => {
            report.attempt(1, 1);
            report.failures.push(format!("replication {i}: {e}"));
        }
        Ok(outcome) => {
            report.attempt(1, 0);
            report.check(outcome.tasks_completed == inputs.tasks() as u64, || {
                format!(
                    "replication {i}: completed {} of {} tasks",
                    outcome.tasks_completed,
                    inputs.tasks()
                )
            });
            match firsts.get(rep) {
                Some(first) => report.check(*first == outcome, || {
                    format!("replication {i}: a repeated seed did not repeat its report")
                }),
                None => firsts.push(outcome),
            }
        }
    }
    wall_s
}

/// Replication 0 must be the one `run_simulation` runs from the same seed.
fn check_reference(report: &mut Report, inputs: &SimInputs, firsts: &[SimOutcome]) {
    let reference = sim_reference(inputs, 0);
    report.check(reference.as_ref().ok() == firsts.first(), || {
        format!("replication 0 differs from run_simulation on the same seed: {reference:?}")
    });
}

fn mean_of_bits(firsts: &[SimOutcome], field: impl Fn(&SimOutcome) -> u64) -> f64 {
    per(
        firsts.iter().map(|o| f64::from_bits(field(o))).sum(),
        firsts.len() as f64,
    )
}

fn untraced(p: &SimParams, args: &Args, report: &mut Report) -> Result<(), String> {
    let setup = measure_setup(|| Ok(sim_setup(p, args.seed)))?;
    let inputs = &setup.inputs;

    let window = Window::open(args.seconds);
    let mut off = Tracer::new(false);
    let mut rounds = Rounds::default();
    let mut firsts = Vec::new();
    let mut i = 0;
    while rounds.is_empty() || !window.past(1.0) {
        let mut latency_ms = Vec::with_capacity(inputs.reps());
        for _ in 0..inputs.reps() {
            latency_ms.push(replicate(report, inputs, &mut firsts, i, &mut off) * 1e3);
            i += 1;
        }
        rounds.push_units(inputs.tasks(), &latency_ms);
    }
    check_reference(report, inputs, &firsts);

    report.set("setup_s", setup.median_s);
    rounds.report(report);
    report.set("makespan_s", mean_of_bits(&firsts, |o| o.makespan_bits));
    report.set("efficiency", mean_of_bits(&firsts, |o| o.efficiency_bits));
    Ok(())
}

fn traced(name: &str, p: &SimParams, args: &Args, report: &mut Report) -> Result<(), String> {
    let setup = measure_setup(|| Ok(sim_setup(p, args.seed)))?;
    let inputs = &setup.inputs;
    report_setup_layers(report, &setup.totals);
    let window = Window::open(args.seconds);

    // Each replication once as it is and once under the scheduler adapter.
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut firsts, mut firsts_traced) = (Vec::new(), Vec::new());
    let mut first_rep = 0..0;
    let mut i = 0;
    let sample = sim_sample(inputs);
    // Without a GA there is nothing to probe: the rounds take the window.
    let rounds_share = if sample.is_some() { 0.6 } else { 1.0 };
    while i == 0 || !window.past(rounds_share) {
        for _ in 0..inputs.reps() {
            untraced_s.push(replicate(report, inputs, &mut firsts, i, &mut off));
            tracer.enter(RUN);
            traced_s.push(replicate(
                report,
                inputs,
                &mut firsts_traced,
                i,
                &mut tracer,
            ));
            tracer.exit();
            if i == 0 {
                first_rep = 0..tracer.mark();
            }
            i += 1;
        }
    }
    report.check(firsts == firsts_traced, || {
        "the scheduler adapter changed a replication's report".to_string()
    });
    check_reference(report, inputs, &firsts);

    // Exact counts are per round; times are per round too, scaled from
    // however many rounds the window held.
    let rounds = i as f64 / inputs.reps() as f64;
    let round_tasks = (inputs.reps() * inputs.tasks()) as f64;
    let sum = |field: fn(&SimOutcome) -> u64| firsts.iter().map(field).sum::<u64>() as f64;
    let events = sum(|o| o.events);
    let plan_calls = sum(|o| o.plan_invocations);
    let (enqueue_span, plan_span) = adapter_spans(p.scheduler);
    let (run_s, _) = tracer.busy("sim.run");
    let (enqueue_s, _) = tracer.busy(enqueue_span);
    let (plan_s, _) = tracer.busy(plan_span);
    let self_s = (run_s - enqueue_s - plan_s).max(0.0) / rounds;
    report.set("sim.run.events", events);
    report.set("sim.run.plan_invocations", plan_calls);
    report.set("sim.run.generations", sum(|o| o.generations));
    report.set(
        "sim.run.events_per_s",
        per(events * rounds, untraced_s.iter().sum()),
    );
    report.set("sim.run.self_s", self_s);
    report.set("sim.run.self_ns_per_event", per(self_s * 1e9, events));
    match p.scheduler {
        SimScheduler::Pn => {
            report.set(
                "core.pn_plan.ms_per_call",
                per(plan_s / rounds * 1e3, plan_calls),
            );
            report.set("core.pn_plan.calls", plan_calls);
            report.set("core.pn_plan.busy_s", plan_s / rounds);
            report.set(
                "core.pn_enqueue.ns_per_task",
                per(enqueue_s / rounds * 1e9, round_tasks),
            );
        }
        SimScheduler::EarliestFinish => {
            report.set(
                "schedulers.ef_plan.ns_per_task",
                per(plan_s / rounds * 1e9, round_tasks),
            );
            report.set("schedulers.ef_plan.busy_s", plan_s / rounds);
        }
    }
    report.set("trace.unattributed_share", tracer.unattributed_share(RUN));
    report.set(
        "trace.overhead_share",
        overhead_share(&traced_s, &untraced_s),
    );

    let probes_from = tracer.mark();
    if let Some(sample) = sample {
        tracer.enter("core.plan_batch");
        let planned = plan_call(&sample, sample.seed());
        tracer.exit();
        report_plan_batch(report, &tracer, 1, [&planned]);
        let mut units = UnitCosts::default();
        probe_units(
            &sample,
            window.rest(0.3) / UNIT_PROBES,
            &mut tracer,
            &mut units,
        );
        report_unit_costs(report, &units);
    }

    // A round holds a span per scheduler call; the file keeps the first
    // replication and the probes.
    write_trace(name, &tracer, &[first_rep, probes_from..tracer.mark()])
        .map_err(|e| format!("writing the trace: {e}"))?;
    Ok(())
}

/// Runs one `sim_*` workload.
pub fn run(name: &str, p: &SimParams, args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    if args.traced {
        traced(name, p, args, &mut report)?;
    } else {
        untraced(p, args, &mut report)?;
    }
    Ok(report)
}
