//! `serve_*`: an arrival trace submitted closed-loop, one task at a time,
//! to `dts-server`; one pass over the trace is one round.
//!
//! The timed rounds drive the server in process — the service thread's own
//! loop without the channel. The live service (`spawn`, one client thread)
//! runs on every invocation too, for the bit-identity check, but its
//! timing is reported by the traced pass only: on a 2-vCPU host the cost
//! of the two thread hand-offs per submission, and of a plan call that
//! starts on a core just woken from idle, depends on where the kernel put
//! the two threads, and a whole process stays ±20 % fast or slow.

use crate::common::{
    measure_setup, overhead_share, report_plan_batch, report_setup_layers, report_unit_costs,
    write_trace, Args, Rounds, Window,
};
use crate::layers::{
    plan_call, probe_units, sample_matches, serve_inprocess, serve_live, serve_replay,
    serve_samples, serve_setup, Placed, ServeInputs, ServeRun, UnitCosts, RUN, UNIT_PROBES,
};
use crate::report::Report;
use crate::stats::{median, per, percentile};
use crate::trace::Tracer;
use crate::workloads::ServeParams;

const NS_PER_MS: f64 = 1e6;

/// Every task placed exactly once; every dependency placed by a strictly
/// earlier plan call than its dependant.
fn check_placements(report: &mut Report, inputs: &ServeInputs, placements: &[Placed]) {
    let n = inputs.tasks();
    let mut batch_of = vec![None; n];
    let mut duplicates = 0;
    for p in placements {
        match batch_of.get_mut(p.task as usize) {
            Some(slot @ None) => *slot = Some(p.batch),
            _ => duplicates += 1,
        }
    }
    let missing = batch_of.iter().filter(|b| b.is_none()).count();
    report.check(duplicates == 0 && missing == 0, || {
        format!("{missing} tasks never placed, {duplicates} placed twice or unknown")
    });
    let out_of_order = (0..n as u32)
        .flat_map(|id| inputs.deps_of(id).iter().map(move |&dep| (dep, id)))
        .filter(|&(dep, id)| batch_of[dep as usize] >= batch_of[id as usize])
        .count();
    report.check(out_of_order == 0, || {
        format!("{out_of_order} dependencies placed no earlier than their dependant")
    });
}

/// Counts a round's operations and compares its placements with the
/// reference.
fn check_round(
    report: &mut Report,
    what: &str,
    inputs: &ServeInputs,
    run: &ServeRun,
    reference: &[Placed],
) {
    report.attempt(inputs.tasks() as u64, run.errors + run.counters.shed);
    report.check(run.placements == reference, || {
        format!("{what} placements differ from replay_trace on the same trace and config")
    });
}

/// Makespan of the placements with nothing dispatched — the largest
/// Σ placed MFLOPs ÷ profile rate — and Σ work ÷ (makespan × Σ rate).
fn quality(inputs: &ServeInputs, placements: &[Placed]) -> (f64, f64) {
    let rates = inputs.rates();
    let mut load = vec![0.0; rates.len()];
    for p in placements {
        load[p.proc as usize] += p.mflops();
    }
    let makespan = load
        .iter()
        .zip(&rates)
        .map(|(l, r)| l / r)
        .fold(0.0, f64::max);
    let work: f64 = load.iter().sum();
    let capacity: f64 = rates.iter().sum();
    (makespan, per(work, makespan * capacity))
}

fn untraced(p: &ServeParams, args: &Args, report: &mut Report) -> Result<(), String> {
    let setup = measure_setup(|| serve_setup(p, args.seed))?;
    let inputs = &setup.inputs;
    let reference = serve_replay(inputs)?;

    let window = Window::open(args.seconds);
    let mut off = Tracer::new(false);
    let mut rounds = Rounds::default();
    let mut first: Option<ServeRun> = None;
    while first.is_none() || !window.past(1.0) {
        let run = serve_inprocess(inputs, &mut off);
        check_round(report, "in-process", inputs, &run, &reference);
        let latency_ms: Vec<f64> = run
            .latency_ns
            .iter()
            .map(|&ns| ns as f64 / NS_PER_MS)
            .collect();
        rounds.push(&run.cycle_tasks_per_s, &latency_ms);
        first.get_or_insert(run);
    }
    let first = first.expect("at least one round ran");
    check_placements(report, inputs, &first.placements);
    // The live service, off the clock: its placements are part of what is
    // checked on every run; its timing is a layer metric of the traced pass.
    let live = serve_live(inputs, false);
    check_round(report, "live", inputs, &live, &reference);

    let (makespan, efficiency) = quality(inputs, &first.placements);
    report.set("setup_s", setup.median_s);
    rounds.report(report);
    report.set("makespan_s", makespan);
    report.set("efficiency", efficiency);
    Ok(())
}

fn traced(name: &str, p: &ServeParams, args: &Args, report: &mut Report) -> Result<(), String> {
    let setup = measure_setup(|| serve_setup(p, args.seed))?;
    let inputs = &setup.inputs;
    report_setup_layers(report, &setup.totals);
    let reference = serve_replay(inputs)?;
    let window = Window::open(args.seconds);

    // The live service once more, with the client's round trips timed.
    let live = serve_live(inputs, true);
    check_round(report, "live", inputs, &live, &reference);
    let to_ms = |ns: &[u64]| -> Vec<f64> { ns.iter().map(|&n| n as f64 / NS_PER_MS).collect() };
    report.set(
        "server.service_submit.rtt_us_p50",
        percentile(&to_ms(&live.rtt_ns), 50.0) * 1e3,
    );
    report.set(
        "server.decision_latency.ms_p99",
        percentile(&to_ms(&live.latency_ns), 99.0),
    );

    // The same submissions in process, alternately without and with spans.
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut first_round = 0..0;
    let mut counters = live.counters;
    while traced_s.is_empty() || !window.past(0.6) {
        let plain = serve_inprocess(inputs, &mut off);
        check_round(report, "in-process", inputs, &plain, &reference);
        untraced_s.push(plain.wall_s);
        let spanned = serve_inprocess(inputs, &mut tracer);
        check_round(report, "traced in-process", inputs, &spanned, &reference);
        traced_s.push(spanned.wall_s);
        if first_round.is_empty() {
            first_round = 0..tracer.mark();
            counters = spanned.counters;
        }
    }
    let rounds = traced_s.len() as f64;
    let (submit_s, submits) = tracer.busy("server.submit");
    let (plan_s, plans) = tracer.busy("server.plan");
    let plan_ms = to_ms(&tracer.durations("server.plan"));
    report.set(
        "server.submit.ns_per_call",
        per(submit_s * 1e9, submits as f64),
    );
    report.set("server.submit.calls", submits as f64 / rounds);
    report.set("server.plan.ms_p50", percentile(&plan_ms, 50.0));
    report.set("server.plan.ms_p99", percentile(&plan_ms, 99.0));
    report.set("server.plan.calls", plans as f64 / rounds);
    report.set("server.plan.busy_s", plan_s / rounds);
    report.set(
        "server.plan.generations_per_batch",
        per(counters.generations as f64, counters.batches as f64),
    );
    report.set(
        "server.plan.batch_fill",
        per(counters.placed as f64, counters.batches as f64),
    );
    report.set("server.max_pending", counters.max_pending as f64);
    report.set("server.shed", counters.shed as f64);
    report.set(
        "server.drain.ms",
        median(&to_ms(&tracer.durations("server.drain"))),
    );
    report.set(
        "server.service.overhead_s",
        live.wall_s - median(&untraced_s),
    );
    report.set("trace.unattributed_share", tracer.unattributed_share(RUN));
    report.set(
        "trace.overhead_share",
        overhead_share(&traced_s, &untraced_s),
    );

    // Every `sample_every`-th batch, replayed through plan_batch (which
    // must reproduce the served placements) and then through the inner
    // layers for unit costs.
    let probes_from = tracer.mark();
    let samples = serve_samples(inputs, &reference, p.sample_every);
    let slice = window.rest(0.3) / (samples.len().max(1) as u32 * UNIT_PROBES);
    let mut units = UnitCosts::default();
    let mut planned = Vec::with_capacity(samples.len());
    for (batch_no, sample) in &samples {
        tracer.enter("core.plan_batch");
        let outcome = plan_call(sample, sample.seed());
        tracer.exit();
        report.check(
            sample_matches(sample, *batch_no, &outcome, &reference),
            || format!("plan_batch on the rebuilt batch {batch_no} places tasks differently from the server"),
        );
        planned.push(outcome);
        probe_units(sample, slice, &mut tracer, &mut units);
    }
    report_plan_batch(report, &tracer, planned.len(), &planned);
    report_unit_costs(report, &units);

    write_trace(name, &tracer, &[first_round, probes_from..tracer.mark()])
        .map_err(|e| format!("writing the trace: {e}"))?;
    Ok(())
}

/// Runs one `serve_*` workload.
pub fn run(name: &str, p: &ServeParams, args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    if args.traced {
        traced(name, p, args, &mut report)?;
    } else {
        untraced(p, args, &mut report)?;
    }
    Ok(report)
}
