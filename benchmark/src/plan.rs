//! `plan_*`: direct `plan_batch` calls on one batch; one pass over the
//! round's call seeds is one round.

use std::time::Instant;

use crate::common::{
    measure_setup, overhead_share, report_plan_batch, report_setup_layers, report_unit_costs,
    write_trace, Args, Rounds, Window,
};
use crate::layers::{
    plan_call, plan_setup, probe_units, PlanInputs, Planned, UnitCosts, RUN, UNIT_PROBES,
};
use crate::report::Report;
use crate::stats::per;
use crate::trace::Tracer;
use crate::workloads::PlanParams;

/// The outcome's queues are a permutation of the batch's slots.
fn is_permutation(planned: &Planned, tasks: usize) -> bool {
    let mut seen = vec![false; tasks];
    let mut count = 0;
    for &slot in planned.queues.iter().flatten() {
        match seen.get_mut(slot as usize) {
            Some(s) if !*s => *s = true,
            _ => return false,
        }
        count += 1;
    }
    count == tasks
}

/// Checks one call's outcome, and that a repeated call seed repeats its
/// outcome; keeps the first outcome per seed.
fn check_call(
    report: &mut Report,
    inputs: &PlanInputs,
    firsts: &mut Vec<Planned>,
    i: usize,
    planned: Planned,
) {
    let tasks = inputs.sample.tasks();
    report.attempt(1, 0);
    report.check(is_permutation(&planned, tasks), || {
        format!("call {i}: queues are not a permutation of 0..{tasks}")
    });
    match firsts.get(i % inputs.call_seeds.len()) {
        Some(first) if i >= inputs.call_seeds.len() => report.check(*first == planned, || {
            format!("call {i}: a repeated seed did not repeat its outcome")
        }),
        _ => firsts.push(planned),
    }
}

/// With evaluation threads, the serial twin's first calls must give the
/// same outcomes bit for bit (`plan_large_par` ≡ `plan_large`).
fn check_serial_twin(report: &mut Report, p: &PlanParams, args: &Args, firsts: &[Planned]) {
    if p.eval_workers <= 1 {
        return;
    }
    let serial = PlanParams {
        eval_workers: 1,
        ..p.clone()
    };
    let (twin, _) = plan_setup(&serial, args.seed);
    for (i, (&seed, first)) in twin.call_seeds.iter().zip(firsts).take(3).enumerate() {
        report.check(plan_call(&twin.sample, seed) == *first, || {
            format!("call {i}: the serial evaluator gives a different outcome")
        });
    }
}

/// Mean `best_makespan` over a round, and the mean of ideal ÷ best.
fn quality(inputs: &PlanInputs, firsts: &[Planned]) -> (f64, f64) {
    let ideal = inputs.sample.ideal_makespan();
    let makespans: Vec<f64> = firsts
        .iter()
        .map(|f| f64::from_bits(f.makespan_bits))
        .collect();
    let n = makespans.len() as f64;
    (
        makespans.iter().sum::<f64>() / n,
        makespans.iter().map(|m| per(ideal, *m)).sum::<f64>() / n,
    )
}

fn untraced(p: &PlanParams, args: &Args, report: &mut Report) -> Result<(), String> {
    let setup = measure_setup(|| Ok(plan_setup(p, args.seed)))?;
    let inputs = &setup.inputs;
    let round = inputs.call_seeds.len();

    let window = Window::open(args.seconds);
    let mut rounds = Rounds::default();
    let mut firsts = Vec::new();
    let mut i = 0;
    while rounds.is_empty() || !window.past(1.0) {
        let mut latency_ms = Vec::with_capacity(round);
        for &seed in &inputs.call_seeds {
            let call = Instant::now();
            let planned = plan_call(&inputs.sample, seed);
            latency_ms.push(call.elapsed().as_secs_f64() * 1e3);
            check_call(report, inputs, &mut firsts, i, planned);
            i += 1;
        }
        rounds.push_units(inputs.sample.tasks(), &latency_ms);
    }
    check_serial_twin(report, p, args, &firsts);

    let (makespan, efficiency) = quality(inputs, &firsts);
    report.set("setup_s", setup.median_s);
    rounds.report(report);
    report.set("makespan_s", makespan);
    report.set("efficiency", efficiency);
    Ok(())
}

fn traced(name: &str, p: &PlanParams, args: &Args, report: &mut Report) -> Result<(), String> {
    let setup = measure_setup(|| Ok(plan_setup(p, args.seed)))?;
    let inputs = &setup.inputs;
    report_setup_layers(report, &setup.totals);
    let round = inputs.call_seeds.len();
    let window = Window::open(args.seconds);

    // Each call once without and once with a span around it.
    let mut tracer = Tracer::new(true);
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut firsts = Vec::new();
    let mut i = 0;
    while i == 0 || !window.past(0.6) {
        for &seed in &inputs.call_seeds {
            let call = Instant::now();
            let plain = plan_call(&inputs.sample, seed);
            untraced_s.push(call.elapsed().as_secs_f64());

            let call = Instant::now();
            tracer.enter(RUN);
            tracer.enter("core.plan_batch");
            let planned = plan_call(&inputs.sample, seed);
            tracer.exit();
            report.check(plain == planned, || {
                format!("call {i}: the same seed gave two different outcomes")
            });
            check_call(report, inputs, &mut firsts, i, planned);
            tracer.exit();
            traced_s.push(call.elapsed().as_secs_f64());
            i += 1;
        }
    }
    let first_round = 0..tracer.mark();
    report_plan_batch(report, &tracer, round, &firsts);
    report.set("trace.unattributed_share", tracer.unattributed_share(RUN));
    report.set(
        "trace.overhead_share",
        overhead_share(&traced_s, &untraced_s),
    );

    let probes_from = tracer.mark();
    let mut units = UnitCosts::default();
    probe_units(
        &inputs.sample,
        window.rest(0.3) / UNIT_PROBES,
        &mut tracer,
        &mut units,
    );
    report_unit_costs(report, &units);

    write_trace(name, &tracer, &[first_round, probes_from..tracer.mark()])
        .map_err(|e| format!("writing the trace: {e}"))?;
    Ok(())
}

/// Runs one `plan_*` workload.
pub fn run(name: &str, p: &PlanParams, args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    if args.traced {
        traced(name, p, args, &mut report)?;
    } else {
        untraced(p, args, &mut report)?;
    }
    Ok(report)
}
