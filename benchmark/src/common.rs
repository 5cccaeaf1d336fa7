//! What the three workload drivers share: arguments, the repeated set-up,
//! the time window, and turning set-up times and unit costs into layer
//! metrics.

use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::layers::{Planned, SetupTimes, UnitCosts};
use crate::report::Report;
use crate::stats::{median, per, percentile};
use crate::trace::Tracer;

/// The command line of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--seed`: the only source of randomness.
    pub seed: u64,
    /// `--seconds`: how long to measure.
    pub seconds: f64,
    /// `--trace 1` / `--traced`: the per-layer pass.
    pub traced: bool,
}

/// A measuring window that opened when it was created.
pub struct Window {
    opened: Instant,
    length: Duration,
}

impl Window {
    /// Opens a window of `seconds`.
    pub fn open(seconds: f64) -> Self {
        Self {
            opened: Instant::now(),
            length: Duration::from_secs_f64(seconds),
        }
    }

    /// True once `share` of the window has passed.
    pub fn past(&self, share: f64) -> bool {
        self.opened.elapsed() >= self.length.mul_f64(share)
    }

    /// What is left of the window, but at least `floor_share` of it.
    pub fn rest(&self, floor_share: f64) -> Duration {
        self.length
            .saturating_sub(self.opened.elapsed())
            .max(self.length.mul_f64(floor_share))
    }
}

/// Throughput and latency of each round. Everything is a median of
/// medians: within a round over its units of work (plan cycles, plan calls,
/// replications), then over the rounds. The host stalls a vCPU for
/// milliseconds now and then; a stall lands in one unit, and a slow spell
/// in a few rounds, so neither moves the result.
#[derive(Debug, Default)]
pub struct Rounds {
    tasks_per_s: Vec<f64>,
    p50_ms: Vec<f64>,
    p90_ms: Vec<f64>,
}

impl Rounds {
    /// Records one round: the rate (tasks ÷ wall seconds) of each of its
    /// units of work, and each of its latency samples.
    pub fn push(&mut self, unit_tasks_per_s: &[f64], latency_ms: &[f64]) {
        self.tasks_per_s.push(median(unit_tasks_per_s));
        self.p50_ms.push(percentile(latency_ms, 50.0));
        self.p90_ms.push(percentile(latency_ms, 90.0));
    }

    /// Records a round whose units each complete `unit_tasks` tasks and
    /// whose latency samples are the units' own wall times.
    pub fn push_units(&mut self, unit_tasks: usize, unit_ms: &[f64]) {
        let rates: Vec<f64> = unit_ms
            .iter()
            .map(|ms| per(unit_tasks as f64 * 1e3, *ms))
            .collect();
        self.push(&rates, unit_ms);
    }

    /// True before the first round.
    pub fn is_empty(&self) -> bool {
        self.tasks_per_s.is_empty()
    }

    /// Sets `tasks_per_s`, `latency_p50_ms` and `latency_p90_ms`.
    pub fn report(&self, report: &mut Report) {
        report.set("tasks_per_s", median(&self.tasks_per_s));
        report.set("latency_p50_ms", median(&self.p50_ms));
        report.set("latency_p90_ms", median(&self.p90_ms));
    }
}

/// Inputs with what setting them up cost.
pub struct Setup<I> {
    /// The inputs of the last repetition.
    pub inputs: I,
    /// Median seconds of one set-up.
    pub median_s: f64,
    /// Step times and tasks summed over every repetition.
    pub totals: SetupTimes,
}

/// Sets up several times — at least 5, until half a second has gone, at
/// most 50 — because one set-up of a small workload is too short to time
/// steadily; reports the median.
pub fn measure_setup<I>(
    mut setup: impl FnMut() -> Result<(I, SetupTimes), String>,
) -> Result<Setup<I>, String> {
    let started = Instant::now();
    let mut seconds = Vec::new();
    let mut totals = SetupTimes::default();
    loop {
        let one = Instant::now();
        let (inputs, times) = setup()?;
        seconds.push(one.elapsed().as_secs_f64());
        totals.generate_s += times.generate_s;
        totals.dag_build_s += times.dag_build_s;
        totals.record_s += times.record_s;
        totals.serialize_s += times.serialize_s;
        totals.parse_s += times.parse_s;
        totals.tasks += times.tasks;
        let enough = seconds.len() >= 5 && started.elapsed() >= Duration::from_millis(500);
        if enough || seconds.len() >= 50 {
            return Ok(Setup {
                inputs,
                median_s: median(&seconds),
                totals,
            });
        }
    }
}

/// The set-up layer metrics: nanoseconds per generated task of each step.
pub fn report_setup_layers(report: &mut Report, totals: &SetupTimes) {
    let tasks = totals.tasks as f64;
    let ns_per_task = |s: f64| per(s * 1e9, tasks);
    report.set(
        "model.workload_generate.ns_per_task",
        ns_per_task(totals.generate_s),
    );
    report.set(
        "model.dag_build.ns_per_task",
        ns_per_task(totals.dag_build_s),
    );
    report.set(
        "sim.arrivals_record.ns_per_task",
        ns_per_task(totals.record_s),
    );
    report.set(
        "sim.arrivals_serialize.ns_per_task",
        ns_per_task(totals.serialize_s),
    );
    report.set(
        "sim.arrivals_parse.ns_per_task",
        ns_per_task(totals.parse_s),
    );
}

/// The unit-cost layer metrics.
pub fn report_unit_costs(report: &mut Report, u: &UnitCosts) {
    report.set(
        "core.initial_population.us_per_individual",
        u.initial_population.per_unit() * 1e-3,
    );
    report.set("core.evaluate_into.ns_per_gene", u.evaluate_into.per_unit());
    report.set(
        "core.evaluate_swap_delta.ns_per_call",
        u.swap_delta.per_unit(),
    );
    report.set("core.rebalance_once.ns_per_call", u.rebalance.per_unit());
    report.set(
        "core.rebalance_once.commit_rate",
        per(u.rebalance_commits, u.rebalance.units),
    );
    report.set(
        "core.slot_precedence.us_per_batch",
        u.slot_precedence.per_unit() * 1e-3,
    );
    report.set("ga.start.us_per_call", u.ga_start.per_unit() * 1e-3);
    report.set("ga.step.us_per_generation", u.ga_step.per_unit() * 1e-3);
    report.set("ga.step.generations", u.ga_generations as f64);
    report.set("ga.select.ns_per_draw", u.select.per_unit());
    report.set("ga.crossover.ns_per_gene", u.crossover.per_unit());
    report.set("ga.mutate.ns_per_call", u.mutate.per_unit());
    report.set("ga.repair.ns_per_gene", u.repair.per_unit());
    report.set("ga.eval_batch_serial.ns_per_gene", u.eval_serial.per_unit());
    report.set("ga.eval_batch_pool.ns_per_gene", u.eval_pool.per_unit());
    report.set(
        "ga.eval_batch_pool.speedup",
        per(u.eval_serial.per_unit(), u.eval_pool.per_unit()),
    );
    report.set("distributions.prng.ns_per_u64", u.prng.per_unit());
}

/// The `core.plan_batch.*` and `ga.memo.*` layer metrics: time per call
/// over every `core.plan_batch` span, the exact number of distinct `calls`,
/// and the memo counters of their `outcomes`.
pub fn report_plan_batch<'a>(
    report: &mut Report,
    tracer: &Tracer,
    calls: usize,
    outcomes: impl IntoIterator<Item = &'a Planned>,
) {
    let (busy_s, spans) = tracer.busy("core.plan_batch");
    let (hits, lookups) = outcomes.into_iter().fold((0, 0), |(h, l), o| {
        (h + o.memo_hits, l + o.memo_hits + o.memo_misses)
    });
    report.set(
        "core.plan_batch.ms_per_call",
        per(busy_s * 1e3, spans as f64),
    );
    report.set("core.plan_batch.calls", calls as f64);
    report.set("ga.memo.hit_rate", per(hits as f64, lookups as f64));
    report.set("ga.memo.lookups", lookups as f64);
}

/// `traced ÷ untraced − 1` over the medians of paired walls, floored at 0.
pub fn overhead_share(traced_s: &[f64], untraced_s: &[f64]) -> f64 {
    (per(median(traced_s), median(untraced_s)) - 1.0).max(0.0)
}

/// Writes `results/<workload>.trace.jsonl` next to the benchmark's
/// manifest: the spans of `ranges` — the first traced round (one round is
/// enough to read; the rest were aggregated) and the probes.
pub fn write_trace(
    workload: &str,
    tracer: &Tracer,
    ranges: &[std::ops::Range<usize>],
) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.trace.jsonl"));
    let mut out = BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_jsonl(&mut out, workload, ranges)?;
    out.flush()?;
    Ok(path)
}
