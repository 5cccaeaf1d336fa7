//! Metric names and units, and the result line.
//!
//! The two tables here are the benchmark's half of `BENCHMARK.json`: every
//! workload reports every end-to-end metric with tracing off and every
//! per-layer metric with tracing on. A layer a workload bypasses reports 0
//! — zero calls, zero time — which is the prediction "no change" made
//! checkable.

use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tasks_per_s", "tasks/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("makespan_s", "s"),
    ("efficiency", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, from the traced pass. Names are
/// `<crate>.<public function>.<quantity>`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.submit.ns_per_call", "ns"),
    ("server.submit.calls", "count"),
    ("server.plan.ms_p50", "ms"),
    ("server.plan.ms_p99", "ms"),
    ("server.plan.calls", "count"),
    ("server.plan.busy_s", "s"),
    ("server.plan.generations_per_batch", "count"),
    ("server.plan.batch_fill", "tasks"),
    ("server.max_pending", "count"),
    ("server.shed", "count"),
    ("server.drain.ms", "ms"),
    ("server.service_submit.rtt_us_p50", "us"),
    ("server.service.overhead_s", "s"),
    ("server.decision_latency.ms_p99", "ms"),
    ("core.plan_batch.ms_per_call", "ms"),
    ("core.plan_batch.calls", "count"),
    ("core.pn_plan.ms_per_call", "ms"),
    ("core.pn_plan.calls", "count"),
    ("core.pn_plan.busy_s", "s"),
    ("core.pn_enqueue.ns_per_task", "ns"),
    ("core.initial_population.us_per_individual", "us"),
    ("core.evaluate_into.ns_per_gene", "ns"),
    ("core.evaluate_swap_delta.ns_per_call", "ns"),
    ("core.rebalance_once.ns_per_call", "ns"),
    ("core.rebalance_once.commit_rate", "ratio"),
    ("core.slot_precedence.us_per_batch", "us"),
    ("ga.start.us_per_call", "us"),
    ("ga.step.us_per_generation", "us"),
    ("ga.step.generations", "count"),
    ("ga.select.ns_per_draw", "ns"),
    ("ga.crossover.ns_per_gene", "ns"),
    ("ga.mutate.ns_per_call", "ns"),
    ("ga.repair.ns_per_gene", "ns"),
    ("ga.memo.hit_rate", "ratio"),
    ("ga.memo.lookups", "count"),
    ("ga.eval_batch_serial.ns_per_gene", "ns"),
    ("ga.eval_batch_pool.ns_per_gene", "ns"),
    ("ga.eval_batch_pool.speedup", "ratio"),
    ("schedulers.ef_plan.ns_per_task", "ns"),
    ("schedulers.ef_plan.busy_s", "s"),
    ("sim.run.events", "count"),
    ("sim.run.plan_invocations", "count"),
    ("sim.run.generations", "count"),
    ("sim.run.events_per_s", "1/s"),
    ("sim.run.self_s", "s"),
    ("sim.run.self_ns_per_event", "ns"),
    ("sim.arrivals_record.ns_per_task", "ns"),
    ("sim.arrivals_serialize.ns_per_task", "ns"),
    ("sim.arrivals_parse.ns_per_task", "ns"),
    ("model.workload_generate.ns_per_task", "ns"),
    ("model.dag_build.ns_per_task", "ns"),
    ("distributions.prng.ns_per_u64", "ns"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (submissions, plan calls or replications) plus
    /// correctness checks run.
    pub attempted: u64,
    /// Operations that failed plus checks that did not hold.
    pub failed: u64,
    /// One line per failure, for the human reader.
    pub failures: Vec<String>,
    /// Metric values by name; names outside the pass's table are a bug.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts `n` operations that succeeded or failed on their own account.
    pub fn attempt(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{failed} of {n} operations failed"));
        }
    }

    /// Runs one correctness check.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of `table` (0 for a layer
    /// the workload bypassed). A metric that is not a finite number makes
    /// the run incorrect.
    pub fn result_line(&self, table: &[(&'static str, &'static str)]) -> (bool, String) {
        for name in self.metrics.keys() {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not in the table of this pass"
            );
        }
        let mut finite = true;
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                finite &= value.is_finite();
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let correct = self.failed == 0 && finite;
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        (correct, line)
    }
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 when unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
