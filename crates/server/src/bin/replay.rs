//! `replay` — the arrival-trace replay harness for the online scheduler.
//!
//! Two modes:
//!
//! ```text
//! replay <trace-file>                  # replay a recorded trace
//! replay record <trace-file> [n seed]  # record a fresh trace to a file
//! ```
//!
//! **Replay** parses the `dts-arrival-trace v1` file, drives a
//! [`dts_server::DtsServer`] through every submission in arrival order
//! (tenants assigned round-robin), and prints each placement plus the
//! server's lifetime stats. Malformed traces exit with status 2 and the
//! parser's diagnostic (line number and cause) — never a panic. Under the
//! default unlimited plan budget the output is a pure function of the
//! trace and the seed, so a replay is reproducible anywhere — and, for a
//! pinned batch size, matches the batch `PnScheduler` pipeline
//! placement-for-placement (`crates/server/tests/oracle.rs`).
//!
//! **Record** generates the paper's task mix (normal sizes, Poisson
//! stream arrivals) for `n` tasks at the given seed and writes the
//! serialized trace — the same records `ArrivalTrace::record` produces
//! from any [`dts_sim`] workload spec. An `n` or `seed` that does not
//! parse exits with status 2 and `n=value: <parse error>`.
//!
//! Environment knobs (replay mode): `DTS_PROCS` (default 4), `DTS_BATCH`
//! (8), `DTS_GENS` (100), `DTS_TENANTS` (2), `DTS_SEED` (overrides the PN
//! seed). A knob that is set but does not parse exits with status 2 and
//! `NAME=value: <parse error>`.

use std::process::ExitCode;

use dts_core::PnConfig;
use dts_model::{ArrivalProcess, SizeDistribution, WorkloadSpec};
use dts_server::{replay_trace, PlanBudget, ProcessorProfile, ServerConfig};
use dts_sim::arrivals::ArrivalTrace;

/// `raw` parsed, or `default` when it is absent. A value that does not
/// parse exits with status 2 and `NAME=value: <parse error>`, so a typo
/// never runs the default silently.
fn parse_or<T>(name: &str, raw: Option<&str>, default: T) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let Some(raw) = raw else {
        return default;
    };
    raw.parse().unwrap_or_else(|e| {
        eprintln!("{name}={raw}: {e}");
        std::process::exit(2);
    })
}

/// The knob `key`, or `default` when it is unset ([`parse_or`]).
fn env_or<T>(key: &str, default: T) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let raw = std::env::var_os(key).map(|v| v.to_string_lossy().into_owned());
    parse_or(key, raw.as_deref(), default)
}

fn record(path: &str, n: usize, seed: u64) -> ExitCode {
    let spec = WorkloadSpec {
        count: n,
        sizes: SizeDistribution::Normal {
            mean: 1000.0,
            variance: 9.0e5,
        },
        arrival: ArrivalProcess::PoissonStream {
            mean_interarrival: 1.0,
        },
    };
    let trace = match ArrivalTrace::record(&spec, seed) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("replay: recording failed: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::write(path, trace.serialize()) {
        eprintln!("replay: cannot write {path}: {e}");
        return ExitCode::from(1);
    }
    eprintln!("replay: recorded {} tasks to {path} (seed {seed})", n);
    ExitCode::SUCCESS
}

fn replay(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("replay: cannot read {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let trace = match ArrivalTrace::parse(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("replay: {path} is not a valid trace: {e}");
            return ExitCode::from(2);
        }
    };

    let procs: usize = env_or("DTS_PROCS", 4);
    let batch: usize = env_or("DTS_BATCH", 8);
    let gens: u32 = env_or("DTS_GENS", 100);
    let tenants: usize = env_or("DTS_TENANTS", 2);
    let mut pn = PnConfig::default();
    pn.ga.max_generations = gens;
    pn.seed = env_or("DTS_SEED", pn.seed);
    let config = ServerConfig {
        // A mildly heterogeneous fleet so placements show rate awareness.
        procs: (0..procs)
            .map(|i| ProcessorProfile {
                rate: 75.0 + 75.0 * (i as f64 + 0.5) / procs as f64,
                comm_cost: 0.1,
            })
            .collect(),
        pn,
        tenants,
        tenant_capacity: trace.len().max(1),
        batch_size: batch,
        budget: PlanBudget::Unlimited,
    };
    eprintln!(
        "replay: {} tasks from {path} → {procs} procs, batch {batch}, \
         gens ≤ {gens}, {tenants} tenants, seed {}",
        trace.len(),
        config.pn.seed
    );

    let report = match replay_trace(&trace, config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replay: submission rejected: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:>6} {:>8} {:>6} {:>6} {:>14}",
        "task", "tenant", "proc", "batch", "makespan_est_s"
    );
    for p in &report.placements {
        println!(
            "{:>6} {:>8} {:>6} {:>6} {:>14.3}",
            p.task.id.0, p.tenant.0, p.proc.0, p.batch, p.makespan_estimate
        );
    }
    let s = report.stats;
    eprintln!(
        "replay: placed {} of {} in {} batches ({} GA generations, {} plateau stops, \
         peak pending {}, shed {})",
        s.placed, s.submitted, s.batches, s.generations, s.plateau_stops, s.max_pending, s.shed
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => match args.get(1) {
            Some(path) => {
                let n = parse_or("n", args.get(2).map(String::as_str), 24);
                let seed = parse_or("seed", args.get(3).map(String::as_str), 2005);
                record(path, n, seed)
            }
            None => {
                eprintln!("usage: replay record <trace-file> [n seed]");
                ExitCode::from(1)
            }
        },
        Some(path) => replay(path),
        None => {
            eprintln!("usage: replay <trace-file> | replay record <trace-file> [n seed]");
            ExitCode::from(1)
        }
    }
}
