//! The end-to-end benchmark of the PN scheduler.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! One run generates the workload's inputs from `--seed`, measures for
//! `--seconds`, checks the outputs, and prints every metric by name with
//! its unit; the last line of standard output is the result as one JSON
//! object. `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` (or `--traced`) wraps the same calls in benchmark-side spans
//! and reports the per-layer metrics. Without `--workload`, every workload
//! runs in a process of its own, untraced and then traced. See README.md.

mod common;
mod layers;
mod plan;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use common::Args;
use report::{peak_rss_mib, Report, END_TO_END, PER_LAYER};
use workloads::{catalogue, Family, Workload};

/// Confirm any claim on a second seed.
const DEFAULT_SEED: u64 = 20050404;
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage: dts-benchmark [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1> | --traced]";

fn parse_args() -> Result<(Option<String>, Args), String> {
    let mut workload = None;
    let mut args = Args {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed: {e}\n{USAGE}"))?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds must be a positive number\n{USAGE}"))?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1\n{USAGE}")),
                };
            }
            "--traced" => args.traced = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok((workload, args))
}

fn run_workload(w: &Workload, args: &Args) -> Result<Report, String> {
    match &w.family {
        Family::Serve(p) => serve::run(w.name, p, args),
        Family::Plan(p) => plan::run(w.name, p, args),
        Family::Sim(p) => sim::run(w.name, p, args),
    }
}

/// Runs one workload in this process and prints its record and result.
fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("workload   {}", w.name);
    println!("why        {}", w.why);
    println!("seed       {}", args.seed);
    println!("seconds    {}", args.seconds);
    println!("traced     {}", args.traced);
    println!("nproc      {nproc}");
    println!("parameters {:?}", w.family);

    let mut report = match run_workload(w, args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    let table = if args.traced {
        PER_LAYER
    } else {
        report.set("peak_rss_mib", peak_rss_mib());
        END_TO_END
    };
    for failure in &report.failures {
        println!("FAILED     {failure}");
    }
    for (name, unit) in table {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<44} {value:>16.6} {unit}");
    }
    let (correct, line) = report.result_line(table);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, untraced and then traced, each in a process of its
/// own so that peak memory is attributable; fails if any of them did.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable to start the workloads: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for w in catalogue() {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            all_ok &= matches!(status, Ok(s) if s.success());
            println!();
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match workload {
        None => run_all(&args),
        Some(name) => match catalogue().into_iter().find(|w| w.name == name) {
            Some(w) => run_one(&w, &args),
            None => {
                let names: Vec<&str> = catalogue().iter().map(|w| w.name).collect();
                eprintln!("unknown workload {name}; one of: {}", names.join(", "));
                ExitCode::FAILURE
            }
        },
    }
}
