//! `repro [name…]` — runs the experiments of [`dts_bench::experiments`]:
//! all of them in table order when no name is given, otherwise the named
//! ones. Each prints its table (and verdict, if it computes one) and writes
//! `results/<name>.csv`. An unknown name exits 2 before anything runs.
//!
//! ```text
//! cargo run --release -p dts-bench --bin repro -- fig5 ablate_comm
//! DTS_REPS=1 DTS_TASKS=20 DTS_PROCS=4 cargo run --release -p dts-bench --bin repro
//! ```

use dts_bench::experiments::select;
use dts_bench::write_csv;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let experiments = select(&names).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    for experiment in &experiments {
        eprintln!("==== {} ====\n{}", experiment.name, experiment.claim);
        let outcome = (experiment.run)();
        println!("{}", outcome.table.render());
        if let Some(verdict) = &outcome.verdict {
            println!("{verdict}");
        }
        let path = write_csv(&outcome.table, experiment.name).expect("write CSV");
        eprintln!("wrote {}", path.display());
    }
    eprintln!(
        "{} experiment(s) regenerated; CSVs in results/",
        experiments.len()
    );
}
