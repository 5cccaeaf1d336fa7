//! Mutation fuzzing of the arrival-trace parser. Traces are read from
//! outside the process (`replay`, the live service), so arbitrary input
//! must come back as `Ok` or `Err`, never as a panic or an abort.
//!
//! Two valid traces seed the mutants: the committed v1 fixture the server
//! replays and a generated v2 trace with `deps=` fields. Each mutant applies
//! one to four byte substitutions, insertions, deletions or segment copies,
//! drawn from a fixed seed so that a failure reproduces.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dts_distributions::{Prng, Rng};
use dts_model::graph::DagFamily;
use dts_model::{ArrivalProcess, SizeDistribution, WorkloadSpec};
use dts_sim::ArrivalTrace;

/// The v1 fixture replayed by the server's tests and CI.
const TINY_TRACE: &str = include_str!("../../server/tests/data/tiny.trace");

/// Mutants per seed trace.
const MUTANTS: usize = 2_000;

/// Bytes the format gives meaning to, drawn more often than random bytes
/// so that mutants reach past the first syntax check.
const TOKENS: &[u8] = b"0123456789 \n\t.-+eE,=#deps_xNnaif";

fn v2_trace() -> String {
    let tasks = WorkloadSpec {
        count: 24,
        sizes: SizeDistribution::Uniform {
            lo: 10.0,
            hi: 1000.0,
        },
        arrival: ArrivalProcess::PoissonStream {
            mean_interarrival: 0.5,
        },
    }
    .generate(0xF022);
    let graph = DagFamily::RandomLayered {
        layers: 4,
        edge_probability: 0.4,
    }
    .build(tasks.len(), 0xF022);
    let trace = ArrivalTrace::from_tasks_with_graph(&tasks, &graph).unwrap();
    assert!(trace.has_deps(), "the seed trace must exercise `deps=`");
    trace.serialize()
}

fn random_byte(rng: &mut Prng) -> u8 {
    if rng.chance(0.7) {
        TOKENS[rng.below(TOKENS.len())]
    } else {
        rng.next_u64() as u8
    }
}

/// A position in `0..n`. One edit in three lands in the first 32 bytes:
/// the header and the `tasks <n>` line decide what the parser sizes, and
/// uniform positions would rarely touch them.
fn position(n: usize, rng: &mut Prng) -> usize {
    if rng.chance(1.0 / 3.0) {
        rng.below(n.min(32))
    } else {
        rng.below(n)
    }
}

/// Applies one random edit to `bytes`.
fn mutate(bytes: &mut Vec<u8>, rng: &mut Prng) {
    match rng.below(4) {
        0 if !bytes.is_empty() => {
            let at = position(bytes.len(), rng);
            bytes[at] = random_byte(rng);
        }
        1 => {
            let at = position(bytes.len() + 1, rng);
            bytes.insert(at, random_byte(rng));
        }
        2 if !bytes.is_empty() => {
            let at = position(bytes.len(), rng);
            let len = 1 + rng.below((bytes.len() - at).min(16));
            bytes.drain(at..at + len);
        }
        _ if !bytes.is_empty() => {
            // Copy a segment (up to a few lines) to another position.
            let from = rng.below(bytes.len());
            let len = 1 + rng.below((bytes.len() - from).min(80));
            let segment = bytes[from..from + len].to_vec();
            let to = position(bytes.len() + 1, rng);
            bytes.splice(to..to, segment);
        }
        _ => bytes.push(random_byte(rng)),
    }
}

/// Parses `MUTANTS` mutants of `seed` and returns how many parsed `Ok`.
/// Panics, naming the mutant, if the parser panics on any of them.
fn fuzz(seed: &str, rng: &mut Prng) -> usize {
    ArrivalTrace::parse(seed).expect("the seed trace is valid");
    let mut accepted = 0;
    for i in 0..MUTANTS {
        let mut bytes = seed.as_bytes().to_vec();
        for _ in 0..1 + rng.below(4) {
            mutate(&mut bytes, rng);
        }
        let text = String::from_utf8_lossy(&bytes);
        match catch_unwind(AssertUnwindSafe(|| ArrivalTrace::parse(&text))) {
            Ok(Ok(trace)) => {
                // Whatever is accepted is a well-formed trace: it survives
                // its own round trip.
                let again = ArrivalTrace::parse(&trace.serialize());
                assert_eq!(again.as_ref(), Ok(&trace), "mutant {i} round trip");
                accepted += 1;
            }
            Ok(Err(_)) => {}
            Err(_) => panic!("the parser panicked on mutant {i}:\n{text}"),
        }
    }
    accepted
}

#[test]
fn mutated_traces_never_panic_the_parser() {
    let mut rng = Prng::seed_from(0xF022_7E57);
    let v1_ok = fuzz(TINY_TRACE, &mut rng);
    let v2_ok = fuzz(&v2_trace(), &mut rng);
    // Some mutants (a changed digit of a size, say) stay valid; most do not.
    for (name, ok) in [("v1", v1_ok), ("v2", v2_ok)] {
        assert!(
            ok > 0 && ok < MUTANTS,
            "{name}: {ok} of {MUTANTS} mutants parsed; the mutator is not reaching both outcomes"
        );
    }
}
