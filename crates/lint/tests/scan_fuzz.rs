//! Mutation fuzzing of the determinism-contract scanner. `scan_source`
//! reads every `.rs` file in the workspace, half-edited ones included, so
//! arbitrary text must come back as findings or a clean report, never as a
//! panic.
//!
//! The committed lint fixtures seed the mutants. Each mutant applies one
//! to four byte substitutions, insertions of Rust syntax the scanner gives
//! meaning to (quotes, raw-string hashes, comment markers, braces,
//! `#[cfg(test)]`, suppression comments, banned tokens), deletions or
//! segment copies, drawn from a fixed seed so that a failure reproduces.
//! Bytes that are not UTF-8 are read through `from_utf8_lossy`, as a
//! corrupt file would be, which also puts multi-byte characters in front
//! of the scanner's index arithmetic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dts_lint::{scan_source, FileContext, Report};

/// The committed fixtures, one per rule plus the clean and suppressed ones.
const FIXTURES: [(&str, &str); 7] = [
    ("ambient_rng", include_str!("fixtures/ambient_rng.rs")),
    ("clean", include_str!("fixtures/clean.rs")),
    ("float_eq", include_str!("fixtures/float_eq.rs")),
    ("hot_unwrap", include_str!("fixtures/hot_unwrap.rs")),
    ("suppressed", include_str!("fixtures/suppressed.rs")),
    ("unordered_iter", include_str!("fixtures/unordered_iter.rs")),
    ("wall_clock", include_str!("fixtures/wall_clock.rs")),
];

/// Paths whose contexts switch the rules on and off: a deterministic
/// crate with every rule (`server`), a crate outside the contract, and an
/// integration test.
const PATHS: [&str; 3] = [
    "crates/server/src/fuzz.rs",
    "crates/bench/src/fuzz.rs",
    "tests/fuzz.rs",
];

/// Mutants per fixture.
const MUTANTS: usize = 600;

/// Snippets the scanner's lexer and matchers react to.
const SNIPPETS: [&[u8]; 24] = [
    b"\"",
    b"'",
    b"'\\",
    b"r#\"",
    b"\"#",
    b"br\"",
    b"/*",
    b"*/",
    b"//",
    b"\\",
    b"{",
    b"}",
    b"\n",
    b"#[cfg(test)]",
    b"// dts-lint: allow(",
    b"wall-clock, \"why\")",
    b"float-eq",
    b" == 0.5",
    b"f64::",
    b".unwrap()",
    b"Instant::now",
    b"HashMap",
    "é→".as_bytes(),
    b"\xff\xfe",
];

/// SplitMix64: a fixed-seed stream, enough for choosing mutations.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Applies one random edit to `bytes`.
fn mutate(bytes: &mut Vec<u8>, rng: &mut Mix) {
    match rng.below(4) {
        0 if !bytes.is_empty() => {
            let at = rng.below(bytes.len());
            bytes[at] = rng.next() as u8;
        }
        1 => {
            let at = rng.below(bytes.len() + 1);
            let snippet = SNIPPETS[rng.below(SNIPPETS.len())];
            bytes.splice(at..at, snippet.iter().copied());
        }
        2 if !bytes.is_empty() => {
            let at = rng.below(bytes.len());
            let len = 1 + rng.below((bytes.len() - at).min(16));
            bytes.drain(at..at + len);
        }
        _ if !bytes.is_empty() => {
            // Copy a segment (up to a couple of lines) to another position.
            let from = rng.below(bytes.len());
            let len = 1 + rng.below((bytes.len() - from).min(80));
            let segment = bytes[from..from + len].to_vec();
            let to = rng.below(bytes.len() + 1);
            bytes.splice(to..to, segment);
        }
        _ => bytes.push(rng.next() as u8),
    }
}

fn scan(path: &str, source: &str) -> Report {
    let mut report = Report::default();
    scan_source(&FileContext::from_path(path), source, &mut report);
    report
}

/// Scans `source` under `path`, panicking with the mutant's text if the
/// scanner panics. A report must be deterministic, count one file, and
/// point every finding and suppression at a line of the source.
fn scan_checked(label: &str, path: &str, source: &str) -> Report {
    let report = match catch_unwind(AssertUnwindSafe(|| scan(path, source))) {
        Ok(report) => report,
        Err(_) => panic!("the scanner panicked on {label} under {path}:\n{source:?}"),
    };
    let lines = source.lines().count();
    assert_eq!(report.files_scanned, 1, "{label}");
    for line in report
        .findings
        .iter()
        .map(|f| f.line)
        .chain(report.suppressions.iter().map(|s| s.line))
    {
        assert!(
            (1..=lines).contains(&line),
            "{label}: line {line} outside 1..={lines}"
        );
    }
    assert_eq!(
        scan(path, source),
        report,
        "{label}: scan is not repeatable"
    );
    report
}

#[test]
fn mutated_sources_never_panic_the_scanner() {
    let mut rng = Mix(0x11A7_F022);
    let (mut clean, mut flagged) = (0usize, 0usize);
    for (name, fixture) in FIXTURES {
        for i in 0..MUTANTS {
            let mut bytes = fixture.as_bytes().to_vec();
            for _ in 0..1 + rng.below(4) {
                mutate(&mut bytes, &mut rng);
            }
            let text = String::from_utf8_lossy(&bytes);
            let path = PATHS[i % PATHS.len()];
            if scan_checked(&format!("{name} mutant {i}"), path, &text).is_clean() {
                clean += 1;
            } else {
                flagged += 1;
            }
        }
    }
    // The fixtures span clean and violating sources, so mutants must reach
    // both outcomes; otherwise the mutator is not exercising the scanner.
    assert!(
        clean > 0 && flagged > 0,
        "{clean} clean and {flagged} flagged mutants"
    );
}
