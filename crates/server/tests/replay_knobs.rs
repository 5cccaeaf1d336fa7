//! `replay`'s environment knobs: a value that is set but does not parse
//! must stop the run with a diagnostic, not fall back to the default. The
//! valid path is pinned by diffing `replay`'s stdout against
//! `tests/data/tiny.replay.out`.

use std::process::Command;

#[test]
fn unparsable_knob_exits_2_with_a_diagnostic() {
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/tiny.trace");
    let out = Command::new(env!("CARGO_BIN_EXE_replay"))
        .arg(trace)
        // A letter O for a zero.
        .env("DTS_GENS", "3O")
        .env_remove("DTS_PROCS")
        .env_remove("DTS_BATCH")
        .env_remove("DTS_TENANTS")
        .env_remove("DTS_SEED")
        .output()
        .expect("replay starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("DTS_GENS=3O: invalid digit found in string"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no placements may be printed");
}
