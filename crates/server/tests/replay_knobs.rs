//! `replay`'s environment knobs and `record`'s positional arguments: a
//! value that is given but does not parse must stop the run with a
//! diagnostic, not fall back to the default. The valid replay path is
//! pinned by diffing `replay`'s stdout against `tests/data/tiny.replay.out`.

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

#[test]
fn unparsable_record_argument_exits_2_with_a_diagnostic() {
    let path = std::env::temp_dir().join(format!("replay_knobs_{}.trace", std::process::id()));
    // A letter O for a zero, in `n` and then in `seed`.
    for (args, diagnostic) in [
        (["2O", "5"], "n=2O: invalid digit found in string"),
        (["24", "2OO5"], "seed=2OO5: invalid digit found in string"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_replay"))
            .arg("record")
            .arg(&path)
            .args(args)
            .output()
            .expect("replay starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(diagnostic), "{args:?}: {stderr}");
        assert!(!path.exists(), "{args:?}: no trace may be written");
    }
}
