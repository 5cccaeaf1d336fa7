//! Linter self-tests: every rule has a fixture-proven true positive, the
//! clean fixture passes, suppressions round-trip, and the allowlist
//! hygiene rules (`bad-suppression` / `unused-suppression`) fire.

use dts_lint::{scan_source, FileContext, Report, Rule, Suppression, ALL_RULES};

fn scan(path: &str, source: &str) -> Report {
    let mut report = Report::default();
    scan_source(&FileContext::from_path(path), source, &mut report);
    report
}

/// Every rule must catch its known-bad fixture with exactly one finding
/// of exactly that rule — a linter whose rules cannot demonstrate a true
/// positive is not enforcing anything.
#[test]
fn every_rule_has_a_true_positive_fixture() {
    let fixtures: [(Rule, &str, &str); 5] = [
        (
            Rule::WallClock,
            "crates/core/src/fixture.rs",
            include_str!("fixtures/wall_clock.rs"),
        ),
        (
            Rule::UnorderedIter,
            "crates/core/src/fixture.rs",
            include_str!("fixtures/unordered_iter.rs"),
        ),
        (
            Rule::AmbientRng,
            "crates/bench/src/fixture.rs", // applies even outside deterministic crates
            include_str!("fixtures/ambient_rng.rs"),
        ),
        (
            Rule::FloatEq,
            "crates/ga/src/fixture.rs",
            include_str!("fixtures/float_eq.rs"),
        ),
        (
            Rule::HotUnwrap,
            "crates/server/src/fixture.rs",
            include_str!("fixtures/hot_unwrap.rs"),
        ),
    ];
    for (rule, path, source) in fixtures {
        let report = scan(path, source);
        assert_eq!(
            report.findings.len(),
            1,
            "{rule}: fixture must produce exactly one finding, got {:?}",
            report.findings
        );
        assert_eq!(report.findings[0].rule, rule.name(), "{rule}: wrong rule");
        assert!(report.suppressions.is_empty());
    }
}

/// The clean fixture exercises endorsed idiom (BTreeMap, total_cmp,
/// Result errors, strings/comments mentioning banned tokens, a
/// `#[cfg(test)]` region that reads the clock and unwraps) and must be
/// silent even under the strictest context (`dts-server`).
#[test]
fn clean_fixture_passes() {
    let report = scan(
        "crates/server/src/clean.rs",
        include_str!("fixtures/clean.rs"),
    );
    assert!(
        report.is_clean(),
        "clean fixture produced findings: {:?}",
        report.findings
    );
    assert!(report.suppressions.is_empty());
}

/// Both suppression forms (own-line and trailing) silence their finding
/// and surface as justified records.
#[test]
fn suppressed_fixture_is_clean_and_records_justifications() {
    let report = scan(
        "crates/server/src/suppressed.rs",
        include_str!("fixtures/suppressed.rs"),
    );
    assert!(
        report.is_clean(),
        "suppressed fixture produced findings: {:?}",
        report.findings
    );
    assert_eq!(report.suppressions.len(), 2);
    let rules: Vec<&str> = report
        .suppressions
        .iter()
        .map(|s| s.rule.as_str())
        .collect();
    assert_eq!(rules, ["unordered-iter", "float-eq"]);
    assert!(report
        .suppressions
        .iter()
        .all(|s| !s.justification.trim().is_empty()));
}

/// `Suppression::parse` ∘ `to_comment` is the identity for every rule.
#[test]
fn suppression_parsing_round_trips() {
    for rule in ALL_RULES {
        let s = Suppression {
            rule,
            justification: format!("why {rule} is fine here"),
        };
        let reparsed = Suppression::parse(&s.to_comment()).expect("canonical form parses");
        assert_eq!(reparsed, s);
    }
    // Whitespace-tolerant.
    let s = Suppression::parse("dts-lint:  allow( wall-clock ,  \"deadline arithmetic\" )")
        .expect("spaced form parses");
    assert_eq!(s.rule, Rule::WallClock);
    assert_eq!(s.justification, "deadline arithmetic");
}

#[test]
fn malformed_suppressions_are_rejected_and_reported() {
    assert!(Suppression::parse("dts-lint: allow(no-such-rule, \"x\")").is_err());
    assert!(Suppression::parse("dts-lint: allow(wall-clock, \"\")").is_err());
    assert!(Suppression::parse("dts-lint: allow(wall-clock)").is_err());
    assert!(Suppression::parse("dts-lint: deny(wall-clock, \"x\")").is_err());

    // A malformed comment in scanned code is itself a finding — and does
    // NOT silence the violation it sits on.
    let source = "pub fn f() -> std::collections::HashMap<u32, u32> { // dts-lint: allow(hashmap, \"wrong rule name\")\n    std::collections::HashMap::new()\n}\n";
    let report = scan("crates/core/src/bad.rs", source);
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    assert!(rules.contains(&"bad-suppression"), "got {rules:?}");
    assert!(rules.contains(&"unordered-iter"), "got {rules:?}");
}

/// A suppression that silences nothing is a finding: the allowlist can
/// only shrink, never silently rot.
#[test]
fn unused_suppressions_are_flagged() {
    let source = "// dts-lint: allow(wall-clock, \"stale: the clock read was removed\")\npub fn f() -> u32 {\n    7\n}\n";
    let report = scan("crates/core/src/stale.rs", source);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, "unused-suppression");
    assert_eq!(report.findings[0].line, 1);
}

/// A suppression for rule A does not silence rule B on the same line.
#[test]
fn suppression_is_rule_specific() {
    let source = "pub fn f() -> std::collections::HashMap<u32, f64> { // dts-lint: allow(float-eq, \"wrong rule\")\n    std::collections::HashMap::new()\n}\n";
    let report = scan("crates/core/src/wrong.rs", source);
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    assert!(rules.contains(&"unordered-iter"), "got {rules:?}");
    assert!(rules.contains(&"unused-suppression"), "got {rules:?}");
}

/// Scope checks: the same source is a finding in a deterministic crate
/// and silent in an exempt one.
#[test]
fn rule_scopes_follow_the_crate_map() {
    let clocky = "pub fn t() -> std::time::Instant { std::time::Instant::now() }\n";
    assert_eq!(scan("crates/ga/src/x.rs", clocky).findings.len(), 1);
    // Harness crates measure wall-clock by design.
    assert!(scan("crates/bench/src/x.rs", clocky).is_clean());
    // Integration tests may time things.
    assert!(scan("crates/ga/tests/x.rs", clocky).is_clean());

    let unwrappy = "pub fn f(v: &[u32]) -> u32 { v.first().copied().unwrap() }\n";
    assert_eq!(scan("crates/server/src/x.rs", unwrappy).findings.len(), 1);
    assert!(scan("crates/core/src/x.rs", unwrappy).is_clean());

    // The umbrella crate (root src/, tests/) is deterministic.
    let hashy = "pub fn f() -> std::collections::HashSet<u32> { Default::default() }\n";
    assert_eq!(scan("src/lib.rs", hashy).findings.len(), 1);
    assert_eq!(scan("tests/determinism.rs", hashy).findings.len(), 1);
}

/// The `#[cfg(test)]` region tracker: wall-clock/hot-unwrap exempt
/// inside, enforced again after the module closes.
#[test]
fn cfg_test_regions_end_at_their_closing_brace() {
    let source = "\
#[cfg(test)]
mod tests {
    pub fn timed() {
        let _ = std::time::Instant::now();
    }
}

pub fn live() {
    let _ = std::time::Instant::now();
}
";
    let report = scan("crates/core/src/mixed.rs", source);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].line, 9);
}

/// Float-eq heuristics: literal and constant comparisons flag; ranges,
/// integer comparisons, and `total_cmp` do not.
#[test]
fn float_eq_heuristics() {
    let flag = [
        "let a = x == 0.0;",
        "if err != 1.5e3 { }",
        "assert!(x.fract() == 0.0);",
        "if y == f64::INFINITY { }",
        "let b = 2.5 == z;",
    ];
    for src in flag {
        let report = scan(
            "crates/core/src/f.rs",
            &format!("fn g(x: f64) {{ {src} }}\n"),
        );
        assert_eq!(report.findings.len(), 1, "should flag: {src}");
        assert_eq!(report.findings[0].rule, "float-eq");
    }
    let pass = [
        "let a = n == 0;",
        "for i in 0..40 { let _ = i; }",
        "let c = x.total_cmp(&y).is_eq();",
        "let d = x.to_bits() == y.to_bits();",
        "let e = name == \"x1.5\";",
        "let f = n <= 3; let g = m >= 4;",
    ];
    for src in pass {
        let report = scan(
            "crates/core/src/f.rs",
            &format!("fn g(x: f64, y: f64) {{ {src} }}\n"),
        );
        assert!(
            report.is_clean(),
            "should pass: {src} → {:?}",
            report.findings
        );
    }
}

/// Strings, comments, and raw strings never produce findings.
#[test]
fn literals_and_comments_are_not_code() {
    let source = r##"
// Instant::now() HashMap thread_rng .unwrap() x == 0.0
/* SystemTime, HashSet, from_entropy */
pub const A: &str = "Instant::now() and HashMap";
pub const B: &str = r#"thread_rng() and x == 0.0 and .unwrap()"#;
pub fn f() {}
"##;
    let report = scan("crates/server/src/strings.rs", source);
    assert!(report.is_clean(), "{:?}", report.findings);
}
