//! `dts-lint`: the in-tree static analyzer that enforces the workspace
//! determinism contract (ARCHITECTURE.md, "Determinism contract").
//!
//! The repo's core claim — bit-identical schedules across evaluator
//! worker counts, memo settings, islands, and warm-start — is enforced
//! dynamically by the regression suites, but a single `Instant::now()`
//! or `HashMap` iteration added to a hot path survives silently until a
//! determinism test happens to cover it. This crate rejects the known
//! nondeterminism *sources* at build time instead, with a hand-rolled
//! line/token scanner (same offline discipline as the `proptest` shim:
//! no dependencies, no crates.io).
//!
//! # Rules
//!
//! | rule | rejects | scope |
//! |------|---------|-------|
//! | `wall-clock` | `Instant::now` / `SystemTime` | deterministic crates, non-test code |
//! | `unordered-iter` | `HashMap` / `HashSet` | deterministic crates, tests included |
//! | `ambient-rng` | `thread_rng` / `from_entropy` / `rand::random` / `OsRng` / `getrandom` / `RandomState` | every crate |
//! | `float-eq` | `==` / `!=` against a float operand | deterministic crates, tests included |
//! | `hot-unwrap` | `.unwrap()` / `.expect(` | `dts-server` non-test code |
//!
//! "Deterministic crates" are the ones inside the replay/oracle
//! contract: `core`, `ga`, `model`, `schedulers`, `sim`, `server`,
//! `distributions`, and the umbrella crate (root `src/`, `tests/`,
//! `examples/`). The harness crates (`bench`, `linpack`, `proptest`,
//! `lint` itself) measure wall-clock time and aggregate reports by
//! design, so `wall-clock`/`unordered-iter`/`float-eq` do not apply
//! there; `ambient-rng` still does — even a harness must seed its RNG
//! explicitly so the figures it writes reproduce.
//!
//! # Suppressions
//!
//! A finding is silenced only by an explicit, justified comment:
//!
//! ```text
//! // dts-lint: allow(<rule>, "<non-empty justification>")
//! ```
//!
//! either trailing the offending line or on its own line directly above
//! it (several stacked own-line suppressions all attach to the next
//! code line). Malformed suppressions (`bad-suppression`) and
//! suppressions that silence nothing (`unused-suppression`) are
//! findings themselves, so the allowlist cannot rot.
//!
//! # Test code
//!
//! `#[cfg(test)]` regions (tracked by brace depth) and files under a
//! `tests/` directory are *test code*: `wall-clock` and `hot-unwrap`
//! skip them (timing a time-budgeted run, or `unwrap()` on a fresh
//! fixture, is legitimate there), while `unordered-iter`, `float-eq`
//! and `ambient-rng` still apply — a hash-order iteration inside a
//! determinism test can flake the very suite that guards the contract.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The named determinism-contract rules, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `Instant::now` / `SystemTime` in deterministic non-test code.
    WallClock,
    /// No `HashMap` / `HashSet` in deterministic crates.
    UnorderedIter,
    /// No ambient entropy anywhere: all RNG derives from an explicit seed.
    AmbientRng,
    /// No `==` / `!=` on floats: use `total_cmp` or pinned tolerances.
    FloatEq,
    /// No `unwrap()` / `expect()` in `dts-server` non-test code.
    HotUnwrap,
}

/// Every contract rule, in the order reports list them.
pub const ALL_RULES: [Rule; 5] = [
    Rule::WallClock,
    Rule::UnorderedIter,
    Rule::AmbientRng,
    Rule::FloatEq,
    Rule::HotUnwrap,
];

impl Rule {
    /// The rule's name as written in reports and suppression comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::UnorderedIter => "unordered-iter",
            Rule::AmbientRng => "ambient-rng",
            Rule::FloatEq => "float-eq",
            Rule::HotUnwrap => "hot-unwrap",
        }
    }

    /// Parses a rule name as it appears in a suppression comment.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// What a finding of this rule means, shown next to every hit.
    pub fn message(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "wall-clock read in a deterministic path; time-budgeted code must be \
                 explicitly allowlisted (the one documented TimeBudget exception)"
            }
            Rule::UnorderedIter => {
                "HashMap/HashSet in a deterministic crate: iteration order is \
                 nondeterministic — use a slot-indexed Vec or BTreeMap, or annotate \
                 lookup-only use"
            }
            Rule::AmbientRng => {
                "ambient entropy source: all randomness must derive from an explicit \
                 seed (SeedSequence) so runs reproduce"
            }
            Rule::FloatEq => {
                "`==`/`!=` on a float operand: use total_cmp, to_bits, or the pinned \
                 tolerances — exact-sentinel comparisons must be annotated"
            }
            Rule::HotUnwrap => {
                "unwrap()/expect() on a dts-server path: submit/plan/replay errors \
                 must be diagnosable (SubmitError/TraceError), not panics"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Crates under the determinism contract (see the module docs).
const DETERMINISTIC_CRATES: [&str; 8] = [
    "core",
    "ga",
    "model",
    "schedulers",
    "sim",
    "server",
    "distributions",
    "dts", // the umbrella crate: root src/, tests/, examples/
];

/// What kind of source a scanned file is, derived from its path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileContext {
    /// Workspace-relative path, used in reports.
    pub path: String,
    /// Short crate name (`core`, `ga`, …; `dts` for the umbrella crate).
    pub crate_name: String,
    /// True for files under a `tests/` directory (integration tests).
    pub is_test_file: bool,
}

impl FileContext {
    /// Derives the context from a workspace-relative path like
    /// `crates/ga/src/engine.rs` or `tests/determinism.rs`.
    pub fn from_path(rel_path: &str) -> FileContext {
        let norm = rel_path.replace('\\', "/");
        let mut parts = norm.split('/');
        let crate_name = match parts.next() {
            Some("crates") => parts.next().unwrap_or("dts").to_string(),
            _ => "dts".to_string(),
        };
        let is_test_file = norm
            .split('/')
            .any(|seg| seg == "tests" || seg == "benches");
        FileContext {
            path: norm,
            crate_name,
            is_test_file,
        }
    }

    fn deterministic(&self) -> bool {
        DETERMINISTIC_CRATES.contains(&self.crate_name.as_str())
    }

    /// Whether `rule` applies to code at this location. `in_test_region`
    /// covers `#[cfg(test)]` modules inside otherwise-production files.
    fn rule_applies(&self, rule: Rule, in_test_region: bool) -> bool {
        let test_code = self.is_test_file || in_test_region;
        match rule {
            Rule::WallClock => self.deterministic() && !test_code,
            Rule::UnorderedIter => self.deterministic(),
            Rule::AmbientRng => true,
            Rule::FloatEq => self.deterministic(),
            Rule::HotUnwrap => self.crate_name == "server" && !test_code,
        }
    }
}

/// One rule violation (or suppression-hygiene problem).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (`wall-clock`, …, or `bad-suppression` /
    /// `unused-suppression` for allowlist hygiene).
    pub rule: String,
    /// Human explanation of the finding.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file, self.line, self.rule, self.message, self.excerpt
        )
    }
}

/// A parsed `// dts-lint: allow(<rule>, "<justification>")` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rule this suppression silences.
    pub rule: Rule,
    /// The mandatory written justification.
    pub justification: String,
}

impl Suppression {
    /// Parses the *content* of a suppression comment — the text after
    /// `//`, e.g. `dts-lint: allow(wall-clock, "run_budgeted deadline")`.
    /// Returns `Err` with a reason for malformed suppressions.
    pub fn parse(comment: &str) -> Result<Suppression, String> {
        let body = comment.trim();
        let rest = body
            .strip_prefix("dts-lint:")
            .ok_or("missing `dts-lint:` prefix")?
            .trim_start();
        let rest = rest
            .strip_prefix("allow(")
            .ok_or("expected `allow(<rule>, \"<justification>\")`")?;
        let rest = rest
            .strip_suffix(')')
            .ok_or("missing closing `)`")?
            .trim_end();
        let comma = rest
            .find(',')
            .ok_or("missing `,` between rule and justification")?;
        let rule_name = rest[..comma].trim();
        let rule =
            Rule::from_name(rule_name).ok_or_else(|| format!("unknown rule `{rule_name}`"))?;
        let just = rest[comma + 1..].trim();
        let just = just
            .strip_prefix('"')
            .and_then(|j| j.strip_suffix('"'))
            .ok_or("justification must be a quoted string")?;
        if just.trim().is_empty() {
            return Err("justification must not be empty".to_string());
        }
        Ok(Suppression {
            rule,
            justification: just.to_string(),
        })
    }

    /// Renders the suppression back to its canonical comment content.
    /// `Suppression::parse(&s.to_comment())` round-trips.
    pub fn to_comment(&self) -> String {
        format!(
            "dts-lint: allow({}, \"{}\")",
            self.rule.name(),
            self.justification
        )
    }
}

/// A suppression that was actually consulted during a scan, for reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuppressionRecord {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the *suppressed code* (not the comment).
    pub line: usize,
    /// The silenced rule's name.
    pub rule: String,
    /// The written justification.
    pub justification: String,
}

/// The result of scanning one file or a whole workspace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Unsuppressed findings, in path/line order.
    pub findings: Vec<Finding>,
    /// Suppressions that silenced at least one finding.
    pub suppressions: Vec<SuppressionRecord>,
    /// How many files the scan covered.
    pub files_scanned: usize,
}

impl Report {
    /// True when the scan produced no findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// `(findings, suppressions)` counts for one rule name.
    pub fn counts_for(&self, rule: &str) -> (usize, usize) {
        (
            self.findings.iter().filter(|f| f.rule == rule).count(),
            self.suppressions.iter().filter(|s| s.rule == rule).count(),
        )
    }

    /// Renders the report as a JSON document (hand-rolled — the crate is
    /// dependency-free). Stable key order, findings/suppressions sorted
    /// by path then line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"rule_counts\": {\n");
        let mut names: Vec<&str> = ALL_RULES.iter().map(|r| r.name()).collect();
        names.push("bad-suppression");
        names.push("unused-suppression");
        for (i, name) in names.iter().enumerate() {
            let (f, s) = self.counts_for(name);
            out.push_str(&format!(
                "    \"{name}\": {{\"findings\": {f}, \"suppressions\": {s}}}{}\n",
                if i + 1 < names.len() { "," } else { "" }
            ));
        }
        out.push_str("  },\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"excerpt\": {}}}{}\n",
                json_str(&f.file),
                f.line,
                json_str(&f.rule),
                json_str(&f.excerpt),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"suppressions\": [\n");
        for (i, s) in self.suppressions.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"justification\": {}}}{}\n",
                json_str(&s.file),
                s.line,
                json_str(&s.rule),
                json_str(&s.justification),
                if i + 1 < self.suppressions.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Source preprocessing: strip comments and string/char literal contents so
// the token matchers only ever see real code, while extracting `dts-lint:`
// suppression comments verbatim.
// ---------------------------------------------------------------------------

/// A raw suppression comment found during stripping, before attachment.
#[derive(Debug)]
struct RawSuppression {
    /// Line the comment sits on.
    line: usize,
    /// True when code precedes the comment on its line (trailing form).
    trailing: bool,
    /// The comment text after `//`.
    content: String,
}

struct Stripped {
    /// One entry per source line: the line with comment text and
    /// string-literal contents replaced by spaces.
    lines: Vec<String>,
    /// Raw `dts-lint:` comments, in order of appearance.
    raw_suppressions: Vec<RawSuppression>,
}

/// Replaces comments and literal contents with spaces, keeping the byte
/// layout line-compatible. Handles `//`, nested `/* */`, normal strings
/// with escapes (including multi-line `\` continuations), raw strings
/// (`r"…"`, `r#"…"#`, byte variants), and char literals vs lifetimes.
fn strip_source(source: &str) -> Stripped {
    #[derive(PartialEq)]
    enum State {
        Code,
        Block(u32),
        Str,
        RawStr(u32),
    }
    let mut state = State::Code;
    let mut lines: Vec<String> = Vec::new();
    let mut raw_suppressions = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        let chars: Vec<char> = line.chars().collect();
        let mut out = String::with_capacity(chars.len());
        let mut i = 0usize;
        while i < chars.len() {
            match state {
                State::Code => {
                    let c = chars[i];
                    // Line comment: capture (maybe a suppression), blank the rest.
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        let content: String = chars[i + 2..].iter().collect();
                        if content.trim_start().starts_with("dts-lint:") {
                            raw_suppressions.push(RawSuppression {
                                line: idx + 1,
                                trailing: !out.trim().is_empty(),
                                content,
                            });
                        }
                        break;
                    }
                    if c == '/' && chars.get(i + 1) == Some(&'*') {
                        state = State::Block(1);
                        out.push_str("  ");
                        i += 2;
                        continue;
                    }
                    // Raw (and byte-raw) strings: r"…", r#"…"#, br"…", …
                    if (c == 'r' || (c == 'b' && chars.get(i + 1) == Some(&'r')))
                        && !prev_is_ident(&out)
                    {
                        let start = if c == 'b' { i + 2 } else { i + 1 };
                        let mut hashes = 0usize;
                        while chars.get(start + hashes) == Some(&'#') {
                            hashes += 1;
                        }
                        if chars.get(start + hashes) == Some(&'"') {
                            for _ in i..=start + hashes {
                                out.push(' ');
                            }
                            i = start + hashes + 1;
                            state = State::RawStr(hashes as u32);
                            continue;
                        }
                    }
                    if c == '"' {
                        out.push(' ');
                        i += 1;
                        state = State::Str;
                        continue;
                    }
                    // Char literal vs lifetime: 'x' / '\n' are literals,
                    // 'a (no closing quote nearby) is a lifetime.
                    if c == '\'' {
                        if chars.get(i + 1) == Some(&'\\') {
                            // Escaped char literal: skip to the closing quote.
                            let mut j = i + 2;
                            while j < chars.len() && chars[j] != '\'' {
                                j += 1;
                            }
                            for _ in i..=j.min(chars.len() - 1) {
                                out.push(' ');
                            }
                            i = j + 1;
                            continue;
                        }
                        if chars.get(i + 2) == Some(&'\'') {
                            out.push_str("   ");
                            i += 3;
                            continue;
                        }
                        // Lifetime: keep as-is (harmless to matchers).
                        out.push(c);
                        i += 1;
                        continue;
                    }
                    out.push(c);
                    i += 1;
                }
                State::Block(depth) => {
                    if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::Block(depth - 1)
                        };
                        out.push_str("  ");
                        i += 2;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        state = State::Block(depth + 1);
                        out.push_str("  ");
                        i += 2;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
                State::Str => {
                    if chars[i] == '\\' {
                        out.push_str("  ");
                        i += 2; // skip the escaped char (may run past EOL: continuation)
                    } else if chars[i] == '"' {
                        out.push(' ');
                        i += 1;
                        state = State::Code;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
                State::RawStr(hashes) => {
                    if chars[i] == '"' {
                        let h = hashes as usize;
                        let closed = (1..=h).all(|k| chars.get(i + k) == Some(&'#'));
                        if closed {
                            for _ in 0..=h {
                                out.push(' ');
                            }
                            i += h + 1;
                            state = State::Code;
                            continue;
                        }
                    }
                    out.push(' ');
                    i += 1;
                }
            }
        }
        lines.push(out);
    }
    Stripped {
        lines,
        raw_suppressions,
    }
}

fn prev_is_ident(out: &str) -> bool {
    out.chars()
        .last()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

// ---------------------------------------------------------------------------
// Token matching
// ---------------------------------------------------------------------------

/// True when `needle` occurs in `line` with non-identifier characters on
/// both sides (`::`-qualified needles like `Instant::now` are fine: `:`
/// is not an identifier char).
fn has_token(line: &str, needle: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let pre_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let post_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if pre_ok && post_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Detects `==` / `!=` with a float-typed operand: a float literal
/// (`0.0`, `1.5e3`) or an `f64::` / `f32::` constant adjacent to the
/// operator. This is a heuristic — a typed analysis is out of reach for
/// a token scanner — but it catches the dangerous spelling (comparing
/// against a float constant) while `a == b` on floats is left to review.
fn has_float_eq(line: &str) -> bool {
    let chars: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i + 1 < chars.len() {
        let op = (chars[i], chars[i + 1]);
        let is_cmp = (op == ('=', '=') || op == ('!', '='))
            // Exclude `<=`, `>=`, `..=`, `+=`-style: the char before `==`
            // must not itself be an operator char, and `!=`'s `!` stands.
            && (op.0 == '!'
                || i == 0
                || !matches!(chars[i - 1], '<' | '>' | '=' | '!' | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' | '.'))
            && chars.get(i + 2) != Some(&'=');
        if is_cmp {
            let left: String = chars[..i].iter().collect();
            let right: String = chars[i + 2..].iter().collect();
            if operand_is_floaty(left.trim_end(), true)
                || operand_is_floaty(right.trim_start(), false)
            {
                return true;
            }
            i += 2;
            continue;
        }
        i += 1;
    }
    false
}

/// Inspects the operand text on one side of a comparison (the trailing
/// token for the left side, the leading token for the right side).
fn operand_is_floaty(side: &str, left: bool) -> bool {
    let token: String = if left {
        side.chars()
            .rev()
            .take_while(|c| !matches!(c, ',' | ';' | '(' | '{' | '&' | '|' | '=' | '<' | '>'))
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect()
    } else {
        side.chars()
            .take_while(|c| !matches!(c, ',' | ';' | ')' | '}' | '{' | '&' | '|' | '=' | '<' | '>'))
            .collect()
    };
    if token.contains("f64::") || token.contains("f32::") {
        return true;
    }
    // Float literal: digit '.' digit anywhere in the token (`0..9` range
    // syntax never has a digit on both sides of a single dot), or a
    // `1e-9` exponent form, or an `_f64` typed-literal suffix.
    let t: Vec<char> = token.chars().collect();
    for w in t.windows(3) {
        if w[0].is_ascii_digit() && w[1] == '.' && w[2].is_ascii_digit() {
            return true;
        }
    }
    if token.ends_with("_f64") || token.ends_with("_f32") {
        return true;
    }
    for w in t.windows(2) {
        if w[0].is_ascii_digit() && (w[1] == 'e' || w[1] == 'E') {
            // `1e9`, `1e-9`: exponent directly after a digit is float syntax.
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Scanning
// ---------------------------------------------------------------------------

const WALL_CLOCK_TOKENS: [&str; 2] = ["Instant::now", "SystemTime"];
const UNORDERED_TOKENS: [&str; 2] = ["HashMap", "HashSet"];
const AMBIENT_RNG_TOKENS: [&str; 6] = [
    "thread_rng",
    "from_entropy",
    "rand::random",
    "OsRng",
    "getrandom",
    "RandomState",
];
const HOT_UNWRAP_TOKENS: [&str; 2] = [".unwrap()", ".expect("];

fn rule_matches(rule: Rule, line: &str) -> bool {
    match rule {
        Rule::WallClock => WALL_CLOCK_TOKENS.iter().any(|t| has_token(line, t)),
        Rule::UnorderedIter => UNORDERED_TOKENS.iter().any(|t| has_token(line, t)),
        Rule::AmbientRng => AMBIENT_RNG_TOKENS.iter().any(|t| has_token(line, t)),
        Rule::FloatEq => has_float_eq(line),
        // `.unwrap()` / `.expect(` carry their own boundaries — substring
        // match is exact (`.unwrap_or()` does not contain `.unwrap()`).
        Rule::HotUnwrap => HOT_UNWRAP_TOKENS.iter().any(|t| line.contains(t)),
    }
}

/// Scans one file's source text under the given context, appending into
/// `report`. `source` is the raw file content.
pub fn scan_source(ctx: &FileContext, source: &str, report: &mut Report) {
    let stripped = strip_source(source);
    let original_lines: Vec<&str> = source.lines().collect();

    // Attach suppressions: trailing → its own line; own-line (possibly
    // stacked) → the next line holding any code.
    let mut by_line: Vec<(usize, Suppression, usize)> = Vec::new(); // (code line, parsed, comment line)
    let mut pending: Vec<(Suppression, usize)> = Vec::new();
    let mut raw_iter = stripped.raw_suppressions.iter().peekable();
    for (i, code) in stripped.lines.iter().enumerate() {
        let lineno = i + 1;
        let mut own_line_comment = false;
        while let Some(raw) = raw_iter.peek() {
            if raw.line != lineno {
                break;
            }
            let raw = raw_iter.next().expect("peeked");
            match Suppression::parse(&raw.content) {
                Ok(s) => {
                    if raw.trailing {
                        by_line.push((lineno, s, lineno));
                    } else {
                        own_line_comment = true;
                        pending.push((s, lineno));
                    }
                }
                Err(reason) => report.findings.push(Finding {
                    file: ctx.path.clone(),
                    line: lineno,
                    rule: "bad-suppression".to_string(),
                    message: format!("malformed suppression: {reason}"),
                    excerpt: original_lines
                        .get(i)
                        .map(|l| l.trim().to_string())
                        .unwrap_or_default(),
                }),
            }
        }
        if !code.trim().is_empty() && !own_line_comment && !pending.is_empty() {
            for (s, at) in pending.drain(..) {
                by_line.push((lineno, s, at));
            }
        }
    }
    // Own-line suppressions at EOF with no code after them are unused.
    let mut unused: Vec<(usize, Suppression)> = pending.drain(..).map(|(s, at)| (at, s)).collect();

    // cfg(test) region tracking + rule matching.
    let mut depth: i64 = 0;
    let mut test_regions: Vec<i64> = Vec::new();
    let mut cfg_test_pending = false;
    let mut used: Vec<usize> = Vec::new(); // indices into by_line
    for (i, code) in stripped.lines.iter().enumerate() {
        let lineno = i + 1;
        if code.contains("#[cfg(test)]") {
            cfg_test_pending = true;
        }
        // The depth at which a pending test region would open: the depth
        // just before this line's first `{`.
        let mut line_depth = depth;
        let mut opened_region = false;
        for c in code.chars() {
            match c {
                '{' => {
                    if cfg_test_pending && !opened_region {
                        test_regions.push(line_depth);
                        cfg_test_pending = false;
                        opened_region = true;
                    }
                    line_depth += 1;
                }
                '}' => line_depth -= 1,
                _ => {}
            }
        }
        let in_test = !test_regions.is_empty();
        for rule in ALL_RULES {
            if !ctx.rule_applies(rule, in_test) || !rule_matches(rule, code) {
                continue;
            }
            // A matching suppression on this line silences the finding.
            let slot = by_line
                .iter()
                .position(|(at, s, _)| *at == lineno && s.rule == rule);
            if let Some(k) = slot {
                used.push(k);
                let (_, s, _) = &by_line[k];
                report.suppressions.push(SuppressionRecord {
                    file: ctx.path.clone(),
                    line: lineno,
                    rule: rule.name().to_string(),
                    justification: s.justification.clone(),
                });
            } else {
                report.findings.push(Finding {
                    file: ctx.path.clone(),
                    line: lineno,
                    rule: rule.name().to_string(),
                    message: rule.message().to_string(),
                    excerpt: original_lines
                        .get(i)
                        .map(|l| l.trim().to_string())
                        .unwrap_or_default(),
                });
            }
        }
        depth = line_depth;
        while let Some(&region) = test_regions.last() {
            if depth <= region {
                test_regions.pop();
            } else {
                break;
            }
        }
    }

    for (k, (_, s, comment_line)) in by_line.iter().enumerate() {
        if !used.contains(&k) {
            unused.push((*comment_line, s.clone()));
        }
    }
    unused.sort_by_key(|(line, _)| *line);
    for (line, s) in unused {
        report.findings.push(Finding {
            file: ctx.path.clone(),
            line,
            rule: "unused-suppression".to_string(),
            message: format!(
                "suppression for `{}` silences nothing — remove it or fix the attachment",
                s.rule
            ),
            excerpt: original_lines
                .get(line.saturating_sub(1))
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
        });
    }
    report.files_scanned += 1;
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Directories scanned relative to the workspace root. `target/` and the
/// lint fixtures (deliberate violations) are excluded.
const SCAN_ROOTS: [&str; 3] = ["src", "tests", "examples"];

/// Collects every workspace `.rs` file to scan, sorted for deterministic
/// report order.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for dir in SCAN_ROOTS {
        let p = root.join(dir);
        if p.is_dir() {
            collect_rs(&p, &mut files)?;
        }
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            for sub in ["src", "tests", "examples", "benches"] {
                let p = entry.path().join(sub);
                if p.is_dir() {
                    collect_rs(&p, &mut files)?;
                }
            }
        }
    }
    files.retain(|p| !p.components().any(|c| c.as_os_str() == "fixtures"));
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans the whole workspace rooted at `root`.
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    for path in workspace_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        let ctx = FileContext::from_path(&rel);
        let source = fs::read_to_string(&path)?;
        scan_source(&ctx, &source, &mut report);
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
        .suppressions
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}
