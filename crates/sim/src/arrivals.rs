//! Recorded arrival traces: the replayable workload format.
//!
//! A simulation (or a live deployment) consumes tasks as a *stream of
//! arrivals*; this module captures that stream in a small line-based text
//! format so the same workload can be replayed — against the online
//! `dts-server`, the batch pipeline, or a future version of either — and
//! compared placement-for-placement. The format:
//!
//! ```text
//! dts-arrival-trace v1
//! # any number of comment lines
//! tasks 3
//! 0 1052.7 0
//! 1 940.25 0.5
//! 2 87 1.25
//! ```
//!
//! One record per task: `<id> <mflops> <arrival_seconds>`, ordered by
//! arrival time (ties keep id order), ids dense in `0..n`. Floats are
//! written with Rust's shortest-round-trip formatting, so **record →
//! parse → re-record is bit-identical** — the round-trip test locks this
//! in, and it is what makes a committed trace a stable fixture.
//!
//! # Version 2: dependencies
//!
//! A `dts-arrival-trace v2` header allows an optional fourth field per
//! record carrying the task's predecessors:
//!
//! ```text
//! dts-arrival-trace v2
//! tasks 3
//! 0 1052.7 0
//! 1 940.25 0.5 deps=0
//! 2 87 1.25 deps=0,1
//! ```
//!
//! Every dependency must name a **smaller** task id, which makes any
//! well-formed v2 trace acyclic by construction. The `deps=` field is
//! rejected under a v1 header (version gating), so v1 consumers can never
//! silently drop precedence constraints; a v1 document parses through the
//! v2-aware parser byte-identically to before. [`ArrivalTrace::serialize`]
//! emits the v1 header whenever no record carries dependencies — a
//! dependency-free trace normalises to exactly the v1 bytes.
//!
//! Malformed input — bad header, syntax errors, non-monotonic timestamps,
//! duplicate or out-of-range task ids, non-positive sizes, bad
//! dependencies — is rejected with a diagnosable [`TraceError`] carrying
//! the offending line number, never a panic.

use std::fmt;

use dts_model::{SimTime, Task, TaskGraph, TaskId, WorkloadSpec};

/// Magic first line of the dependency-free format.
const HEADER: &str = "dts-arrival-trace v1";
/// Header of the dependency-carrying format.
const HEADER_V2: &str = "dts-arrival-trace v2";

/// Why a trace failed to parse or validate.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The first non-comment line was neither the `dts-arrival-trace v1`
    /// nor the `dts-arrival-trace v2` header.
    BadHeader {
        /// What was found instead (possibly truncated).
        found: String,
    },
    /// A record has a malformed or invalid `deps=` field — including
    /// any `deps=` field at all under a v1 header.
    InvalidDependency {
        /// 1-based line number.
        line: usize,
        /// What was invalid.
        message: String,
    },
    /// A line could not be tokenised into the expected fields.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A record's arrival time is earlier than its predecessor's.
    NonMonotonicArrival {
        /// 1-based line number of the offending record.
        line: usize,
        /// The arrival that went backwards.
        arrival: f64,
        /// The previous record's arrival.
        previous: f64,
    },
    /// The same task id appeared twice.
    DuplicateTaskId {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The repeated id.
        id: u32,
    },
    /// A record named an id outside the declared `0..count` range.
    UnknownTaskId {
        /// 1-based line number.
        line: usize,
        /// The out-of-range id.
        id: u32,
        /// The declared task count.
        count: usize,
    },
    /// A record has a non-finite, non-positive size or a negative /
    /// non-finite arrival time.
    InvalidRecord {
        /// 1-based line number.
        line: usize,
        /// What was invalid.
        message: String,
    },
    /// The number of records did not match the declared `tasks <n>`
    /// count.
    CountMismatch {
        /// Count declared in the `tasks` line.
        declared: usize,
        /// Records actually present.
        found: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadHeader { found } => {
                write!(
                    f,
                    "expected header `{HEADER}` or `{HEADER_V2}`, found `{found}`"
                )
            }
            TraceError::InvalidDependency { line, message } => write!(f, "line {line}: {message}"),
            TraceError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            TraceError::NonMonotonicArrival {
                line,
                arrival,
                previous,
            } => write!(
                f,
                "line {line}: arrival {arrival} s is earlier than the previous record's \
                 {previous} s — records must be ordered by arrival time"
            ),
            TraceError::DuplicateTaskId { line, id } => {
                write!(f, "line {line}: task id {id} already appeared")
            }
            TraceError::UnknownTaskId { line, id, count } => write!(
                f,
                "line {line}: task id {id} is outside the declared range 0..{count}"
            ),
            TraceError::InvalidRecord { line, message } => write!(f, "line {line}: {message}"),
            TraceError::CountMismatch { declared, found } => write!(
                f,
                "trace declared {declared} task(s) but contains {found} record(s)"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// A validated, replayable stream of task arrivals.
///
/// Invariants (enforced by every constructor): records are sorted by
/// arrival time, ids are dense in `0..len`, sizes are positive and
/// finite, arrivals are finite and non-negative, and every dependency
/// names a smaller task id (so the implied graph is acyclic by
/// construction).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    tasks: Vec<Task>,
    /// Predecessor ids per task, indexed by task id (`deps[id]`), in the
    /// order they were recorded. Empty lists for dependency-free tasks.
    deps: Vec<Vec<u32>>,
}

impl ArrivalTrace {
    /// Records a trace from an already-materialised task list (e.g. the
    /// output of [`WorkloadSpec::generate`]), validating the trace
    /// invariants.
    pub fn from_tasks(tasks: &[Task]) -> Result<Self, TraceError> {
        let mut trace = Self {
            tasks: Vec::new(),
            deps: vec![Vec::new(); tasks.len()],
        };
        let mut seen = vec![false; tasks.len()];
        for (i, t) in tasks.iter().enumerate() {
            trace.append_validated(
                i + 1,
                t.id.0,
                t.mflops,
                t.arrival.seconds(),
                &mut seen,
                Vec::new(),
            )?;
        }
        Ok(trace)
    }

    /// Records a precedence-constrained workload: [`Self::from_tasks`]
    /// plus the dependency lists of `graph`, producing a v2 trace (unless
    /// the graph is edge-free, which normalises to v1).
    ///
    /// Fails with [`TraceError::InvalidDependency`] when the graph does
    /// not span exactly the workload or contains an edge whose
    /// predecessor id is not smaller than its successor's — the format's
    /// acyclicity-by-id-order invariant.
    pub fn from_tasks_with_graph(tasks: &[Task], graph: &TaskGraph) -> Result<Self, TraceError> {
        if graph.len() != tasks.len() {
            return Err(TraceError::InvalidDependency {
                line: 0,
                message: format!(
                    "task graph spans {} task(s) but the workload has {}",
                    graph.len(),
                    tasks.len()
                ),
            });
        }
        let mut trace = Self::from_tasks(tasks)?;
        for (i, t) in tasks.iter().enumerate() {
            let deps = graph.preds(t.id.0).to_vec();
            Self::validate_deps(i + 1, t.id.0, &deps)?;
            trace.deps[t.id.index()] = deps;
        }
        Ok(trace)
    }

    /// Generates a workload from `spec` at `seed` and records it. Same
    /// `(spec, seed)` ⇒ bit-identical trace — the deterministic recording
    /// path used by the CI fixture and the oracle tests.
    pub fn record(spec: &WorkloadSpec, seed: u64) -> Result<Self, TraceError> {
        Self::from_tasks(&spec.generate(seed))
    }

    /// Checks the dependency-list invariants for task `id`: each dep
    /// strictly smaller than `id` (range + acyclicity in one shot) and no
    /// duplicates.
    fn validate_deps(line: usize, id: u32, deps: &[u32]) -> Result<(), TraceError> {
        for (k, &d) in deps.iter().enumerate() {
            if d >= id {
                return Err(TraceError::InvalidDependency {
                    line,
                    message: format!(
                        "task {id} depends on {d}: dependencies must name a smaller task id"
                    ),
                });
            }
            if deps[..k].contains(&d) {
                return Err(TraceError::InvalidDependency {
                    line,
                    message: format!("task {id} lists dependency {d} twice"),
                });
            }
        }
        Ok(())
    }

    /// Validates and appends one record. `line` is only for diagnostics;
    /// `seen[id]` marks the ids already recorded (its length is the
    /// declared task count), so the duplicate check is one lookup and
    /// building a trace stays linear in its length.
    fn append_validated(
        &mut self,
        line: usize,
        id: u32,
        mflops: f64,
        arrival: f64,
        seen: &mut [bool],
        deps: Vec<u32>,
    ) -> Result<(), TraceError> {
        if !(mflops.is_finite() && mflops > 0.0) {
            return Err(TraceError::InvalidRecord {
                line,
                message: format!("task size {mflops} MFLOPs must be positive and finite"),
            });
        }
        if !(arrival.is_finite() && arrival >= 0.0) {
            return Err(TraceError::InvalidRecord {
                line,
                message: format!("arrival time {arrival} s must be non-negative and finite"),
            });
        }
        let Some(recorded) = seen.get_mut(id as usize) else {
            let count = seen.len();
            return Err(TraceError::UnknownTaskId { line, id, count });
        };
        if std::mem::replace(recorded, true) {
            return Err(TraceError::DuplicateTaskId { line, id });
        }
        if let Some(prev) = self.tasks.last() {
            if arrival < prev.arrival.seconds() {
                return Err(TraceError::NonMonotonicArrival {
                    line,
                    arrival,
                    previous: prev.arrival.seconds(),
                });
            }
        }
        Self::validate_deps(line, id, &deps)?;
        self.tasks
            .push(Task::new(TaskId(id), mflops, SimTime::new(arrival)));
        self.deps[id as usize] = deps;
        Ok(())
    }

    /// Parses the text format. Inverse of [`ArrivalTrace::serialize`].
    pub fn parse(text: &str) -> Result<Self, TraceError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

        let v2 = match lines.next() {
            Some((_, l)) if l == HEADER => false,
            Some((_, l)) if l == HEADER_V2 => true,
            Some((_, l)) => {
                let mut found = l.to_string();
                found.truncate(60);
                return Err(TraceError::BadHeader { found });
            }
            None => {
                return Err(TraceError::BadHeader {
                    found: "<empty input>".to_string(),
                })
            }
        };

        let count = match lines.next() {
            Some((line, l)) => match l.strip_prefix("tasks ") {
                Some(n) => n.parse::<usize>().map_err(|e| TraceError::Syntax {
                    line,
                    message: format!("bad task count `{n}`: {e}"),
                })?,
                None => {
                    return Err(TraceError::Syntax {
                        line,
                        message: format!("expected `tasks <n>`, found `{l}`"),
                    })
                }
            },
            None => {
                return Err(TraceError::Syntax {
                    line: 0,
                    message: "missing `tasks <n>` line".to_string(),
                })
            }
        };

        // A record takes at least six bytes: `0 1 0` and the line break
        // before it. A declared count the text cannot hold is rejected
        // before it sizes anything, so what is allocated stays proportional
        // to the input.
        if count > text.len() / 6 {
            return Err(TraceError::CountMismatch {
                declared: count,
                found: lines.count(),
            });
        }
        let mut trace = Self {
            tasks: Vec::with_capacity(count),
            deps: vec![Vec::new(); count],
        };
        let mut seen = vec![false; count];
        for (line, l) in lines {
            let mut fields = l.split_ascii_whitespace();
            let (id, mflops, arrival, deps_field) =
                match (fields.next(), fields.next(), fields.next()) {
                    (Some(a), Some(b), Some(c)) => {
                        let deps_field = fields.next();
                        if fields.next().is_some() {
                            return Err(TraceError::Syntax {
                                line,
                                message: format!(
                                    "expected `<id> <mflops> <arrival_s> [deps=...]`, found `{l}`"
                                ),
                            });
                        }
                        let id = a.parse::<u32>().map_err(|e| TraceError::Syntax {
                            line,
                            message: format!("bad task id `{a}`: {e}"),
                        })?;
                        let m = b.parse::<f64>().map_err(|e| TraceError::Syntax {
                            line,
                            message: format!("bad size `{b}`: {e}"),
                        })?;
                        let t = c.parse::<f64>().map_err(|e| TraceError::Syntax {
                            line,
                            message: format!("bad arrival `{c}`: {e}"),
                        })?;
                        (id, m, t, deps_field)
                    }
                    _ => {
                        return Err(TraceError::Syntax {
                            line,
                            message: format!("expected `<id> <mflops> <arrival_s>`, found `{l}`"),
                        })
                    }
                };
            let deps = match deps_field {
                None => Vec::new(),
                Some(field) => {
                    if !v2 {
                        // Version gating: v1 records have exactly three
                        // fields. A `deps=` field gets a pointed message;
                        // anything else is the v1 syntax error.
                        return Err(if field.starts_with("deps=") {
                            TraceError::InvalidDependency {
                                line,
                                message: format!(
                                    "`{field}`: dependencies require the `{HEADER_V2}` header"
                                ),
                            }
                        } else {
                            TraceError::Syntax {
                                line,
                                message: format!(
                                    "expected `<id> <mflops> <arrival_s>`, found `{l}`"
                                ),
                            }
                        });
                    }
                    let list = field
                        .strip_prefix("deps=")
                        .ok_or_else(|| TraceError::Syntax {
                            line,
                            message: format!("expected `deps=<id>,...`, found `{field}`"),
                        })?;
                    list.split(',')
                        .map(|d| {
                            d.parse::<u32>().map_err(|e| TraceError::Syntax {
                                line,
                                message: format!("bad dependency id `{d}`: {e}"),
                            })
                        })
                        .collect::<Result<Vec<u32>, TraceError>>()?
                }
            };
            trace.append_validated(line, id, mflops, arrival, &mut seen, deps)?;
        }

        if trace.tasks.len() != count {
            return Err(TraceError::CountMismatch {
                declared: count,
                found: trace.tasks.len(),
            });
        }
        Ok(trace)
    }

    /// Serialises to the text format. Floats use Rust's shortest
    /// round-trip formatting, so `parse(serialize(t)) == t` bit-for-bit.
    /// Emits the v1 header when no task carries dependencies — a
    /// dependency-free trace always normalises to the v1 bytes — and v2
    /// otherwise.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(if self.has_deps() { HEADER_V2 } else { HEADER });
        out.push('\n');
        out.push_str(&format!("tasks {}\n", self.tasks.len()));
        for t in &self.tasks {
            out.push_str(&format!("{} {} {}", t.id.0, t.mflops, t.arrival.seconds()));
            let deps = &self.deps[t.id.index()];
            if !deps.is_empty() {
                out.push_str(" deps=");
                for (k, d) in deps.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str(&d.to_string());
                }
            }
            out.push('\n');
        }
        out
    }

    /// The recorded tasks, in arrival order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Predecessor ids of task `id`, in recorded order (empty for
    /// dependency-free tasks).
    pub fn deps_of(&self, id: u32) -> &[u32] {
        &self.deps[id as usize]
    }

    /// True when any task carries dependencies (the trace is v2).
    pub fn has_deps(&self) -> bool {
        self.deps.iter().any(|d| !d.is_empty())
    }

    /// Materialises the recorded dependencies as a [`TaskGraph`] over the
    /// trace's dense task ids — the graph to hand to
    /// [`crate::Simulation::new_with_graph`] when replaying.
    pub fn graph(&self) -> TaskGraph {
        let edges: Vec<(u32, u32)> = self
            .deps
            .iter()
            .enumerate()
            .flat_map(|(s, preds)| preds.iter().map(move |&p| (p, s as u32)))
            .collect();
        TaskGraph::new(self.tasks.len(), &edges)
            .expect("trace invariants guarantee an acyclic, in-range edge set")
    }

    /// Number of recorded arrivals.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the trace holds no arrivals.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_model::{ArrivalProcess, SizeDistribution};

    fn stream_spec(count: usize) -> WorkloadSpec {
        WorkloadSpec {
            count,
            sizes: SizeDistribution::Normal {
                mean: 1000.0,
                variance: 9.0e5,
            },
            arrival: ArrivalProcess::PoissonStream {
                mean_interarrival: 0.5,
            },
        }
    }

    #[test]
    fn record_is_deterministic() {
        let spec = stream_spec(40);
        let a = ArrivalTrace::record(&spec, 7).unwrap();
        let b = ArrivalTrace::record(&spec, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.serialize(), b.serialize());
        assert_ne!(a, ArrivalTrace::record(&spec, 8).unwrap());
    }

    #[test]
    fn round_trip_is_bit_identical() {
        // record → serialize → parse → re-serialize must reproduce the
        // exact bytes: shortest-round-trip float formatting makes the
        // text form a lossless fixture.
        let spec = stream_spec(100);
        let recorded = ArrivalTrace::record(&spec, 42).unwrap();
        let text = recorded.serialize();
        let replayed = ArrivalTrace::parse(&text).unwrap();
        assert_eq!(replayed, recorded);
        assert_eq!(replayed.serialize(), text);
        // And the replayed tasks are field-for-field the generated ones.
        assert_eq!(replayed.tasks(), &spec.generate(42)[..]);
    }

    #[test]
    fn round_trip_all_at_start() {
        let spec = WorkloadSpec::batch(
            25,
            SizeDistribution::Uniform {
                lo: 10.0,
                hi: 1000.0,
            },
        );
        let recorded = ArrivalTrace::record(&spec, 3).unwrap();
        let text = recorded.serialize();
        assert_eq!(ArrivalTrace::parse(&text).unwrap().serialize(), text);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# preamble\n\ndts-arrival-trace v1\n# mid\ntasks 2\n0 100 0\n\n1 200 1.5\n";
        let t = ArrivalTrace::parse(text).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.tasks()[1].mflops, 200.0);
    }

    #[test]
    fn bad_header_rejected() {
        let err = ArrivalTrace::parse("dts-arrival-trace v99\ntasks 0\n").unwrap_err();
        assert!(matches!(err, TraceError::BadHeader { .. }), "{err}");
        let err = ArrivalTrace::parse("").unwrap_err();
        assert!(matches!(err, TraceError::BadHeader { .. }), "{err}");
    }

    #[test]
    fn non_monotonic_arrivals_rejected() {
        let text = "dts-arrival-trace v1\ntasks 2\n0 100 5.0\n1 100 4.0\n";
        let err = ArrivalTrace::parse(text).unwrap_err();
        match err {
            TraceError::NonMonotonicArrival { line, .. } => assert_eq!(line, 4),
            other => panic!("wrong error: {other}"),
        }
        // The message names both timestamps.
        assert!(err.to_string().contains('4') && err.to_string().contains('5'));
    }

    #[test]
    fn unknown_task_id_rejected() {
        let text = "dts-arrival-trace v1\ntasks 2\n0 100 0\n7 100 1\n";
        let err = ArrivalTrace::parse(text).unwrap_err();
        assert_eq!(
            err,
            TraceError::UnknownTaskId {
                line: 4,
                id: 7,
                count: 2
            }
        );
    }

    #[test]
    fn duplicate_task_id_rejected() {
        let text = "dts-arrival-trace v1\ntasks 2\n0 100 0\n0 100 1\n";
        let err = ArrivalTrace::parse(text).unwrap_err();
        assert_eq!(err, TraceError::DuplicateTaskId { line: 4, id: 0 });
    }

    #[test]
    fn count_mismatch_rejected() {
        let text = "dts-arrival-trace v1\ntasks 3\n0 100 0\n1 100 1\n";
        let err = ArrivalTrace::parse(text).unwrap_err();
        assert_eq!(
            err,
            TraceError::CountMismatch {
                declared: 3,
                found: 2
            }
        );
    }

    /// A count the input cannot hold is rejected before anything is sized
    /// by it. Sizing by the count would make the first input request a
    /// 24 GB allocation (the process aborts) and the second overflow a
    /// `Vec`'s capacity (a panic).
    #[test]
    fn oversized_count_rejected_before_allocation() {
        for (declared, text) in [
            (
                1_000_000_000,
                "dts-arrival-trace v1\ntasks 1000000000\n0 100 0.5\n",
            ),
            (
                usize::MAX,
                "dts-arrival-trace v1\ntasks 18446744073709551615\n0 100 0.5\n",
            ),
        ] {
            assert_eq!(
                ArrivalTrace::parse(text).unwrap_err(),
                TraceError::CountMismatch { declared, found: 1 }
            );
        }
    }

    #[test]
    fn invalid_sizes_and_arrivals_rejected() {
        for bad in [
            "dts-arrival-trace v1\ntasks 1\n0 -5 0\n",
            "dts-arrival-trace v1\ntasks 1\n0 0 0\n",
            "dts-arrival-trace v1\ntasks 1\n0 inf 0\n",
            "dts-arrival-trace v1\ntasks 1\n0 NaN 0\n",
            "dts-arrival-trace v1\ntasks 1\n0 100 -1\n",
            "dts-arrival-trace v1\ntasks 1\n0 100 inf\n",
        ] {
            let err = ArrivalTrace::parse(bad).unwrap_err();
            assert!(matches!(err, TraceError::InvalidRecord { .. }), "{bad:?}");
        }
    }

    #[test]
    fn syntax_errors_are_diagnosable() {
        for (bad, needle) in [
            ("dts-arrival-trace v1\nntasks x\n", "tasks"),
            ("dts-arrival-trace v1\ntasks x\n", "task count"),
            ("dts-arrival-trace v1\ntasks 1\n0 100\n", "expected"),
            ("dts-arrival-trace v1\ntasks 1\n0 100 0 9\n", "expected"),
            ("dts-arrival-trace v1\ntasks 1\nx 100 0\n", "task id"),
            ("dts-arrival-trace v1\ntasks 1\n0 abc 0\n", "size"),
            ("dts-arrival-trace v1\ntasks 1\n0 100 zz\n", "arrival"),
        ] {
            let err = ArrivalTrace::parse(bad).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "error `{msg}` for {bad:?}");
        }
    }

    #[test]
    fn v1_documents_parse_identically_through_the_v2_aware_parser() {
        // A valid v1 byte stream re-serialises to exactly itself: the v2
        // extension cannot perturb v1 traces.
        let spec = stream_spec(60);
        let text = ArrivalTrace::record(&spec, 11).unwrap().serialize();
        assert!(text.starts_with("dts-arrival-trace v1\n"));
        let parsed = ArrivalTrace::parse(&text).unwrap();
        assert_eq!(parsed.serialize(), text);
        assert!(!parsed.has_deps());
        assert!(!parsed.graph().has_edges());
    }

    #[test]
    fn v2_round_trip_is_bit_identical() {
        let text = "dts-arrival-trace v2\ntasks 4\n0 100 0\n1 250.5 0.5 deps=0\n\
                    2 87 1.25 deps=0,1\n3 40 2 deps=1\n";
        let t = ArrivalTrace::parse(text).unwrap();
        assert_eq!(t.serialize(), text);
        assert!(t.has_deps());
        assert_eq!(t.deps_of(0), &[] as &[u32]);
        assert_eq!(t.deps_of(2), &[0, 1]);
        let g = t.graph();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.preds(2), &[0, 1]);
    }

    #[test]
    fn graph_recording_round_trips_through_the_text_format() {
        use dts_model::graph::DagFamily;
        let spec = stream_spec(20);
        let tasks = spec.generate(5);
        let graph = DagFamily::RandomLayered {
            layers: 4,
            edge_probability: 0.6,
        }
        .build(20, 9);
        let recorded = ArrivalTrace::from_tasks_with_graph(&tasks, &graph).unwrap();
        let text = recorded.serialize();
        assert!(text.starts_with("dts-arrival-trace v2\n"));
        let replayed = ArrivalTrace::parse(&text).unwrap();
        assert_eq!(replayed, recorded);
        assert_eq!(replayed.serialize(), text);
        assert_eq!(replayed.graph().digest(), graph.digest());
    }

    #[test]
    fn deps_field_is_version_gated() {
        let text = "dts-arrival-trace v1\ntasks 2\n0 100 0\n1 100 1 deps=0\n";
        let err = ArrivalTrace::parse(text).unwrap_err();
        match &err {
            TraceError::InvalidDependency { line, .. } => assert_eq!(*line, 4),
            other => panic!("wrong error: {other}"),
        }
        assert!(err.to_string().contains("v2"), "{err}");
    }

    #[test]
    fn bad_dependencies_are_line_diagnosed() {
        for (bad, line, needle) in [
            // Forward reference: dependency on a later id.
            (
                "dts-arrival-trace v2\ntasks 2\n0 100 0 deps=1\n1 100 1\n",
                3,
                "smaller task id",
            ),
            // Self-dependency.
            (
                "dts-arrival-trace v2\ntasks 2\n0 100 0\n1 100 1 deps=1\n",
                4,
                "smaller task id",
            ),
            // Duplicate dependency.
            (
                "dts-arrival-trace v2\ntasks 3\n0 100 0\n1 100 1\n2 100 2 deps=0,0\n",
                5,
                "twice",
            ),
            // Unparseable dependency id.
            (
                "dts-arrival-trace v2\ntasks 2\n0 100 0\n1 100 1 deps=x\n",
                4,
                "dependency id",
            ),
            // Malformed field.
            (
                "dts-arrival-trace v2\ntasks 2\n0 100 0\n1 100 1 needs=0\n",
                4,
                "deps=",
            ),
        ] {
            let err = ArrivalTrace::parse(bad).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(needle) && msg.contains(&format!("line {line}")),
                "error `{msg}` for {bad:?}"
            );
        }
    }

    #[test]
    fn mismatched_graph_is_rejected_when_recording() {
        let tasks = stream_spec(3).generate(1);
        let graph = dts_model::TaskGraph::independent(5);
        assert!(matches!(
            ArrivalTrace::from_tasks_with_graph(&tasks, &graph).unwrap_err(),
            TraceError::InvalidDependency { .. }
        ));
    }

    #[test]
    fn from_tasks_rejects_out_of_order_input() {
        let tasks = vec![
            Task::new(TaskId(0), 100.0, SimTime::new(2.0)),
            Task::new(TaskId(1), 100.0, SimTime::new(1.0)),
        ];
        assert!(matches!(
            ArrivalTrace::from_tasks(&tasks).unwrap_err(),
            TraceError::NonMonotonicArrival { .. }
        ));
    }
}
