//! Precedence constraints between tasks: the [`TaskGraph`].
//!
//! The paper schedules independent tasks; most related work (e.g. the DAG
//! grid-scheduling strategies of arxiv 1106.5303 and the priority-GA of
//! arxiv 1001.1985) schedules *precedence-constrained* graphs. A
//! [`TaskGraph`] attaches an edge list — edge `(u, v)` means *task `u`
//! must complete before task `v` may start* — plus an optional per-task
//! deadline to a workload of `n` tasks identified by their dense
//! [`crate::TaskId`] indices `0..n`.
//!
//! The constructor rejects cycles up front (Kahn's algorithm), so every
//! `TaskGraph` value is a DAG by construction and downstream layers never
//! need a feasibility check. A graph with no edges
//! ([`TaskGraph::has_edges`]` == false`) is the paper's independent-task
//! model; every consumer treats that case as a structural no-op so the
//! original code paths stay bit-identical.
//!
//! [`DagFamily`] generates the three scenario families of the roadmap —
//! fork-join, parallel chains, and random layered graphs — with edges
//! always directed from lower to higher task id, so a graph composes with
//! arrival-ordered dense ids (a dependency can never point forward in
//! submission order).

use dts_distributions::{Prng, Rng};

/// Why a [`TaskGraph`] could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge endpoint is outside `0..n`.
    TaskOutOfRange {
        /// The offending task index.
        task: u32,
        /// The number of tasks in the graph.
        count: usize,
    },
    /// An edge from a task to itself.
    SelfDependency {
        /// The task depending on itself.
        task: u32,
    },
    /// The same edge was given twice.
    DuplicateEdge {
        /// Predecessor endpoint.
        pred: u32,
        /// Successor endpoint.
        succ: u32,
    },
    /// The edges contain a cycle; `task` is on it.
    Cycle {
        /// A task known to be on a cycle.
        task: u32,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::TaskOutOfRange { task, count } => {
                write!(
                    f,
                    "edge endpoint T{task} out of range (graph has {count} tasks)"
                )
            }
            GraphError::SelfDependency { task } => {
                write!(f, "task T{task} cannot depend on itself")
            }
            GraphError::DuplicateEdge { pred, succ } => {
                write!(f, "duplicate edge T{pred} -> T{succ}")
            }
            GraphError::Cycle { task } => {
                write!(f, "dependency cycle through T{task}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// The 64-bit finaliser of splitmix64, used to fold the graph digest.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Precedence constraints over `n` tasks: a DAG by construction, plus an
/// optional deadline per task.
///
/// Task indices are the dense [`crate::TaskId`] indices `0..n` of the
/// workload the graph annotates. Edge `(u, v)` reads "`v` waits for `u`".
///
/// ```
/// use dts_model::TaskGraph;
/// // A diamond: 0 → {1, 2} → 3.
/// let g = TaskGraph::new(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
/// assert_eq!(g.preds(3), &[1, 2]);
/// assert_eq!(g.succs(0), &[1, 2]);
/// assert!(g.has_edges());
/// // Cycles are rejected up front.
/// assert!(TaskGraph::new(2, &[(0, 1), (1, 0)]).is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    n: usize,
    edges: usize,
    /// Predecessors of each task, ascending.
    preds: Vec<Vec<u32>>,
    /// Successors of each task, ascending.
    succs: Vec<Vec<u32>>,
    /// Completion deadline per task in seconds since simulation start
    /// (`None` = no deadline).
    deadlines: Vec<Option<f64>>,
}

impl TaskGraph {
    /// Builds a graph over `n` tasks from an edge list; each `(u, v)`
    /// means `u` must complete before `v` starts. Rejects out-of-range
    /// endpoints, self-loops, duplicate edges, and cycles.
    pub fn new(n: usize, edges: &[(u32, u32)]) -> Result<Self, GraphError> {
        let mut g = Self::independent(n);
        for &(u, v) in edges {
            for t in [u, v] {
                if t as usize >= n {
                    return Err(GraphError::TaskOutOfRange { task: t, count: n });
                }
            }
            if u == v {
                return Err(GraphError::SelfDependency { task: u });
            }
            if g.preds[v as usize].contains(&u) {
                return Err(GraphError::DuplicateEdge { pred: u, succ: v });
            }
            g.preds[v as usize].push(u);
            g.succs[u as usize].push(v);
            g.edges += 1;
        }
        for list in g.preds.iter_mut().chain(g.succs.iter_mut()) {
            list.sort_unstable();
        }
        // Kahn's algorithm: a task that is never freed (its in-degree never
        // drains to 0) sits on (or behind) a cycle. Which tasks are freed
        // does not depend on the visit order, so a stack will do.
        let mut indeg = g.in_degrees();
        let mut ready: Vec<u32> = (0..n as u32).filter(|&t| indeg[t as usize] == 0).collect();
        while let Some(t) = ready.pop() {
            for &s in &g.succs[t as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    ready.push(s);
                }
            }
        }
        if let Some(t) = indeg.iter().position(|&d| d > 0) {
            return Err(GraphError::Cycle { task: t as u32 });
        }
        Ok(g)
    }

    /// The edge-free graph over `n` tasks — the paper's independent-task
    /// model. Every consumer treats it as a structural no-op.
    pub fn independent(n: usize) -> Self {
        Self {
            n,
            edges: 0,
            preds: vec![Vec::new(); n],
            succs: vec![Vec::new(); n],
            deadlines: vec![None; n],
        }
    }

    /// Number of tasks the graph spans.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph spans no tasks.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of precedence edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// True when at least one precedence edge exists. `false` means the
    /// independent-task model: consumers must take their original
    /// (pre-precedence) code path.
    pub fn has_edges(&self) -> bool {
        self.edges > 0
    }

    /// The tasks that must complete before `t` may start, ascending.
    pub fn preds(&self, t: u32) -> &[u32] {
        &self.preds[t as usize]
    }

    /// The tasks waiting on `t`, ascending.
    pub fn succs(&self, t: u32) -> &[u32] {
        &self.succs[t as usize]
    }

    /// Number of predecessors per task — the initial readiness counters of
    /// the simulator's admission gate.
    pub fn in_degrees(&self) -> Vec<u32> {
        self.preds.iter().map(|p| p.len() as u32).collect()
    }

    /// Sets the completion deadline of task `t`, in seconds since
    /// simulation start. The simulator reports the fraction of tasks that
    /// finish after their deadline as the deadline-miss rate.
    pub fn set_deadline(&mut self, t: u32, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "deadline must be a finite non-negative time"
        );
        self.deadlines[t as usize] = Some(seconds);
    }

    /// The completion deadline of task `t`, if any.
    pub fn deadline(&self, t: u32) -> Option<f64> {
        self.deadlines[t as usize]
    }

    /// A 64-bit digest of the full graph content (edges and deadlines):
    /// two graphs with equal digests constrain evaluation identically for
    /// all practical purposes. The arrival-trace round-trip
    /// test compares graphs by it.
    pub fn digest(&self) -> u64 {
        let mut h = mix(0x5441_534B_4752_5048 ^ self.n as u64);
        for (t, preds) in self.preds.iter().enumerate() {
            for &p in preds {
                h = mix(h ^ ((t as u64) << 32 | p as u64));
            }
        }
        for (t, d) in self.deadlines.iter().enumerate() {
            if let Some(d) = d {
                h = mix(h ^ (t as u64) ^ d.to_bits());
            }
        }
        h
    }

    /// The edge list, ascending by `(succ, pred)` — the inverse of
    /// [`TaskGraph::new`]'s input, used by serialisers.
    pub fn edge_list(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.edges);
        for (t, preds) in self.preds.iter().enumerate() {
            for &p in preds {
                out.push((p, t as u32));
            }
        }
        out
    }
}

/// The roadmap's three DAG scenario families. Each builds a [`TaskGraph`]
/// over `n` tasks with edges always directed from lower to higher task id,
/// so they compose with arrival-ordered dense ids.
#[derive(Debug, Clone, PartialEq)]
pub enum DagFamily {
    /// Repeated fork-join stages: a fork task fans out to `width` parallel
    /// tasks which all join into the next fork, until `n` tasks are used.
    ForkJoin {
        /// Parallel tasks between consecutive join points (≥ 1).
        width: usize,
    },
    /// `chains` independent linear chains: task ids are split into
    /// contiguous blocks, each a chain `i → i+1 → …`.
    Chains {
        /// Number of parallel chains (≥ 1).
        chains: usize,
    },
    /// Tasks split into `layers` contiguous layers; each task depends on
    /// each task of the previous layer independently with probability
    /// `edge_probability` (at least one predecessor is guaranteed, so
    /// layers stay ordered).
    RandomLayered {
        /// Number of layers (≥ 2 for any edge to exist).
        layers: usize,
        /// Probability of each cross-layer edge, in `[0, 1]`.
        edge_probability: f64,
    },
}

impl DagFamily {
    /// Builds the family's graph over `n` tasks. Deterministic per
    /// `(family, n, seed)`; only `RandomLayered` consumes the seed.
    pub fn build(&self, n: usize, seed: u64) -> TaskGraph {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        match *self {
            DagFamily::ForkJoin { width } => {
                assert!(width >= 1, "fork-join width must be >= 1");
                // 0 forks into 1..=width, which join into width+1, which
                // forks again, and so on.
                let mut fork = 0u32;
                loop {
                    let first = fork + 1;
                    let last = (fork as usize + width).min(n.saturating_sub(1)) as u32;
                    if first > last {
                        break;
                    }
                    for t in first..=last {
                        edges.push((fork, t));
                    }
                    let join = last + 1;
                    if join as usize >= n {
                        break;
                    }
                    for t in first..=last {
                        edges.push((t, join));
                    }
                    fork = join;
                }
            }
            DagFamily::Chains { chains } => {
                assert!(chains >= 1, "need at least one chain");
                let per = n.div_ceil(chains.min(n.max(1)));
                let mut start = 0usize;
                while start < n {
                    let end = (start + per).min(n);
                    for t in start + 1..end {
                        edges.push((t as u32 - 1, t as u32));
                    }
                    start = end;
                }
            }
            DagFamily::RandomLayered {
                layers,
                edge_probability,
            } => {
                assert!(layers >= 1, "need at least one layer");
                assert!(
                    (0.0..=1.0).contains(&edge_probability),
                    "edge probability must be in [0, 1]"
                );
                let mut rng = Prng::seed_from(seed);
                let layers = layers.min(n.max(1));
                let per = n.div_ceil(layers.max(1));
                let bounds: Vec<(usize, usize)> = (0..layers)
                    .map(|l| (l * per, ((l + 1) * per).min(n)))
                    .filter(|(lo, hi)| lo < hi)
                    .collect();
                for w in bounds.windows(2) {
                    let (plo, phi) = w[0];
                    let (lo, hi) = w[1];
                    for t in lo..hi {
                        let mut any = false;
                        for p in plo..phi {
                            if rng.chance(edge_probability) {
                                edges.push((p as u32, t as u32));
                                any = true;
                            }
                        }
                        if !any {
                            // Guarantee layer ordering: fall back to one
                            // deterministic-uniform predecessor.
                            let p = plo + rng.below(phi - plo);
                            edges.push((p as u32, t as u32));
                        }
                    }
                }
            }
        }
        TaskGraph::new(n, &edges).expect("family edges are forward-directed and unique")
    }

    /// Short human-readable label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            DagFamily::ForkJoin { width } => format!("fork-join(w={width})"),
            DagFamily::Chains { chains } => format!("chains({chains})"),
            DagFamily::RandomLayered {
                layers,
                edge_probability,
            } => format!("layered(l={layers},p={edge_probability})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diamond_builds_and_orders() {
        let g = TaskGraph::new(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(g.edge_count(), 4);
        assert!(g.has_edges());
        assert_eq!(g.preds(3), &[1, 2]);
        assert_eq!(g.succs(0), &[1, 2]);
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn independent_graph_is_edge_free() {
        let g = TaskGraph::independent(5);
        assert!(!g.has_edges());
        assert_eq!(g.len(), 5);
        assert_eq!(g.in_degrees(), vec![0; 5]);
    }

    #[test]
    fn cycle_rejected() {
        assert_eq!(
            TaskGraph::new(3, &[(0, 1), (1, 2), (2, 0)]),
            Err(GraphError::Cycle { task: 0 })
        );
        assert!(matches!(
            TaskGraph::new(2, &[(0, 1), (1, 0)]),
            Err(GraphError::Cycle { .. })
        ));
    }

    #[test]
    fn bad_edges_rejected() {
        assert_eq!(
            TaskGraph::new(2, &[(0, 5)]),
            Err(GraphError::TaskOutOfRange { task: 5, count: 2 })
        );
        assert_eq!(
            TaskGraph::new(2, &[(1, 1)]),
            Err(GraphError::SelfDependency { task: 1 })
        );
        assert_eq!(
            TaskGraph::new(2, &[(0, 1), (0, 1)]),
            Err(GraphError::DuplicateEdge { pred: 0, succ: 1 })
        );
    }

    #[test]
    fn digest_tracks_content() {
        let a = TaskGraph::new(4, &[(0, 2), (1, 3)]).unwrap();
        let b = TaskGraph::new(4, &[(0, 2), (1, 3)]).unwrap();
        assert_eq!(a.digest(), b.digest());
        let c = TaskGraph::new(4, &[(0, 2), (1, 2)]).unwrap();
        assert_ne!(a.digest(), c.digest());
        let mut e = TaskGraph::new(4, &[(0, 2), (1, 3)]).unwrap();
        e.set_deadline(3, 12.5);
        assert_ne!(a.digest(), e.digest());
        assert_ne!(
            TaskGraph::independent(4).digest(),
            TaskGraph::independent(5).digest()
        );
    }

    #[test]
    fn edge_list_round_trips() {
        let edges = vec![(0, 2), (1, 2), (2, 3)];
        let g = TaskGraph::new(4, &edges).unwrap();
        let again = TaskGraph::new(4, &g.edge_list()).unwrap();
        assert_eq!(g, again);
    }

    #[test]
    fn fork_join_family_shapes() {
        let g = DagFamily::ForkJoin { width: 3 }.build(9, 0);
        // 0 → {1,2,3} → 4 → {5,6,7} → 8
        assert_eq!(g.preds(4), &[1, 2, 3]);
        assert_eq!(g.succs(4), &[5, 6, 7]);
        assert_eq!(g.preds(8), &[5, 6, 7]);
        assert!(g.has_edges());
    }

    #[test]
    fn chains_family_shapes() {
        let g = DagFamily::Chains { chains: 2 }.build(6, 0);
        // Chains 0→1→2 and 3→4→5.
        assert_eq!(g.preds(1), &[0]);
        assert_eq!(g.preds(2), &[1]);
        assert_eq!(g.preds(3), &[] as &[u32]);
        assert_eq!(g.preds(4), &[3]);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn random_layered_family_is_deterministic_and_layered() {
        let f = DagFamily::RandomLayered {
            layers: 4,
            edge_probability: 0.4,
        };
        let a = f.build(20, 7);
        let b = f.build(20, 7);
        assert_eq!(a, b, "same seed, same graph");
        assert_ne!(a, f.build(20, 8), "different seed, different graph");
        // Every non-first-layer task has at least one predecessor, and all
        // edges point from the previous layer (lower ids).
        for t in 5..20u32 {
            assert!(!a.preds(t).is_empty(), "T{t} has no predecessor");
            for &p in a.preds(t) {
                assert!(p < t);
            }
        }
    }

    #[test]
    fn families_survive_degenerate_sizes() {
        for n in [0usize, 1, 2, 3] {
            for f in [
                DagFamily::ForkJoin { width: 4 },
                DagFamily::Chains { chains: 3 },
                DagFamily::RandomLayered {
                    layers: 5,
                    edge_probability: 0.5,
                },
            ] {
                let g = f.build(n, 1);
                assert_eq!(g.len(), n, "{}", f.label());
            }
        }
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(DagFamily::ForkJoin { width: 4 }.label(), "fork-join(w=4)");
        assert!(DagFamily::Chains { chains: 2 }.label().contains("chains"));
    }
}
