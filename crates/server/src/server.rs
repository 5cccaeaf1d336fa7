//! [`DtsServer`]: the deterministic scheduling core of the service.
//!
//! The server is the production shape of the paper's dynamic scheduler: a
//! continuous stream of task submissions flows through **admission**
//! (bounded per-tenant queues with backpressure), **batching** (FCFS
//! prefix of the pending queue, like the paper's §3.7 batch-mode loop),
//! and **planning** (one GA run per batch through a
//! [`dts_core::Planner`], which owns the seed stream and the warm-start
//! carry-over), emitting one [`PlacementEvent`] per task.
//!
//! The core is deliberately **wall-clock-free**: it never reads a clock,
//! so with a deterministic [`PlanBudget`] (generations, not wall-time)
//! the whole submit/plan lifecycle is a pure function of the submission
//! sequence and the configured seed. That is the property the replay
//! oracle test leans on — the server replaying a recorded trace must
//! place every task exactly where the batch
//! [`dts_core::PnScheduler`] pipeline places it. Wall-clock concerns
//! (decision latency, time-budgeted planning, the channel API) live one
//! layer up in [`crate::service`].

use std::collections::VecDeque;
use std::fmt;

use dts_core::{PlanBudget, Planner, PnConfig, ProcessorState};
use dts_model::{ProcessorId, SimTime, Task, TaskId, TaskQueues};

/// Identifies a submitting tenant (user, job class, ingress shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u16);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Why a submission was rejected at admission. Every variant carries
/// enough context to diagnose (and programmatically react to) the
/// rejection — backpressure is part of the API, not an afterthought.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The tenant id is outside the configured tenant range.
    UnknownTenant {
        /// The offending tenant.
        tenant: TenantId,
        /// How many tenants the server was configured with.
        tenants: usize,
    },
    /// The tenant's admission queue is full: the submission is shed and
    /// the client should back off and retry.
    QueueFull {
        /// The tenant whose queue overflowed.
        tenant: TenantId,
        /// The configured per-tenant capacity.
        capacity: usize,
    },
    /// The task description itself is invalid (non-positive or non-finite
    /// size, invalid arrival time).
    InvalidTask {
        /// What was wrong.
        reason: String,
    },
    /// A declared dependency is invalid: it must name a task id the
    /// server has already assigned (acyclicity by construction), with no
    /// duplicates.
    InvalidDependency {
        /// What was wrong.
        reason: String,
    },
    /// The server's dense `u32` task-id space is exhausted: after 2³²
    /// submissions the server must be recycled. Diagnosable rather than
    /// a panic so an ingress layer can rotate servers gracefully.
    IdSpaceExhausted,
    /// The service thread is gone (already shut down, or dead), so the
    /// submission could not be delivered or answered. Only produced by
    /// the channel front-end ([`crate::service::ServiceHandle`]); the
    /// in-process [`DtsServer`] never returns it.
    ServiceUnavailable,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::UnknownTenant { tenant, tenants } => {
                write!(f, "{tenant} is outside the configured range 0..{tenants}")
            }
            SubmitError::QueueFull { tenant, capacity } => write!(
                f,
                "{tenant}'s admission queue is full ({capacity} pending submissions); \
                 back off and retry"
            ),
            SubmitError::InvalidTask { reason } => write!(f, "invalid task: {reason}"),
            SubmitError::InvalidDependency { reason } => {
                write!(f, "invalid dependency: {reason}")
            }
            SubmitError::IdSpaceExhausted => {
                write!(
                    f,
                    "task id space exhausted (2^32 submissions); recycle the server"
                )
            }
            SubmitError::ServiceUnavailable => {
                write!(
                    f,
                    "scheduler service is unavailable (service thread stopped)"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Static description of one worker processor, the server-side stand-in
/// for the simulator's smoothed [`dts_model::sched::ProcessorView`]: in a
/// live deployment these come from the fleet inventory and are refreshed
/// out of band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessorProfile {
    /// Estimated execution rate in Mflop/s (> 0).
    pub rate: f64,
    /// Estimated one-way communication cost to this worker, seconds.
    pub comm_cost: f64,
}

/// Server configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// The worker fleet the server places tasks onto.
    pub procs: Vec<ProcessorProfile>,
    /// The PN planning configuration (GA knobs, warm-start strategy,
    /// seed). The server plans through a [`dts_core::Planner`] built from
    /// it, exactly like [`dts_core::PnScheduler`], which is what makes
    /// the two pipelines comparable placement-for-placement.
    pub pn: PnConfig,
    /// Number of tenants; submissions must name a tenant in
    /// `0..tenants`.
    pub tenants: usize,
    /// Maximum pending (admitted but not yet planned) submissions per
    /// tenant; beyond it submissions are shed with
    /// [`SubmitError::QueueFull`].
    pub tenant_capacity: usize,
    /// Tasks per plan call: planning triggers once this many submissions
    /// are pending ([`DtsServer::ready_to_plan`]), and a batch never
    /// exceeds it.
    pub batch_size: usize,
    /// Latency budget per plan call. [`PlanBudget::Generations`] /
    /// [`PlanBudget::Unlimited`] keep the server deterministic (replay
    /// mode); [`PlanBudget::TimeLimit`] bounds live decision latency at
    /// the cost of host-dependent generation counts.
    pub budget: PlanBudget,
}

impl ServerConfig {
    /// A small default fleet for examples and tests: `n` workers at the
    /// given rate, default PN config, one tenant with a large queue.
    pub fn uniform(n_procs: usize, rate: f64, pn: PnConfig) -> Self {
        Self {
            procs: vec![
                ProcessorProfile {
                    rate,
                    comm_cost: 0.1,
                };
                n_procs
            ],
            pn,
            tenants: 1,
            tenant_capacity: 10_000,
            batch_size: 50,
            budget: PlanBudget::Unlimited,
        }
    }

    /// Validates cross-field invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.procs.is_empty() {
            return Err("need at least one processor".into());
        }
        for (j, p) in self.procs.iter().enumerate() {
            if p.rate <= 0.0 || !p.rate.is_finite() {
                return Err("processor rates must be positive and finite".into());
            }
            if p.comm_cost < 0.0 || !p.comm_cost.is_finite() {
                return Err(format!(
                    "processor {j}: comm_cost {} must be non-negative and finite",
                    p.comm_cost
                ));
            }
        }
        if self.tenants == 0 || self.tenants > u16::MAX as usize {
            return Err(format!("tenants {} not in 1..=65535", self.tenants));
        }
        if self.tenant_capacity == 0 {
            return Err("tenant_capacity must be ≥ 1".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be ≥ 1".into());
        }
        self.pn.validate()
    }
}

/// One task placed on one processor by one plan call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementEvent {
    /// The placed task (server-assigned dense id).
    pub task: Task,
    /// Who submitted it.
    pub tenant: TenantId,
    /// Where it runs.
    pub proc: ProcessorId,
    /// Sequence number of the plan call that placed it (0-based).
    pub batch: u64,
    /// The GA's estimated makespan for that batch's schedule, seconds.
    pub makespan_estimate: f64,
}

/// Monotonic counters describing the server's lifetime so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Submissions admitted.
    pub submitted: u64,
    /// Submissions shed ([`SubmitError::QueueFull`]).
    pub shed: u64,
    /// Placement events emitted.
    pub placed: u64,
    /// Plan calls executed.
    pub batches: u64,
    /// High-water mark of the pending (admitted, unplanned) queue.
    pub max_pending: usize,
    /// Total GA generations evolved across all plan calls.
    pub generations: u64,
}

/// One admitted-but-unplanned submission.
#[derive(Debug, Clone)]
struct Pending {
    tenant: TenantId,
    task: Task,
    /// Server-assigned ids of tasks whose placement must precede this
    /// one's batching (each strictly smaller than `task.id`).
    deps: Vec<u32>,
}

/// The event-driven scheduler service core. See the module docs for the
/// data flow; [`crate::service`] wraps it in a channel API and
/// [`crate::replay`] drives it from recorded arrival traces.
pub struct DtsServer {
    config: ServerConfig,
    /// Admitted submissions awaiting planning, FCFS.
    pending: VecDeque<Pending>,
    /// Pending count per tenant (the backpressure bound).
    pending_per_tenant: Vec<usize>,
    /// Next server-assigned task id.
    next_id: u32,
    /// Committed placements, with running per-processor MFLOP totals —
    /// the `Lⱼ` term of the fitness function. [`DtsServer::dispatch`]
    /// pops from here as workers pull work.
    queues: TaskQueues,
    /// The plan-call seed stream and carried elites — the same pipeline
    /// [`dts_core::PnScheduler`] plans through.
    planner: Planner,
    /// `placed[id]` is true once `id` was committed by a completed plan
    /// call — the set dependency eligibility is checked against, so a
    /// dependent task is only batched strictly after the batch that
    /// placed its predecessors. Server-assigned ids are dense (0, 1, …),
    /// so this is a plain bitmap rather than a hash set: O(1) lookups
    /// with no nondeterministic iteration order to leak, one slot pushed
    /// per admitted submission.
    placed: Vec<bool>,
    stats: ServerStats,
}

impl DtsServer {
    /// Creates a server.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`ServerConfig`].
    pub fn new(config: ServerConfig) -> Self {
        // dts-lint: allow(hot-unwrap, "construction-time config validation with a documented panic contract — not a submit/plan/replay path")
        config.validate().expect("invalid ServerConfig");
        let planner = Planner::new(config.pn.clone());
        let n = config.procs.len();
        let tenants = config.tenants;
        Self {
            config,
            pending: VecDeque::new(),
            pending_per_tenant: vec![0; tenants],
            next_id: 0,
            queues: TaskQueues::new(n),
            planner,
            placed: Vec::new(),
            stats: ServerStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Admitted submissions not yet planned.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Pending submissions for one tenant (0 for unknown tenants).
    pub fn pending_for(&self, tenant: TenantId) -> usize {
        self.pending_per_tenant
            .get(tenant.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Tasks placed on `p` and not yet pulled by [`DtsServer::dispatch`]
    /// (0 for unknown processors).
    pub fn placed_len(&self, p: ProcessorId) -> usize {
        if self.knows(p) {
            self.queues.queued_len(p)
        } else {
            0
        }
    }

    /// Whether `p` names one of the configured processors; [`TaskQueues`]
    /// indexes by it unchecked.
    fn knows(&self, p: ProcessorId) -> bool {
        p.index() < self.config.procs.len()
    }

    /// True once enough submissions are pending to fill a batch — the
    /// service layer plans as soon as this holds.
    pub fn ready_to_plan(&self) -> bool {
        self.pending.len() >= self.config.batch_size
    }

    /// Admits one submission into the tenant's bounded queue and assigns
    /// its server-side [`TaskId`]. `arrival_s` is the submission
    /// timestamp in seconds (any monotone clock the caller likes; the
    /// replay harness feeds recorded trace times).
    ///
    /// Rejections are diagnosable, never panics: unknown tenants, full
    /// tenant queues (backpressure — the caller should shed or retry
    /// later) and invalid task descriptions each get their own
    /// [`SubmitError`].
    pub fn submit(
        &mut self,
        tenant: TenantId,
        mflops: f64,
        arrival_s: f64,
    ) -> Result<TaskId, SubmitError> {
        self.submit_with_deps(tenant, mflops, arrival_s, &[])
    }

    /// [`DtsServer::submit`] with precedence metadata: the task will not
    /// be batched until every task in `deps` has been placed by a
    /// *strictly earlier* plan call, so a dependent task can never land
    /// in the same batch as (or before) a predecessor. Dependencies must
    /// name already-assigned task ids — acyclicity by construction, the
    /// same invariant as the v2 arrival-trace format. Because pending
    /// submissions are held in id order and dependencies point backwards,
    /// the head of the queue is always eligible: planning makes progress
    /// and [`DtsServer::drain`] terminates for every valid submission
    /// sequence.
    pub fn submit_with_deps(
        &mut self,
        tenant: TenantId,
        mflops: f64,
        arrival_s: f64,
        deps: &[TaskId],
    ) -> Result<TaskId, SubmitError> {
        for (k, d) in deps.iter().enumerate() {
            if d.0 >= self.next_id {
                return Err(SubmitError::InvalidDependency {
                    reason: format!(
                        "dependency {} has not been submitted yet (next id is {})",
                        d.0, self.next_id
                    ),
                });
            }
            if deps[..k].contains(d) {
                return Err(SubmitError::InvalidDependency {
                    reason: format!("dependency {} listed twice", d.0),
                });
            }
        }
        if tenant.0 as usize >= self.config.tenants {
            return Err(SubmitError::UnknownTenant {
                tenant,
                tenants: self.config.tenants,
            });
        }
        if !(mflops.is_finite() && mflops > 0.0) {
            return Err(SubmitError::InvalidTask {
                reason: format!("size {mflops} MFLOPs must be positive and finite"),
            });
        }
        if !(arrival_s.is_finite() && arrival_s >= 0.0) {
            return Err(SubmitError::InvalidTask {
                reason: format!("arrival time {arrival_s} s must be non-negative and finite"),
            });
        }
        let slot = tenant.0 as usize;
        if self.pending_per_tenant[slot] >= self.config.tenant_capacity {
            self.stats.shed += 1;
            return Err(SubmitError::QueueFull {
                tenant,
                capacity: self.config.tenant_capacity,
            });
        }

        // Reserve the id before any state mutation so an exhausted id
        // space rejects the submission cleanly instead of panicking
        // mid-update.
        let next = self
            .next_id
            .checked_add(1)
            .ok_or(SubmitError::IdSpaceExhausted)?;
        let id = TaskId(self.next_id);
        self.next_id = next;
        self.placed.push(false);
        self.pending.push_back(Pending {
            tenant,
            task: Task::new(id, mflops, SimTime::new(arrival_s)),
            deps: deps.iter().map(|d| d.0).collect(),
        });
        self.pending_per_tenant[slot] += 1;
        self.stats.submitted += 1;
        self.stats.max_pending = self.stats.max_pending.max(self.pending.len());
        Ok(id)
    }

    /// Builds the per-processor state vector for the fitness function,
    /// mirroring [`dts_core::PnScheduler`]: `Lⱼ` is the MFLOPs already
    /// placed on `j` and not yet pulled.
    fn processor_states(&self) -> Vec<ProcessorState> {
        self.config
            .procs
            .iter()
            .enumerate()
            .map(|(j, p)| ProcessorState {
                rate: p.rate.max(1e-9),
                existing_load_mflops: self.queues.queued_mflops(ProcessorId(j as u16)),
                comm_cost: if self.config.pn.use_comm_estimates {
                    p.comm_cost
                } else {
                    0.0
                },
            })
            .collect()
    }

    /// Plans one batch: takes the FCFS prefix of the pending queue (at
    /// most `batch_size` tasks), runs the GA under the configured budget,
    /// commits the winning assignment to the per-processor queues, and
    /// returns one [`PlacementEvent`] per task (processors in ascending
    /// order, queue order within a processor).
    ///
    /// Returns an empty vector when nothing is pending. The GA run is the
    /// [`Planner`]'s, shared with [`dts_core::PnScheduler`]; what the two
    /// still write separately — processor states, load accumulated
    /// through [`TaskQueues`], the commit — the oracle equivalence test
    /// verifies placement-for-placement.
    pub fn plan(&mut self) -> Vec<PlacementEvent> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        // Batch the FCFS prefix, skipping tasks whose dependencies have
        // not all been placed by an earlier plan call; skipped tasks keep
        // their queue position. Dependency-free submissions make every
        // task eligible, so this drains exactly the plain prefix. The
        // queue is in id order and dependencies point backwards, so the
        // head is always eligible and each call places at least one task.
        let cap = self.config.batch_size;
        let mut drained: Vec<Pending> = Vec::with_capacity(cap.min(self.pending.len()));
        let mut kept: VecDeque<Pending> = VecDeque::new();
        for p in self.pending.drain(..) {
            let eligible = drained.len() < cap && p.deps.iter().all(|&d| self.placed[d as usize]);
            if eligible {
                drained.push(p);
            } else {
                kept.push_back(p);
            }
        }
        self.pending = kept;
        debug_assert!(!drained.is_empty(), "queue head must always be eligible");
        let h = drained.len();
        for p in &drained {
            self.pending_per_tenant[p.tenant.0 as usize] -= 1;
        }
        let batch: Vec<Task> = drained.iter().map(|p| p.task).collect();

        let states = self.processor_states();
        let outcome = self.planner.plan(&batch, &states, self.config.budget);

        let batch_no = self.stats.batches;
        let mut events = Vec::with_capacity(h);
        for (proc, queue) in outcome.queues.iter().enumerate() {
            let pid = ProcessorId(proc as u16);
            for &slot in queue {
                let placed = &drained[slot as usize];
                self.queues.push(pid, placed.task);
                events.push(PlacementEvent {
                    task: placed.task,
                    tenant: placed.tenant,
                    proc: pid,
                    batch: batch_no,
                    makespan_estimate: outcome.best_makespan,
                });
            }
        }
        for p in &drained {
            self.placed[p.task.id.0 as usize] = true;
        }
        self.stats.batches += 1;
        self.stats.placed += h as u64;
        self.stats.generations += u64::from(outcome.generations);
        events
    }

    /// Plans until nothing is pending, concatenating the emitted events —
    /// the shutdown / end-of-trace path.
    pub fn drain(&mut self) -> Vec<PlacementEvent> {
        let mut events = Vec::new();
        while !self.pending.is_empty() {
            events.extend(self.plan());
        }
        events
    }

    /// Pops the next placed task for worker `p` (the pull protocol's
    /// work-request reply), releasing its load from `Lⱼ`. `None` for
    /// unknown processors.
    pub fn dispatch(&mut self, p: ProcessorId) -> Option<Task> {
        if self.knows(p) {
            self.queues.pop(p)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::SeedStrategy;

    fn quick_pn(max_gens: u32) -> PnConfig {
        let mut c = PnConfig::default();
        c.ga.max_generations = max_gens;
        c
    }

    fn small_config() -> ServerConfig {
        ServerConfig {
            procs: vec![
                ProcessorProfile {
                    rate: 100.0,
                    comm_cost: 0.1,
                },
                ProcessorProfile {
                    rate: 150.0,
                    comm_cost: 0.2,
                },
                ProcessorProfile {
                    rate: 80.0,
                    comm_cost: 0.05,
                },
            ],
            pn: quick_pn(30),
            tenants: 2,
            tenant_capacity: 8,
            batch_size: 6,
            budget: PlanBudget::Unlimited,
        }
    }

    #[test]
    fn id_space_exhaustion_is_diagnosable_not_a_panic() {
        let mut s = DtsServer::new(small_config());
        s.next_id = u32::MAX;
        assert!(matches!(
            s.submit(TenantId(0), 100.0, 0.0),
            Err(SubmitError::IdSpaceExhausted)
        ));
        // The rejected submission left no partial state behind.
        assert_eq!(s.pending_len(), 0);
        assert_eq!(s.stats().submitted, 0);
    }

    #[test]
    fn submit_assigns_dense_ids() {
        let mut s = DtsServer::new(small_config());
        for i in 0..5 {
            let id = s.submit(TenantId(0), 100.0 + i as f64, i as f64).unwrap();
            assert_eq!(id, TaskId(i));
        }
        assert_eq!(s.pending_len(), 5);
        assert_eq!(s.pending_for(TenantId(0)), 5);
        assert_eq!(s.pending_for(TenantId(1)), 0);
    }

    #[test]
    fn unknown_tenant_rejected() {
        let mut s = DtsServer::new(small_config());
        let err = s.submit(TenantId(9), 100.0, 0.0).unwrap_err();
        assert_eq!(
            err,
            SubmitError::UnknownTenant {
                tenant: TenantId(9),
                tenants: 2
            }
        );
        assert!(err.to_string().contains("tenant9"));
    }

    #[test]
    fn invalid_tasks_rejected_not_panicking() {
        let mut s = DtsServer::new(small_config());
        for (m, t) in [
            (-1.0, 0.0),
            (0.0, 0.0),
            (f64::NAN, 0.0),
            (f64::INFINITY, 0.0),
            (100.0, -1.0),
            (100.0, f64::NAN),
        ] {
            assert!(
                matches!(
                    s.submit(TenantId(0), m, t),
                    Err(SubmitError::InvalidTask { .. })
                ),
                "({m}, {t}) accepted"
            );
        }
        assert_eq!(s.pending_len(), 0, "nothing admitted");
    }

    #[test]
    fn backpressure_sheds_per_tenant() {
        let mut s = DtsServer::new(small_config());
        for i in 0..8 {
            s.submit(TenantId(0), 100.0, i as f64).unwrap();
        }
        // Tenant 0's queue (capacity 8) is full; tenant 1 is unaffected.
        let err = s.submit(TenantId(0), 100.0, 9.0).unwrap_err();
        assert_eq!(
            err,
            SubmitError::QueueFull {
                tenant: TenantId(0),
                capacity: 8
            }
        );
        assert!(s.submit(TenantId(1), 100.0, 9.0).is_ok());
        assert_eq!(s.stats().shed, 1);
        assert_eq!(s.stats().submitted, 9);
        // Planning frees the queue again.
        let placed = s.plan();
        assert_eq!(placed.len(), 6);
        assert!(s.submit(TenantId(0), 100.0, 10.0).is_ok());
    }

    #[test]
    fn plan_emits_every_batched_task_once() {
        let mut s = DtsServer::new(small_config());
        for i in 0..10 {
            s.submit(TenantId(i % 2), 50.0 + 37.0 * i as f64, i as f64)
                .unwrap();
        }
        assert!(s.ready_to_plan());
        let first = s.plan();
        assert_eq!(first.len(), 6, "one batch of batch_size tasks");
        assert_eq!(s.pending_len(), 4);
        let rest = s.drain();
        assert_eq!(rest.len(), 4);
        assert_eq!(s.pending_len(), 0);

        let mut ids: Vec<u32> = first.iter().chain(&rest).map(|e| e.task.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        // Batch numbering and makespan estimates are populated.
        assert!(first.iter().all(|e| e.batch == 0));
        assert!(rest.iter().all(|e| e.batch == 1));
        assert!(first.iter().all(|e| e.makespan_estimate > 0.0));
        let stats = s.stats();
        assert_eq!(stats.placed, 10);
        assert_eq!(stats.batches, 2);
        assert!(stats.generations > 0);
        assert_eq!(stats.max_pending, 10, "all ten submitted before planning");
    }

    #[test]
    fn identical_submission_sequences_place_identically() {
        let run = || {
            let mut s = DtsServer::new(small_config());
            for i in 0..12 {
                s.submit(TenantId(i % 2), 50.0 + 91.0 * i as f64, i as f64)
                    .unwrap();
            }
            s.drain()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dispatch_releases_load() {
        let mut s = DtsServer::new(small_config());
        for i in 0..6 {
            s.submit(TenantId(0), 100.0, i as f64).unwrap();
        }
        let events = s.plan();
        let p0 = ProcessorId(0);
        let before = s.placed_len(p0);
        if before > 0 {
            let t = s.dispatch(p0).unwrap();
            assert!(events.iter().any(|e| e.task.id == t.id && e.proc == p0));
            assert_eq!(s.placed_len(p0), before - 1);
        }
    }

    #[test]
    fn warm_start_carries_elites_across_batches() {
        let mut cfg = small_config();
        cfg.pn.seed_strategy = SeedStrategy::CarryOver { elites: 4 };
        let mut s = DtsServer::new(cfg);
        for i in 0..12 {
            s.submit(TenantId((i % 2) as u16), 50.0 + 37.0 * i as f64, i as f64)
                .unwrap();
        }
        s.plan();
        let carried = s.planner.carried();
        assert_eq!(carried.len(), 1, "monolithic plan carries one list");
        assert_eq!(carried[0].len(), 4);
        assert!(carried[0].iter().all(|c| c.validate().is_ok()));
        s.drain();
        assert_eq!(s.stats().placed, 12);
    }

    #[test]
    fn island_plans_carry_per_island_elites() {
        let mut cfg = small_config();
        cfg.pn.seed_strategy = SeedStrategy::CarryOver { elites: 4 };
        cfg.pn.islands = dts_ga::IslandConfig {
            islands: 2,
            migration_interval: 5,
            migrants: 1,
            topology: dts_ga::Topology::Ring,
        };
        let mut s = DtsServer::new(cfg);
        for i in 0..12 {
            s.submit(TenantId((i % 2) as u16), 50.0 + 37.0 * i as f64, i as f64)
                .unwrap();
        }
        s.plan();
        let carried = s.planner.carried();
        assert_eq!(carried.len(), 2, "one carried list per island");
        assert!(carried.iter().all(|isl| isl.len() == 4));
        assert!(carried.iter().flatten().all(|c| c.validate().is_ok()));
        s.drain();
        assert_eq!(s.stats().placed, 12);
    }

    #[test]
    fn dependent_task_waits_for_a_strictly_earlier_batch() {
        let mut s = DtsServer::new(small_config());
        let a = s.submit(TenantId(0), 100.0, 0.0).unwrap();
        // Task 1 depends on task 0; five fillers complete the batch.
        let b = s.submit_with_deps(TenantId(0), 200.0, 0.1, &[a]).unwrap();
        for i in 0..5 {
            s.submit(TenantId(1), 50.0 + i as f64, 0.2).unwrap();
        }
        // First plan: 7 pending, batch_size 6 — the dependent task is
        // skipped (its predecessor is in the *same* call), so the batch
        // is task 0 plus the five fillers.
        let first = s.plan();
        assert_eq!(first.len(), 6);
        assert!(first.iter().any(|e| e.task.id == a));
        assert!(
            !first.iter().any(|e| e.task.id == b),
            "dependent task must not share its predecessor's batch"
        );
        assert_eq!(s.pending_len(), 1);
        // Second plan: the predecessor is placed, the dependent runs.
        let second = s.plan();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].task.id, b);
        assert_eq!(second[0].batch, 1);
    }

    #[test]
    fn invalid_dependencies_are_rejected() {
        let mut s = DtsServer::new(small_config());
        let err = s
            .submit_with_deps(TenantId(0), 100.0, 0.0, &[TaskId(0)])
            .unwrap_err();
        assert!(
            matches!(err, SubmitError::InvalidDependency { .. }),
            "self/forward dependency accepted: {err}"
        );
        let a = s.submit(TenantId(0), 100.0, 0.0).unwrap();
        let err = s
            .submit_with_deps(TenantId(0), 100.0, 0.1, &[a, a])
            .unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
        // Valid backward dependency is accepted.
        assert!(s.submit_with_deps(TenantId(0), 100.0, 0.2, &[a]).is_ok());
    }

    #[test]
    fn empty_deps_path_is_identical_to_plain_submit() {
        let run = |with_deps: bool| {
            let mut s = DtsServer::new(small_config());
            for i in 0..12 {
                let m = 50.0 + 91.0 * i as f64;
                if with_deps {
                    s.submit_with_deps(TenantId(i % 2), m, i as f64, &[])
                        .unwrap();
                } else {
                    s.submit(TenantId(i % 2), m, i as f64).unwrap();
                }
            }
            s.drain()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn chained_dependencies_drain_one_per_batch() {
        let mut s = DtsServer::new(small_config());
        let mut prev: Option<TaskId> = None;
        for i in 0..4 {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            prev = Some(
                s.submit_with_deps(TenantId(0), 100.0, i as f64, &deps)
                    .unwrap(),
            );
        }
        let events = s.drain();
        assert_eq!(events.len(), 4);
        // A pure chain forces one task per plan call, in id order.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.task.id, TaskId(i as u32));
            assert_eq!(e.batch, i as u64);
        }
        assert_eq!(s.stats().batches, 4);
    }

    #[test]
    fn unknown_processors_hold_nothing_and_never_panic() {
        let mut s = DtsServer::new(small_config());
        let unknown = [ProcessorId(3), ProcessorId(u16::MAX)];
        for p in unknown {
            assert_eq!(s.placed_len(p), 0);
            assert_eq!(s.dispatch(p), None);
        }
        for i in 0..6 {
            s.submit(TenantId(0), 100.0, i as f64).unwrap();
        }
        s.plan();
        for p in unknown {
            assert_eq!(s.placed_len(p), 0);
            assert_eq!(s.dispatch(p), None);
        }
        let placed: usize = (0..3).map(|j| s.placed_len(ProcessorId(j))).sum();
        assert_eq!(placed, 6, "known processors are unaffected");
    }

    #[test]
    fn bad_comm_costs_are_rejected_by_name() {
        for bad in [f64::NAN, -0.5, f64::INFINITY] {
            let mut cfg = small_config();
            cfg.procs[1].comm_cost = bad;
            let err = cfg.validate().unwrap_err();
            assert!(
                err.contains("comm_cost") && err.contains("processor 1"),
                "{bad}: {err}"
            );
        }
        let mut cfg = small_config();
        cfg.procs[1].comm_cost = 0.0;
        assert!(cfg.validate().is_ok(), "free communication is valid");
    }

    #[test]
    fn time_limited_warm_plans_respect_dependencies_and_terminate() {
        let mut cfg = small_config();
        cfg.pn.ga.max_generations = u32::MAX;
        cfg.pn.seed_strategy = SeedStrategy::CarryOver { elites: 4 };
        cfg.budget = PlanBudget::TimeLimit(std::time::Duration::from_millis(2));
        cfg.tenant_capacity = 64;
        let mut s = DtsServer::new(cfg);
        // Three interleaved chains (0 ← 3 ← 6 …) plus free tasks.
        let mut deps_of: Vec<Vec<TaskId>> = Vec::new();
        for i in 0..24u32 {
            let deps = if i >= 3 && i % 4 != 0 {
                vec![TaskId(i - 3)]
            } else {
                Vec::new()
            };
            let id = s
                .submit_with_deps(TenantId((i % 2) as u16), 50.0 + 37.0 * i as f64, 0.0, &deps)
                .unwrap();
            assert_eq!(id, TaskId(i));
            deps_of.push(deps);
        }
        let events = s.drain();
        assert_eq!(s.pending_len(), 0);

        let mut batch_of = vec![None; 24];
        for e in &events {
            let slot = &mut batch_of[e.task.id.0 as usize];
            assert!(slot.is_none(), "task {} placed twice", e.task.id.0);
            *slot = Some(e.batch);
        }
        for (i, deps) in deps_of.iter().enumerate() {
            let own = batch_of[i].expect("every admitted task is placed");
            for d in deps {
                let pred = batch_of[d.0 as usize].expect("predecessor placed");
                assert!(pred < own, "task {i} batched with or before task {}", d.0);
            }
        }
        let carried = s.planner.carried();
        assert_eq!(carried.len(), 1);
        assert_eq!(carried[0].len(), 4);
        assert!(carried[0].iter().all(|c| c.validate().is_ok()));
    }

    #[test]
    #[should_panic(expected = "invalid ServerConfig")]
    fn invalid_config_rejected() {
        let mut cfg = small_config();
        cfg.batch_size = 0;
        let _ = DtsServer::new(cfg);
    }
}
