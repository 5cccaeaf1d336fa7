//! The simulation state machine.
//!
//! Workers follow the paper's pull protocol as a four-phase cycle:
//!
//! ```text
//!          ┌────────────────────────────────────────────────┐
//!          ▼                                                │
//!  Waiting ──(queue non-empty)──► Receiving ──► Computing ──► Sending
//!   (idle)                        (dispatch      (payload)    (result +
//!                                  in transit)                 next request)
//! ```
//!
//! Time in *Receiving* and *Sending* is charged to communication, time in
//! *Computing* to processing, and time in *Waiting* to idleness — which is
//! exactly the denominator split of the paper's efficiency metric.
//!
//! Availability changes are integrated exactly: a change point freezes the
//! remaining MFLOPs of the in-flight task and re-schedules its completion
//! at the new effective rate (stale completions are invalidated through an
//! epoch counter).
//!
//! The [`SystemView`] handed to [`Scheduler::plan`] is kept current event
//! by event, not rebuilt per plan call: each handler that changes a
//! worker's smoothers, phase or remaining MFLOPs rewrites that worker's
//! entry (`view_entry`), so a plan call only stamps the time. Batch-mode
//! plan calls add one pass over the view for the idle horizon, which both
//! paces the call and fills [`SystemView::seconds_until_first_idle`];
//! immediate-mode calls skip it. Debug builds check every entry against a
//! fresh `view_entry` at every plan call. A count of waiting workers lets
//! `PlanComplete` skip its serve scan when no worker waits.

use dts_distributions::Prng;
use dts_model::{
    processor::AvailabilityState,
    sched::{ProcessorView, SystemView},
    Cluster, ProcessorId, Scheduler, SimTime, Smoother, Task, TaskGraph,
};

use crate::event::{EventKind, EventQueue};
use crate::metrics::{ProcBreakdown, SimReport, WaitingStats};
use crate::trace::{TaskSpan, Trace};

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Smoothing factor ν for execution-rate estimates (§3.6).
    pub rate_nu: f64,
    /// Smoothing factor ν for per-link communication-cost estimates.
    pub comm_nu: f64,
    /// Hard event budget; exceeded ⇒ [`SimError::EventLimit`].
    pub max_events: u64,
    /// Hard simulated-time budget; exceeded ⇒ [`SimError::TimeLimit`].
    pub max_seconds: f64,
    /// Record per-task [`Trace`] spans (costs memory; off by default).
    pub record_trace: bool,
    /// Safety margin (seconds) added to the planning lead time: a batch is
    /// planned when the estimated time until the first processor goes idle
    /// falls below `2×max comm estimate + previous plan time + margin`.
    pub plan_lead_margin: f64,
    /// Seed of the simulator's private stream (message costs).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            rate_nu: 0.3,
            comm_nu: 0.3,
            max_events: 200_000_000,
            max_seconds: f64::MAX,
            record_trace: false,
            plan_lead_margin: 2.0,
            seed: 0x51_AB1E,
        }
    }
}

/// Why a simulation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The event budget ran out — almost certainly a livelock bug.
    EventLimit {
        /// Events processed before giving up.
        processed: u64,
    },
    /// Simulated time exceeded [`SimConfig::max_seconds`].
    TimeLimit {
        /// The time of the offending event.
        at: f64,
    },
    /// The event queue drained with tasks still outstanding.
    Stalled {
        /// Tasks completed before the stall.
        completed: u64,
        /// Tasks expected.
        expected: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EventLimit { processed } => {
                write!(f, "event budget exhausted after {processed} events")
            }
            SimError::TimeLimit { at } => write!(f, "simulated time limit exceeded at {at}s"),
            SimError::Stalled {
                completed,
                expected,
            } => write!(f, "simulation stalled: {completed}/{expected} tasks done"),
        }
    }
}

impl std::error::Error for SimError {}

/// What a worker is doing right now.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Idle: requested work, nothing queued for it yet.
    Waiting,
    /// A task is in transit towards the worker.
    Receiving { task: Task },
    /// Computing: `remaining` MFLOPs left as of time `since`.
    Computing {
        task: Task,
        remaining: f64,
        since: SimTime,
        started: SimTime,
    },
    /// The result is in transit back to the scheduler.
    Sending,
}

struct Worker {
    rated: f64,
    phase: Phase,
    epoch: u64,
    /// The worker's initial work request has reached the scheduler; no
    /// dispatch may happen before it (the pull protocol).
    request_arrived: bool,
    avail: AvailabilityState,
    rate_estimate: Smoother,
    comm_estimate: Smoother,
    breakdown: ProcBreakdown,
}

impl Worker {
    /// MFLOPs dispatched to this worker and not yet completed.
    fn inflight_mflops(&self) -> f64 {
        match self.phase {
            Phase::Waiting | Phase::Sending => 0.0,
            Phase::Receiving { task } => task.mflops,
            Phase::Computing { remaining, .. } => remaining,
        }
    }

    fn effective_rate(&self) -> f64 {
        self.rated * self.avail.alpha()
    }
}

/// The estimates a scheduler may see of worker `id`: its smoothed rate,
/// the MFLOPs it holds and a per-task round-trip cost.
fn view_entry(id: ProcessorId, w: &Worker) -> ProcessorView {
    ProcessorView {
        id,
        rate_estimate: w.rate_estimate.value_or(w.rated).max(1e-9),
        inflight_mflops: w.inflight_mflops(),
        // Exposed as a per-task round-trip estimate: dispatch + result
        // messages.
        comm_estimate: 2.0 * w.comm_estimate.value_or(0.0),
    }
}

/// What a batch-mode plan call needs to know about the idle horizon, from
/// one pass over the view.
struct Horizon {
    /// Least `(inflight + queued) / rate` over all workers: estimated
    /// seconds until the first one runs out of work.
    first_idle: f64,
    /// Some worker is waiting with nothing queued for it right now.
    idle_now: bool,
    /// Largest round-trip estimate over all links.
    max_rtt: f64,
}

/// In-flight trace data for a task currently owned by a worker.
#[derive(Debug, Clone, Copy)]
struct PendingSpan {
    task: dts_model::TaskId,
    mflops: f64,
    sent_at: SimTime,
    exec_start: SimTime,
    exec_end: SimTime,
}

/// A discrete-event simulation of one scheduler on one cluster and
/// workload.
///
/// ```
/// use dts_sim::{Simulation, SimConfig};
/// use dts_model::{Cluster, WorkloadSpec, SizeDistribution};
/// use dts_schedulers::RoundRobin;
///
/// let cluster = Cluster::homogeneous(4, 100.0);
/// let tasks = WorkloadSpec::batch(40, SizeDistribution::Constant { value: 100.0 })
///     .generate(1);
/// let scheduler = Box::new(RoundRobin::new(cluster.len()));
/// let report = Simulation::new(cluster, tasks, scheduler, SimConfig::default())
///     .run()
///     .unwrap();
/// assert_eq!(report.tasks_completed, 40);
/// // 40 × 100 MFLOPs over 4 × 100 Mflop/s with free communication: 10 s.
/// assert!((report.makespan - 10.0).abs() < 1e-6);
/// ```
pub struct Simulation {
    cluster: Cluster,
    tasks: Vec<Task>,
    /// Precedence constraints over the workload's dense task ids. An
    /// edge-free graph (the paper's independent-task model, and what
    /// [`Simulation::new`] installs) makes every readiness check a no-op
    /// branch: the handlers execute exactly the pre-DAG statements.
    graph: TaskGraph,
    scheduler: Box<dyn Scheduler>,
    config: SimConfig,

    clock: SimTime,
    /// In-flight events. Arrivals are not queued: they are streamed from
    /// `tasks` through `next_arrival`.
    queue: EventQueue,
    /// Index of the first task whose arrival has not fired yet.
    next_arrival: usize,
    workers: Vec<Worker>,
    /// Workers in [`Phase::Waiting`]; `PlanComplete` skips its serve scan
    /// when none is.
    waiting: usize,
    rng: Prng,

    /// Unfinished-predecessor counters: task `t` may be admitted to the
    /// scheduler only when `pending_preds[t] == 0` *and* it has arrived.
    pending_preds: Vec<u32>,
    /// Whether each task's arrival event has fired.
    arrived: Vec<bool>,
    /// When each task became ready (arrived + all predecessors done).
    ready_at: Vec<f64>,
    /// When each task's dispatch message left the scheduler.
    dispatched_at: Vec<f64>,
    /// When each task's result arrived back (deadline accounting).
    done_at: Vec<f64>,
    /// Tasks admitted to the scheduler by one DAG arrival or result;
    /// reused so that admission does not allocate.
    ready: Vec<Task>,
    /// The snapshot handed to [`Scheduler::plan`]. Entry `i` is
    /// `view_entry(i, &workers[i])` at all times: every handler that
    /// changes a worker's smoothers, phase or remaining MFLOPs rewrites it.
    view: SystemView,

    trace: Option<Trace>,
    pending_spans: Vec<Option<PendingSpan>>,
    host_busy: bool,
    plan_check_pending: bool,
    last_plan_seconds: f64,
    completed: u64,
    last_result_at: SimTime,
    scheduler_busy: f64,
    plan_invocations: u64,
    total_generations: u64,
    events_processed: u64,
}

impl Simulation {
    /// Builds a simulation. Tasks must be sorted by arrival time (workload
    /// generators guarantee this).
    ///
    /// # Panics
    ///
    /// Panics on an empty cluster or unsorted task arrivals.
    pub fn new(
        cluster: Cluster,
        tasks: Vec<Task>,
        scheduler: Box<dyn Scheduler>,
        config: SimConfig,
    ) -> Self {
        let graph = TaskGraph::independent(tasks.len());
        Self::new_with_graph(cluster, tasks, graph, scheduler, config)
    }

    /// [`Simulation::new`] with precedence constraints: a task is admitted
    /// to the scheduler only once it has arrived **and** every predecessor
    /// in `graph` has completed (its result message received), so no
    /// scheduler — GA or baseline — can ever dispatch a task before its
    /// inputs exist. Tasks with deadlines in the graph feed the report's
    /// deadline-miss accounting. An edge-free graph is exactly
    /// [`Simulation::new`].
    ///
    /// # Panics
    ///
    /// Panics (in addition to [`Simulation::new`]'s conditions) when the
    /// graph does not span exactly the workload's tasks.
    pub fn new_with_graph(
        cluster: Cluster,
        tasks: Vec<Task>,
        graph: TaskGraph,
        scheduler: Box<dyn Scheduler>,
        config: SimConfig,
    ) -> Self {
        assert!(!cluster.is_empty(), "cluster has no processors");
        assert!(
            tasks.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "tasks must be sorted by arrival time"
        );
        assert_eq!(
            graph.len(),
            tasks.len(),
            "task graph must span exactly the workload"
        );
        let mut seed_stream = dts_distributions::SeedSequence::new(cluster.availability_seed);
        let workers: Vec<Worker> = cluster
            .processors
            .iter()
            .map(|p| Worker {
                rated: p.rated_mflops,
                phase: Phase::Waiting,
                epoch: 0,
                request_arrived: false,
                avail: p.availability.initial_state(seed_stream.next_seed()),
                rate_estimate: Smoother::new(config.rate_nu),
                comm_estimate: Smoother::new(config.comm_nu),
                breakdown: ProcBreakdown::default(),
            })
            .collect();
        let rng = Prng::seed_from(config.seed);
        let n_workers = workers.len();
        let processors = workers
            .iter()
            .enumerate()
            .map(|(i, w)| view_entry(ProcessorId(i as u16), w))
            .collect();
        let trace = if config.record_trace {
            Some(Trace::new())
        } else {
            None
        };
        let n_tasks = tasks.len();
        let pending_preds = graph.in_degrees();
        Self {
            cluster,
            tasks,
            graph,
            scheduler,
            config,
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            next_arrival: 0,
            workers,
            waiting: n_workers,
            rng,
            pending_preds,
            arrived: vec![false; n_tasks],
            ready_at: vec![0.0; n_tasks],
            dispatched_at: vec![0.0; n_tasks],
            done_at: vec![0.0; n_tasks],
            ready: Vec::new(),
            view: SystemView {
                now: SimTime::ZERO,
                processors,
                seconds_until_first_idle: None,
            },
            trace,
            pending_spans: vec![None; n_workers],
            host_busy: false,
            plan_check_pending: false,
            last_plan_seconds: 0.0,
            completed: 0,
            last_result_at: SimTime::ZERO,
            scheduler_busy: 0.0,
            plan_invocations: 0,
            total_generations: 0,
            events_processed: 0,
        }
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        self.schedule_availability_changes();
        self.schedule_initial_requests();

        let total = self.tasks.len() as u64;
        while let Some((at, kind)) = self.next_event() {
            self.events_processed += 1;
            if self.events_processed > self.config.max_events {
                return Err(SimError::EventLimit {
                    processed: self.events_processed,
                });
            }
            if at.seconds() > self.config.max_seconds {
                return Err(SimError::TimeLimit { at: at.seconds() });
            }
            debug_assert!(at >= self.clock, "time went backwards");
            self.clock = at;

            match kind {
                EventKind::TaskArrival { first, count } => self.on_arrival(first, count),
                EventKind::PlanComplete => self.on_plan_complete(),
                EventKind::Dispatch { proc, task } => self.on_dispatch(proc, task),
                EventKind::Complete { proc, epoch } => self.on_complete(proc, epoch),
                EventKind::ResultArrives { proc, task } => self.on_result(proc, task),
                EventKind::AvailabilityChange { proc } => self.on_availability_change(proc),
                EventKind::RequestArrives { proc } => self.on_request_arrives(proc),
                EventKind::PlanCheck => {
                    self.plan_check_pending = false;
                    self.try_plan();
                }
            }

            if self.completed == total {
                let rated: Vec<f64> = self.workers.iter().map(|w| w.rated).collect();
                let waiting = self.waiting_stats();
                return Ok(SimReport::assemble(
                    self.scheduler.name(),
                    self.last_result_at,
                    self.workers.into_iter().map(|w| w.breakdown).collect(),
                    &rated,
                    self.scheduler_busy,
                    self.plan_invocations,
                    self.total_generations,
                    self.events_processed,
                )
                .with_trace(self.trace.take())
                .with_waiting(waiting));
            }
        }
        if total == 0 {
            let rated: Vec<f64> = self.workers.iter().map(|w| w.rated).collect();
            let waiting = self.waiting_stats();
            return Ok(SimReport::assemble(
                self.scheduler.name(),
                SimTime::ZERO,
                self.workers.into_iter().map(|w| w.breakdown).collect(),
                &rated,
                self.scheduler_busy,
                self.plan_invocations,
                self.total_generations,
                self.events_processed,
            )
            .with_waiting(waiting));
        }
        Err(SimError::Stalled {
            completed: self.completed,
            expected: total,
        })
    }

    /// Removes and returns the earliest event: the next arrival group (a
    /// run of equal arrival times in the task table) or the heap's top.
    /// The arrival wins a tie, so at any instant every arrival fires before
    /// the events the heap holds for that instant.
    fn next_event(&mut self) -> Option<(SimTime, EventKind)> {
        let first = self.next_arrival;
        if let Some(task) = self.tasks.get(first) {
            let at = task.arrival;
            if self.queue.peek_time().is_none_or(|top| at <= top) {
                let count = self.tasks[first..]
                    .iter()
                    .take_while(|t| t.arrival == at)
                    .count();
                self.next_arrival = first + count;
                return Some((
                    at,
                    EventKind::TaskArrival {
                        first: first as u32,
                        count: count as u32,
                    },
                ));
            }
        }
        self.queue.pop()
    }

    // ---------------------------------------------------------------- setup

    fn schedule_availability_changes(&mut self) {
        for (i, p) in self.cluster.processors.iter().enumerate() {
            if let Some(dt) = p.availability.change_interval(&self.workers[i].avail) {
                self.queue.push(
                    SimTime::ZERO + dt,
                    EventKind::AvailabilityChange {
                        proc: ProcessorId(i as u16),
                    },
                );
            }
        }
    }

    /// Every worker announces itself with a work request at t = 0; the
    /// request message traverses the worker's link, seeding the
    /// scheduler's communication estimates before anything is dispatched.
    fn schedule_initial_requests(&mut self) {
        for i in 0..self.workers.len() {
            let pid = ProcessorId(i as u16);
            let cost = self.cluster.links[i].sample_cost(&mut self.rng);
            self.workers[i].breakdown.communicating += cost;
            self.queue.push(
                SimTime::ZERO + cost,
                EventKind::RequestArrives { proc: pid },
            );
        }
    }

    // ------------------------------------------------------------- handlers

    fn on_request_arrives(&mut self, proc: ProcessorId) {
        // The request's observed delay is a genuine link measurement.
        let i = proc.index();
        // Re-derive the cost from accounting: it was the only comm charged
        // so far, and observing it here keeps event payloads small.
        let cost = self.clock.seconds();
        if cost > 0.0 {
            self.workers[i].comm_estimate.observe(cost);
            self.scheduler.observe_comm(proc, cost);
            self.sync_view(i);
        }
        self.workers[i].request_arrived = true;
        if self.workers[i].phase == Phase::Waiting && self.scheduler.queued_len(proc) > 0 {
            self.serve(proc);
        }
    }

    fn on_arrival(&mut self, first: u32, count: u32) {
        let lo = first as usize;
        let hi = lo + count as usize;
        let now = self.clock.seconds();
        if self.graph.has_edges() {
            // Admit only tasks whose predecessors have all completed; the
            // rest wait in `arrived` until `on_result` releases them.
            self.ready.clear();
            for (t, task) in (lo..hi).zip(&self.tasks[lo..hi]) {
                self.arrived[t] = true;
                if self.pending_preds[t] == 0 {
                    self.ready_at[t] = now;
                    self.ready.push(*task);
                }
            }
            self.scheduler.enqueue(&self.ready);
        } else {
            for t in lo..hi {
                self.arrived[t] = true;
                self.ready_at[t] = now;
            }
            self.scheduler.enqueue(&self.tasks[lo..hi]);
        }
        self.try_plan();
    }

    fn on_plan_complete(&mut self) {
        self.host_busy = false;
        // Serve every idle worker that now has queued work, in index order
        // (each dispatch draws a link cost from the shared stream).
        if self.waiting > 0 {
            for i in 0..self.workers.len() {
                let pid = ProcessorId(i as u16);
                if self.workers[i].phase == Phase::Waiting && self.scheduler.queued_len(pid) > 0 {
                    self.serve(pid);
                }
            }
        }
        // More unscheduled tasks? Plan the next batch immediately.
        self.try_plan();
    }

    fn on_dispatch(&mut self, proc: ProcessorId, _task: dts_model::TaskId) {
        let w = &mut self.workers[proc.index()];
        let Phase::Receiving { task } = w.phase else {
            unreachable!("dispatch to a worker that is not receiving");
        };
        let rate = w.effective_rate().max(1e-12);
        let remaining = task.mflops;
        w.phase = Phase::Computing {
            task,
            remaining,
            since: self.clock,
            started: self.clock,
        };
        w.epoch += 1;
        let finish = self.clock + remaining / rate;
        let epoch = w.epoch;
        self.sync_view(proc.index());
        if self.trace.is_some() {
            if let Some(span) = self.pending_spans[proc.index()].as_mut() {
                span.exec_start = self.clock;
            }
        }
        self.queue.push(finish, EventKind::Complete { proc, epoch });
    }

    fn on_complete(&mut self, proc: ProcessorId, epoch: u64) {
        let link_cost = {
            let w = &self.workers[proc.index()];
            if w.epoch != epoch {
                return; // superseded by an availability change
            }
            let Phase::Computing { .. } = w.phase else {
                return; // stale event after a reschedule
            };
            self.cluster.links[proc.index()].sample_cost(&mut self.rng)
        };
        let w = &mut self.workers[proc.index()];
        let Phase::Computing { task, started, .. } = w.phase else {
            unreachable!("checked above");
        };
        let duration = self.clock.since(started);
        w.breakdown.processing += duration;
        w.breakdown.tasks_completed += 1;
        w.breakdown.mflops_done += task.mflops;
        // The scheduler learns the *achieved* rate — MFLOPs over wall time,
        // availability dips included.
        if duration > 0.0 {
            let observed = task.mflops / duration;
            w.rate_estimate.observe(observed);
            self.scheduler.observe_rate(proc, observed);
        }
        w.breakdown.communicating += link_cost;
        w.comm_estimate.observe(link_cost);
        self.scheduler.observe_comm(proc, link_cost);
        w.phase = Phase::Sending;
        self.sync_view(proc.index());
        if self.trace.is_some() {
            if let Some(span) = self.pending_spans[proc.index()].as_mut() {
                span.exec_end = self.clock;
            }
        }
        self.queue.push(
            self.clock + link_cost,
            EventKind::ResultArrives {
                proc,
                task: task.id,
            },
        );
    }

    fn on_result(&mut self, proc: ProcessorId, task: dts_model::TaskId) {
        self.completed += 1;
        self.last_result_at = self.clock;
        self.done_at[task.index()] = self.clock.seconds();
        if let Some(trace) = self.trace.as_mut() {
            if let Some(p) = self.pending_spans[proc.index()].take() {
                trace.push(TaskSpan {
                    task: p.task,
                    proc,
                    mflops: p.mflops,
                    sent_at: p.sent_at,
                    exec_start: p.exec_start,
                    exec_end: p.exec_end,
                    result_at: self.clock,
                });
            }
        }
        if self.graph.has_edges() {
            // This result may satisfy the last unfinished predecessor of
            // some successors: admit every such task that has already
            // arrived. Released *before* serving, so the worker that just
            // freed up can pick the released work straight off the queue.
            self.ready.clear();
            let now = self.clock.seconds();
            for &s in self.graph.succs(task.0) {
                let s = s as usize;
                debug_assert!(self.pending_preds[s] > 0, "predecessor counted twice");
                self.pending_preds[s] -= 1;
                if self.pending_preds[s] == 0 && self.arrived[s] {
                    self.ready_at[s] = now;
                    self.ready.push(self.tasks[s]);
                }
            }
            if !self.ready.is_empty() {
                self.scheduler.enqueue(&self.ready);
            }
        }
        self.workers[proc.index()].phase = Phase::Waiting;
        self.waiting += 1;
        self.sync_view(proc.index());
        self.serve(proc);
        // Defensive: planning opportunities are normally chained through
        // arrivals and PlanComplete, but a free host with unscheduled work
        // must never sit idle.
        self.try_plan();
    }

    fn on_availability_change(&mut self, proc: ProcessorId) {
        let model = &self.cluster.processors[proc.index()].availability;
        let w = &mut self.workers[proc.index()];
        let old_rate = w.effective_rate();
        model.step(&mut w.avail);
        let new_rate = w.effective_rate().max(1e-12);
        if let Phase::Computing {
            ref mut remaining,
            ref mut since,
            ..
        } = w.phase
        {
            let done = old_rate * self.clock.since(*since);
            *remaining = (*remaining - done).max(0.0);
            *since = self.clock;
            w.epoch += 1;
            let finish = self.clock + *remaining / new_rate;
            self.queue.push(
                finish,
                EventKind::Complete {
                    proc,
                    epoch: w.epoch,
                },
            );
        }
        if let Some(dt) = model.change_interval(&w.avail) {
            self.queue
                .push(self.clock + dt, EventKind::AvailabilityChange { proc });
        }
        self.sync_view(proc.index());
    }

    // ------------------------------------------------------------ internals

    /// Replies to a worker's work request: dispatch the head of its queue
    /// or leave it waiting.
    fn serve(&mut self, proc: ProcessorId) {
        debug_assert_eq!(self.workers[proc.index()].phase, Phase::Waiting);
        if !self.workers[proc.index()].request_arrived {
            return; // the worker has not announced itself yet
        }
        if let Some(task) = self.scheduler.next_task_for(proc) {
            self.dispatched_at[task.id.index()] = self.clock.seconds();
            let cost = self.cluster.links[proc.index()].sample_cost(&mut self.rng);
            let w = &mut self.workers[proc.index()];
            w.breakdown.communicating += cost;
            w.comm_estimate.observe(cost);
            self.scheduler.observe_comm(proc, cost);
            w.phase = Phase::Receiving { task };
            self.waiting -= 1;
            self.sync_view(proc.index());
            if self.trace.is_some() {
                self.pending_spans[proc.index()] = Some(PendingSpan {
                    task: task.id,
                    mflops: task.mflops,
                    sent_at: self.clock,
                    exec_start: self.clock,
                    exec_end: self.clock,
                });
            }
            self.queue.push(
                self.clock + cost,
                EventKind::Dispatch {
                    proc,
                    task: task.id,
                },
            );
        }
    }

    /// Invokes the scheduler if the host is free and work is pending.
    ///
    /// Batch-mode schedulers are *paced*: the paper sizes batches so the
    /// schedule is ready "not too large that any processors become idle
    /// before the schedule has been fully computed" (§3.7). Planning the
    /// next batch immediately would commit it before any communication or
    /// rate feedback from the previous batch exists, so the invocation is
    /// deferred until the estimated idle horizon shrinks to the lead time
    /// (previous plan duration + a round trip + margin). Immediate-mode
    /// schedulers, which map tasks the moment they arrive by definition,
    /// are never deferred, and their view carries no idle horizon.
    fn try_plan(&mut self) {
        if self.host_busy || self.scheduler.unscheduled_len() == 0 {
            return;
        }
        let mut first_idle = None;
        if self.scheduler.mode() == dts_model::SchedulerMode::Batch {
            let h = self.horizon();
            let horizon = if h.first_idle.is_finite() {
                h.first_idle
            } else {
                0.0
            };
            let lead = self.config.plan_lead_margin + h.max_rtt + self.last_plan_seconds;
            if horizon > lead {
                if !self.plan_check_pending {
                    self.plan_check_pending = true;
                    self.queue
                        .push(self.clock + (horizon - lead), EventKind::PlanCheck);
                }
                return;
            }
            if !h.idle_now {
                first_idle = Some(h.first_idle).filter(|s| s.is_finite());
            }
        }
        self.view.now = self.clock;
        self.view.seconds_until_first_idle = first_idle;
        if cfg!(debug_assertions) {
            self.check_view();
        }
        let outcome = self.scheduler.plan(&self.view);
        self.plan_invocations += 1;
        self.total_generations += u64::from(outcome.generations);
        self.scheduler_busy += outcome.compute_seconds;
        self.last_plan_seconds = outcome.compute_seconds;
        self.host_busy = true;
        self.queue.push(
            self.clock + outcome.compute_seconds,
            EventKind::PlanComplete,
        );
    }

    /// Aggregates the per-task waiting decomposition
    /// (`dispatch − arrival = stall + queueing`) and deadline accounting
    /// over the finished run.
    fn waiting_stats(&self) -> WaitingStats {
        let n = self.tasks.len();
        if n == 0 {
            return WaitingStats::default();
        }
        let mut wait_sum = 0.0;
        let mut queue_sum = 0.0;
        let mut stall_sum = 0.0;
        let mut max_wait = 0.0f64;
        let mut deadlined_tasks = 0u64;
        let mut deadline_misses = 0u64;
        for (t, task) in self.tasks.iter().enumerate() {
            let arrival = task.arrival.seconds();
            let wait = (self.dispatched_at[t] - arrival).max(0.0);
            let stall = (self.ready_at[t] - arrival).max(0.0);
            wait_sum += wait;
            stall_sum += stall;
            queue_sum += (wait - stall).max(0.0);
            max_wait = max_wait.max(wait);
            if let Some(deadline) = self.graph.deadline(t as u32) {
                deadlined_tasks += 1;
                if self.done_at[t] > deadline {
                    deadline_misses += 1;
                }
            }
        }
        let inv = 1.0 / n as f64;
        WaitingStats {
            mean_wait: wait_sum * inv,
            mean_queue_wait: queue_sum * inv,
            mean_precedence_stall: stall_sum * inv,
            max_wait,
            deadlined_tasks,
            deadline_misses,
        }
    }

    /// Rewrites worker `i`'s view entry after its state changed.
    fn sync_view(&mut self, i: usize) {
        self.view.processors[i] = view_entry(ProcessorId(i as u16), &self.workers[i]);
    }

    /// The idle horizon of a batch-mode plan call, in one pass over the
    /// (current) view.
    fn horizon(&self) -> Horizon {
        let mut h = Horizon {
            first_idle: f64::INFINITY,
            idle_now: false,
            max_rtt: 0.0,
        };
        for (p, w) in self.view.processors.iter().zip(&self.workers) {
            let queued = self.scheduler.queued_mflops(p.id);
            h.first_idle = h
                .first_idle
                .min((p.inflight_mflops + queued) / p.rate_estimate);
            h.idle_now |= w.phase == Phase::Waiting && self.scheduler.queued_len(p.id) == 0;
            h.max_rtt = h.max_rtt.max(p.comm_estimate);
        }
        h
    }

    /// The view oracle (debug builds): every entry equals a fresh
    /// [`view_entry`] and `waiting` counts the waiting workers. Allocates
    /// nothing unless it fails.
    fn check_view(&self) {
        let mut waiting = 0;
        for (i, w) in self.workers.iter().enumerate() {
            assert_eq!(
                self.view.processors[i],
                view_entry(ProcessorId(i as u16), w),
                "stale view entry for worker {i}"
            );
            waiting += usize::from(w.phase == Phase::Waiting);
        }
        assert_eq!(self.waiting, waiting, "waiting count drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_model::link::CommCostSpec;
    use dts_model::{AvailabilityModel, ClusterSpec, SizeDistribution, WorkloadSpec};
    use dts_schedulers::{EarliestFinish, RoundRobin};

    fn free_comm_cluster(n: usize, rate: f64) -> Cluster {
        Cluster::homogeneous(n, rate)
    }

    fn const_tasks(n: usize, mflops: f64) -> Vec<Task> {
        WorkloadSpec::batch(n, SizeDistribution::Constant { value: mflops }).generate(1)
    }

    #[test]
    fn single_task_single_processor_exact_makespan() {
        let cluster = free_comm_cluster(1, 100.0);
        let tasks = const_tasks(1, 500.0);
        let sched = Box::new(RoundRobin::new(1));
        let r = Simulation::new(cluster, tasks, sched, SimConfig::default())
            .run()
            .unwrap();
        assert_eq!(r.tasks_completed, 1);
        assert!((r.makespan - 5.0).abs() < 1e-4); // plan cost adds ~1e-8 s
        assert!((r.per_proc[0].processing - 5.0).abs() < 1e-6);
        assert_eq!(r.per_proc[0].communicating, 0.0);
    }

    #[test]
    fn efficiency_is_one_with_free_comm_and_balanced_load() {
        let cluster = free_comm_cluster(4, 100.0);
        let tasks = const_tasks(40, 100.0);
        let sched = Box::new(EarliestFinish::new(4));
        let r = Simulation::new(cluster, tasks, sched, SimConfig::default())
            .run()
            .unwrap();
        assert_eq!(r.tasks_completed, 40);
        assert!((r.makespan - 10.0).abs() < 1e-4, "makespan {}", r.makespan);
        assert!(r.efficiency > 0.999, "efficiency {}", r.efficiency);
    }

    #[test]
    fn communication_costs_reduce_efficiency() {
        let spec = ClusterSpec {
            processors: 4,
            rating: SizeDistribution::Constant { value: 100.0 },
            availability: AvailabilityModel::Dedicated,
            comm: CommCostSpec::with_mean(5.0),
        };
        let cluster = spec.build(7);
        let tasks = const_tasks(40, 1000.0); // 10 s of compute each
        let sched = Box::new(EarliestFinish::new(4));
        let r = Simulation::new(cluster, tasks, sched, SimConfig::default())
            .run()
            .unwrap();
        assert_eq!(r.tasks_completed, 40);
        // Each task pays ~10 s of round-trip comm on top of 10 s compute.
        assert!(r.efficiency < 0.7, "efficiency {}", r.efficiency);
        assert!(r.efficiency > 0.2, "efficiency {}", r.efficiency);
        assert!(r.total_communication() > 0.0);
    }

    #[test]
    fn heterogeneous_rates_affect_makespan() {
        // One fast and one slow processor; EF should exploit the fast one.
        let mut cluster = free_comm_cluster(2, 100.0);
        cluster.processors[0].rated_mflops = 400.0;
        let tasks = const_tasks(20, 100.0);
        let sched = Box::new(EarliestFinish::new(2));
        let r = Simulation::new(cluster, tasks, sched, SimConfig::default())
            .run()
            .unwrap();
        // Total 2000 MFLOPs over 500 Mflop/s aggregate = 4 s ideal.
        assert!(r.makespan < 6.0, "makespan {}", r.makespan);
        assert!(
            r.per_proc[0].tasks_completed > r.per_proc[1].tasks_completed,
            "fast worker should do more tasks"
        );
    }

    #[test]
    fn dynamic_availability_slows_completion() {
        let dedicated = {
            let cluster = free_comm_cluster(2, 100.0);
            let sched = Box::new(EarliestFinish::new(2));
            Simulation::new(cluster, const_tasks(20, 500.0), sched, SimConfig::default())
                .run()
                .unwrap()
        };
        let throttled = {
            let mut cluster = free_comm_cluster(2, 100.0);
            for p in &mut cluster.processors {
                p.availability = AvailabilityModel::Fixed { fraction: 0.5 };
            }
            let sched = Box::new(EarliestFinish::new(2));
            Simulation::new(cluster, const_tasks(20, 500.0), sched, SimConfig::default())
                .run()
                .unwrap()
        };
        assert!(
            throttled.makespan > dedicated.makespan * 1.9,
            "halving availability should ~double the makespan: {} vs {}",
            throttled.makespan,
            dedicated.makespan
        );
    }

    #[test]
    fn random_walk_availability_completes_and_integrates() {
        let mut cluster = free_comm_cluster(2, 100.0);
        for p in &mut cluster.processors {
            p.availability = AvailabilityModel::RandomWalk {
                min: 0.3,
                max: 1.0,
                step: 0.2,
                period: 0.5,
            };
        }
        let tasks = const_tasks(16, 300.0);
        let sched = Box::new(EarliestFinish::new(2));
        let r = Simulation::new(cluster, tasks, sched, SimConfig::default())
            .run()
            .unwrap();
        assert_eq!(r.tasks_completed, 16);
        // 4800 MFLOPs over 200 Mflop/s at full availability = 24 s; with
        // α ∈ [0.3, 1.0] the makespan must be strictly longer but bounded
        // by the worst case (α = 0.3 ⇒ 80 s) plus slack.
        assert!(r.makespan > 24.0, "makespan {}", r.makespan);
        assert!(r.makespan < 120.0, "makespan {}", r.makespan);
    }

    #[test]
    fn staggered_arrivals_are_respected() {
        let cluster = free_comm_cluster(1, 100.0);
        let spec = WorkloadSpec {
            count: 3,
            sizes: SizeDistribution::Constant { value: 100.0 },
            arrival: dts_model::ArrivalProcess::UniformOver { window: 30.0 },
        };
        let tasks = spec.generate(5);
        let last_arrival = tasks.last().unwrap().arrival.seconds();
        let sched = Box::new(RoundRobin::new(1));
        let r = Simulation::new(cluster, tasks, sched, SimConfig::default())
            .run()
            .unwrap();
        assert_eq!(r.tasks_completed, 3);
        assert!(r.makespan >= last_arrival, "cannot finish before arrivals");
    }

    #[test]
    fn empty_workload_is_trivial() {
        let cluster = free_comm_cluster(2, 100.0);
        let sched = Box::new(RoundRobin::new(2));
        let r = Simulation::new(cluster, vec![], sched, SimConfig::default())
            .run()
            .unwrap();
        assert_eq!(r.tasks_completed, 0);
        assert_eq!(r.makespan, 0.0);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let spec = ClusterSpec::paper_defaults(8, 2.0);
            let cluster = spec.build(3);
            let tasks = WorkloadSpec::batch(
                60,
                SizeDistribution::Uniform {
                    lo: 10.0,
                    hi: 1000.0,
                },
            )
            .generate(4);
            let sched = Box::new(EarliestFinish::new(8));
            Simulation::new(cluster, tasks, sched, SimConfig::default())
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.efficiency, b.efficiency);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn event_limit_guards_against_livelock() {
        let cluster = free_comm_cluster(1, 100.0);
        let tasks = const_tasks(10, 100.0);
        let sched = Box::new(RoundRobin::new(1));
        let cfg = SimConfig {
            max_events: 3,
            ..SimConfig::default()
        };
        let err = Simulation::new(cluster, tasks, sched, cfg)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::EventLimit { .. }));
    }

    #[test]
    fn time_limit_is_enforced() {
        let cluster = free_comm_cluster(1, 1.0); // very slow: 100 s per task
        let tasks = const_tasks(10, 100.0);
        let sched = Box::new(RoundRobin::new(1));
        let cfg = SimConfig {
            max_seconds: 50.0,
            ..SimConfig::default()
        };
        let err = Simulation::new(cluster, tasks, sched, cfg)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::TimeLimit { .. }));
    }

    #[test]
    fn error_display() {
        let e = SimError::Stalled {
            completed: 3,
            expected: 10,
        };
        assert!(e.to_string().contains("3/10"));
    }
}

#[cfg(test)]
mod dag_tests {
    use super::*;
    use dts_model::graph::DagFamily;
    use dts_model::{Cluster, SizeDistribution, TaskId, WorkloadSpec};
    use dts_schedulers::{EarliestFinish, RoundRobin};

    fn const_tasks(n: usize, mflops: f64) -> Vec<Task> {
        WorkloadSpec::batch(n, SizeDistribution::Constant { value: mflops }).generate(1)
    }

    fn traced_config() -> SimConfig {
        SimConfig {
            record_trace: true,
            ..SimConfig::default()
        }
    }

    /// The tentpole safety property: across every DAG family, no task's
    /// dispatch message leaves the scheduler before the results of all its
    /// predecessors have arrived back.
    #[test]
    fn no_task_starts_before_its_predecessors_complete() {
        for family in [
            DagFamily::ForkJoin { width: 5 },
            DagFamily::Chains { chains: 3 },
            DagFamily::RandomLayered {
                layers: 4,
                edge_probability: 0.5,
            },
        ] {
            let n = 18;
            let graph = family.build(n, 0xDA6);
            let cluster = Cluster::homogeneous(3, 100.0);
            let tasks = const_tasks(n, 150.0);
            let r = Simulation::new_with_graph(
                cluster,
                tasks,
                graph.clone(),
                Box::new(EarliestFinish::new(3)),
                traced_config(),
            )
            .run()
            .unwrap();
            assert_eq!(r.tasks_completed, n as u64, "{}", family.label());
            let trace = r.trace.expect("trace requested");
            let mut sent = vec![SimTime::ZERO; n];
            let mut done = vec![SimTime::ZERO; n];
            for span in trace.spans() {
                sent[span.task.index()] = span.sent_at;
                done[span.task.index()] = span.result_at;
            }
            for (p, s) in graph.edge_list() {
                assert!(
                    sent[s as usize] >= done[p as usize],
                    "{}: task {s} dispatched at {:?} before predecessor {p} \
                     completed at {:?}",
                    family.label(),
                    sent[s as usize],
                    done[p as usize],
                );
            }
        }
    }

    /// An edge-free graph must take exactly the pre-DAG code path:
    /// bit-identical report against [`Simulation::new`].
    #[test]
    fn edge_free_graph_is_bit_identical_to_plain_simulation() {
        let build = |with_graph: bool| {
            let spec = dts_model::ClusterSpec::paper_defaults(6, 2.0);
            let cluster = spec.build(3);
            let tasks = WorkloadSpec::batch(
                50,
                SizeDistribution::Uniform {
                    lo: 10.0,
                    hi: 1000.0,
                },
            )
            .generate(4);
            let sched = Box::new(EarliestFinish::new(6));
            if with_graph {
                let graph = TaskGraph::independent(tasks.len());
                Simulation::new_with_graph(cluster, tasks, graph, sched, traced_config())
            } else {
                Simulation::new(cluster, tasks, sched, traced_config())
            }
            .run()
            .unwrap()
        };
        let plain = build(false);
        let dagged = build(true);
        assert_eq!(plain.makespan.to_bits(), dagged.makespan.to_bits());
        assert_eq!(plain.efficiency.to_bits(), dagged.efficiency.to_bits());
        assert_eq!(plain.events_processed, dagged.events_processed);
        assert_eq!(plain.waiting, dagged.waiting);
        let (pt, dt) = (plain.trace.unwrap(), dagged.trace.unwrap());
        assert_eq!(pt.spans().len(), dt.spans().len());
        for (a, b) in pt.spans().iter().zip(dt.spans()) {
            assert_eq!(a.task, b.task);
            assert_eq!(a.proc, b.proc);
            assert_eq!(a.sent_at, b.sent_at);
            assert_eq!(a.result_at, b.result_at);
        }
    }

    /// A pure chain on a single free-comm processor waits only on
    /// precedence: queueing delay stays ~0 while the stall grows, and the
    /// two components sum to the total wait.
    #[test]
    fn waiting_decomposes_into_stall_plus_queueing() {
        let n = 4;
        let graph = DagFamily::Chains { chains: 1 }.build(n, 7);
        let cluster = Cluster::homogeneous(1, 100.0);
        let tasks = const_tasks(n, 100.0); // 1 s each, all arrive at t = 0
        let r = Simulation::new_with_graph(
            cluster,
            tasks,
            graph,
            Box::new(RoundRobin::new(1)),
            SimConfig::default(),
        )
        .run()
        .unwrap();
        let w = r.waiting;
        // Task k stalls ~k seconds behind its predecessor chain: mean ≈ 1.5.
        assert!(
            w.mean_precedence_stall > 1.0,
            "stall {}",
            w.mean_precedence_stall
        );
        assert!(
            w.mean_queue_wait < 0.1,
            "chain on an idle processor should barely queue: {}",
            w.mean_queue_wait
        );
        assert!(
            (w.mean_wait - (w.mean_precedence_stall + w.mean_queue_wait)).abs() < 1e-9,
            "decomposition must be exact: {} vs {} + {}",
            w.mean_wait,
            w.mean_precedence_stall,
            w.mean_queue_wait
        );
        assert!(w.max_wait >= w.mean_wait);
        assert_eq!(w.deadline_miss_rate(), None);
    }

    /// Edge-free workloads on a saturated processor show pure queueing
    /// delay — zero precedence stall.
    #[test]
    fn independent_tasks_wait_only_in_the_queue() {
        let cluster = Cluster::homogeneous(1, 100.0);
        let tasks = const_tasks(4, 100.0);
        let r = Simulation::new(
            cluster,
            tasks,
            Box::new(RoundRobin::new(1)),
            SimConfig::default(),
        )
        .run()
        .unwrap();
        let w = r.waiting;
        assert_eq!(w.mean_precedence_stall, 0.0);
        assert!(w.mean_queue_wait > 1.0, "queue wait {}", w.mean_queue_wait);
        assert!((w.mean_wait - w.mean_queue_wait).abs() < 1e-12);
    }

    /// Deadlines attached to the graph feed the miss-rate accounting: a
    /// generous deadline is met, an impossible one is missed.
    #[test]
    fn deadline_misses_are_counted_per_task() {
        let n = 3;
        let mut graph = DagFamily::Chains { chains: 1 }.build(n, 7);
        graph.set_deadline(0, 100.0); // met: first task finishes ~1 s
        graph.set_deadline(2, 0.5); // missed: last task cannot finish by 0.5 s
        let cluster = Cluster::homogeneous(1, 100.0);
        let tasks = const_tasks(n, 100.0);
        let r = Simulation::new_with_graph(
            cluster,
            tasks,
            graph,
            Box::new(RoundRobin::new(1)),
            SimConfig::default(),
        )
        .run()
        .unwrap();
        let w = r.waiting;
        assert_eq!(w.deadlined_tasks, 2);
        assert_eq!(w.deadline_misses, 1);
        assert_eq!(w.deadline_miss_rate(), Some(0.5));
    }

    /// Successors released by a result are picked up by the worker that
    /// produced the result, in the same event cascade.
    #[test]
    fn released_successor_is_served_without_stalling() {
        let graph = TaskGraph::new(2, &[(0, 1)]).unwrap();
        let cluster = Cluster::homogeneous(1, 100.0);
        let tasks = const_tasks(2, 100.0);
        let r = Simulation::new_with_graph(
            cluster,
            tasks,
            graph,
            Box::new(RoundRobin::new(1)),
            traced_config(),
        )
        .run()
        .unwrap();
        assert_eq!(r.tasks_completed, 2);
        // Two sequential seconds of compute, free communication.
        assert!((r.makespan - 2.0).abs() < 1e-4, "makespan {}", r.makespan);
        let trace = r.trace.unwrap();
        let s1 = trace.spans().iter().find(|s| s.task == TaskId(1)).unwrap();
        // Task 1's dispatch coincides with task 0's result (no idle gap).
        assert!((s1.sent_at.seconds() - 1.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "task graph must span exactly the workload")]
    fn mismatched_graph_is_rejected() {
        let graph = TaskGraph::independent(3);
        let cluster = Cluster::homogeneous(1, 100.0);
        let tasks = const_tasks(2, 100.0);
        let _ = Simulation::new_with_graph(
            cluster,
            tasks,
            graph,
            Box::new(RoundRobin::new(1)),
            SimConfig::default(),
        );
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use dts_model::{Cluster, SizeDistribution, WorkloadSpec};
    use dts_schedulers::EarliestFinish;

    #[test]
    fn trace_records_every_task() {
        let cluster = Cluster::homogeneous(3, 100.0);
        let tasks =
            WorkloadSpec::batch(12, SizeDistribution::Constant { value: 200.0 }).generate(1);
        let cfg = SimConfig {
            record_trace: true,
            ..SimConfig::default()
        };
        let r = Simulation::new(cluster, tasks, Box::new(EarliestFinish::new(3)), cfg)
            .run()
            .unwrap();
        let trace = r.trace.expect("trace requested");
        assert_eq!(trace.len(), 12);
        assert!((trace.total_mflops() - 2400.0).abs() < 1e-9);
        for span in trace.spans() {
            assert!(span.sent_at <= span.exec_start);
            assert!(span.exec_start <= span.exec_end);
            assert!(span.exec_end <= span.result_at);
            assert!(span.result_at.seconds() <= r.makespan + 1e-9);
            // 200 MFLOPs at 100 Mflop/s = 2 s of compute, free comm.
            assert!((span.compute_seconds() - 2.0).abs() < 1e-9);
            assert_eq!(span.comm_seconds(), 0.0);
        }
        // The Gantt renders one row per processor plus a legend.
        let g = trace.gantt(3, r.makespan.max(1e-9), 40);
        assert_eq!(g.lines().count(), 4);
    }

    #[test]
    fn trace_absent_by_default() {
        let cluster = Cluster::homogeneous(2, 100.0);
        let tasks = WorkloadSpec::batch(4, SizeDistribution::Constant { value: 100.0 }).generate(2);
        let r = Simulation::new(
            cluster,
            tasks,
            Box::new(EarliestFinish::new(2)),
            SimConfig::default(),
        )
        .run()
        .unwrap();
        assert!(r.trace.is_none());
    }
}

#[cfg(test)]
mod order_tests {
    //! Event order at exact time ties: an arrival group fires before every
    //! other event of the same instant.

    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use dts_model::{PlanOutcome, SchedulerMode, TaskId};
    use dts_schedulers::RoundRobin;

    /// Round-robin that logs every enqueue, plan and work request.
    struct Logged {
        inner: RoundRobin,
        log: Rc<RefCell<Vec<String>>>,
    }

    impl Scheduler for Logged {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn mode(&self) -> SchedulerMode {
            self.inner.mode()
        }
        fn enqueue(&mut self, tasks: &[Task]) {
            let ids: Vec<u32> = tasks.iter().map(|t| t.id.0).collect();
            self.log.borrow_mut().push(format!("enqueue {ids:?}"));
            self.inner.enqueue(tasks);
        }
        fn unscheduled_len(&self) -> usize {
            self.inner.unscheduled_len()
        }
        fn plan(&mut self, view: &SystemView) -> PlanOutcome {
            self.log
                .borrow_mut()
                .push(format!("plan at {:?}", view.now.seconds()));
            self.inner.plan(view)
        }
        fn next_task_for(&mut self, p: ProcessorId) -> Option<Task> {
            let task = self.inner.next_task_for(p);
            let id = task.map(|t| t.id.0);
            self.log
                .borrow_mut()
                .push(format!("next p{} -> {id:?}", p.0));
            task
        }
        fn queued_len(&self, p: ProcessorId) -> usize {
            self.inner.queued_len(p)
        }
        fn queued_mflops(&self, p: ProcessorId) -> f64 {
            self.inner.queued_mflops(p)
        }
    }

    fn run(tasks: Vec<Task>) -> (SimReport, Vec<String>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let sched = Box::new(Logged {
            inner: RoundRobin::new(2),
            log: Rc::clone(&log),
        });
        let cfg = SimConfig {
            record_trace: true,
            ..SimConfig::default()
        };
        let report = Simulation::new(Cluster::homogeneous(2, 100.0), tasks, sched, cfg)
            .run()
            .unwrap();
        let log = log.borrow().clone();
        (report, log)
    }

    fn task(id: u32, mflops: f64, at: SimTime) -> Task {
        Task::new(TaskId(id), mflops, at)
    }

    /// On a free-communication cluster the first arrival group coincides
    /// with both workers' initial requests at t = 0, and tasks 2 and 3 are
    /// timed to arrive at exactly the instant task 0's result reaches the
    /// scheduler. Both arrivals fire first: tasks 2 and 3 are enqueued and
    /// planned before worker 0's request is answered, so worker 0 takes
    /// task 2 at that same instant.
    #[test]
    fn arrivals_fire_before_simultaneous_events() {
        let first = vec![task(0, 100.0, SimTime::ZERO), task(1, 200.0, SimTime::ZERO)];
        let (probe, _) = run(first.clone());
        let tie = probe.trace.unwrap().spans()[0].result_at;

        let mut tasks = first;
        tasks.extend([task(2, 100.0, tie), task(3, 100.0, tie)]);
        let (report, log) = run(tasks);
        let spans = report.trace.unwrap().spans().to_vec();
        let result0 = spans.iter().find(|s| s.task == TaskId(0)).unwrap();
        assert_eq!(result0.result_at, tie, "the tie must be exact");
        assert_eq!(
            log,
            [
                "enqueue [0, 1]",
                "plan at 0.0",
                "next p0 -> Some(0)",
                "next p1 -> Some(1)",
                "enqueue [2, 3]",
                "plan at 1.0",
                "next p0 -> Some(2)",
                "next p1 -> Some(3)",
                "next p0 -> None",
                "next p1 -> None",
            ]
        );
        let dispatches: Vec<(u32, u16, f64)> = spans
            .iter()
            .map(|s| (s.task.0, s.proc.0, s.sent_at.seconds()))
            .collect();
        assert_eq!(
            dispatches,
            [(0, 0, 0.0), (1, 1, 0.0), (2, 0, 1.0), (3, 1, 2.0)]
        );
        assert_eq!(report.events_processed, 18);
        assert_eq!(report.plan_invocations, 2);
        assert_eq!(report.makespan, 3.0);
    }
}
