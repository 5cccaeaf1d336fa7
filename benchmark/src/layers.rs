//! The adapter: the only file of the benchmark that names library items.
//!
//! It binds to the narrowest durable surface of each crate —
//! `plan_batch`/`PlanRequest`, `DtsServer`, `spawn`/`ServiceHandle`,
//! `replay_trace`, `Simulation`/`run_simulation`, `BatchProblem` with
//! `Problem::evaluate_into`, `GaEngine::start`/`GaRun::step` and the three
//! paper operators — and never to the `schedule_batch_*` wrappers, so an
//! API refactor of the library re-points this one file. Everything it hands
//! back to the drivers is plain data.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use dts_core::init::initial_population;
use dts_core::rebalance::rebalance_once;
use dts_core::{
    plan_batch, slot_precedence, BatchProblem, PlanRequest, PnConfig, PnScheduler, ProcessorState,
};
use dts_distributions::{Prng, Rng, SeedSequence};
use dts_ga::{
    repair_topological, BatchEval, Chromosome, CrossoverOp, CycleCrossover, Evaluator, GaEngine,
    MutationOp, Problem, RouletteWheel, SelectionOp, SlotPrecedence, SwapMutation,
};
use dts_model::{
    ArrivalProcess, AvailabilityModel, Cluster, ClusterSpec, CommCostSpec, DagFamily, PlanOutcome,
    ProcessorId, Scheduler, SchedulerMode, SizeDistribution, SystemView, Task, TaskGraph, TaskId,
    WorkloadSpec,
};
use dts_schedulers::EarliestFinish;
use dts_server::{
    replay_trace, spawn, DtsServer, PlacementEvent, PlanBudget, ProcessorProfile, ServerConfig,
    ServerStats, TenantId,
};
use dts_sim::{run_simulation, ArrivalTrace, SimConfig, SimReport, Simulation};

use crate::trace::{Detached, Tracer};
use crate::workloads::{
    PlanParams, ServeParams, SimParams, SimScheduler, SIZE_MEAN, SIZE_VARIANCE,
};

/// Span name of one round of a workload; its children are the layer calls.
pub const RUN: &str = "run";

/// The `i`-th seed derived from `--seed`, the only source of randomness.
fn sub_seed(seed: u64, i: u64) -> u64 {
    SeedSequence::new(seed).seed_at(i)
}

/// Runs `f` and returns its result with the time it took.
fn clocked<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// [`clocked`], in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (out, took) = clocked(f);
    (out, took.as_secs_f64())
}

/// `n` rates evenly spaced over `[lo, hi]`.
fn spaced(n: usize, (lo, hi): (f64, f64)) -> Vec<f64> {
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n.max(2) - 1) as f64)
        .collect()
}

fn sizes() -> SizeDistribution {
    SizeDistribution::Normal {
        mean: SIZE_MEAN,
        variance: SIZE_VARIANCE,
    }
}

fn layered(tasks: usize, width: usize, edge_probability: f64) -> DagFamily {
    DagFamily::RandomLayered {
        layers: (tasks / width).max(2),
        edge_probability,
    }
}

/// Seconds each step of set-up took (0 for a step the workload lacks),
/// and the tasks it produced; the traced pass turns these into the
/// `model.*` and `sim.arrivals_*` layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `WorkloadSpec::generate`.
    pub generate_s: f64,
    /// `DagFamily::build`.
    pub dag_build_s: f64,
    /// `ArrivalTrace::from_tasks[_with_graph]`.
    pub record_s: f64,
    /// `ArrivalTrace::serialize`.
    pub serialize_s: f64,
    /// `ArrivalTrace::parse`.
    pub parse_s: f64,
    /// Tasks generated.
    pub tasks: usize,
}

// ---------------------------------------------------------------- serve --

/// One placement, as plain data. Two runs agree when these are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placed {
    /// Server-assigned task id (equals the trace id).
    pub task: u32,
    /// Task size, as bits.
    pub mflops_bits: u64,
    /// Processor index.
    pub proc: u16,
    /// Sequence number of the plan call that placed it.
    pub batch: u64,
    /// The GA's makespan estimate for that batch, as bits.
    pub estimate_bits: u64,
}

impl Placed {
    fn of(e: &PlacementEvent) -> Self {
        Self {
            task: e.task.id.0,
            mflops_bits: e.task.mflops.to_bits(),
            proc: e.proc.0,
            batch: e.batch,
            estimate_bits: e.makespan_estimate.to_bits(),
        }
    }

    /// Task size in MFLOPs.
    pub fn mflops(&self) -> f64 {
        f64::from_bits(self.mflops_bits)
    }
}

/// The server's lifetime counters, as plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeCounters {
    /// Submissions admitted.
    pub submitted: u64,
    /// Submissions shed.
    pub shed: u64,
    /// Placements emitted.
    pub placed: u64,
    /// Plan calls.
    pub batches: u64,
    /// High-water mark of the pending queue.
    pub max_pending: u64,
    /// GA generations over all plan calls.
    pub generations: u64,
}

impl ServeCounters {
    fn of(s: ServerStats) -> Self {
        Self {
            submitted: s.submitted,
            shed: s.shed,
            placed: s.placed,
            batches: s.batches,
            max_pending: s.max_pending as u64,
            generations: s.generations,
        }
    }
}

/// Everything one pass of the trace through the server produced.
#[derive(Debug, Clone, Default)]
pub struct ServeRun {
    /// Placements in emission order.
    pub placements: Vec<Placed>,
    /// Decision latency per placement, ns: admission (`submit` accepted) →
    /// emission (the plan call that placed it returned). Live, it is
    /// `TimedPlacement::decision_latency`; in process the driver stamps
    /// the same two moments itself.
    pub latency_ns: Vec<u64>,
    /// Rate of each plan cycle — the tasks one plan call placed ÷ the
    /// seconds since the previous one returned, i.e. filling the batch and
    /// planning it (in process only).
    pub cycle_tasks_per_s: Vec<f64>,
    /// Client-side round trip of each `submit`, ns (when asked for).
    pub rtt_ns: Vec<u64>,
    /// Final counters.
    pub counters: ServeCounters,
    /// First submit → final drain, seconds.
    pub wall_s: f64,
    /// Submissions refused plus service threads lost.
    pub errors: u64,
}

/// Inputs of a `serve_*` workload: the parsed trace and the service
/// configuration.
pub struct ServeInputs {
    trace: ArrivalTrace,
    config: ServerConfig,
}

impl ServeInputs {
    /// Tasks in the trace.
    pub fn tasks(&self) -> usize {
        self.trace.len()
    }

    /// Predecessor ids of a task.
    pub fn deps_of(&self, id: u32) -> &[u32] {
        self.trace.deps_of(id)
    }

    /// Profile rate of each processor, Mflop/s.
    pub fn rates(&self) -> Vec<f64> {
        self.config.procs.iter().map(|p| p.rate).collect()
    }
}

/// Seed → trace generated, recorded, serialized and parsed back; fleet and
/// service configuration built.
pub fn serve_setup(p: &ServeParams, seed: u64) -> Result<(ServeInputs, SetupTimes), String> {
    let spec = WorkloadSpec {
        count: p.tasks,
        sizes: sizes(),
        arrival: ArrivalProcess::PoissonStream {
            mean_interarrival: p.mean_gap_s,
        },
    };
    let (tasks, generate_s) = timed(|| spec.generate(sub_seed(seed, 0)));
    let (graph, dag_build_s) = match p.dag_layer_width {
        Some(width) => {
            let family = layered(p.tasks, width, p.edge_probability);
            let (g, s) = timed(|| family.build(tasks.len(), sub_seed(seed, 1)));
            (Some(g), s)
        }
        None => (None, 0.0),
    };
    let (recorded, record_s) = timed(|| match &graph {
        Some(g) => ArrivalTrace::from_tasks_with_graph(&tasks, g),
        None => ArrivalTrace::from_tasks(&tasks),
    });
    let recorded = recorded.map_err(|e| format!("recording the trace: {e}"))?;
    let (text, serialize_s) = timed(|| recorded.serialize());
    let (parsed, parse_s) = timed(|| ArrivalTrace::parse(&text));
    let trace = parsed.map_err(|e| format!("parsing the serialized trace: {e}"))?;
    if trace != recorded {
        return Err("the trace changed across serialize → parse".into());
    }

    let mut pn = PnConfig::default();
    pn.ga.max_generations = p.max_generations;
    pn.seed = sub_seed(seed, 2);
    let config = ServerConfig {
        procs: spaced(p.procs, p.rates)
            .into_iter()
            .map(|rate| ProcessorProfile {
                rate,
                comm_cost: p.comm_cost,
            })
            .collect(),
        pn,
        tenants: p.tenants,
        // Never the bottleneck: the workloads are chosen so nothing is shed.
        tenant_capacity: p.tasks,
        batch_size: p.batch_size,
        budget: PlanBudget::Unlimited,
    };
    config.validate()?;
    let times = SetupTimes {
        generate_s,
        dag_build_s,
        record_s,
        serialize_s,
        parse_s,
        tasks: tasks.len(),
    };
    Ok((ServeInputs { trace, config }, times))
}

fn tenant_of(inputs: &ServeInputs, task: &Task) -> TenantId {
    TenantId((task.id.0 % inputs.config.tenants as u32) as u16)
}

/// One closed-loop client submits the whole trace through the live service
/// (`spawn` → `submit_with_deps` → `drain` → `shutdown`).
pub fn serve_live(inputs: &ServeInputs, time_submits: bool) -> ServeRun {
    let (handle, join) = spawn(inputs.config.clone());
    let mut run = ServeRun::default();
    let mut deps: Vec<TaskId> = Vec::new();
    let started = Instant::now();
    for t in inputs.trace.tasks() {
        deps.clear();
        deps.extend(inputs.trace.deps_of(t.id.0).iter().map(|&d| TaskId(d)));
        let sent = time_submits.then(Instant::now);
        let verdict =
            handle.submit_with_deps(tenant_of(inputs, t), t.mflops, t.arrival.seconds(), &deps);
        if let Some(sent) = sent {
            run.rtt_ns.push(sent.elapsed().as_nanos() as u64);
        }
        run.errors += u64::from(verdict.is_err());
    }
    let mut timed_placements = handle.drain();
    run.wall_s = started.elapsed().as_secs_f64();
    run.counters = ServeCounters::of(handle.stats());
    timed_placements.extend(handle.shutdown());
    run.errors += u64::from(join.join().is_err());
    for p in &timed_placements {
        run.placements.push(Placed::of(&p.event));
        run.latency_ns.push(p.decision_latency.as_nanos() as u64);
    }
    run
}

/// The same closed loop against an in-process `DtsServer` — submit, plan
/// whenever a batch is ready, drain at the end, exactly the service
/// thread's loop without the channel — one span per call (`server.submit`,
/// `server.plan`, `server.drain`) under a [`RUN`] span.
pub fn serve_inprocess(inputs: &ServeInputs, tracer: &mut Tracer) -> ServeRun {
    let mut server = DtsServer::new(inputs.config.clone());
    let mut run = ServeRun::default();
    let mut events: Vec<PlacementEvent> = Vec::with_capacity(inputs.trace.len());
    let mut admitted: Vec<Instant> = Vec::with_capacity(inputs.trace.len());
    let mut deps: Vec<TaskId> = Vec::new();
    let started = Instant::now();
    let mut last_emit = started;
    let mut emit = |placed: Vec<PlacementEvent>, admitted: &[Instant], run: &mut ServeRun| {
        let now = Instant::now();
        run.latency_ns.extend(
            placed
                .iter()
                .map(|e| now.duration_since(admitted[e.task.id.index()]).as_nanos() as u64),
        );
        run.cycle_tasks_per_s.push(crate::stats::per(
            placed.len() as f64,
            now.duration_since(last_emit).as_secs_f64(),
        ));
        last_emit = now;
        events.extend(placed);
    };
    tracer.enter(RUN);
    for t in inputs.trace.tasks() {
        deps.clear();
        deps.extend(inputs.trace.deps_of(t.id.0).iter().map(|&d| TaskId(d)));
        tracer.enter("server.submit");
        let verdict =
            server.submit_with_deps(tenant_of(inputs, t), t.mflops, t.arrival.seconds(), &deps);
        tracer.exit();
        // Ids are dense in submission order, so the stamp's position is the
        // id — as long as nothing is refused, which is itself a failure.
        admitted.push(Instant::now());
        run.errors += u64::from(verdict.is_err());
        while server.ready_to_plan() {
            tracer.enter("server.plan");
            let placed = server.plan();
            tracer.exit();
            emit(placed, &admitted, &mut run);
        }
    }
    tracer.enter("server.drain");
    let placed = server.drain();
    tracer.exit();
    emit(placed, &admitted, &mut run);
    tracer.exit();
    run.wall_s = started.elapsed().as_secs_f64();
    run.counters = ServeCounters::of(server.stats());
    run.placements = events.iter().map(Placed::of).collect();
    run
}

/// The library's own replay of the trace: the reference the live service
/// must match bit for bit.
pub fn serve_replay(inputs: &ServeInputs) -> Result<Vec<Placed>, String> {
    replay_trace(&inputs.trace, inputs.config.clone())
        .map(|r| r.placements.iter().map(Placed::of).collect())
        .map_err(|e| e.to_string())
}

// ----------------------------------------------------------------- plan --

/// One batch with everything a plan call needs: the shape the unit probes
/// run on, and the input of the `plan_*` workloads.
pub struct BatchSample {
    batch: Vec<Task>,
    procs: Vec<ProcessorState>,
    pn: PnConfig,
    /// The whole-workload graph and its restriction to the batch.
    dag: Option<(TaskGraph, SlotPrecedence)>,
    /// Seed of the plan call the sample was taken from.
    seed: u64,
}

impl BatchSample {
    /// Tasks in the batch.
    pub fn tasks(&self) -> usize {
        self.batch.len()
    }

    /// Seed of the plan call the sample was taken from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Genes per chromosome: one per task plus the queue delimiters.
    pub fn genes(&self) -> usize {
        self.batch.len() + self.procs.len() - 1
    }

    /// Σ task sizes ÷ Σ processor rates: the makespan of a perfectly
    /// balanced schedule with free communication and empty queues.
    pub fn ideal_makespan(&self) -> f64 {
        self.batch.iter().map(|t| t.mflops).sum::<f64>()
            / self.procs.iter().map(|p| p.rate).sum::<f64>()
    }

    fn request(&self, seed: u64) -> PlanRequest<'_> {
        let req = PlanRequest::new(&self.batch, &self.procs, seed);
        match &self.dag {
            Some((_, prec)) => req.with_precedence(prec),
            None => req,
        }
    }

    fn problem(&self) -> BatchProblem<'_> {
        let problem = BatchProblem::new(&self.batch, &self.procs, &self.pn);
        match &self.dag {
            Some((_, prec)) => problem.with_precedence(prec),
            None => problem,
        }
    }
}

/// What one `plan_batch` call returned.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Per-processor queues of batch slots.
    pub queues: Vec<Vec<u32>>,
    /// `BatchOutcome::best_makespan`, as bits.
    pub makespan_bits: u64,
    /// Generations evolved.
    pub generations: u32,
    /// `GaResult::memo_hits`.
    pub memo_hits: u64,
    /// `GaResult::memo_misses`.
    pub memo_misses: u64,
}

/// `plan_batch(&PlanRequest::new(batch, procs, seed), &cfg)`.
pub fn plan_call(sample: &BatchSample, seed: u64) -> Planned {
    let outcome = plan_batch(&sample.request(seed), &sample.pn);
    Planned {
        queues: outcome.queues,
        makespan_bits: outcome.best_makespan.to_bits(),
        generations: outcome.generations,
        memo_hits: outcome.ga.memo_hits,
        memo_misses: outcome.ga.memo_misses,
    }
}

/// Inputs of a `plan_*` workload: one batch and the seeds of a round.
pub struct PlanInputs {
    /// The batch, fleet and configuration.
    pub sample: BatchSample,
    /// One seed per call of a round.
    pub call_seeds: Vec<u64>,
}

/// Seed → batch generated (and its graph restricted to it), fleet and
/// configuration built.
pub fn plan_setup(p: &PlanParams, seed: u64) -> (PlanInputs, SetupTimes) {
    let spec = WorkloadSpec::batch(p.tasks, sizes());
    let (batch, generate_s) = timed(|| spec.generate(sub_seed(seed, 0)));
    let (dag, dag_build_s) = match p.dag_layer_width {
        Some(width) => {
            let family = layered(p.tasks, width, p.edge_probability);
            let (graph, s) = timed(|| family.build(batch.len(), sub_seed(seed, 1)));
            let prec = slot_precedence(&batch, &graph);
            (Some((graph, prec)), s)
        }
        None => (None, 0.0),
    };
    let procs = spaced(p.procs, p.rates)
        .into_iter()
        .map(|rate| ProcessorState {
            rate,
            existing_load_mflops: 0.0,
            comm_cost: p.comm_cost,
        })
        .collect();
    let mut pn = PnConfig::default().with_eval_workers(p.eval_workers);
    pn.ga.population_size = p.population;
    pn.ga.max_generations = p.max_generations;
    let times = SetupTimes {
        generate_s,
        dag_build_s,
        tasks: batch.len(),
        ..SetupTimes::default()
    };
    let inputs = PlanInputs {
        sample: BatchSample {
            batch,
            procs,
            pn,
            dag,
            seed: sub_seed(seed, 2),
        },
        call_seeds: (0..p.calls_per_round as u64)
            .map(|i| sub_seed(seed, 16 + i))
            .collect(),
    };
    (inputs, times)
}

/// Rebuilds every `every`-th batch of a served trace from its placements:
/// the batch's tasks in FCFS order, the processor loads left by the
/// placements before it, and the seed the server drew for it. A
/// `plan_batch` call on the sample must reproduce the batch's placements
/// (see [`sample_matches`]).
pub fn serve_samples(
    inputs: &ServeInputs,
    placements: &[Placed],
    every: u64,
) -> Vec<(u64, BatchSample)> {
    let mut samples = Vec::new();
    let mut load = vec![0.0f64; inputs.config.procs.len()];
    let mut seeds = Prng::seed_from(inputs.config.pn.seed);
    let mut rest = placements;
    while let Some(first) = rest.first() {
        let len = rest.iter().take_while(|p| p.batch == first.batch).count();
        let (batch_placements, tail) = rest.split_at(len);
        let seed = seeds.next_u64();
        if first.batch % every == 0 {
            let mut ids: Vec<u32> = batch_placements.iter().map(|p| p.task).collect();
            ids.sort_unstable();
            let tasks = inputs.trace.tasks();
            samples.push((
                first.batch,
                BatchSample {
                    batch: ids.iter().map(|&id| tasks[id as usize]).collect(),
                    procs: inputs
                        .config
                        .procs
                        .iter()
                        .zip(&load)
                        .map(|(p, &l)| ProcessorState {
                            rate: p.rate,
                            existing_load_mflops: l,
                            comm_cost: p.comm_cost,
                        })
                        .collect(),
                    pn: inputs.config.pn.clone(),
                    dag: None,
                    seed,
                },
            ));
        }
        for p in batch_placements {
            load[p.proc as usize] += p.mflops();
        }
        rest = tail;
    }
    samples
}

/// True when `planned` (a plan call on a sample of batch `batch_no`) places
/// every task where the server did.
pub fn sample_matches(
    sample: &BatchSample,
    batch_no: u64,
    planned: &Planned,
    placements: &[Placed],
) -> bool {
    let replayed = planned.queues.iter().enumerate().flat_map(|(proc, queue)| {
        queue
            .iter()
            .map(move |&slot| (sample.batch[slot as usize].id.0, proc as u16))
    });
    let served = placements
        .iter()
        .filter(|p| p.batch == batch_no)
        .map(|p| (p.task, p.proc));
    replayed.eq(served)
}

// ------------------------------------------------------------------ sim --

struct SimRep {
    cluster: Cluster,
    tasks: Vec<Task>,
    scheduler_seed: u64,
    config: SimConfig,
}

/// Inputs of a `sim_*` workload: one cluster and task set per replication
/// of a round.
pub struct SimInputs {
    scheduler: SimScheduler,
    sample_every: u32,
    cluster_spec: ClusterSpec,
    workload: WorkloadSpec,
    rep_seeds: Vec<u64>,
    reps: Vec<SimRep>,
}

impl SimInputs {
    /// Replications in a round.
    pub fn reps(&self) -> usize {
        self.reps.len()
    }

    /// Tasks per replication.
    pub fn tasks(&self) -> usize {
        self.workload.count
    }
}

/// What one replication reported.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// `SimReport::makespan`, as bits.
    pub makespan_bits: u64,
    /// `SimReport::efficiency`, as bits.
    pub efficiency_bits: u64,
    /// Tasks completed.
    pub tasks_completed: u64,
    /// Events processed.
    pub events: u64,
    /// Scheduler invocations.
    pub plan_invocations: u64,
    /// GA generations.
    pub generations: u64,
}

impl SimOutcome {
    fn of(r: &SimReport) -> Self {
        Self {
            makespan_bits: r.makespan.to_bits(),
            efficiency_bits: r.efficiency.to_bits(),
            tasks_completed: r.tasks_completed,
            events: r.events_processed,
            plan_invocations: r.plan_invocations,
            generations: r.total_generations,
        }
    }
}

/// Seed → per replication, the cluster built and the workload generated,
/// with the seed fan-out of `run_simulation` so that each replication is
/// the one `run_simulation` would run (checked by [`sim_reference`]).
pub fn sim_setup(p: &SimParams, seed: u64) -> (SimInputs, SetupTimes) {
    let cluster_spec = ClusterSpec {
        processors: p.procs,
        rating: SizeDistribution::Uniform {
            lo: p.ratings.0,
            hi: p.ratings.1,
        },
        availability: AvailabilityModel::Dedicated,
        comm: CommCostSpec::with_mean(p.comm_mean_s),
    };
    let workload = WorkloadSpec {
        count: p.tasks,
        sizes: sizes(),
        arrival: ArrivalProcess::PoissonStream {
            mean_interarrival: p.mean_gap_s,
        },
    };
    let rep_seeds: Vec<u64> = (0..p.reps_per_round as u64)
        .map(|i| sub_seed(seed, 16 + i))
        .collect();
    let mut generate_s = 0.0;
    let reps = rep_seeds
        .iter()
        .map(|&rep_seed| {
            let mut seq = SeedSequence::new(rep_seed);
            let cluster = cluster_spec.build(seq.next_seed());
            let (tasks, s) = timed(|| workload.generate(seq.next_seed()));
            generate_s += s;
            let scheduler_seed = seq.next_seed();
            let config = SimConfig {
                seed: seq.next_seed(),
                ..SimConfig::default()
            };
            SimRep {
                cluster,
                tasks,
                scheduler_seed,
                config,
            }
        })
        .collect();
    let times = SetupTimes {
        generate_s,
        tasks: p.tasks * p.reps_per_round,
        ..SetupTimes::default()
    };
    let inputs = SimInputs {
        scheduler: p.scheduler,
        sample_every: p.adapter_sample_every,
        cluster_spec,
        workload,
        rep_seeds,
        reps,
    };
    (inputs, times)
}

fn scheduler_for(kind: SimScheduler, n_procs: usize, seed: u64) -> Box<dyn Scheduler> {
    match kind {
        SimScheduler::Pn => Box::new(PnScheduler::new(
            n_procs,
            PnConfig {
                seed,
                ..PnConfig::default()
            },
        )),
        SimScheduler::EarliestFinish => Box::new(EarliestFinish::new(n_procs)),
    }
}

/// Span names of the scheduler adapter, by scheduler.
pub fn adapter_spans(kind: SimScheduler) -> (&'static str, &'static str) {
    match kind {
        SimScheduler::Pn => ("core.pn_enqueue", "core.pn_plan"),
        SimScheduler::EarliestFinish => ("schedulers.ef_enqueue", "schedulers.ef_plan"),
    }
}

/// A `Scheduler` that delegates to the real one and times `enqueue` and
/// `plan` from outside — one call in `every`, each timed call standing for
/// `every` of them.
struct Spanned {
    inner: Box<dyn Scheduler>,
    log: Rc<RefCell<Vec<Detached>>>,
    names: (&'static str, &'static str),
    every: u32,
    enqueues: u32,
    plans: u32,
}

impl Spanned {
    fn clocked<T>(&mut self, name: &'static str, f: impl FnOnce(&mut dyn Scheduler) -> T) -> T {
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        let end = Instant::now();
        self.log.borrow_mut().push(Detached {
            name,
            start,
            end,
            weight: self.every,
        });
        out
    }
}

impl Scheduler for Spanned {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn mode(&self) -> SchedulerMode {
        self.inner.mode()
    }
    fn enqueue(&mut self, tasks: &[Task]) {
        self.enqueues += 1;
        if self.enqueues.is_multiple_of(self.every) {
            self.clocked(self.names.0, |s| s.enqueue(tasks));
        } else {
            self.inner.enqueue(tasks);
        }
    }
    fn unscheduled_len(&self) -> usize {
        self.inner.unscheduled_len()
    }
    fn plan(&mut self, view: &SystemView) -> PlanOutcome {
        self.plans += 1;
        if self.plans.is_multiple_of(self.every) {
            self.clocked(self.names.1, |s| s.plan(view))
        } else {
            self.inner.plan(view)
        }
    }
    fn next_task_for(&mut self, p: ProcessorId) -> Option<Task> {
        self.inner.next_task_for(p)
    }
    fn queued_len(&self, p: ProcessorId) -> usize {
        self.inner.queued_len(p)
    }
    fn queued_mflops(&self, p: ProcessorId) -> f64 {
        self.inner.queued_mflops(p)
    }
    fn observe_comm(&mut self, p: ProcessorId, seconds: f64) {
        self.inner.observe_comm(p, seconds);
    }
    fn observe_rate(&mut self, p: ProcessorId, mflops_per_sec: f64) {
        self.inner.observe_rate(p, mflops_per_sec);
    }
}

/// Runs replication `rep` to completion. With the tracer on, the run is a
/// `sim.run` span under the open [`RUN`] span and the scheduler is wrapped
/// in the timing adapter, whose spans become children of `sim.run`.
pub fn sim_run(inputs: &SimInputs, rep: usize, tracer: &mut Tracer) -> Result<SimOutcome, String> {
    let r = &inputs.reps[rep];
    let real = scheduler_for(inputs.scheduler, r.cluster.len(), r.scheduler_seed);
    let log = Rc::new(RefCell::new(Vec::new()));
    let scheduler: Box<dyn Scheduler> = if tracer.is_on() {
        Box::new(Spanned {
            inner: real,
            log: Rc::clone(&log),
            names: adapter_spans(inputs.scheduler),
            every: inputs.sample_every,
            enqueues: 0,
            plans: 0,
        })
    } else {
        real
    };
    tracer.enter("sim.run");
    let report = Simulation::new(
        r.cluster.clone(),
        r.tasks.clone(),
        scheduler,
        r.config.clone(),
    )
    .run();
    tracer.adopt(&log.borrow());
    tracer.exit();
    report
        .map(|r| SimOutcome::of(&r))
        .map_err(|e| e.to_string())
}

/// Replication `rep` through the library's one-call `run_simulation`: the
/// reference [`sim_run`] must match bit for bit.
pub fn sim_reference(inputs: &SimInputs, rep: usize) -> Result<SimOutcome, String> {
    let kind = inputs.scheduler;
    let factory = move |n: usize, seed: u64| scheduler_for(kind, n, seed);
    run_simulation(
        &inputs.cluster_spec,
        &inputs.workload,
        &factory,
        &SimConfig::default(),
        inputs.rep_seeds[rep],
    )
    .map(|r| SimOutcome::of(&r))
    .map_err(|e| e.to_string())
}

/// The first batch a fresh `PnScheduler` would plan in replication 0 —
/// `initial_batch` tasks against the rated, empty cluster — as the shape
/// for the unit probes; `None` for a scheduler without a GA.
pub fn sim_sample(inputs: &SimInputs) -> Option<BatchSample> {
    if inputs.scheduler != SimScheduler::Pn {
        return None;
    }
    let r = &inputs.reps[0];
    let pn = PnConfig::default();
    Some(BatchSample {
        batch: r.tasks.iter().take(pn.initial_batch).copied().collect(),
        procs: r
            .cluster
            .processors
            .iter()
            .zip(&r.cluster.links)
            .map(|(p, l)| ProcessorState {
                rate: p.rated_mflops,
                existing_load_mflops: 0.0,
                comm_cost: l.mean_cost,
            })
            .collect(),
        pn,
        dag: None,
        seed: r.scheduler_seed,
    })
}

// ---------------------------------------------------------- unit probes --

/// Time spent on a counted number of units of work.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Nanoseconds.
    pub ns: f64,
    /// Units (calls, genes, individuals, …).
    pub units: f64,
}

impl Cost {
    /// Nanoseconds per unit; 0 when the layer was bypassed.
    pub fn per_unit(&self) -> f64 {
        crate::stats::per(self.ns, self.units)
    }
}

/// Unit costs of the inner layers, measured by calling their public
/// functions on the workload's own batches.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    /// `initial_population`, per individual.
    pub initial_population: Cost,
    /// `Problem::evaluate_into` on `BatchProblem`, per gene.
    pub evaluate_into: Cost,
    /// `Chromosome::genes_swap` + `Problem::evaluate_swap_delta`, per call.
    pub swap_delta: Cost,
    /// `rebalance_once`, per call.
    pub rebalance: Cost,
    /// `rebalance_once` calls that committed a swap.
    pub rebalance_commits: f64,
    /// `slot_precedence`, per batch.
    pub slot_precedence: Cost,
    /// `GaEngine::start`, per call.
    pub ga_start: Cost,
    /// `GaRun::step`, per generation.
    pub ga_step: Cost,
    /// Generations of the first stepped run on each sample (exact).
    pub ga_generations: u64,
    /// `RouletteWheel::select`, per draw.
    pub select: Cost,
    /// `CycleCrossover::cross`, per gene of offspring.
    pub crossover: Cost,
    /// `SwapMutation::mutate`, per call.
    pub mutate: Cost,
    /// `repair_topological` on a mutated chromosome, per gene.
    pub repair: Cost,
    /// `BatchEval::eval_batch` in a serial context, per gene.
    pub eval_serial: Cost,
    /// `BatchEval::eval_batch` in a two-worker pool context, per gene.
    pub eval_pool: Cost,
    /// `Prng::next_u64`, per draw.
    pub prng: Cost,
}

/// Probes in [`probe_units`]; the caller splits its time budget by this.
pub const UNIT_PROBES: u32 = 14;

/// Repeats `op` (which returns the time it measured and the units it did)
/// until `slice` of measured time has accumulated, inside one span.
fn spin(
    tracer: &mut Tracer,
    name: &'static str,
    slice: Duration,
    cost: &mut Cost,
    mut op: impl FnMut() -> (Duration, f64),
) {
    tracer.enter(name);
    let mut spent = Duration::ZERO;
    while spent < slice {
        let (took, units) = op();
        spent += took;
        cost.units += units;
    }
    cost.ns += spent.as_nanos() as f64;
    tracer.exit();
}

/// [`spin`] for an `op` that is on the clock from start to end and does
/// `units` units of work each time.
fn spin_whole(
    tracer: &mut Tracer,
    name: &'static str,
    slice: Duration,
    cost: &mut Cost,
    units: f64,
    mut op: impl FnMut(),
) {
    spin(tracer, name, slice, cost, || (clocked(&mut op).1, units));
}

/// Measures every unit cost on `sample`, spending about `slice` on each,
/// and adds the results to `out`.
pub fn probe_units(
    sample: &BatchSample,
    slice: Duration,
    tracer: &mut Tracer,
    out: &mut UnitCosts,
) {
    let problem = sample.problem();
    let pn = &sample.pn;
    let pop_size = pn.ga.population_size;
    let genes = sample.genes() as f64;
    let mut rng = Prng::seed_from(sample.seed);

    let mut pop = Vec::new();
    spin(
        tracer,
        "core.initial_population",
        slice,
        &mut out.initial_population,
        || {
            let (p, took) = clocked(|| {
                initial_population(
                    &sample.batch,
                    &sample.procs,
                    pop_size,
                    pn.init_random_fraction,
                    &mut rng,
                )
            });
            pop = p;
            (took, pop_size as f64)
        },
    );
    for c in &mut pop {
        problem.repair(c);
    }

    let mut completions = Vec::new();
    let mut scored: Vec<(f64, Vec<f64>)> = Vec::new();
    spin_whole(
        tracer,
        "core.evaluate_into",
        slice,
        &mut out.evaluate_into,
        pop_size as f64 * genes,
        || {
            scored.clear();
            for c in &pop {
                let (fitness, _) = black_box(problem.evaluate_into(c, &mut completions));
                scored.push((fitness, completions.clone()));
            }
        },
    );
    let fitness: Vec<f64> = scored.iter().map(|s| s.0).collect();

    // Positions of task genes, so that no swap moves a delimiter (which the
    // delta path declines by contract).
    let task_positions: Vec<usize> = pop[0]
        .genes()
        .iter()
        .enumerate()
        .filter_map(|(i, g)| g.is_task().then_some(i))
        .collect();
    let pairs: Vec<(usize, usize)> = (0..1024)
        .map(|_| {
            (
                task_positions[rng.below(task_positions.len())],
                task_positions[rng.below(task_positions.len())],
            )
        })
        .collect();
    let mut c = pop[0].clone();
    let mut comps = scored[0].1.clone();
    spin_whole(
        tracer,
        "core.evaluate_swap_delta",
        slice,
        &mut out.swap_delta,
        pairs.len() as f64,
        || {
            for &(i, j) in &pairs {
                c.genes_swap(i, j);
                if black_box(problem.evaluate_swap_delta(&c, i, j, &mut comps)).is_none() {
                    c.genes_swap(i, j);
                }
            }
        },
    );

    let mut commits = 0.0;
    spin(
        tracer,
        "core.rebalance_once",
        slice,
        &mut out.rebalance,
        || {
            // One attempt per individual of the seeded population, as in one
            // generation of the engine; the copies are made off the clock.
            let mut work: Vec<(Chromosome, f64, Vec<f64>)> = pop
                .iter()
                .zip(&scored)
                .map(|(c, (f, comps))| (c.clone(), *f, comps.clone()))
                .collect();
            let ((), took) = clocked(|| {
                for (c, f, comps) in &mut work {
                    if rebalance_once(&problem, c, *f, comps, pn.rebalance_probes, &mut rng)
                        .is_some()
                    {
                        commits += 1.0;
                    }
                }
            });
            (took, pop_size as f64)
        },
    );
    out.rebalance_commits += commits;

    if let Some((graph, prec)) = &sample.dag {
        spin(
            tracer,
            "core.slot_precedence",
            slice,
            &mut out.slot_precedence,
            || {
                let (table, took) = clocked(|| slot_precedence(&sample.batch, graph));
                black_box(table);
                (took, 1.0)
            },
        );
        spin(tracer, "ga.repair", slice, &mut out.repair, || {
            let mut work: Vec<Chromosome> = pop.clone();
            for c in &mut work {
                for _ in 0..4 {
                    SwapMutation.mutate(c, &mut rng);
                }
            }
            let ((), took) = clocked(|| {
                for c in &mut work {
                    black_box(repair_topological(c, prec));
                }
            });
            (took, pop_size as f64 * genes)
        });
    }

    let engine = GaEngine::new(
        &RouletteWheel,
        &CycleCrossover,
        &SwapMutation,
        pn.ga.clone(),
    );
    let mut first_run = true;
    pn.ga.evaluator.with_context(&problem, |eval| {
        tracer.enter("ga.run");
        let mut spent = Duration::ZERO;
        while spent < slice * 2 {
            let (mut run, started) = clocked(|| engine.start(&problem, eval, &pop, None));
            let ((), stepped) = clocked(|| {
                while run.stopped().is_none() {
                    run.step(eval, &mut rng);
                }
            });
            out.ga_start.ns += started.as_nanos() as f64;
            out.ga_start.units += 1.0;
            out.ga_step.ns += stepped.as_nanos() as f64;
            out.ga_step.units += f64::from(run.generations());
            if first_run {
                out.ga_generations += u64::from(run.generations());
                first_run = false;
            }
            spent += started + stepped;
        }
        tracer.exit();
    });

    spin_whole(tracer, "ga.select", slice, &mut out.select, 1024.0, || {
        for _ in 0..1024 {
            black_box(RouletteWheel.select(&fitness, &mut rng));
        }
    });
    let offspring_genes = (pop_size / 2 * 2) as f64 * genes;
    spin_whole(
        tracer,
        "ga.crossover",
        slice,
        &mut out.crossover,
        offspring_genes,
        || {
            for pair in pop.chunks_exact(2) {
                black_box(CycleCrossover.cross(&pair[0], &pair[1], &mut rng));
            }
        },
    );
    let mut c = pop[0].clone();
    spin_whole(tracer, "ga.mutate", slice, &mut out.mutate, 1024.0, || {
        for _ in 0..1024 {
            SwapMutation.mutate(&mut c, &mut rng);
        }
    });

    let mut eval_batch = |evaluator: Evaluator, name: &'static str, cost: &mut Cost| {
        evaluator.with_context(&problem, |eval: &dyn BatchEval| {
            spin(tracer, name, slice, cost, || {
                let jobs: Vec<(usize, Chromosome)> = pop.iter().cloned().enumerate().collect();
                let (done, took) = clocked(|| eval.eval_batch(jobs));
                black_box(done);
                (took, pop_size as f64 * genes)
            });
        });
    };
    eval_batch(
        Evaluator::Serial,
        "ga.eval_batch_serial",
        &mut out.eval_serial,
    );
    eval_batch(
        Evaluator::threads(2),
        "ga.eval_batch_pool",
        &mut out.eval_pool,
    );

    spin_whole(
        tracer,
        "distributions.prng",
        slice,
        &mut out.prng,
        4096.0,
        || {
            for _ in 0..4096 {
                black_box(rng.next_u64());
            }
        },
    );
}
