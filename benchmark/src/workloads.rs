//! The workload catalogue: names, reasons and sizes, as plain numbers.
//!
//! Every workload uses the library's default knobs (`PnConfig::default()`:
//! population 20, memo on, fresh seeding, one island, serial evaluator)
//! except where a field below says otherwise, because that is what a user
//! gets. Fleets are fixed, evenly spaced rates — they are part of the
//! workload's definition, not of its seed — so schedule quality is
//! comparable from seed to seed; tasks, arrival times, graphs and every
//! RNG stream come from `--seed`.

/// Task sizes of every workload: Normal(1000, 9e5) MFLOPs, as in §4.2.
pub const SIZE_MEAN: f64 = 1000.0;
/// Variance (σ²) of the task sizes.
pub const SIZE_VARIANCE: f64 = 9.0e5;

/// A trace served by `dts-server`.
#[derive(Debug, Clone)]
pub struct ServeParams {
    /// Tasks in the arrival trace; one pass over the trace is one round.
    pub tasks: usize,
    /// Mean Poisson inter-arrival gap, seconds (recorded in the trace; the
    /// client submits closed-loop, as fast as the service admits).
    pub mean_gap_s: f64,
    /// `Some(width)`: a random layered DAG with `tasks / width` layers.
    pub dag_layer_width: Option<usize>,
    /// Probability of each edge between consecutive layers.
    pub edge_probability: f64,
    /// Worker processors, rates evenly spaced over `rates`.
    pub procs: usize,
    /// Slowest and fastest processor rate, Mflop/s.
    pub rates: (f64, f64),
    /// Communication cost estimate per processor, seconds.
    pub comm_cost: f64,
    /// Tenants, assigned round-robin by task id.
    pub tenants: usize,
    /// Tasks per plan call.
    pub batch_size: usize,
    /// GA generations per plan call (`PlanBudget::Unlimited` runs them all).
    pub max_generations: u32,
    /// Every `sample_every`-th batch is replayed through the inner layers
    /// in the traced pass.
    pub sample_every: u64,
}

/// Direct `plan_batch` calls on one batch.
#[derive(Debug, Clone)]
pub struct PlanParams {
    /// Tasks in the batch.
    pub tasks: usize,
    /// `Some(width)`: precedence constraints from a random layered DAG.
    pub dag_layer_width: Option<usize>,
    /// Probability of each edge between consecutive layers.
    pub edge_probability: f64,
    /// Processors, rates evenly spaced over `rates`.
    pub procs: usize,
    /// Slowest and fastest processor rate, Mflop/s.
    pub rates: (f64, f64),
    /// Communication cost estimate per processor, seconds.
    pub comm_cost: f64,
    /// GA population.
    pub population: usize,
    /// GA generations per call.
    pub max_generations: u32,
    /// Fitness-evaluation threads (1 = the serial evaluator).
    pub eval_workers: usize,
    /// Distinct call seeds; one pass over them is one round.
    pub calls_per_round: usize,
}

/// Which scheduler a simulated workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimScheduler {
    /// `PnScheduler`, default configuration.
    Pn,
    /// The `EarliestFinish` immediate-mode heuristic.
    EarliestFinish,
}

/// Replications of a full discrete-event simulation.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// The scheduler under simulation.
    pub scheduler: SimScheduler,
    /// Tasks per replication.
    pub tasks: usize,
    /// Mean Poisson inter-arrival gap, seconds.
    pub mean_gap_s: f64,
    /// Worker processors, rated U[`ratings`) per replication.
    pub procs: usize,
    /// Bounds of the uniform rating distribution, Mflop/s.
    pub ratings: (f64, f64),
    /// Global mean one-way message cost, seconds.
    pub comm_mean_s: f64,
    /// Distinct replication seeds; one pass over them is one round.
    pub reps_per_round: usize,
    /// The scheduler adapter of the traced pass times one call in this
    /// many (1 = every call); cheap immediate-mode calls are sampled so
    /// that the clock reads stay a small share of the run.
    pub adapter_sample_every: u32,
}

/// The three ways a workload enters the system.
#[derive(Debug, Clone)]
pub enum Family {
    /// Through the server.
    Serve(ServeParams),
    /// Straight into the planner.
    Plan(PlanParams),
    /// Through the simulator.
    Sim(SimParams),
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists, in one sentence.
    pub why: &'static str,
    /// What runs.
    pub family: Family,
}

/// Every workload, in `BENCHMARK.json` order.
pub fn catalogue() -> Vec<Workload> {
    let serve = ServeParams {
        tasks: 2400,
        mean_gap_s: 1.0,
        dag_layer_width: None,
        edge_probability: 0.0,
        procs: 10,
        rates: (75.0, 150.0),
        comm_cost: 0.1,
        tenants: 4,
        batch_size: 30,
        max_generations: 1000,
        sample_every: 20,
    };
    let plan = PlanParams {
        tasks: 1000,
        dag_layer_width: None,
        edge_probability: 0.0,
        procs: 50,
        rates: (15.0, 40.0),
        comm_cost: 0.1,
        population: 100,
        max_generations: 60,
        eval_workers: 1,
        calls_per_round: 20,
    };
    let sim = SimParams {
        scheduler: SimScheduler::Pn,
        tasks: 500,
        mean_gap_s: 2.0,
        procs: 50,
        ratings: (15.0, 40.0),
        comm_mean_s: 0.5,
        reps_per_round: 16,
        adapter_sample_every: 1,
    };
    vec![
        Workload {
            name: "serve_stream",
            why: "Online path at the micro-GA shape: 30-task batches, converged population, so per-generation overhead (breeding, RNG, memo probe) dominates and the fitness kernel does little.",
            family: Family::Serve(serve.clone()),
        },
        Workload {
            name: "serve_dag",
            why: "Same service and GA, dependency-gated: dependants are held back, so batches are partial and admission, eligibility scans and drain do more; a serve_stream gain that costs this path shows here.",
            family: Family::Serve(ServeParams {
                tasks: 1500,
                dag_layer_width: Some(15),
                edge_probability: 0.1,
                ..serve
            }),
        },
        Workload {
            name: "plan_large",
            why: "Large chromosomes and a diverse population (memo hit rate near 0): crossover, rebalance and the full fitness walk do the work; server and simulator are bypassed.",
            family: Family::Plan(plan.clone()),
        },
        Workload {
            name: "plan_large_par",
            why: "plan_large with two evaluation threads: the only workload with the ThreadPool evaluator on the path; its makespan must equal plan_large bit for bit.",
            family: Family::Plan(PlanParams {
                eval_workers: 2,
                ..plan.clone()
            }),
        },
        Workload {
            name: "plan_dag",
            why: "Precedence-constrained planning: topological repair after every operator and DAG-aware fitness with the swap-delta path declined; the only workload on which repair and slot_precedence run.",
            family: Family::Plan(PlanParams {
                tasks: 1000,
                dag_layer_width: Some(20),
                edge_probability: 0.1,
                procs: 10,
                rates: (75.0, 150.0),
                population: 20,
                max_generations: 60,
                calls_per_round: 20,
                ..plan
            }),
        },
        Workload {
            name: "sim_pn_stream",
            why: "The paper's own loop: arrivals, enqueue, idle-horizon-budgeted PnScheduler::plan with dynamic batches, pull dispatch; reports the paper's makespan and efficiency.",
            family: Family::Sim(sim.clone()),
        },
        Workload {
            name: "sim_events",
            why: "EarliestFinish on a long stream: the GA does nothing and the discrete-event engine does everything, so GA and fitness changes should not move it and event-loop changes can only show here.",
            family: Family::Sim(SimParams {
                scheduler: SimScheduler::EarliestFinish,
                tasks: 50_000,
                mean_gap_s: 0.3,
                comm_mean_s: 1.0,
                reps_per_round: 16,
                adapter_sample_every: 16,
                ..sim
            }),
        },
    ]
}
