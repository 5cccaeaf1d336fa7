//! Heap allocations of one whole simulation. The event loop keeps only
//! in-flight events in its heap, streams arrivals from the task table,
//! hands the scheduler a view it keeps current in place (built once, one
//! entry rewritten per worker change) and enqueues borrowed slices, so a
//! run's allocation count must not grow with the number of tasks: what
//! remains is setup, report assembly and the amortised growth of a few
//! buffers.
//!
//! A counting global allocator counts per thread, so the test harness's
//! other threads do not disturb the count. The engine's one debug check,
//! the view oracle at every plan call, compares entries in place and
//! allocates nothing unless it fails, so the counts are the same in debug
//! and release builds.

// A `GlobalAlloc` impl is `unsafe` by definition; it only forwards to the
// system allocator.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dts_model::link::CommCostSpec;
use dts_model::{ArrivalProcess, AvailabilityModel, ClusterSpec, SizeDistribution, WorkloadSpec};
use dts_schedulers::EarliestFinish;
use dts_sim::{SimConfig, Simulation};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Heap allocations made by building and running one `EarliestFinish`
/// simulation of `tasks` Poisson arrivals (mean gap 0.3 s) on 50
/// processors rated U[15, 40) Mflop/s with 1 s mean message costs.
fn allocations_in_run(tasks: usize) -> u64 {
    let procs = 50;
    let cluster = ClusterSpec {
        processors: procs,
        rating: SizeDistribution::Uniform { lo: 15.0, hi: 40.0 },
        availability: AvailabilityModel::Dedicated,
        comm: CommCostSpec::with_mean(1.0),
    }
    .build(0xE7E);
    let workload = WorkloadSpec {
        count: tasks,
        sizes: SizeDistribution::Uniform {
            lo: 10.0,
            hi: 1000.0,
        },
        arrival: ArrivalProcess::PoissonStream {
            mean_interarrival: 0.3,
        },
    }
    .generate(0xA11);
    let before = allocations();
    let report = Simulation::new(
        cluster,
        workload,
        Box::new(EarliestFinish::new(procs)),
        SimConfig::default(),
    )
    .run()
    .expect("simulation completes");
    let made = allocations() - before;
    assert_eq!(report.tasks_completed, tasks as u64);
    made
}

#[test]
fn event_loop_allocations_do_not_grow_with_tasks() {
    let small = allocations_in_run(10_000);
    let large = allocations_in_run(50_000);
    assert!(
        large < 1_000,
        "{large} heap allocations in a 50 000-task run"
    );
    assert!(
        large <= small + 300,
        "allocations grow with the task count: {small} for 10 000 tasks, {large} for 50 000"
    );
}
