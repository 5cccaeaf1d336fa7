//! Heap allocations of one GA generation on a precedence-constrained
//! batch. Once its buffers have grown to size, `GaRun::step` must not
//! touch the heap: topological repair of every child and the DAG-aware
//! fitness walk both run out of reused per-thread scratch.
//!
//! A counting global allocator counts per thread, so the test harness's
//! other threads do not disturb the count. Debug builds check every
//! operator's output with `Chromosome::validate`, which allocates, so the
//! test runs in release builds only:
//!
//! ```text
//! cargo test --release -p dts-core --test dag_allocations
//! ```

// A `GlobalAlloc` impl is `unsafe` by definition; it only forwards to the
// system allocator.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dts_core::fitness::{BatchProblem, ProcessorState};
use dts_core::PnConfig;
use dts_distributions::{Prng, Rng};
use dts_ga::{
    Chromosome, CycleCrossover, GaConfig, GaEngine, RouletteWheel, SlotPrecedence, SwapMutation,
};
use dts_model::{SimTime, Task, TaskId};

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

/// Slots per layer of the test DAG.
const WIDTH: usize = 12;

/// A layered DAG over `h` slots: each slot takes every slot of the
/// previous layer as a predecessor with probability 0.3.
fn layered_dag(h: usize, rng: &mut Prng) -> SlotPrecedence {
    SlotPrecedence::new(
        (0..h)
            .map(|s| {
                let layer = s / WIDTH;
                (layer.saturating_sub(1) * WIDTH..layer * WIDTH)
                    .filter(|_| rng.chance(0.3))
                    .map(|p| p as u32)
                    .collect()
            })
            .collect(),
    )
}

/// Heap allocations made by `measured` `GaRun::step` calls that follow
/// `warm_up` steps, on a 120-task × 6-processor layered-DAG batch.
fn allocations_in_steps(memo_capacity: usize, warm_up: u32, measured: u32) -> u64 {
    let (h, m) = (120usize, 6usize);
    let mut rng = Prng::seed_from(0xDA6_A110C);
    let batch: Vec<Task> = (0..h)
        .map(|i| {
            Task::new(
                TaskId(i as u32),
                50.0 + 900.0 * rng.next_f64(),
                SimTime::ZERO,
            )
        })
        .collect();
    let procs: Vec<ProcessorState> = (0..m)
        .map(|_| ProcessorState {
            rate: 15.0 + 25.0 * rng.next_f64(),
            existing_load_mflops: 100.0 * rng.next_f64(),
            comm_cost: 0.1,
        })
        .collect();
    let prec = layered_dag(h, &mut rng);
    assert!(!prec.is_unconstrained());
    let problem = BatchProblem::new(&batch, &procs, &PnConfig::default()).with_precedence(&prec);

    let initial: Vec<Chromosome> = (0..20)
        .map(|_| {
            let mut queues = vec![Vec::new(); m];
            for t in 0..h as u32 {
                queues[rng.below(m)].push(t);
            }
            Chromosome::from_queues(&queues)
        })
        .collect();
    let config = GaConfig {
        max_generations: warm_up + measured,
        memo_capacity,
        ..GaConfig::default()
    };
    let engine = GaEngine::new(&RouletteWheel, &CycleCrossover, &SwapMutation, config);
    engine.config().evaluator.with_context(&problem, |eval| {
        let mut run = engine.start(&problem, eval, &initial, None);
        for _ in 0..warm_up {
            run.step(eval, &mut rng);
        }
        let before = allocations();
        for _ in 0..measured {
            run.step(eval, &mut rng);
        }
        let made = allocations() - before;
        assert_eq!(run.generations(), warm_up + measured);
        made
    })
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug-build invariant checks allocate; run with --release"
)]
fn dag_generation_allocates_nothing_after_warm_up() {
    for memo_capacity in [0, 4096] {
        let made = allocations_in_steps(memo_capacity, 20, 100);
        assert_eq!(
            made, 0,
            "memo capacity {memo_capacity}: {made} heap allocations in 100 DAG generations"
        );
    }
}
