//! Property tests for the baseline schedulers: conservation, FIFO
//! dispatch, and mode contracts under arbitrary task streams. The
//! conservation and accounting properties run every baseline, plus ZO.

use dts_core::{PnConfig, PnScheduler};
use dts_model::sched::{ProcessorView, SystemView};
use dts_model::{ProcessorId, Scheduler, SimTime, Task, TaskId};
use dts_schedulers::{
    EarliestFinish, KPercentBest, LightestLoaded, MaxMin, MinMin, Olb, RoundRobin, Sufferage,
};
use proptest::prelude::*;

fn view(rates: &[f64]) -> SystemView {
    SystemView {
        now: SimTime::ZERO,
        processors: rates
            .iter()
            .enumerate()
            .map(|(i, &rate)| ProcessorView {
                id: ProcessorId(i as u16),
                rate_estimate: rate,
                inflight_mflops: 0.0,
                comm_estimate: 1.0,
            })
            .collect(),
        seconds_until_first_idle: Some(120.0),
    }
}

fn make_tasks(sizes: &[f64]) -> Vec<Task> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| Task::new(TaskId(i as u32), s, SimTime::ZERO))
        .collect()
}

fn schedulers(m: usize) -> Vec<Box<dyn Scheduler>> {
    let mut zo = PnConfig {
        initial_batch: 16,
        max_batch: 16,
        ..PnConfig::zo_preset()
    };
    zo.ga.max_generations = 8;
    vec![
        Box::new(EarliestFinish::new(m)),
        Box::new(LightestLoaded::new(m)),
        Box::new(RoundRobin::new(m)),
        Box::new(MinMin::with_batch_size(m, 16)),
        Box::new(MaxMin::with_batch_size(m, 16)),
        Box::new(Olb::new(m)),
        Box::new(KPercentBest::new(m, 0.5)),
        Box::new(Sufferage::with_batch_size(m, 16)),
        Box::new(PnScheduler::new(m, zo)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every baseline maps each enqueued task to exactly one queue, and
    /// popping drains exactly the enqueued multiset.
    #[test]
    fn conservation_through_plan_and_pop(
        sizes in proptest::collection::vec(1.0..5000.0f64, 1..80),
        rates in proptest::collection::vec(5.0..200.0f64, 1..10),
    ) {
        let m = rates.len();
        let tasks = make_tasks(&sizes);
        let v = view(&rates);
        for mut sched in schedulers(m) {
            let name = sched.name();
            sched.enqueue(&tasks);
            while sched.unscheduled_len() > 0 {
                let before = sched.unscheduled_len();
                let out = sched.plan(&v);
                prop_assert!(out.tasks_assigned > 0, "{} made no progress", name);
                prop_assert_eq!(before - sched.unscheduled_len(), out.tasks_assigned);
            }
            let mut popped: Vec<u32> = Vec::new();
            for j in 0..m {
                let pid = ProcessorId(j as u16);
                let queued = sched.queued_len(pid);
                let mut got = 0;
                while let Some(t) = sched.next_task_for(pid) {
                    popped.push(t.id.0);
                    got += 1;
                }
                prop_assert_eq!(got, queued, "{}: queued_len lied", name);
                prop_assert_eq!(sched.queued_mflops(pid), 0.0);
            }
            popped.sort_unstable();
            let expect: Vec<u32> = (0..sizes.len() as u32).collect();
            prop_assert_eq!(popped, expect, "{} lost or duplicated tasks", name);
        }
    }

    /// Queued MFLOP accounting always equals the sum over queued tasks.
    #[test]
    fn mflop_accounting_consistent(
        sizes in proptest::collection::vec(1.0..1000.0f64, 1..40),
        rates in proptest::collection::vec(5.0..200.0f64, 1..6),
    ) {
        let m = rates.len();
        let tasks = make_tasks(&sizes);
        let v = view(&rates);
        for mut sched in schedulers(m) {
            sched.enqueue(&tasks);
            while sched.unscheduled_len() > 0 {
                sched.plan(&v);
            }
            let total: f64 = (0..m)
                .map(|j| sched.queued_mflops(ProcessorId(j as u16)))
                .sum();
            let expect: f64 = sizes.iter().sum();
            prop_assert!((total - expect).abs() < 1e-6 * expect.max(1.0),
                "{}: {total} vs {expect}", sched.name());
        }
    }

    /// Round robin ignores everything: queue lengths differ by at most one
    /// whatever the sizes and rates.
    #[test]
    fn round_robin_counts_balanced(
        sizes in proptest::collection::vec(1.0..5000.0f64, 1..60),
        rates in proptest::collection::vec(5.0..200.0f64, 1..8),
    ) {
        let m = rates.len();
        let mut rr = RoundRobin::new(m);
        rr.enqueue(&make_tasks(&sizes));
        rr.plan(&view(&rates));
        let lens: Vec<usize> = (0..m).map(|j| rr.queued_len(ProcessorId(j as u16))).collect();
        let min = lens.iter().min().unwrap();
        let max = lens.iter().max().unwrap();
        prop_assert!(max - min <= 1, "{lens:?}");
    }

    /// LL balances MFLOPs: after planning, no queue exceeds another by
    /// more than the largest single task.
    #[test]
    fn lightest_loaded_mflops_balanced(
        sizes in proptest::collection::vec(1.0..5000.0f64, 2..60),
        rates in proptest::collection::vec(5.0..200.0f64, 2..8),
    ) {
        let m = rates.len();
        let mut ll = LightestLoaded::new(m);
        ll.enqueue(&make_tasks(&sizes));
        ll.plan(&view(&rates));
        let loads: Vec<f64> = (0..m).map(|j| ll.queued_mflops(ProcessorId(j as u16))).collect();
        let min = loads.iter().copied().fold(f64::INFINITY, f64::min);
        let max = loads.iter().copied().fold(0.0f64, f64::max);
        let biggest = sizes.iter().copied().fold(0.0f64, f64::max);
        prop_assert!(max - min <= biggest + 1e-9, "{loads:?} vs biggest {biggest}");
    }

    /// MM dispatches each processor's queue in ascending size order; MX in
    /// descending order.
    #[test]
    fn minmax_sort_orders(
        sizes in proptest::collection::vec(1.0..5000.0f64, 2..32),
        rates in proptest::collection::vec(5.0..200.0f64, 1..6),
    ) {
        let m = rates.len();
        let v = view(&rates);
        let mut mm = MinMin::with_batch_size(m, sizes.len());
        mm.enqueue(&make_tasks(&sizes));
        mm.plan(&v);
        for j in 0..m {
            let pid = ProcessorId(j as u16);
            let mut prev = 0.0f64;
            while let Some(t) = mm.next_task_for(pid) {
                prop_assert!(t.mflops >= prev, "MM queue not ascending");
                prev = t.mflops;
            }
        }
        let mut mx = MaxMin::with_batch_size(m, sizes.len());
        mx.enqueue(&make_tasks(&sizes));
        mx.plan(&v);
        for j in 0..m {
            let pid = ProcessorId(j as u16);
            let mut prev = f64::INFINITY;
            while let Some(t) = mx.next_task_for(pid) {
                prop_assert!(t.mflops <= prev, "MX queue not descending");
                prev = t.mflops;
            }
        }
    }
}
