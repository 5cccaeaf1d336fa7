//! The channel-based service front-end.
//!
//! [`spawn`] moves a [`DtsServer`] onto its own thread and returns a
//! cloneable [`ServiceHandle`]; any number of submitter threads talk to
//! the server over an mpsc channel, each request carrying its own reply
//! channel. The service thread is the *only* place wall-clock time
//! enters the system: it stamps every admitted submission with
//! [`Instant::now`] and reports the **decision latency** — admission to
//! placement emission — on each [`TimedPlacement`]. The deterministic
//! core below it never reads a clock.
//!
//! Planning is event-driven: after every admitted submission the thread
//! plans as long as a full batch is pending, so placements flow out with
//! bounded delay instead of waiting for an explicit flush. [`ServiceHandle::drain`]
//! force-plans the final partial batch (end of stream), and
//! [`ServiceHandle::shutdown`] drains and stops the thread.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dts_model::TaskId;

use crate::server::{DtsServer, PlacementEvent, ServerConfig, ServerStats, SubmitError, TenantId};

/// A placement plus the wall-clock decision latency of the task it
/// places: admission ([`ServiceHandle::submit`] accepted) → emission
/// (the plan call that placed it returned).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedPlacement {
    /// The placement itself.
    pub event: PlacementEvent,
    /// Admission-to-placement wall-clock latency.
    pub decision_latency: Duration,
}

enum Request {
    Submit {
        tenant: TenantId,
        mflops: f64,
        arrival_s: f64,
        deps: Vec<TaskId>,
        reply: Sender<Result<TaskId, SubmitError>>,
    },
    /// Take the placements emitted since the last take.
    Poll {
        reply: Sender<Vec<TimedPlacement>>,
    },
    /// Plan every pending submission (final partial batch included),
    /// then take.
    Drain {
        reply: Sender<Vec<TimedPlacement>>,
    },
    Stats {
        reply: Sender<ServerStats>,
    },
    /// Drain, reply with the remaining placements, and stop the thread.
    Shutdown {
        reply: Sender<Vec<TimedPlacement>>,
    },
}

/// Client handle to a spawned scheduler service. Cloneable: every clone
/// talks to the same server thread.
///
/// All methods block until the service thread replies. The submission
/// path is fully diagnosable: a dead service thread (e.g. another clone
/// already called [`ServiceHandle::shutdown`]) surfaces as
/// [`SubmitError::ServiceUnavailable`], never a panic. The control-plane
/// calls ([`ServiceHandle::poll`] / [`ServiceHandle::drain`] /
/// [`ServiceHandle::stats`]) still panic in that state — losing the
/// thread mid-operation is a bug, not an operational condition, and
/// there is no placement to hand back.
#[derive(Clone)]
pub struct ServiceHandle {
    tx: Sender<Request>,
}

impl ServiceHandle {
    /// Sends a request and awaits the reply; `Err` means the service
    /// thread is gone (channel closed on either side).
    fn try_call<T>(&self, req: Request, rx: Receiver<T>) -> Result<T, SubmitError> {
        self.tx
            .send(req)
            .map_err(|_| SubmitError::ServiceUnavailable)?;
        rx.recv().map_err(|_| SubmitError::ServiceUnavailable)
    }

    fn call<T>(&self, req: Request, rx: Receiver<T>) -> T {
        self.try_call(req, rx)
            // dts-lint: allow(hot-unwrap, "control-plane calls only (poll/drain/stats/shutdown): the thread exits solely via shutdown, so a dead thread here is a programming bug with a documented panic contract; submissions take the diagnosable try_call path")
            .expect("scheduler service thread is gone")
    }

    /// Submits one task; see [`DtsServer::submit`] for the admission
    /// rules. `Ok` means admitted (the placement arrives later via
    /// [`ServiceHandle::poll`]/[`ServiceHandle::drain`]); `Err` is the
    /// diagnosable rejection, with [`SubmitError::QueueFull`] the
    /// backpressure signal to back off on.
    pub fn submit(
        &self,
        tenant: TenantId,
        mflops: f64,
        arrival_s: f64,
    ) -> Result<TaskId, SubmitError> {
        self.submit_with_deps(tenant, mflops, arrival_s, &[])
    }

    /// Submits one task that depends on previously admitted tasks; see
    /// [`DtsServer::submit_with_deps`] for the admission and batching
    /// rules. The placement of a dependent task is only emitted by a
    /// plan call strictly after the one that placed its predecessors.
    /// Returns [`SubmitError::ServiceUnavailable`] when the service
    /// thread is gone instead of panicking.
    pub fn submit_with_deps(
        &self,
        tenant: TenantId,
        mflops: f64,
        arrival_s: f64,
        deps: &[TaskId],
    ) -> Result<TaskId, SubmitError> {
        let (reply, rx) = channel();
        self.try_call(
            Request::Submit {
                tenant,
                mflops,
                arrival_s,
                deps: deps.to_vec(),
                reply,
            },
            rx,
        )?
    }

    /// Takes the placements emitted since the last take (does not force
    /// a partial batch to plan).
    pub fn poll(&self) -> Vec<TimedPlacement> {
        let (reply, rx) = channel();
        self.call(Request::Poll { reply }, rx)
    }

    /// Plans everything still pending and takes all untaken placements.
    pub fn drain(&self) -> Vec<TimedPlacement> {
        let (reply, rx) = channel();
        self.call(Request::Drain { reply }, rx)
    }

    /// Lifetime counters snapshot.
    pub fn stats(&self) -> ServerStats {
        let (reply, rx) = channel();
        self.call(Request::Stats { reply }, rx)
    }

    /// Drains, stops the service thread, and returns the final untaken
    /// placements. Other clones of the handle become dead after this.
    pub fn shutdown(self) -> Vec<TimedPlacement> {
        let (reply, rx) = channel();
        self.call(Request::Shutdown { reply }, rx)
    }
}

/// Spawns the scheduler service on its own thread.
///
/// Join the returned handle after [`ServiceHandle::shutdown`] to be sure
/// the thread is gone.
pub fn spawn(config: ServerConfig) -> (ServiceHandle, JoinHandle<()>) {
    let (tx, rx) = channel::<Request>();
    let join = std::thread::Builder::new()
        .name("dts-server".into())
        .spawn(move || service_loop(DtsServer::new(config), rx))
        // dts-lint: allow(hot-unwrap, "one-time thread spawn at service startup; OS thread exhaustion at boot has no caller to report to — not a request path")
        .expect("spawn scheduler service thread");
    (ServiceHandle { tx }, join)
}

/// Admission timestamps of tasks not yet placed, indexed by the dense
/// server-assigned task id: entry `k` belongs to task `base + k`. A stamp
/// is taken when its task is placed, and taken entries leave from the
/// front, so the window spans the oldest unplaced task to the newest
/// admitted one — not every task the service ever admitted. No hash
/// table, nothing iterated.
#[derive(Debug, Default)]
struct AdmissionWindow {
    base: u32,
    stamps: VecDeque<Option<Instant>>,
}

impl AdmissionWindow {
    /// Records task `id`'s admission time. Ids arrive in increasing order.
    fn admit(&mut self, id: TaskId, at: Instant) {
        if self.stamps.is_empty() {
            self.base = id.0;
        }
        let slot = (id.0 - self.base) as usize;
        if self.stamps.len() <= slot {
            self.stamps.resize(slot + 1, None);
        }
        self.stamps[slot] = Some(at);
    }

    /// Takes task `id`'s admission time, if it is still held.
    fn take(&mut self, id: TaskId) -> Option<Instant> {
        let slot = id.0.checked_sub(self.base)? as usize;
        let at = self.stamps.get_mut(slot)?.take();
        while let Some(None) = self.stamps.front() {
            self.stamps.pop_front();
            self.base += 1;
        }
        at
    }
}

fn service_loop(mut server: DtsServer, rx: Receiver<Request>) {
    // Admission timestamps of tasks not yet placed, and placements not yet
    // taken by a Poll/Drain.
    let mut admitted_at = AdmissionWindow::default();
    let mut outbox: Vec<TimedPlacement> = Vec::new();

    let stamp = |events: Vec<PlacementEvent>,
                 admitted_at: &mut AdmissionWindow,
                 outbox: &mut Vec<TimedPlacement>| {
        // dts-lint: allow(wall-clock, "the service layer is the single documented wall-clock boundary: decision-latency stamping only; the deterministic core below never reads a clock")
        let now = Instant::now();
        for event in events {
            let decision_latency = admitted_at
                .take(event.task.id)
                .map(|t0| now.duration_since(t0))
                .unwrap_or_default();
            outbox.push(TimedPlacement {
                event,
                decision_latency,
            });
        }
    };

    while let Ok(req) = rx.recv() {
        match req {
            Request::Submit {
                tenant,
                mflops,
                arrival_s,
                deps,
                reply,
            } => {
                let result = server.submit_with_deps(tenant, mflops, arrival_s, &deps);
                if let Ok(id) = result {
                    // dts-lint: allow(wall-clock, "admission timestamp for decision-latency reporting; never feeds the planning core")
                    admitted_at.admit(id, Instant::now());
                }
                // The submitter learns the admission verdict immediately;
                // planning happens after the reply so admission latency
                // stays flat under load.
                let _ = reply.send(result);
                while server.ready_to_plan() {
                    let events = server.plan();
                    stamp(events, &mut admitted_at, &mut outbox);
                }
            }
            Request::Poll { reply } => {
                let _ = reply.send(std::mem::take(&mut outbox));
            }
            Request::Drain { reply } => {
                let events = server.drain();
                stamp(events, &mut admitted_at, &mut outbox);
                let _ = reply.send(std::mem::take(&mut outbox));
            }
            Request::Stats { reply } => {
                let _ = reply.send(server.stats());
            }
            Request::Shutdown { reply } => {
                let events = server.drain();
                stamp(events, &mut admitted_at, &mut outbox);
                let _ = reply.send(std::mem::take(&mut outbox));
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ProcessorProfile;
    use dts_core::PnConfig;

    fn quick_config() -> ServerConfig {
        let mut pn = PnConfig::default();
        pn.ga.max_generations = 20;
        ServerConfig {
            procs: vec![
                ProcessorProfile {
                    rate: 100.0,
                    comm_cost: 0.1,
                };
                3
            ],
            pn,
            tenants: 2,
            tenant_capacity: 100,
            batch_size: 5,
            budget: crate::PlanBudget::Unlimited,
        }
    }

    /// The admission window holds no stamp of a placed task for long:
    /// after every submit/plan round it is no longer than the number of
    /// tasks admitted but not yet placed, and every placement finds its
    /// stamp.
    #[test]
    fn admission_window_shrinks_as_tasks_are_placed() {
        let mut server = DtsServer::new(quick_config());
        let mut window = AdmissionWindow::default();
        let now = Instant::now();
        let mut next = 0u32;
        for round in 0..200u32 {
            for _ in 0..round % 7 {
                let id = server
                    .submit(TenantId((next % 2) as u16), 100.0, next as f64)
                    .unwrap();
                window.admit(id, now);
                next += 1;
            }
            let events = if round % 10 == 9 {
                server.drain()
            } else if server.ready_to_plan() {
                server.plan()
            } else {
                Vec::new()
            };
            for event in events {
                assert!(window.take(event.task.id).is_some(), "stamp lost");
            }
            assert!(
                window.stamps.len() <= server.pending_len(),
                "round {round}: {} stamps for {} unplaced tasks",
                window.stamps.len(),
                server.pending_len()
            );
        }
        assert!(next > 500);
    }

    #[test]
    fn submissions_flow_to_placements() {
        let (handle, join) = spawn(quick_config());
        for i in 0..12u32 {
            let id = handle
                .submit(TenantId((i % 2) as u16), 100.0 + i as f64, i as f64)
                .unwrap();
            assert_eq!(id, TaskId(i));
        }
        // 12 submissions at batch 5 → two full batches already planned.
        let eager = handle.poll();
        assert_eq!(eager.len(), 10, "full batches plan eagerly");
        let rest = handle.drain();
        assert_eq!(rest.len(), 2, "drain plans the final partial batch");
        let stats = handle.stats();
        assert_eq!(stats.placed, 12);
        assert_eq!(stats.batches, 3);

        let mut ids: Vec<u32> = eager
            .iter()
            .chain(&rest)
            .map(|p| p.event.task.id.0)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
        let last = handle.shutdown();
        assert!(last.is_empty());
        join.join().unwrap();
    }

    #[test]
    fn rejections_propagate_through_the_channel() {
        let (handle, join) = spawn(quick_config());
        assert!(matches!(
            handle.submit(TenantId(7), 100.0, 0.0),
            Err(SubmitError::UnknownTenant { .. })
        ));
        assert!(matches!(
            handle.submit(TenantId(0), f64::NAN, 0.0),
            Err(SubmitError::InvalidTask { .. })
        ));
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn concurrent_submitters_lose_nothing() {
        let (handle, join) = spawn(quick_config());
        let mut submitters = Vec::new();
        for t in 0..2u16 {
            let h = handle.clone();
            submitters.push(std::thread::spawn(move || {
                let mut admitted = 0u64;
                for i in 0..20 {
                    if h.submit(TenantId(t), 50.0 + i as f64, i as f64).is_ok() {
                        admitted += 1;
                    }
                }
                admitted
            }));
        }
        let admitted: u64 = submitters.into_iter().map(|s| s.join().unwrap()).sum();
        assert_eq!(admitted, 40, "capacity 100 per tenant: nothing shed");
        let placements = handle.drain();
        assert_eq!(placements.len(), 40);
        // Latencies were measured (monotonic clocks can't go negative;
        // just check the field is populated sanely: under a minute).
        assert!(placements
            .iter()
            .all(|p| p.decision_latency < Duration::from_secs(60)));
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn dependent_submission_is_placed_in_a_later_batch() {
        let (handle, join) = spawn(quick_config()); // batch size 5
        for i in 0..4u32 {
            handle
                .submit(TenantId(0), 100.0 + i as f64, i as f64)
                .unwrap();
        }
        // The fifth submission depends on task 0 and completes a full
        // batch: the eager plan places the four independents, the
        // dependent waits for a strictly later batch.
        let dep = handle
            .submit_with_deps(TenantId(1), 500.0, 4.0, &[TaskId(0)])
            .unwrap();
        assert_eq!(dep, TaskId(4));
        // Rejections propagate through the channel for deps too.
        assert!(matches!(
            handle.submit_with_deps(TenantId(0), 100.0, 5.0, &[TaskId(99)]),
            Err(SubmitError::InvalidDependency { .. })
        ));
        let placements = handle.drain();
        assert_eq!(placements.len(), 5);
        let batch_of = |id: u32| {
            placements
                .iter()
                .find(|p| p.event.task.id.0 == id)
                .unwrap()
                .event
                .batch
        };
        assert!(batch_of(4) > batch_of(0), "dependent placed strictly later");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn submissions_after_shutdown_are_diagnosable() {
        let (handle, join) = spawn(quick_config());
        let clone = handle.clone();
        handle.submit(TenantId(0), 100.0, 0.0).unwrap();
        handle.shutdown();
        join.join().unwrap();
        // The surviving clone's submissions report ServiceUnavailable
        // instead of panicking: a dead thread is diagnosable on the
        // submit path.
        assert!(matches!(
            clone.submit(TenantId(0), 100.0, 1.0),
            Err(SubmitError::ServiceUnavailable)
        ));
    }

    #[test]
    fn shutdown_drains_pending_work() {
        let (handle, join) = spawn(quick_config());
        for i in 0..3 {
            handle.submit(TenantId(0), 100.0, i as f64).unwrap();
        }
        // Fewer than batch_size submissions: nothing planned yet.
        let final_placements = handle.shutdown();
        assert_eq!(final_placements.len(), 3);
        join.join().unwrap();
    }
}
