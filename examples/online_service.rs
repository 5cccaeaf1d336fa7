//! The online scheduling service: submit a stream of tasks to a
//! long-running `dts-server` thread and watch placements flow out.
//!
//! Demonstrates the full service lifecycle — spawn, admission with
//! per-tenant backpressure, eager batched planning with one GA run per
//! batch, placement polling with measured decision latency, and a
//! draining shutdown. The placement sequence is deterministic (a pure
//! function of the submissions and the PN seed); only the printed
//! latencies are wall-clock.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example online_service
//! ```

use dts::core::PnConfig;
use dts::server::{spawn, PlanBudget, ProcessorProfile, ServerConfig, SubmitError, TenantId};

fn main() {
    // Four workers with different speeds, two tenants, plan every 6
    // pending submissions.
    let mut pn = PnConfig::default();
    pn.ga.max_generations = 150;
    let config = ServerConfig {
        procs: [90.0, 130.0, 70.0, 110.0]
            .iter()
            .map(|&rate| ProcessorProfile {
                rate,
                comm_cost: 0.1,
            })
            .collect(),
        pn,
        tenants: 2,
        tenant_capacity: 8,
        batch_size: 6,
        budget: PlanBudget::Unlimited,
    };
    let (handle, join) = spawn(config);

    // A burst of 20 submissions, alternating tenants. Every time six are
    // pending the service plans a batch, so placements stream out while
    // we are still submitting.
    println!("submitting 20 tasks (batch size 6, 2 tenants):");
    for i in 0..20u32 {
        let tenant = TenantId((i % 2) as u16);
        let mflops = 400.0 + 130.0 * (i % 7) as f64;
        match handle.submit(tenant, mflops, i as f64 * 0.25) {
            Ok(id) => println!(
                "  admitted task {:>2} ({mflops:>6.0} MFLOPs) from {tenant}",
                id.0
            ),
            Err(SubmitError::QueueFull { tenant, capacity }) => {
                // The backpressure signal: a real client would back off
                // and retry; this burst just drops the submission.
                println!("  SHED by {tenant} (capacity {capacity}) — backpressure");
            }
            Err(e) => println!("  rejected: {e}"),
        }
    }

    // Take what the eager batches already placed, then force the final
    // partial batch out.
    let mut placements = handle.poll();
    println!("\n{} placements from full batches:", placements.len());
    placements.extend(handle.drain());
    println!(
        "{} after draining the final partial batch:\n",
        placements.len()
    );

    println!(
        "{:>6} {:>8} {:>6} {:>6} {:>12}",
        "task", "tenant", "proc", "batch", "latency_us"
    );
    for p in &placements {
        println!(
            "{:>6} {:>8} {:>6} {:>6} {:>12.1}",
            p.event.task.id.0,
            p.event.tenant.0,
            p.event.proc.0,
            p.event.batch,
            p.decision_latency.as_secs_f64() * 1e6,
        );
    }

    let stats = handle.stats();
    println!(
        "\nstats: {} admitted, {} shed, {} placed in {} batches \
         ({} GA generations, peak pending {})",
        stats.submitted,
        stats.shed,
        stats.placed,
        stats.batches,
        stats.generations,
        stats.max_pending
    );

    let leftovers = handle.shutdown();
    assert!(leftovers.is_empty(), "drain already took everything");
    join.join().expect("service thread exits cleanly");
    println!("service shut down cleanly");
}
