//! Hot-loop gates: the event queue and the engine loop stay allocation-free
//! in steady state and keep a sanity floor on throughput.
//!
//! One counting allocator wraps `System` for the whole test binary, and the
//! counter is process-wide, so every gate lives in the single `#[test]`
//! below and the cells run one at a time. The throughput floors catch a
//! catastrophic regression (orders of magnitude, not noise) and are only
//! asserted in optimized builds; the allocation gates hold in every
//! profile.
//!
//! ```text
//! cargo test --release -p nssd-bench --test hot_loop -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nssd_bench::{queuebench, setup};
use nssd_core::{prepare, Aging, Architecture, Drive};
use nssd_workloads::PaperWorkload;

/// `System`, plus a count of allocations and reallocations.
struct CountingAlloc;

/// A statistic only: it publishes no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Requests per engine cell.
const REQUESTS: usize = 300;
/// Operations per queue microbench front.
const QUEUE_OPS: usize = 200_000;

#[test]
fn hot_loop_stays_allocation_free_and_fast() {
    let optimized = !cfg!(debug_assertions);
    let mut failed = Vec::new();

    let queue = queuebench::run(QUEUE_OPS, &alloc_count);
    eprintln!("queue: {queue:?}");
    if queue.steady_state_allocs_per_op >= 0.01 {
        failed.push(format!(
            "queue steady state: {} allocs/op",
            queue.steady_state_allocs_per_op
        ));
    }
    if optimized && queue.dense_mops <= 1.0 {
        failed.push(format!("queue dense churn: {:.2} Mops", queue.dense_mops));
    }

    // Three architectures × a read-heavy and a mixed workload. Setup
    // (trace generation, construction, preconditioning) happens before the
    // counter snapshot, so allocations per event count the event loop plus
    // the final report assembly.
    for arch in [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsdSplit,
    ] {
        for workload in [PaperWorkload::YcsbA, PaperWorkload::WebSearch0] {
            let cfg = setup::io_config(arch);
            let trace =
                workload.generate(REQUESTS, setup::io_footprint(&cfg), setup::EXPERIMENT_SEED);
            let drive = Drive::OpenLoop(trace.into_records());
            let sim = prepare(cfg, &drive, Aging::Footprint).expect("cell prepares");
            let before = alloc_count();
            let report = sim.run(drive);
            let allocs = alloc_count() - before;
            let events = report.engine.scheduled_events.max(1);
            let allocs_per_event = allocs as f64 / events as f64;
            let eps = report.engine.events_per_sec();
            let cell = format!("{} x {}", arch.label(), workload.name());
            eprintln!("{cell}: {eps:.0} events/s, {allocs_per_event:.3} allocs/event");
            if allocs_per_event >= 0.25 {
                failed.push(format!("{cell}: {allocs_per_event:.3} allocs/event"));
            }
            if optimized && eps <= 200_000.0 {
                failed.push(format!("{cell}: {eps:.0} events/s"));
            }
        }
    }
    assert!(
        failed.is_empty(),
        "hot-loop gates failed:\n  {}",
        failed.join("\n  ")
    );
}
