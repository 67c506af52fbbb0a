//! End-to-end benches exercising each figure family at reduced scale: one
//! bench per experiment group, so `cargo bench` regenerates a miniature of
//! every table/figure and tracks the simulator's wall-clock.
//!
//! Self-contained `std::time::Instant` harness (the workspace builds
//! offline, so no criterion).

use nssd_bench::setup::closed_loop;
use nssd_core::{run_trace, Aging, Architecture, SsdConfig};
use nssd_ftl::GcPolicy;
use nssd_workloads::{PaperWorkload, SyntheticPattern, SyntheticSpec};
use std::time::Instant;

fn bench(name: &str, iters: u32, mut f: impl FnMut() -> u64) {
    let mut sink = std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        sink = sink.wrapping_add(std::hint::black_box(f()));
    }
    let per_iter = start.elapsed().as_micros() / iters as u128;
    println!("{name:<44} {per_iter:>10} us/iter   (x{iters}, sink {sink:x})");
}

fn tiny_io_cfg(arch: Architecture) -> SsdConfig {
    let mut cfg = SsdConfig::tiny(arch);
    cfg.gc.plan = None;
    cfg
}

/// Fig 14/15 family: open-loop trace replay per architecture.
fn bench_fig14_family() {
    for arch in Architecture::all() {
        let cfg = tiny_io_cfg(arch);
        let trace = PaperWorkload::Exchange1.generate(300, cfg.logical_bytes() / 2, 7);
        bench(&format!("fig14_trace_replay/{}", arch.label()), 10, || {
            run_trace(cfg, &trace).expect("run").completed
        });
    }
}

/// Fig 16/17 family: closed-loop synthetic sweep.
fn bench_fig16_family() {
    for depth in [1usize, 8, 32] {
        let cfg = tiny_io_cfg(Architecture::PnSsdSplit);
        let spec = SyntheticSpec {
            pattern: SyntheticPattern::RandomRead,
            request_bytes: 4 * 4096,
            requests: 200,
            footprint_bytes: cfg.logical_bytes() / 2,
            seed: 1,
        };
        let trace = spec.generate();
        bench(&format!("fig16_closed_loop/depth_{depth}"), 10, || {
            closed_loop(cfg, &trace, depth, Aging::Footprint)
                .expect("run")
                .completed
        });
    }
}

/// Fig 18/19/20 family: preconditioned run with GC per policy.
fn bench_fig19_family() {
    for policy in [GcPolicy::Parallel, GcPolicy::Preemptive, GcPolicy::Spatial] {
        let mut cfg = SsdConfig::tiny(Architecture::PnSsdSplit);
        cfg.gc.plan = Some(policy.plan());
        cfg.gc.victims_per_trigger = 2;
        let spec = SyntheticSpec {
            pattern: SyntheticPattern::RandomWrite,
            request_bytes: 4096,
            requests: 300,
            footprint_bytes: cfg.logical_bytes() * 3 / 4,
            seed: 2,
        };
        let trace = spec.generate();
        bench(&format!("fig19_gc_policies/{policy}"), 10, || {
            let aged = Aging::Aged {
                fill: 0.85,
                overwrite: 0.3,
            };
            closed_loop(cfg, &trace, 8, aged).expect("run").completed
        });
    }
}

fn main() {
    println!("experiment-family benches (mean over fixed iteration budget)");
    bench_fig14_family();
    bench_fig16_family();
    bench_fig19_family();
}
