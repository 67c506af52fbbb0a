//! Composed-GC-plan ablation sweep: the full victim × placement ×
//! preemption grid on pnSSD(+split) over the YCSB-A trace, fanned across
//! the worker pool.
//!
//! Prints the ablation table to stdout and writes a machine-readable record
//! per plan (latency, GC accounting, write amplification, wear spread) to
//! `target/plans.json`.
//!
//! Usage: `plans [--smoke] [--out <path>]`

use std::collections::BTreeSet;

use nssd_bench::gc_experiments::{plan_ablation_reports, plan_grid};
use nssd_bench::results::Results;
use nssd_core::SimReport;
use nssd_ftl::GcPlanSpec;
use nssd_sim::json::Json;
use nssd_sim::obj;

/// The smoke gate: the full 12-plan grid ran, each plan under its own name,
/// and every plan actually collected garbage.
fn smoke_checks(reports: &[(GcPlanSpec, SimReport)]) -> Vec<(bool, String)> {
    let names: BTreeSet<String> = reports.iter().map(|(spec, _)| spec.to_string()).collect();
    let (n, unique) = (reports.len(), names.len());
    let count = format!("{n} plans ({unique} unique), expected 12");
    let mut checks = vec![(n == 12 && unique == 12, count)];
    checks.extend(reports.iter().map(|(spec, r)| {
        let (gc, mean) = (r.gc.events, r.all.mean.as_ns());
        let ok = gc > 0 && mean > 0;
        (ok, format!("{spec}: gc_events {gc}, mean {mean} ns"))
    }));
    checks
}

fn main() {
    let results = Results::from_args("plans");
    let requests = if results.smoke {
        1_500
    } else {
        nssd_bench::setup::gc_requests_per_run()
    };

    eprintln!(
        ">>> plan ablation: {} plans x {requests} requests",
        plan_grid().len()
    );
    let reports = plan_ablation_reports(requests);

    let base_mean = reports[0].1.all.mean.as_ns() as f64;
    let mut plans = Vec::with_capacity(reports.len());
    for (spec, r) in &reports {
        let mean = r.all.mean.as_ns() as f64;
        println!(
            "{:<22} mean {:>8.1} µs  p99 {:>8.1} µs  ({:.2}x vs PaGC tuple)  gc {:>3}  \
             copied {:>5}  wear spread {}",
            spec.to_string(),
            mean / 1e3,
            r.all.p99.as_ns() as f64 / 1e3,
            base_mean / mean.max(1.0),
            r.gc.events,
            r.gc.pages_copied,
            r.wear.spread(),
        );
        plans.push(obj! {
            plan: spec.to_string(), mean_us: Json::fixed(mean / 1e3, 3),
            p99_us: Json::fixed(r.all.p99.as_ns() as f64 / 1e3, 3),
            speedup_vs_pagc: Json::fixed(base_mean / mean.max(1.0), 4),
            gc_events: r.gc.events, pages_copied: r.gc.pages_copied,
            blocks_erased: r.gc.blocks_erased,
            write_amp: Json::fixed(r.ftl.write_amplification(), 4),
            wear_min: r.wear.min, wear_max: r.wear.max, wear_spread: r.wear.spread(),
        });
    }

    let body = obj! { plans: Json::Array(plans) };
    results.write("target/plans.json", "nssd-bench-plans/1", body, 2);
    results.smoke_gate(|| smoke_checks(&reports));
}
