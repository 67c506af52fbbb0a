//! Integration gate for the multi-tenant host frontend.
//!
//! Everything here runs real simulations end-to-end through
//! a [`networked_ssd::Drive::MultiTenant`] on the tiny geometry, and checks the
//! QoS-visible contract: arbitration weight actually shapes latency, SLO
//! accounting counts what it claims to count, per-tenant rollups conserve
//! the aggregate totals, and the whole path is deterministic. The pinned
//! interference numbers themselves live in the golden matrix
//! (`tests/golden/*_mt-interference-wfq_*.json`); these tests state the
//! properties that must hold for *any* mix.

use networked_ssd::core::golden::canonical_json;
use networked_ssd::{
    prepare, run_trace, Aging, Architecture, Drive, MixedSpec, PaperWorkload, SchedulerKind,
    SimReport, SloClass, SsdConfig, TenantConfig, TenantMix, TenantSpec, TenantWorkload, Trace,
};

const DEPTH: usize = 8;
const REQUESTS: usize = 150;

fn cfg() -> SsdConfig {
    SsdConfig::tiny(Architecture::BaseSsd)
}

/// A fully-backlogged all-read mix (every arrival at t=0), so completion
/// order — and therefore per-tenant latency — is shaped purely by queue
/// arbitration.
fn backlogged_mix(weights: &[(&'static str, u32)]) -> TenantMix {
    TenantMix {
        name: "backlogged",
        tenants: weights
            .iter()
            .map(|&(name, weight)| TenantSpec {
                name,
                weight,
                slo: SloClass::BestEffort,
                workload: TenantWorkload::Mixed(MixedSpec {
                    read_ratio: 1.0,
                    mean_run_length: 1.0,
                    request_bytes: 16 * 1024,
                    requests: 0,
                    footprint_bytes: 0,
                    seed: 0,
                }),
                requests: REQUESTS,
            })
            .collect(),
    }
}

/// Runs per-tenant streams through the multi-queue frontend on a device
/// with every page of their footprint mapped.
fn run_streams(
    streams: Vec<(TenantConfig, Trace)>,
    scheduler: SchedulerKind,
) -> Result<SimReport, String> {
    let tenants = streams
        .into_iter()
        .map(|(config, trace)| (config, trace.into_records()))
        .collect();
    let drive = Drive::MultiTenant {
        tenants,
        scheduler,
        depth: DEPTH,
    };
    Ok(prepare(cfg(), &drive, Aging::Footprint)?.run(drive))
}

fn run_mix(mix: &TenantMix, scheduler: SchedulerKind) -> SimReport {
    let streams = mix.generate(cfg().logical_bytes() / 2, 42);
    run_streams(streams, scheduler).expect("tenant run")
}

#[test]
fn weight_shapes_latency_under_weighted_fair() {
    let report = run_mix(
        &backlogged_mix(&[("heavy", 6), ("light", 1)]),
        SchedulerKind::WeightedFair,
    );
    let [heavy, light] = &report.tenants[..] else {
        panic!("expected two tenant rows, got {}", report.tenants.len());
    };
    assert_eq!(heavy.name, "heavy");
    // Both tenants are backlogged at t=0 with identical work; the heavy
    // queue drains ~6x faster, so its completions — and mean latency
    // (measured from submission) — come earlier.
    assert!(
        heavy.all.mean < light.all.mean,
        "heavy tenant mean {} not below light tenant mean {}",
        heavy.all.mean,
        light.all.mean
    );
}

#[test]
fn strict_priority_dominates_harder_than_weighted_fair() {
    let mix = backlogged_mix(&[("heavy", 6), ("light", 1)]);
    let wfq = run_mix(&mix, SchedulerKind::WeightedFair);
    let sp = run_mix(&mix, SchedulerKind::StrictPriority);
    let ratio = |r: &SimReport| {
        r.tenants[1].all.mean.as_ns() as f64 / r.tenants[0].all.mean.as_ns().max(1) as f64
    };
    // Strict priority starves the light tenant until the heavy queue is
    // empty; weighted-fair still serves it 1 share in 7. The light/heavy
    // latency gap must therefore widen under strict priority.
    assert!(
        ratio(&sp) > ratio(&wfq),
        "strict priority ({:.2}) should widen the gap over weighted-fair ({:.2})",
        ratio(&sp),
        ratio(&wfq)
    );
}

#[test]
fn slo_violations_count_exactly_the_late_completions() {
    let cfg0 = cfg();
    let mix = backlogged_mix(&[("a", 2), ("b", 1)]);
    let streams = mix.generate(cfg0.logical_bytes() / 2, 7);

    // Impossible SLO (1 ns): every completion violates.
    let impossible: Vec<_> = streams
        .iter()
        .cloned()
        .map(|(c, t)| {
            (
                c.with_slo_latency(networked_ssd::sim::SimTime::from_ns(1)),
                t,
            )
        })
        .collect();
    let report = run_streams(impossible, SchedulerKind::RoundRobin).unwrap();
    for t in &report.tenants {
        assert_eq!(t.slo_violations, t.completed, "{}: impossible SLO", t.name);
        assert!((t.slo_violation_rate() - 1.0).abs() < 1e-12);
    }

    // Unreachable SLO (an hour): nothing violates.
    let generous: Vec<_> = streams
        .into_iter()
        .map(|(c, t)| {
            (
                c.with_slo_latency(networked_ssd::sim::SimTime::from_ms(3_600_000)),
                t,
            )
        })
        .collect();
    let report = run_streams(generous, SchedulerKind::RoundRobin).unwrap();
    for t in &report.tenants {
        assert_eq!(t.slo_violations, 0, "{}: generous SLO", t.name);
        assert_eq!(t.slo_violation_rate(), 0.0);
    }
}

#[test]
fn tenant_rollups_conserve_the_aggregate() {
    let report = run_mix(
        &backlogged_mix(&[("a", 3), ("b", 2), ("c", 1)]),
        SchedulerKind::WeightedFair,
    );
    assert_eq!(report.tenants.len(), 3);
    let completed: u64 = report.tenants.iter().map(|t| t.completed).sum();
    assert_eq!(completed, report.completed, "completions conserve");
    assert_eq!(completed, (3 * REQUESTS) as u64, "every request completes");
    let count: u64 = report.tenants.iter().map(|t| t.all.count).sum();
    assert_eq!(count, report.all.count, "latency samples conserve");
    let reads: u64 = report.tenants.iter().map(|t| t.read.count).sum();
    assert_eq!(reads, report.read.count, "read samples conserve");
}

#[test]
fn tenant_runs_are_deterministic() {
    let mix = TenantMix::interference(60);
    let a = run_mix(&mix, SchedulerKind::WeightedFair);
    let b = run_mix(&mix, SchedulerKind::WeightedFair);
    assert_eq!(canonical_json(&a), canonical_json(&b));
}

#[test]
fn paper_workload_tenants_run_end_to_end() {
    let mix = TenantMix {
        name: "paper",
        tenants: vec![
            TenantSpec {
                name: "ycsb",
                weight: 2,
                slo: SloClass::Throughput,
                workload: TenantWorkload::Paper(PaperWorkload::YcsbA),
                requests: 80,
            },
            TenantSpec {
                name: "search",
                weight: 1,
                slo: SloClass::LatencySensitive,
                workload: TenantWorkload::Paper(PaperWorkload::WebSearch0),
                requests: 80,
            },
        ],
    };
    let report = run_mix(&mix, SchedulerKind::RoundRobin);
    assert_eq!(report.tenants.len(), 2);
    for t in &report.tenants {
        assert_eq!(t.completed, 80, "{}", t.name);
        assert!(t.bytes > 0);
    }
}

#[test]
fn empty_tenant_streams_are_an_error_not_a_panic() {
    let r = run_streams(Vec::new(), SchedulerKind::RoundRobin);
    let err = r.expect_err("empty streams must be rejected");
    assert!(err.contains("tenant"), "{err}");
}

#[test]
fn classic_runs_report_no_tenants() {
    let cfg = cfg();
    let trace = PaperWorkload::YcsbA.generate(100, cfg.logical_bytes() / 2, 5);
    let report = run_trace(cfg, trace).expect("classic run");
    assert!(
        report.tenants.is_empty(),
        "single-tenant runs must not grow tenant rows"
    );
    // ... and the canonical JSON must not even mention the key, or every
    // committed golden would have churned.
    assert!(!canonical_json(&report).contains("\"tenants\""));
}
