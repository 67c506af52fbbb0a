//! Reproducibility: identical configuration + seed ⇒ identical results,
//! across every layer of the stack.

use networked_ssd::{
    prepare, run_trace, run_trace_preconditioned, Aging, Architecture, Drive, GcPolicy,
    PaperWorkload, SsdConfig, SyntheticPattern, SyntheticSpec,
};

#[test]
fn trace_generation_is_bit_stable() {
    for workload in PaperWorkload::all() {
        let a = workload.generate(500, 1 << 26, 77);
        let b = workload.generate(500, 1 << 26, 77);
        assert_eq!(a, b, "{}", workload.name());
        assert_eq!(a.to_text(), b.to_text());
    }
}

#[test]
fn open_loop_runs_are_identical() {
    for arch in Architecture::all() {
        let mut cfg = SsdConfig::tiny(arch);
        cfg.gc.plan = None;
        let trace = PaperWorkload::Exchange0.generate(150, cfg.logical_bytes() / 2, 5);
        let a = run_trace(cfg, &trace).unwrap();
        let b = run_trace(cfg, &trace).unwrap();
        assert_eq!(a, b, "{arch}");
    }
}

#[test]
fn closed_loop_runs_are_identical() {
    let mut cfg = SsdConfig::tiny(Architecture::PnSsdSplit);
    cfg.gc.plan = None;
    let spec = SyntheticSpec {
        pattern: SyntheticPattern::RandomWrite,
        request_bytes: 8192,
        requests: 150,
        footprint_bytes: cfg.logical_bytes() / 2,
        seed: 9,
    };
    let drive = Drive::ClosedLoop {
        requests: spec.generate().into_records(),
        depth: 8,
    };
    let run = || {
        prepare(cfg, &drive, Aging::Footprint)
            .unwrap()
            .run(drive.clone())
    };
    assert_eq!(run(), run());
}

#[test]
fn gc_runs_are_identical_including_gc_stats() {
    let mut cfg = SsdConfig::tiny(Architecture::PnSsd);
    cfg.gc.plan = Some(GcPolicy::Spatial.plan());
    let trace = PaperWorkload::YcsbA.generate(250, cfg.logical_bytes() / 2, 13);
    let a = run_trace_preconditioned(cfg, &trace, 0.85, 0.3).unwrap();
    let b = run_trace_preconditioned(cfg, &trace, 0.85, 0.3).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.gc, b.gc);
    assert_eq!(a.ftl, b.ftl);
}

#[test]
fn zero_rate_faults_leave_reports_bit_identical() {
    // The fault subsystem's contract: an all-zero-rate configuration draws
    // no randomness and changes no timing, even with a different fault
    // seed — the report is bit-identical to the untouched default.
    for arch in [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsdSplit,
    ] {
        let mut cfg = SsdConfig::tiny(arch);
        cfg.gc.plan = None;
        let trace = PaperWorkload::YcsbA.generate(150, cfg.logical_bytes() / 2, 3);
        let baseline = run_trace(cfg, &trace).unwrap();
        let mut seeded = cfg;
        seeded.faults.seed = 0xDEAD_BEEF;
        let b = run_trace(seeded, &trace).unwrap();
        assert_eq!(baseline, b, "{arch}");
        assert!(!baseline.reliability.any_events());
    }
}

#[test]
fn fault_injected_runs_are_identical() {
    let mut cfg = SsdConfig::tiny(Architecture::PnSsdSplit);
    cfg.gc.plan = None;
    cfg.faults.bit_error.rber = 2e-4;
    cfg.faults.link.ber = 1e-7;
    let trace = PaperWorkload::Exchange0.generate(200, cfg.logical_bytes() / 2, 5);
    let a = run_trace(cfg, &trace).unwrap();
    let b = run_trace(cfg, &trace).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.reliability, b.reliability);
    assert!(a.reliability.any_events());
}

/// Full matrix: every topology × every GC policy, each preconditioned run
/// executed twice with the same seed and compared as whole reports (latency
/// distributions, GC accounting, wear, energy, reliability, oracle digest —
/// `SimReport` derives `PartialEq` over all of it).
#[test]
fn every_topology_and_gc_policy_is_bit_stable() {
    let topologies = [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsd,
        Architecture::PnSsdSplit,
        Architecture::NoSsdUnconstrained,
    ];
    let policies = [GcPolicy::Parallel, GcPolicy::Preemptive, GcPolicy::Spatial];
    for arch in topologies {
        for policy in policies {
            let mut cfg = SsdConfig::tiny(arch);
            cfg.gc.plan = Some(policy.plan());
            cfg.gc.victims_per_trigger = 2;
            cfg.oracle = true;
            let trace = PaperWorkload::YcsbA.generate(100, cfg.logical_bytes() / 2, 41);
            let a = run_trace_preconditioned(cfg, &trace, 0.85, 0.3).unwrap();
            let b = run_trace_preconditioned(cfg, &trace, 0.85, 0.3).unwrap();
            assert_eq!(a, b, "{arch} / {policy}");
            assert!(
                a.oracle.violations.is_empty(),
                "{arch} / {policy}: {:?}",
                a.oracle.violations
            );
        }
    }
}

#[test]
fn different_seeds_produce_different_runs() {
    let mut cfg = SsdConfig::tiny(Architecture::BaseSsd);
    cfg.gc.plan = None;
    let t1 = PaperWorkload::YcsbA.generate(200, cfg.logical_bytes() / 2, 1);
    let t2 = PaperWorkload::YcsbA.generate(200, cfg.logical_bytes() / 2, 2);
    let a = run_trace(cfg, &t1).unwrap();
    let b = run_trace(cfg, &t2).unwrap();
    assert_ne!(a.all.mean, b.all.mean);
}
