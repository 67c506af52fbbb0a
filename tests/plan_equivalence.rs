//! Composed-plan equivalence: the plans that are not paper presets must
//! keep device semantics intact.
//!
//! The paper's collectors are [`GcPolicy`] presets of [`GcPlanSpec`]; the
//! golden matrix pins those byte-for-byte on both fabrics. The two plans
//! with no preset (hot/cold placement, wear-aware victims) are validated
//! functionally here: the shadow oracle stays clean and the functional
//! digest matches PaGC's on the same trace — placement and victim order are
//! timing/wear choices that must cancel out of device semantics.

use networked_ssd::core::golden::canonical_json;
use networked_ssd::{
    run_trace_preconditioned, Architecture, GcPlanSpec, GcPolicy, PaperWorkload, SsdConfig,
};

fn cfg_with(arch: Architecture, plan: GcPlanSpec) -> SsdConfig {
    let mut cfg = SsdConfig::tiny(arch);
    cfg.gc.plan = Some(plan);
    cfg.gc.victims_per_trigger = 2;
    cfg.oracle = true;
    cfg
}

#[test]
fn new_plans_preserve_functional_digest_and_oracle_cleanliness() {
    let pagc = GcPolicy::Parallel.plan();
    let trace = {
        let cfg = cfg_with(Architecture::PnSsd, pagc);
        PaperWorkload::YcsbA.generate(150, cfg.logical_bytes() / 2, 23)
    };
    let baseline =
        run_trace_preconditioned(cfg_with(Architecture::PnSsd, pagc), &trace, 0.85, 0.3).unwrap();
    assert!(baseline.gc.events > 0, "PaGC baseline: GC never ran");
    for spec in [GcPlanSpec::hot_cold(), GcPlanSpec::wear_aware()] {
        let report =
            run_trace_preconditioned(cfg_with(Architecture::PnSsd, spec), &trace, 0.85, 0.3)
                .unwrap();
        assert!(report.gc.events > 0, "{spec}: GC never ran");
        assert!(
            report.oracle.violations.is_empty(),
            "{spec}: {:?}",
            report.oracle.violations
        );
        assert_eq!(
            report.oracle.functional_digest, baseline.oracle.functional_digest,
            "{spec}: functional digest diverged from PaGC"
        );
    }
}

#[test]
fn new_plans_report_wear_detail_and_legacy_plans_do_not() {
    let pagc = GcPolicy::Parallel.plan();
    let trace = {
        let cfg = cfg_with(Architecture::PnSsd, pagc);
        PaperWorkload::YcsbA.generate(120, cfg.logical_bytes() / 2, 13)
    };
    let legacy =
        run_trace_preconditioned(cfg_with(Architecture::PnSsd, pagc), &trace, 0.85, 0.3).unwrap();
    assert!(!legacy.wear_tracked, "PaGC must not track wear");
    assert!(!canonical_json(&legacy).contains("wear_detail"));
    let wear = run_trace_preconditioned(
        cfg_with(Architecture::PnSsd, GcPlanSpec::wear_aware()),
        &trace,
        0.85,
        0.3,
    )
    .unwrap();
    assert!(wear.wear_tracked && wear.gc.events > 0);
    assert!(canonical_json(&wear).contains("\"wear_detail\""));
}
