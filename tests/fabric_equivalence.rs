//! Backend-equivalence gate for the `FabricBackend` refactor.
//!
//! The engine no longer matches on [`Architecture`] inside the I/O or GC
//! paths — every timed data movement goes through the fabric backend chosen
//! once at construction. These tests pin the claim that the indirection is
//! behaviour-free:
//!
//! 1. Every pinned golden case still serializes byte-for-byte to the
//!    snapshot committed *before* the refactor (`tests/golden/` was not
//!    re-blessed).
//! 2. Every architecture — including the strawmen absent from the golden
//!    matrix — runs a short mixed read/write workload deterministically:
//!    two fresh simulators produce byte-identical canonical reports.

use std::fs;
use std::path::PathBuf;

use networked_ssd::core::golden::{canonical_json, matrix};
use networked_ssd::{run_trace, Architecture, GcPolicy, MixedSpec, SsdConfig};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn fabric_backends_reproduce_pre_refactor_snapshots() {
    // Byte-for-byte against the committed files — the same gate as
    // `golden_report`, restated here as the refactor's acceptance test so a
    // future re-bless of the snapshots cannot silently absorb a fabric
    // regression without touching this file's intent.
    let cases = matrix();
    let jobs: Vec<_> = cases
        .iter()
        .map(|case| {
            move || {
                let name = case.file_name();
                let report = case.run().unwrap_or_else(|e| panic!("{name}: {e}"));
                (name, canonical_json(&report))
            }
        })
        .collect();
    for (name, rendered) in networked_ssd::sim::scoped_map(jobs) {
        let expected = fs::read_to_string(golden_dir().join(&name))
            .unwrap_or_else(|e| panic!("{name}: committed snapshot unreadable: {e}"));
        assert_eq!(
            rendered, expected,
            "{name}: fabric backend diverged from the pre-refactor snapshot"
        );
    }
}

fn mixed_trace(cfg: &SsdConfig, requests: usize, seed: u64) -> networked_ssd::Trace {
    MixedSpec {
        read_ratio: 0.6,
        mean_run_length: 4.0,
        request_bytes: cfg.geometry.page_bytes,
        requests,
        footprint_bytes: cfg.logical_bytes() / 2,
        seed,
    }
    .generate()
}

#[test]
fn every_architecture_is_deterministic_on_a_mixed_workload() {
    // Covers ChannelSliced and the pin-constrained mesh too, which the
    // golden matrix omits: each backend must be a pure function of
    // (config, trace).
    let arches = Architecture::with_strawmen();
    let jobs: Vec<_> = arches
        .iter()
        .map(|&arch| {
            move || {
                let run = || {
                    let mut cfg = SsdConfig::tiny(arch);
                    cfg.gc.plan = None;
                    let trace = mixed_trace(&cfg, 150, 21);
                    run_trace(cfg, trace).expect("run succeeds")
                };
                (run(), run())
            }
        })
        .collect();
    for (arch, (a, b)) in arches.iter().zip(networked_ssd::sim::scoped_map(jobs)) {
        assert_eq!(a.completed, 150, "{arch}");
        assert_eq!(
            canonical_json(&a),
            canonical_json(&b),
            "{arch}: backend not deterministic on the mixed workload"
        );
    }
}

#[test]
fn spatial_gc_through_the_fabric_is_deterministic_everywhere() {
    // The GC path exercises the fabric differently (f2f copies, v-channel
    // confinement, staging) — pin determinism for the architectures where
    // the policies diverge most.
    for arch in [
        Architecture::BaseSsd,
        Architecture::ChannelSliced,
        Architecture::PnSsd,
        Architecture::NoSsdUnconstrained,
    ] {
        for policy in [GcPolicy::Parallel, GcPolicy::Spatial] {
            let run = || {
                let mut cfg = SsdConfig::tiny(arch);
                cfg.gc.plan = Some(policy.plan());
                cfg.gc.victims_per_trigger = 2;
                let trace = mixed_trace(&cfg, 120, 33);
                networked_ssd::run_trace_preconditioned(cfg, &trace, 0.85, 0.3)
                    .expect("run succeeds")
            };
            assert_eq!(
                canonical_json(&run()),
                canonical_json(&run()),
                "{arch}/{policy:?}: GC path not deterministic through the fabric"
            );
        }
    }
}
