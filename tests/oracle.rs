//! Shadow-oracle integration: clean runs stay clean, injected defects are
//! caught, and the functional digest is architecture-independent.
//!
//! The mutation self-tests are the oracle's own regression gate: each one
//! plants a defect (a silently swapped mapping entry, a GC copy whose
//! relocation is never performed, a valid bit cleared under a live
//! mapping) and asserts the shadow model reports it — the structural ones
//! at the first erase after the plant, where the incremental audit runs.
//! If the oracle ever goes blind, these tests — not a lucky workload — say
//! so.

use networked_ssd::core::{prepare, Aging, Checkpoint, Drive, SsdSim};
use networked_ssd::flash::{Geometry, Ppn};
use networked_ssd::ftl::{AllocPolicy, Ftl, FtlConfig, Lpn, Relocation, WayMask};
use networked_ssd::host::{IoOp, IoRequest};
use networked_ssd::oracle::Oracle;
use networked_ssd::sim::{DetRng, SimTime};
use networked_ssd::{
    run_trace, run_trace_preconditioned, Architecture, GcPolicy, PaperWorkload, SimReport,
    SsdConfig,
};

fn oracle_cfg(arch: Architecture, policy: Option<GcPolicy>) -> SsdConfig {
    let mut cfg = SsdConfig::tiny(arch);
    cfg.gc.plan = policy.map(GcPolicy::plan);
    cfg.gc.victims_per_trigger = 2;
    cfg.oracle = true;
    cfg
}

#[test]
fn clean_runs_have_zero_violations_on_every_architecture() {
    for arch in Architecture::all() {
        let cfg = oracle_cfg(arch, None);
        let trace = PaperWorkload::YcsbA.generate(120, cfg.logical_bytes() / 2, 21);
        let report = run_trace(cfg, &trace).unwrap();
        assert!(report.oracle.enabled, "{arch}");
        assert!(report.oracle.checks > 0, "{arch}");
        assert!(
            report.oracle.violations.is_empty(),
            "{arch}: {:?}",
            report.oracle.violations
        );
    }
}

#[test]
fn clean_runs_have_zero_violations_under_every_gc_policy() {
    for policy in [GcPolicy::Parallel, GcPolicy::Preemptive, GcPolicy::Spatial] {
        let cfg = oracle_cfg(Architecture::PnSsd, Some(policy));
        let trace = PaperWorkload::YcsbA.generate(150, cfg.logical_bytes() / 2, 23);
        let report = run_trace_preconditioned(cfg, &trace, 0.85, 0.3).unwrap();
        assert!(report.gc.events > 0, "{policy}: GC never ran");
        assert!(
            report.oracle.violations.is_empty(),
            "{policy}: {:?}",
            report.oracle.violations
        );
    }
}

/// `prepare` fills a fresh device stripe by stripe; the oracle adopts that
/// state and every later audit and shadow check stays clean, for every
/// striping order and both agings.
#[test]
fn bulk_filled_devices_run_clean_under_the_oracle() {
    for policy in [AllocPolicy::Pcwd, AllocPolicy::Pwcd, AllocPolicy::Cwdp] {
        let mut cfg = oracle_cfg(Architecture::PnSsd, Some(GcPolicy::Parallel));
        cfg.alloc_policy = policy;
        let trace = PaperWorkload::YcsbA.generate(150, cfg.logical_bytes() / 2, 29);
        let aged = Aging::Aged {
            fill: 0.85,
            overwrite: 0.3,
        };
        for aging in [Aging::Footprint, aged] {
            let drive = Drive::OpenLoop(trace.records().to_vec());
            let sim = prepare(cfg, &drive, aging).unwrap();
            assert!(
                sim.ftl().check_invariants().is_empty(),
                "{policy} {aging:?}"
            );
            let report = sim.run(drive);
            assert!(report.oracle.checks > 0, "{policy} {aging:?}");
            assert!(
                report.oracle.violations.is_empty(),
                "{policy} {aging:?}: {:?}",
                report.oracle.violations
            );
        }
    }
}

#[test]
fn oracle_off_by_default_and_report_says_so() {
    let cfg = SsdConfig::tiny(Architecture::BaseSsd);
    assert!(!cfg.oracle);
    let trace = PaperWorkload::YcsbA.generate(30, cfg.logical_bytes() / 2, 2);
    let report = run_trace(cfg, &trace).unwrap();
    assert!(!report.oracle.enabled);
    assert_eq!(report.oracle.checks, 0);
}

/// Mutation self-test 1: silently swap two L2P entries *after* the oracle
/// adopted the preconditioned state. The corruption keeps the forward and
/// reverse tables mutually consistent, so only the shadow model can see it.
#[test]
fn mutated_mapping_entry_fires_the_oracle_end_to_end() {
    let cfg = oracle_cfg(Architecture::BaseSsd, None);
    let page = cfg.geometry.page_bytes as u64;
    let mut sim = SsdSim::new(cfg).unwrap();
    let mut rng = DetRng::seed_from_u64(17);
    sim.ftl_mut().precondition(0.5, 0.0, &mut rng).unwrap();
    // Sync first: the oracle trusts everything up to this point...
    sim.oracle_sync();
    // ...and the corruption lands after, invisible to the resync path.
    let mapped: Vec<Lpn> = (0..sim.ftl().logical_pages())
        .map(Lpn::new)
        .filter(|&l| sim.ftl().lookup(l).is_some())
        .take(2)
        .collect();
    assert_eq!(mapped.len(), 2, "preconditioning mapped too few pages");
    sim.ftl_mut().debug_swap_mapping(mapped[0], mapped[1]);
    assert!(
        sim.ftl().check_invariants().is_empty(),
        "swap must stay structural"
    );

    let reads = mapped
        .iter()
        .map(|l| IoRequest::new(IoOp::Read, l.raw() * page, page as u32, SimTime::ZERO))
        .collect();
    let report = sim.run(Drive::OpenLoop(reads));
    assert!(
        report
            .oracle
            .violations
            .iter()
            .any(|v| v.contains("read-mapping")),
        "swapped mapping not flagged: {:?}",
        report.oracle.violations
    );
    assert!(
        report
            .oracle
            .violations
            .iter()
            .any(|v| v.contains("final-mapping")),
        "end-of-run sweep missed the swap: {:?}",
        report.oracle.violations
    );
}

/// Mutation self-test 2: a GC copy is "dropped" — the FTL relocates and
/// erases, but the relocation observation never reaches the oracle, exactly
/// what a buggy collector that forgot a live page would look like.
#[test]
fn dropped_gc_copy_fires_the_oracle() {
    let mut fcfg = FtlConfig::evaluation_defaults();
    fcfg.geometry = Geometry::tiny();
    fcfg.gc.victims_per_trigger = 2;
    let mut ftl = Ftl::new(fcfg).unwrap();
    let mut oracle = Oracle::new(*ftl.geometry(), ftl.logical_pages());

    let out = ftl.write(Lpn::new(9)).unwrap();
    oracle.note_host_write(Lpn::new(9), out.ppn, SimTime::ZERO);
    let all = WayMask::all(ftl.geometry().ways);
    let rel = ftl.relocate(Lpn::new(9), out.ppn, all).unwrap().unwrap();
    // The copy is lost: no note_relocation. Erasing the source must fire.
    let victim = ftl.geometry().pbn_of(rel.src);
    ftl.erase_block(victim);
    oracle.note_erase(victim, SimTime::from_ns(1));
    let rendered = oracle.violations().render();
    assert!(
        rendered.iter().any(|v| v.contains("erase-live-page")),
        "dropped copy not flagged: {rendered:?}"
    );
}

#[test]
fn functional_digest_is_identical_across_interconnect_backends() {
    // The dedicated bus (baseSSD), the packetized bus (pSSD), and the
    // Omnibus (pnSSD) place and time pages completely differently; the
    // functional outcome of the same logical workload must not differ.
    let trace = {
        let cfg = oracle_cfg(Architecture::BaseSsd, None);
        PaperWorkload::YcsbA.generate(120, cfg.logical_bytes() / 2, 31)
    };
    let digests: Vec<u64> = [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsd,
    ]
    .into_iter()
    .map(|arch| {
        let report = run_trace(oracle_cfg(arch, None), &trace).unwrap();
        assert!(report.oracle.violations.is_empty(), "{arch}");
        report.oracle.functional_digest
    })
    .collect();
    assert_eq!(digests[0], digests[1], "baseSSD vs pSSD");
    assert_eq!(digests[0], digests[2], "baseSSD vs pnSSD");
}

#[test]
fn functional_digest_is_identical_across_gc_policies() {
    // GC policies relocate different pages at different times onto
    // different planes — pure placement/timing choices that must cancel
    // out of the functional digest.
    let trace = {
        let cfg = oracle_cfg(Architecture::PnSsd, Some(GcPolicy::Parallel));
        PaperWorkload::YcsbA.generate(120, cfg.logical_bytes() / 2, 37)
    };
    let digests: Vec<u64> = [GcPolicy::Parallel, GcPolicy::Preemptive, GcPolicy::Spatial]
        .into_iter()
        .map(|policy| {
            let report = run_trace_preconditioned(
                oracle_cfg(Architecture::PnSsd, Some(policy)),
                &trace,
                0.85,
                0.3,
            )
            .unwrap();
            assert!(report.oracle.violations.is_empty(), "{policy}");
            report.oracle.functional_digest
        })
        .collect();
    assert_eq!(digests[0], digests[1], "PaGC vs preemptive");
    assert_eq!(digests[0], digests[2], "PaGC vs spatial");
}

#[test]
fn relocation_of_a_never_mapped_lpn_is_reported_not_a_panic() {
    let mut fcfg = FtlConfig::evaluation_defaults();
    fcfg.geometry = Geometry::tiny();
    fcfg.gc.victims_per_trigger = 2;
    let ftl = Ftl::new(fcfg).unwrap();
    let mut oracle = Oracle::new(*ftl.geometry(), ftl.logical_pages());
    // The shadow maps lpn5 nowhere: the relocation's source cannot be its
    // home, and the unmapped sentinel must not be used as a page index.
    let rel = Relocation {
        lpn: Lpn::new(5),
        src: Ppn::new(10),
        dst: Ppn::new(11),
    };
    oracle.note_relocation(rel, SimTime::from_ns(3));
    let rendered = oracle.violations().render();
    assert_eq!(rendered.len(), 1, "{rendered:?}");
    assert!(
        rendered[0].starts_with("[relocation-source]"),
        "{rendered:?}"
    );
}

/// An aged tiny pnSSD with PaGC and the oracle on, synced, plus the drive
/// of a ycsb-a trace over the first half of the logical space.
fn aged_oracle_sim() -> (SsdConfig, SsdSim, Drive) {
    let cfg = oracle_cfg(Architecture::PnSsd, Some(GcPolicy::Parallel));
    let trace = PaperWorkload::YcsbA.generate(150, cfg.logical_bytes() / 2, 23);
    let drive = Drive::OpenLoop(trace.into_records());
    let aged = Aging::Aged {
        fill: 0.85,
        overwrite: 0.3,
    };
    let mut sim = prepare(cfg, &drive, aged).unwrap();
    sim.oracle_sync();
    (cfg, sim, drive)
}

/// A mapped LPN the trace never touches, on a block GC will not pick soon
/// (the fullest one), so the planted defect survives the short run.
fn cold_lpn(sim: &SsdSim) -> Lpn {
    let ftl = sim.ftl();
    let g = *ftl.geometry();
    (ftl.logical_pages() / 2..ftl.logical_pages())
        .map(Lpn::new)
        .filter_map(|l| ftl.lookup(l).map(|p| (l, p)))
        .max_by_key(|&(_, p)| ftl.blocks().meta(g.pbn_of(p)).valid_count())
        .expect("preconditioning mapped the upper half")
        .0
}

/// Steps until the FTL counts another erase (or retire) — the oracle
/// audits in the same event — and returns its time.
fn step_to_next_erase(sim: &mut SsdSim) -> SimTime {
    let before = sim.ftl().stats().erases;
    while sim.ftl().stats().erases == before {
        assert!(sim.step(), "the run ended without another erase");
    }
    sim.now()
}

/// Steps past `t`, so the end-of-run sweep carries a later timestamp, and
/// finishes the report there.
fn report_after(mut sim: SsdSim, t: SimTime) -> SimReport {
    while sim.now() == t && sim.step() {}
    assert!(sim.now() > t, "no event after {t}");
    sim.into_report()
}

/// The first `ftl-structural` violation must carry the erase time `t`.
fn assert_structural_fires_at(report: &SimReport, t: SimTime) {
    let first = report
        .oracle
        .violations
        .iter()
        .find(|v| v.starts_with("[ftl-structural]"))
        .unwrap_or_else(|| panic!("defect not flagged: {:?}", report.oracle.violations));
    assert!(
        first.starts_with(&format!("[ftl-structural] at {t}: ")),
        "flagged at the wrong time (erase at {t}): {first}"
    );
    assert!(first.contains("mapped pages but"), "{first}");
}

/// Mutation self-test 3: after the oracle's first audit has armed change
/// tracking, clear one valid bit under a live mapping. The next audit is
/// incremental; it must see the plane the hook dirtied and report at that
/// erase, not at the end-of-run sweep.
#[test]
fn dropped_valid_bit_fires_at_the_first_erase_after_the_plant() {
    let (_, mut sim, drive) = aged_oracle_sim();
    sim.start(drive);
    step_to_next_erase(&mut sim);
    let lpn = cold_lpn(&sim);
    sim.ftl_mut().debug_drop_valid_page(lpn);
    assert!(!sim.ftl().check_invariants().is_empty());
    let t = step_to_next_erase(&mut sim);
    assert_structural_fires_at(&report_after(sim, t), t);
}

/// Checkpoints an aged oracle-on run mid-GC, with audit marks pending.
fn checkpoint_mid_gc() -> (SsdConfig, SsdSim, Vec<u8>) {
    let (cfg, mut sim, drive) = aged_oracle_sim();
    sim.start(drive);
    step_to_next_erase(&mut sim);
    let relocations = sim.ftl().stats().gc_relocations;
    while sim.ftl().stats().gc_relocations == relocations || sim.ftl().audit_backlog() == 0 {
        assert!(sim.step(), "GC stopped before a mid-GC checkpoint");
    }
    let bytes = Checkpoint::save(&sim);
    (cfg, sim, bytes)
}

#[test]
fn mid_gc_oracle_checkpoint_round_trips_byte_identically() {
    let (cfg, mut sim, bytes) = checkpoint_mid_gc();
    let mut resumed = Checkpoint::resume(cfg, &bytes).unwrap();
    // Pending audit marks are not state: the resumed run sweeps instead.
    assert_eq!(resumed.ftl().audit_backlog(), 0);
    assert_eq!(Checkpoint::save(&resumed), bytes);
    sim.run_to_idle();
    resumed.run_to_idle();
    let (a, b) = (sim.into_report(), resumed.into_report());
    assert!(a.oracle.violations.is_empty(), "{:?}", a.oracle.violations);
    assert_eq!(a, b);
}

#[test]
fn corruption_planted_after_resume_fires_at_the_next_erase() {
    let (cfg, _, bytes) = checkpoint_mid_gc();
    let mut resumed = Checkpoint::resume(cfg, &bytes).unwrap();
    let lpn = cold_lpn(&resumed);
    resumed.ftl_mut().debug_drop_valid_page(lpn);
    let t = step_to_next_erase(&mut resumed);
    assert_structural_fires_at(&report_after(resumed, t), t);
}
