//! Checkpoint/resume equivalence gate — the headline correctness claim of
//! the checkpoint subsystem.
//!
//! For every case in the pinned golden matrix, the run is snapshotted at
//! several mid-run points; resuming each snapshot and draining it must
//! produce the *byte-identical* canonical report and oracle digest the
//! uninterrupted run produces. The whole matrix is executed through a
//! 1-worker and a 4-worker pool and the two renderings are compared, so
//! resume equivalence holds regardless of host-side parallelism.
//!
//! A second identity is asserted along the way: re-serializing a freshly
//! resumed simulator must reproduce the checkpoint bytes exactly —
//! save∘resume is the identity on the serialized form.
//!
//! A third gate covers device preparation: `prepare` fills a fresh device
//! stripe by stripe, and its checkpoint must equal that of a device aged
//! one FTL write at a time, for every golden configuration and every
//! configuration the repository benchmark (`nssdbench`) runs.

use networked_ssd::core::golden::{canonical_json, matrix};
use networked_ssd::core::{Checkpoint, SsdSim};
use networked_ssd::ftl::{Ftl, FtlError, Lpn};
use networked_ssd::sim::{DetRng, Pool, Rng};
use networked_ssd::{prepare, Aging, Architecture, Drive, GcPolicy, PaperWorkload, SsdConfig};
use nssd_bench::setup;

/// Event counts at which each case is snapshotted. Every golden case
/// schedules well over 512 events, so at least two of these land mid-run;
/// the third covers the long GC-heavy cases.
const MILESTONES: [u64; 3] = [64, 512, 4096];

struct CaseOutcome {
    name: String,
    /// Canonical JSON + oracle digest of the uninterrupted run.
    reference: (String, u64),
    /// `(snapshot step, canonical JSON, oracle digest)` per resumed run.
    resumed: Vec<(u64, String, u64)>,
}

fn run_case(case: &networked_ssd::core::GoldenCase) -> CaseOutcome {
    let name = case.file_name();
    let cfg = case.config();
    let (mut sim, drive) = case.prepare().unwrap_or_else(|e| panic!("{name}: {e}"));
    sim.start(drive);
    let mut snapshots = Vec::new();
    let mut steps = 0u64;
    loop {
        if MILESTONES.contains(&steps) && !sim.is_idle() {
            snapshots.push((steps, Checkpoint::save(&sim)));
        }
        if !sim.step() {
            break;
        }
        steps += 1;
    }
    assert!(
        !snapshots.is_empty(),
        "{name}: run too short to snapshot (only {steps} events)"
    );
    let report = sim.into_report();
    let reference = (canonical_json(&report), report.oracle.functional_digest);
    let resumed = snapshots
        .into_iter()
        .map(|(at, bytes)| {
            let mut sim = Checkpoint::resume(cfg, &bytes)
                .unwrap_or_else(|e| panic!("{name}: resume at step {at}: {e}"));
            // save ∘ resume is the identity on the serialized form.
            assert_eq!(
                Checkpoint::save(&sim),
                bytes,
                "{name}: re-serializing the resumed state at step {at} diverged"
            );
            while sim.step() {}
            let report = sim.into_report();
            (at, canonical_json(&report), report.oracle.functional_digest)
        })
        .collect();
    CaseOutcome {
        name,
        reference,
        resumed,
    }
}

fn render_matrix(pool: Pool) -> Vec<CaseOutcome> {
    let cases = matrix();
    let jobs: Vec<_> = cases.iter().map(|case| move || run_case(case)).collect();
    pool.map(jobs)
}

#[test]
fn resume_matches_uninterrupted_run_across_the_matrix() {
    let serial = render_matrix(Pool::with_workers(1));
    let parallel = render_matrix(Pool::with_workers(4));
    assert_eq!(serial.len(), parallel.len());
    assert!(serial.len() >= 19, "golden matrix shrank");
    for (s, p) in serial.iter().zip(&parallel) {
        let name = &s.name;
        // Every resumed run reproduces the uninterrupted run, byte for byte.
        for (at, json, digest) in &s.resumed {
            assert_eq!(
                json, &s.reference.0,
                "{name}: resume at step {at} changed the canonical report"
            );
            assert_eq!(
                *digest, s.reference.1,
                "{name}: resume at step {at} changed the oracle digest"
            );
        }
        // And none of it depends on the worker count.
        assert_eq!(s.name, p.name, "pool reordered results");
        assert_eq!(
            s.reference, p.reference,
            "{name}: parallel execution changed the reference run"
        );
        assert_eq!(
            s.resumed, p.resumed,
            "{name}: parallel execution changed a resumed run"
        );
    }
}

#[test]
fn oracle_digest_is_live_across_the_matrix() {
    // The digest comparison above is only meaningful if the oracle actually
    // observed the runs: every golden case runs with the oracle enabled and
    // a nonzero digest.
    for case in matrix() {
        assert!(
            case.config().oracle,
            "{}: oracle disabled",
            case.file_name()
        );
    }
}

/// One host write of `Ftl::precondition`'s page-by-page loop: instant GC
/// first when it is due, and once more when the write finds no space.
fn write_with_instant_gc(ftl: &mut Ftl, lpn: u64, rng: &mut DetRng) {
    if ftl.needs_gc() {
        ftl.instant_gc(rng).unwrap();
    }
    match ftl.write(Lpn::new(lpn)) {
        Ok(_) => {}
        Err(FtlError::OutOfSpace) => {
            ftl.instant_gc(rng).unwrap();
            ftl.write(Lpn::new(lpn)).unwrap();
        }
        Err(e) => panic!("write lpn{lpn}: {e}"),
    }
}

/// `prepare`, with the fill and the overwrites done one public FTL call at
/// a time: the reference the stripe-by-stripe fill must reproduce.
fn prepare_page_by_page(cfg: SsdConfig, drive: &Drive, aging: Aging) -> SsdSim {
    let mut sim = SsdSim::new(cfg).unwrap();
    let logical = sim.ftl().logical_pages();
    let footprint_pages = drive
        .footprint_bytes()
        .div_ceil(cfg.geometry.page_bytes as u64);
    let mut rng = sim.rng_mut().clone();
    let ftl = sim.ftl_mut();
    let (fill, overwrite) = match aging {
        Aging::Footprint => (
            ((footprint_pages + 1) as f64 / logical as f64).min(1.0),
            0.0,
        ),
        Aging::Aged { fill, overwrite } => (fill, overwrite),
    };
    let filled = (logical as f64 * fill) as u64;
    for l in 0..filled {
        write_with_instant_gc(ftl, l, &mut rng);
    }
    for _ in 0..(logical as f64 * overwrite) as u64 {
        let l = rng.gen_range(0..filled.max(1));
        write_with_instant_gc(ftl, l, &mut rng);
    }
    // A zero fill on this (no longer fresh) device writes nothing and draws
    // nothing: it only resets the counters, as the full call does.
    ftl.precondition(0.0, 0.0, &mut rng).unwrap();
    if let Aging::Aged { .. } = aging {
        ftl.pressurize(filled.max(1), &mut rng).unwrap();
    }
    sim
}

fn assert_prepared_like_page_by_page(name: &str, cfg: SsdConfig, drive: &Drive, aging: Aging) {
    let prepared = Checkpoint::save(&prepare(cfg, drive, aging).unwrap());
    let reference = Checkpoint::save(&prepare_page_by_page(cfg, drive, aging));
    assert!(
        prepared == reference,
        "{name}: the prepared device differs from the page-by-page one"
    );
}

#[test]
fn prepare_matches_page_by_page_aging_for_golden_configs() {
    for case in matrix() {
        let (_, drive) = case.prepare().unwrap();
        assert_prepared_like_page_by_page(&case.file_name(), case.config(), &drive, case.aging());
    }
}

#[test]
fn prepare_matches_page_by_page_aging_for_benchmark_configs() {
    let seed = setup::EXPERIMENT_SEED;
    let io = |arch| {
        let cfg = setup::io_config(arch);
        let trace = PaperWorkload::YcsbA.generate(60_000, setup::io_footprint(&cfg), seed);
        (cfg, trace, Aging::Footprint)
    };
    let gc = |cfg: SsdConfig| {
        let trace = PaperWorkload::RocksDb1.generate(20_000, setup::gc_footprint(&cfg), seed);
        (cfg, trace, setup::GC_AGING)
    };
    let spatial = setup::gc_config(Architecture::PnSsdSplit, GcPolicy::Spatial);
    let mut oracle = spatial;
    oracle.oracle = true;
    let cells = [
        io(Architecture::BaseSsd),
        io(Architecture::PSsd),
        io(Architecture::PnSsdSplit),
        gc(spatial),
        gc(setup::gc_config(Architecture::BaseSsd, GcPolicy::Parallel)),
        gc(oracle),
    ];
    // Two workers: each scaled-geometry cell holds two ~32 MB checkpoints.
    let jobs: Vec<_> = cells
        .into_iter()
        .map(|(cfg, trace, aging)| {
            move || {
                let name = format!("{} oracle={} {aging:?}", cfg.architecture, cfg.oracle);
                let drive = Drive::OpenLoop(trace.into_records());
                assert_prepared_like_page_by_page(&name, cfg, &drive, aging);
            }
        })
        .collect();
    Pool::with_workers(2).map(jobs);
}
