//! The benchmark's workloads, the simulated cells they run, and the checks
//! every cell's output must pass.
//!
//! A cell is one architecture × configuration × trace, driven the way the
//! experiment harness drives it: generate the trace, build the device,
//! precondition it, run the event loop open-loop at the trace's timestamps,
//! assemble the report. Each step is a separate public call into its layer,
//! timed through the [`Recorder`].

use std::hint::black_box;

use nssd_bench::setup;
use nssd_core::golden::canonical_json;
use nssd_core::{Architecture, Drive, SimReport, SsdConfig, SsdSim};
use nssd_ftl::GcPolicy;
use nssd_workloads::{PaperWorkload, Trace};

use crate::alloc;
use crate::spans::Recorder;

/// Requests per `io-mixed` cell.
pub const IO_REQUESTS: usize = 60_000;
/// Requests per `gc-aged` / `oracle-gc` cell.
pub const GC_REQUESTS: usize = 20_000;

/// The `io-mixed` architectures; per-architecture engine metrics cover
/// these three on every workload.
pub const IO_ARCHES: [Architecture; 3] = [
    Architecture::BaseSsd,
    Architecture::PSsd,
    Architecture::PnSsdSplit,
];

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ycsb-a on three no-GC devices: setup and the loop weigh about the
    /// same, and the cells differ only in fabric backend.
    IoMixed,
    /// rocksdb-1 on aged devices: GC, allocation and aged preconditioning.
    GcAged,
    /// The gc-aged pnSSD(+split) cell with the shadow oracle on.
    OracleGc,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::IoMixed, Workload::GcAged, Workload::OracleGc];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IoMixed => "io-mixed",
            Workload::GcAged => "gc-aged",
            Workload::OracleGc => "oracle-gc",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cells one pass runs, in order.
    pub fn cells(self) -> Vec<Cell> {
        match self {
            Workload::IoMixed => IO_ARCHES
                .into_iter()
                .map(|arch| Cell {
                    cfg: setup::io_config(arch),
                    trace: PaperWorkload::YcsbA,
                    requests: IO_REQUESTS,
                    aged: false,
                })
                .collect(),
            Workload::GcAged => vec![
                gc_cell(Architecture::PnSsdSplit, GcPolicy::Spatial),
                gc_cell(Architecture::BaseSsd, GcPolicy::Parallel),
            ],
            Workload::OracleGc => {
                let mut cell = gc_cell(Architecture::PnSsdSplit, GcPolicy::Spatial);
                cell.cfg.oracle = true;
                vec![cell]
            }
        }
    }
}

/// The gc-aged cell pairing of the paper's GC figures.
pub fn gc_cell(arch: Architecture, policy: GcPolicy) -> Cell {
    Cell {
        cfg: setup::gc_config(arch, policy),
        trace: PaperWorkload::RocksDb1,
        requests: GC_REQUESTS,
        aged: true,
    }
}

/// One simulated cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Device configuration.
    pub cfg: SsdConfig,
    /// Trace generator.
    pub trace: PaperWorkload,
    /// Requests in the trace.
    pub requests: usize,
    /// Aged to `GC_FILL`/`GC_OVERWRITE` and pressurized (GC runs), or
    /// filled over the trace's footprint only (no-GC runs).
    pub aged: bool,
}

impl Cell {
    /// Architecture name as used in metric names.
    pub fn arch_name(&self) -> &'static str {
        arch_name(self.cfg.architecture)
    }

    fn footprint(&self) -> u64 {
        if self.aged {
            setup::gc_footprint(&self.cfg)
        } else {
            setup::io_footprint(&self.cfg)
        }
    }

    /// The prepared-device runner the experiment harness would use; the
    /// self-test checks that [`run_cell`]'s step-by-step path matches it.
    pub fn run_with_runner(&self, seed: u64) -> Result<SimReport, String> {
        let trace = self.trace.generate(self.requests, self.footprint(), seed);
        if self.aged {
            nssd_core::run_trace_preconditioned(
                self.cfg,
                trace,
                setup::GC_FILL,
                setup::GC_OVERWRITE,
            )
        } else {
            nssd_core::run_trace(self.cfg, trace)
        }
    }
}

/// Metric-name form of an architecture.
pub fn arch_name(arch: Architecture) -> &'static str {
    match arch {
        Architecture::BaseSsd => "baseSSD",
        Architecture::PSsd => "pSSD",
        Architecture::PnSsdSplit => "pnSSD-split",
        _ => "other",
    }
}

/// What one cell produced.
pub struct CellRun {
    /// The simulated report.
    pub report: SimReport,
    /// Its canonical JSON.
    pub canonical: String,
    /// Host seconds in trace generation + construction + preconditioning.
    pub setup_s: f64,
    /// Host seconds in `SsdSim::start` + `run_to_idle`.
    pub loop_s: f64,
    /// Allocations made inside the event loop (0 unless counting is on).
    pub loop_allocs: u64,
}

/// Hook run on the prepared, not yet started device.
pub type PreparedHook<'a> = &'a mut dyn FnMut(&mut Recorder, SsdSim) -> Result<SsdSim, String>;

/// Runs `cell` at trace seed `seed`, timing every layer call under cell id
/// `id`. `on_prepared` may replace the prepared device (the checkpoint
/// probe resumes a saved copy of it).
pub fn run_cell(
    cell: &Cell,
    seed: u64,
    rec: &mut Recorder,
    id: u64,
    on_prepared: Option<PreparedHook<'_>>,
) -> Result<CellRun, String> {
    let whole = rec.begin("cell", id);
    let run = run_cell_steps(cell, seed, rec, id, on_prepared);
    let _ = rec.end(whole);
    run
}

/// The body of [`run_cell`]; every bracket it opens closes before an error
/// returns.
fn run_cell_steps(
    cell: &Cell,
    seed: u64,
    rec: &mut Recorder,
    id: u64,
    on_prepared: Option<PreparedHook<'_>>,
) -> Result<CellRun, String> {
    let (mut sim, trace, setup_s) = prepare(cell, seed, rec, id)?;
    if let Some(hook) = on_prepared {
        sim = hook(rec, sim)?;
    }

    let t = rec.begin("oracle.sync", id);
    sim.oracle_sync();
    let _ = rec.end(t);

    let drive = Drive::OpenLoop(trace.into_records());
    let t = rec.begin("engine.loop", id);
    let allocs_before = alloc::count();
    sim.start(drive);
    sim.run_to_idle();
    let loop_allocs = alloc::count() - allocs_before;
    let loop_s = rec.end(t);

    let t = rec.begin("report.assemble", id);
    let report = sim.into_report();
    let canonical = canonical_json(&report);
    let _ = rec.end(t);
    Ok(CellRun {
        report,
        canonical,
        setup_s,
        loop_s,
        loop_allocs,
    })
}

/// Set-up of one cell: generates its trace, builds and preconditions the
/// device. Returns both with the host seconds the three calls took.
pub fn prepare(
    cell: &Cell,
    seed: u64,
    rec: &mut Recorder,
    id: u64,
) -> Result<(SsdSim, Trace, f64), String> {
    let t = rec.begin("workloads.generate", id);
    let trace = black_box(cell.trace.generate(cell.requests, cell.footprint(), seed));
    let mut setup_s = rec.end(t);

    let t = rec.begin("core.construct", id);
    let sim = SsdSim::new(cell.cfg);
    setup_s += rec.end(t);
    let mut sim = sim?;

    let t = rec.begin("ftl.precondition", id);
    let prepared = precondition(&mut sim, cell, trace.footprint_bytes());
    setup_s += rec.end(t);
    prepared?;
    Ok((sim, trace, setup_s))
}

/// The preconditioning of `nssd_core::prepare_trace` (footprint fill) or
/// `prepare_trace_preconditioned` (aging), through the FTL's public calls.
fn precondition(sim: &mut SsdSim, cell: &Cell, footprint_bytes: u64) -> Result<(), String> {
    let mut rng = sim.rng_mut().clone();
    let logical = sim.ftl().logical_pages();
    if cell.aged {
        let max_lpn = (logical as f64 * setup::GC_FILL) as u64;
        sim.ftl_mut()
            .precondition(setup::GC_FILL, setup::GC_OVERWRITE, &mut rng)
            .map_err(|e| e.to_string())?;
        sim.ftl_mut()
            .pressurize(max_lpn.max(1), &mut rng)
            .map_err(|e| e.to_string())
    } else {
        let pages = footprint_bytes.div_ceil(sim.config().geometry.page_bytes as u64);
        let fill = (pages + 1) as f64 / logical as f64;
        sim.ftl_mut()
            .precondition(fill.min(1.0), 0.0, &mut rng)
            .map_err(|e| e.to_string())
    }
}

/// Output checks of one cell; each entry is one failed check.
pub fn check(cell: &Cell, report: &SimReport) -> Vec<String> {
    let mut problems = Vec::new();
    if report.completed != cell.requests as u64 {
        problems.push(format!(
            "completed {} of {} requests",
            report.completed, cell.requests
        ));
    }
    if report.reliability.host_io_errors != 0 {
        problems.push(format!(
            "{} host I/O errors",
            report.reliability.host_io_errors
        ));
    }
    if report.unmapped_reads != 0 {
        problems.push(format!("{} unmapped reads", report.unmapped_reads));
    }
    if !report.oracle.violations.is_empty() {
        problems.push(format!(
            "oracle violations: {}",
            report.oracle.violations.join("; ")
        ));
    }
    if cell.cfg.oracle && report.oracle.checks == 0 {
        problems.push("oracle enabled but made no checks".into());
    }
    problems
}

/// Whether two reports agree on every simulated field except the oracle
/// block (the oracle observes; it must not change the simulation).
pub fn same_outside_oracle(a: &SimReport, b: &SimReport) -> bool {
    let mut a = a.clone();
    a.oracle = b.oracle.clone();
    a == *b
}

/// FNV-1a of a canonical report, for comparing simulated output across
/// builds.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact counts of one pass, per cell: scheduled events, GC events,
    /// pages copied, blocks erased, oracle checks, canonical digest.
    fn counts(w: Workload, seed: u64) -> Vec<[u64; 6]> {
        let mut rec = Recorder::new();
        w.cells()
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let run = run_cell(cell, seed, &mut rec, i as u64, None).expect("cell runs");
                let problems = check(cell, &run.report);
                assert!(problems.is_empty(), "{}: {problems:?}", w.name());
                let r = &run.report;
                [
                    r.engine.scheduled_events,
                    r.gc.events,
                    r.gc.pages_copied,
                    r.gc.blocks_erased,
                    r.oracle.checks,
                    fnv1a(run.canonical.as_bytes()),
                ]
            })
            .collect()
    }

    #[test]
    fn exact_counts_repeat_and_a_held_out_seed_runs_clean() {
        const HELD_OUT_SEED: u64 = 0x5EED_0FF5;
        for w in Workload::ALL {
            assert_eq!(
                counts(w, setup::EXPERIMENT_SEED),
                counts(w, setup::EXPERIMENT_SEED)
            );
            let held_out = counts(w, HELD_OUT_SEED);
            if w != Workload::IoMixed {
                assert!(held_out.iter().all(|c| c[1] > 0), "{}: GC ran", w.name());
            }
        }
    }

    #[test]
    fn stepwise_cells_match_the_runners() {
        let mut rec = Recorder::new();
        for w in [Workload::IoMixed, Workload::GcAged] {
            for cell in w.cells() {
                let stepwise =
                    run_cell(&cell, setup::EXPERIMENT_SEED, &mut rec, 0, None).expect("cell runs");
                let runner = cell
                    .run_with_runner(setup::EXPERIMENT_SEED)
                    .expect("runner runs");
                assert_eq!(stepwise.canonical, canonical_json(&runner));
                assert_eq!(
                    stepwise.report.engine.scheduled_events,
                    runner.engine.scheduled_events
                );
            }
        }
    }
}
