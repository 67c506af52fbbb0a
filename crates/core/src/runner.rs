//! The run API: a device configuration, the [`Drive`] that runs on it, and
//! how the device is aged first. [`prepare`] is the one way to build a
//! prepared device; the unrun [`SsdSim`] it returns can be run, stepped or
//! checkpointed.
//!
//! [`run_trace`] and [`run_trace_preconditioned`] are open-loop shorthands
//! over it. They accept anything implementing [`TraceInput`]: pass `&Trace`
//! when the same trace feeds many experiment cells (the records are copied
//! once into the engine), or an owned [`Trace`] to move the request list
//! into the [`Drive`] without a copy.

use nssd_host::IoRequest;
use nssd_workloads::Trace;

use crate::{Drive, SimReport, SsdConfig, SsdSim};

/// A source of the request list driving a run: `&Trace` costs a copy, an
/// owned [`Trace`] does not.
pub trait TraceInput {
    /// Consumes the input into the arrival-ordered request list.
    fn into_records(self) -> Vec<IoRequest>;
}

impl TraceInput for Trace {
    fn into_records(self) -> Vec<IoRequest> {
        Trace::into_records(self)
    }
}

impl TraceInput for &Trace {
    fn into_records(self) -> Vec<IoRequest> {
        self.records().to_vec()
    }
}

/// How [`prepare`] ages a fresh device before the run. A device with no
/// aging at all is [`SsdSim::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aging {
    /// Sequentially map every page the drive's footprint covers, so reads
    /// hit flash rather than the unmapped-page fast path, without
    /// fragmenting blocks (the no-GC experiments, Figs 14–17).
    ///
    /// The device is fresh, so `Ftl::precondition` builds this fill stripe
    /// by stripe rather than page by page. Every fill write on a fresh
    /// device lands where the stripe order puts it and draws no
    /// randomness, so the result is byte-identical to writing the pages
    /// one at a time.
    Footprint,
    /// Write `fill` of the logical space, apply `overwrite × logical`
    /// random overwrites, then pressurize so garbage collection has work
    /// immediately (Figs 18–20). The drive's footprint must lie inside the
    /// filled region.
    Aged {
        /// Fraction of the logical space written.
        fill: f64,
        /// Random overwrites, as a multiple of the logical page count.
        overwrite: f64,
    },
}

/// Builds the device `drive` will run on: a fresh [`SsdSim`] for `cfg`,
/// aged per `aging`. Run it with [`SsdSim::run`], or step it from
/// [`SsdSim::start`].
///
/// ```
/// use nssd_core::{prepare, Aging, Architecture, Drive, SsdConfig};
/// use nssd_workloads::PaperWorkload;
///
/// let cfg = SsdConfig::tiny(Architecture::PnSsd);
/// let trace = PaperWorkload::YcsbA.generate(50, cfg.logical_bytes() / 2, 7);
/// let drive = Drive::ClosedLoop { requests: trace.into_records(), depth: 16 };
/// let report = prepare(cfg, &drive, Aging::Footprint)?.run(drive);
/// assert_eq!(report.completed, 50);
/// # Ok::<(), String>(())
/// ```
///
/// Aging draws from a clone of the simulator's RNG, so the run itself
/// starts from the seed's untouched stream.
///
/// # Errors
///
/// Returns a message for invalid configurations, a multi-tenant drive with
/// no tenants, a drive whose footprint does not fit the aged region, or
/// [`Aging::Aged`] fractions outside `fill ∈ [0, 1]`, `overwrite ∈ [0, 2]`.
pub fn prepare(cfg: SsdConfig, drive: &Drive, aging: Aging) -> Result<SsdSim, String> {
    if matches!(drive, Drive::MultiTenant { tenants, .. } if tenants.is_empty()) {
        return Err("multi-tenant run needs at least one tenant stream".into());
    }
    let mut sim = SsdSim::new(cfg)?;
    let page = sim.config().geometry.page_bytes as u64;
    let logical = sim.ftl().logical_pages();
    let footprint_pages = drive.footprint_bytes().div_ceil(page);
    let mut rng = sim.rng_mut().clone();
    let ftl = sim.ftl_mut();
    match aging {
        Aging::Footprint => {
            if footprint_pages > logical {
                return Err(format!(
                    "trace footprint ({footprint_pages} pages) exceeds logical capacity \
                     ({logical})"
                ));
            }
            // One page of headroom so float rounding in `precondition`'s
            // fraction-to-count conversion can never leave the last page
            // unmapped.
            let fill = (footprint_pages + 1) as f64 / logical as f64;
            ftl.precondition(fill.min(1.0), 0.0, &mut rng)
        }
        Aging::Aged { fill, overwrite } => {
            let filled = (logical as f64 * fill) as u64;
            if footprint_pages > filled {
                return Err(format!(
                    "trace footprint ({footprint_pages} pages) exceeds the preconditioned \
                     region ({filled} pages); shrink the footprint or raise the fill fraction"
                ));
            }
            ftl.precondition(fill, overwrite, &mut rng)
                .and_then(|()| ftl.pressurize(filled.max(1), &mut rng))
        }
    }
    .map_err(|e| e.to_string())?;
    Ok(sim)
}

/// Runs a trace open-loop (arrivals at trace timestamps) on a device aged
/// with [`Aging::Footprint`].
///
/// # Errors
///
/// Returns a message for invalid configurations or infeasible traces.
pub fn run_trace(cfg: SsdConfig, trace: impl TraceInput) -> Result<SimReport, String> {
    run_open_loop(cfg, trace, Aging::Footprint)
}

/// Runs a trace open-loop on a device aged with [`Aging::Aged`], so garbage
/// collection triggers naturally during the run (Figs 18–20).
///
/// # Errors
///
/// Returns a message for invalid configurations or infeasible traces.
pub fn run_trace_preconditioned(
    cfg: SsdConfig,
    trace: impl TraceInput,
    fill: f64,
    overwrite: f64,
) -> Result<SimReport, String> {
    run_open_loop(cfg, trace, Aging::Aged { fill, overwrite })
}

fn run_open_loop(
    cfg: SsdConfig,
    trace: impl TraceInput,
    aging: Aging,
) -> Result<SimReport, String> {
    let drive = Drive::OpenLoop(trace.into_records());
    Ok(prepare(cfg, &drive, aging)?.run(drive))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Architecture;
    use nssd_workloads::PaperWorkload;

    #[test]
    fn aging_fractions_out_of_range_are_errors() {
        let cfg = SsdConfig::tiny(Architecture::BaseSsd);
        let trace = PaperWorkload::YcsbA.generate(20, cfg.logical_bytes() / 4, 3);
        let traced = Drive::OpenLoop(trace.into_records());
        // With no footprint to check, only the fractions can fail.
        let empty = Drive::OpenLoop(Vec::new());
        for (fill, overwrite) in [
            (1.5, 0.3),
            (f64::INFINITY, 0.0),
            (-0.5, 0.3),
            (f64::NAN, 0.3),
            (0.9, 2.5),
            (0.9, -0.1),
            (0.9, f64::NAN),
        ] {
            let aging = Aging::Aged { fill, overwrite };
            for drive in [&traced, &empty] {
                let Err(e) = prepare(cfg, drive, aging) else {
                    panic!("{aging:?} accepted");
                };
                if drive.footprint_bytes() == 0 {
                    assert!(e.contains("fraction"), "{aging:?}: {e}");
                }
            }
        }
        let too_full = Aging::Aged {
            fill: 1.5,
            overwrite: 0.3,
        };
        let e = prepare(cfg, &traced, too_full).err();
        assert!(e.is_some_and(|e| e.contains("fill fraction 1.5")));
        let edge = Aging::Aged {
            fill: 1.0,
            overwrite: 2.0,
        };
        assert!(prepare(cfg, &empty, edge).is_ok());
    }
}
