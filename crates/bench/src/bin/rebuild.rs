//! Degraded-mode and rebuild experiment: parity redundancy under a
//! fail-stop chip failure, swept over architecture × stripe width.
//!
//! Each run stripes user data plus rotated parity across the configured
//! groups, kills chip (0, 0) a third of the way into a YCSB-A trace, and
//! measures what the interconnect makes of the aftermath: the
//! degraded-window read tail (reads served by reconstructing the lost page
//! from surviving stripe members), the reconstruction volume, and the time
//! the background rebuild needs to re-protect the device. Networked
//! fabrics reconstruct flash-to-flash where the topology allows it; the
//! dedicated-signal baseline must bounce every surviving page through the
//! controller, which is the comparison this experiment exists to expose.
//!
//! Results go to `target/rebuild.json` (override with `--out`) and a
//! human-readable table to stdout.
//!
//! Usage: `rebuild [--smoke] [--out <path>]`

use nssd_bench::results::Results;
use nssd_core::{prepare_trace, Architecture, SimReport, SsdConfig};
use nssd_flash::Geometry;
use nssd_ftl::RedundancyConfig;
use nssd_sim::json::Json;
use nssd_sim::{obj, SimTime};
use nssd_workloads::PaperWorkload;

/// One (architecture, stripe width) cell of the sweep.
#[derive(Debug)]
struct RebuildRecord {
    arch: Architecture,
    stripe_width: u32,
    completed: u64,
    /// Read tail of the run with the chip failure injected.
    read_p99_us: f64,
    /// Read tail of the *control* run — same architecture, stripe width,
    /// trace and seed, no failure. The ratio against `read_p99_us` is the
    /// host-visible cost of reconstruction and rebuild traffic, which is
    /// the number the fabric routing changes.
    control_read_p99_us: f64,
    /// Tail of host requests that needed at least one reconstruction.
    degraded_p99_us: Option<f64>,
    degraded_reads: u64,
    reconstructed_reads: u64,
    pages_degraded: u64,
    rebuild_pages: u64,
    rebuild_time_us: Option<f64>,
    pages_lost: u64,
    host_io_errors: u64,
}

/// A geometry every swept stripe width tiles exactly: 4 channels host
/// width-2 and width-4 parity groups, and the 8192-page array keeps the
/// debug-mode sweep in seconds.
fn geometry() -> Geometry {
    Geometry {
        channels: 4,
        ways: 2,
        dies: 1,
        planes: 2,
        blocks_per_plane: 16,
        pages_per_block: 32,
        page_bytes: 4096,
    }
}

fn run_cell(
    arch: Architecture,
    stripe_width: u32,
    requests: usize,
    seed: u64,
    fail: bool,
) -> Result<SimReport, String> {
    let mut cfg = SsdConfig::tiny(arch);
    cfg.geometry = geometry();
    cfg.redundancy = RedundancyConfig::with_stripe(stripe_width);
    cfg.seed = seed;
    cfg.oracle = true;
    let trace = PaperWorkload::YcsbA.generate(requests, cfg.logical_bytes() / 2, seed);
    if fail {
        // Fail the chip when the trace is a third through its arrivals:
        // enough writes have landed on the victim for the failure to
        // strand real data, enough reads follow to sample the degraded
        // window.
        let fail_at = trace.records()[requests / 3].at + SimTime::from_ns(1);
        cfg.faults.chip_failure = Some(nssd_core::ChipFailureSpec {
            channel: 0,
            way: 0,
            at: fail_at,
        });
    }
    let (sim, drive) = prepare_trace(cfg, trace)?;
    Ok(sim.run(drive))
}

fn record(
    arch: Architecture,
    stripe_width: u32,
    r: &SimReport,
    control: &SimReport,
) -> Result<RebuildRecord, String> {
    let red = r
        .redundancy
        .ok_or_else(|| format!("{}: report lacks redundancy summary", arch.label()))?;
    Ok(RebuildRecord {
        arch,
        stripe_width,
        completed: r.completed,
        read_p99_us: r.read.p99.as_us_f64(),
        control_read_p99_us: control.read.p99.as_us_f64(),
        degraded_p99_us: (red.degraded.count > 0).then(|| red.degraded.p99.as_us_f64()),
        degraded_reads: red.degraded.count,
        reconstructed_reads: r.reliability.reconstructed_reads,
        pages_degraded: r.reliability.pages_degraded,
        rebuild_pages: red.rebuild_pages,
        rebuild_time_us: red.rebuild_time().map(|t| t.as_us_f64()),
        pages_lost: r.reliability.pages_lost,
        host_io_errors: r.reliability.host_io_errors,
    })
}

impl RebuildRecord {
    fn to_json(&self) -> Json {
        obj! {
            architecture: self.arch.label(), stripe_width: self.stripe_width,
            completed: self.completed, read_p99_us: Json::fixed(self.read_p99_us, 1),
            control_read_p99_us: Json::fixed(self.control_read_p99_us, 1),
            degraded_p99_us: Json::fixed(self.degraded_p99_us, 1),
            degraded_reads: self.degraded_reads, reconstructed_reads: self.reconstructed_reads,
            pages_degraded: self.pages_degraded, rebuild_pages: self.rebuild_pages,
            rebuild_time_us: Json::fixed(self.rebuild_time_us, 1),
            pages_lost: self.pages_lost, host_io_errors: self.host_io_errors,
        }
    }
}

/// The smoke gate: one run per fabric, in each of which the failure
/// stranded live data that reconstruction served, and the rebuild
/// re-protected the device within the run with zero loss.
fn smoke_checks(records: &[RebuildRecord]) -> Vec<(bool, String)> {
    let count = format!("{} runs, expected 4", records.len());
    let mut checks = vec![(records.len() == 4, count)];
    checks.extend(records.iter().map(|r| {
        let served = r.pages_degraded > 0 && r.reconstructed_reads > 0;
        let tail = r.degraded_p99_us.is_some_and(|p| p > 0.0);
        let rebuilt = r.rebuild_pages > 0 && r.rebuild_time_us.is_some();
        let lossless = r.pages_lost == 0 && r.host_io_errors == 0;
        (served && tail && rebuilt && lossless, format!("{r:?}"))
    }));
    checks
}

fn main() {
    let results = Results::from_args("rebuild");
    let (requests, widths): (usize, &[u32]) = if results.smoke {
        (600, &[2])
    } else {
        (4_000, &[2, 4])
    };

    let archs = [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsd,
        Architecture::NoSsdUnconstrained,
    ];
    let mut records = Vec::new();
    for &width in widths {
        for arch in archs {
            eprintln!(">>> {} stripe {width}: {requests} requests", arch.label());
            let label = arch.label();
            let run = |fail| {
                let r = run_cell(arch, width, requests, 0x2EB1, fail)
                    .unwrap_or_else(|e| results.fail(format!("{label}: {e}")));
                if !r.oracle.violations.is_empty() {
                    let violations = r.oracle.violations.join("\n");
                    results.fail(format!("{label}: oracle violations:\n{violations}"));
                }
                r
            };
            let control = run(false);
            let report = run(true);
            let rec = record(arch, width, &report, &control).unwrap_or_else(|e| results.fail(e));
            println!(
                "{:<14} stripe {} read-p99 {:>8.1}µs (healthy {:>8.1}µs, \
                 x{:.2}) degraded-p99 {:>8}µs ({} reads, {} reconstructions) \
                 rebuilt {} pages in {}µs, lost {}",
                rec.arch.label(),
                rec.stripe_width,
                rec.read_p99_us,
                rec.control_read_p99_us,
                rec.read_p99_us / rec.control_read_p99_us,
                Json::fixed(rec.degraded_p99_us, 1),
                rec.degraded_reads,
                rec.reconstructed_reads,
                rec.rebuild_pages,
                Json::fixed(rec.rebuild_time_us, 1),
                rec.pages_lost,
            );
            records.push(rec);
        }
    }

    let body = obj! { runs: Json::array(&records, RebuildRecord::to_json) };
    results.write("target/rebuild.json", "nssd-bench-rebuild/1", body, 2);
    results.smoke_gate(|| smoke_checks(&records));
}
