//! In-tree perf harness: runs a pinned cell set serially and in parallel,
//! runs the `EventQueue` microbench, and writes the measurements to
//! `BENCH.json`.
//!
//! ```text
//! cargo run --release -p nssd-bench --bin perf
//! NSSD_PERF_REQUESTS=2000 NSSD_JOBS=4 cargo run --release -p nssd-bench --bin perf
//! cargo run --release -p nssd-bench --bin perf -- --smoke   # CI gate sizing
//! ```
//!
//! The cell set is fixed (architectures × workloads at a pinned seed) so
//! successive runs measure the same work. For every cell the harness records
//! wall-clock, the engine's scheduled-event count, the derived events/sec,
//! and allocations/event (a process-wide counting allocator wraps `System`);
//! at the end it compares one serial pass (1 worker) against one parallel
//! pass (`NSSD_JOBS` workers, default: available parallelism) over the
//! identical cells and records the speedup plus peak RSS. Reports from the
//! two passes are asserted byte-identical before anything is written — the
//! perf harness doubles as an equivalence check.
//!
//! Trend usability: before overwriting `BENCH.json`, the prior file (if any)
//! is scanned and each cell carries `baseline_events_per_sec` + `delta_pct`
//! against its prior self (`null` against a baseline at another
//! `requests_per_cell`), with a top-level `"baseline"` stanza recording
//! what the comparison was made against. A `"queue"` section carries the
//! microbench breakdown (see `nssd_bench::queuebench`), including the
//! steady-state allocations/op probe that guards the allocation-free
//! hot-loop invariant.
//!
//! On a 1-CPU host (or with `NSSD_JOBS=1`) the serial-vs-parallel comparison
//! is meaningless; both passes still run for the equivalence assert, but
//! `"speedup"` is written as `null` and `"speedup_comparable"` as `false`
//! (`"detected_cpus"` records what the harness saw).
//!
//! Knobs: `NSSD_PERF_REQUESTS` (requests per cell, default 60000 — large
//! enough that steady-state per-event cost dominates cold-start transients;
//! 300 under `--smoke`), `NSSD_JOBS` (parallel worker count). Smoke runs
//! write `target/BENCH.smoke.json` so a CI gate never overwrites the
//! committed trend record, and gate on the measured records; `--out <path>`
//! overrides the output path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use nssd_bench::results::Results;
use nssd_bench::{queuebench, setup};
use nssd_core::{prepare_trace, Architecture, SimReport};
use nssd_sim::json::Json;
use nssd_sim::{obj, Pool};
use nssd_workloads::PaperWorkload;

/// `System`, plus a process-wide allocation counter. Counting is two relaxed
/// atomic increments per allocation — cheap enough to leave on for the whole
/// measurement, and the same allocator measures every pass, so cells remain
/// comparable run-over-run.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn perf_requests(smoke: bool) -> usize {
    std::env::var("NSSD_PERF_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 300 } else { 60_000 })
}

/// Peak resident set size in kB, from `/proc/self/status` (`VmHWM`).
/// `None` on platforms without procfs.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// The pinned measurement matrix: three architectures × two workloads.
fn cells() -> Vec<(Architecture, PaperWorkload)> {
    let arches = [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsdSplit,
    ];
    let workloads = [PaperWorkload::YcsbA, PaperWorkload::WebSearch0];
    arches
        .into_iter()
        .flat_map(|a| workloads.map(|w| (a, w)))
        .collect()
}

/// Runs every cell; each result carries the allocation count observed around
/// the event loop itself — construction, preconditioning, and trace
/// generation happen before the counter snapshot, so `allocs_per_event`
/// tracks the hot loop (plus final report assembly), not setup. Meaningful
/// per cell only in the serial pass, where cells run one at a time — the
/// counter is process-wide.
fn run_cells(pool: Pool, requests: usize) -> (Vec<(SimReport, u64)>, f64) {
    let jobs: Vec<_> = cells()
        .into_iter()
        .map(|(arch, workload)| {
            move || {
                let cfg = setup::io_config(arch);
                let trace =
                    workload.generate(requests, setup::io_footprint(&cfg), setup::EXPERIMENT_SEED);
                let (sim, drive) = prepare_trace(cfg, trace).expect("perf cell prepare");
                let before = alloc_count();
                let report = sim.run(drive);
                (report, alloc_count().saturating_sub(before))
            }
        })
        .collect();
    let start = Instant::now();
    let reports = pool.map(jobs);
    (reports, start.elapsed().as_secs_f64() * 1e3)
}

/// A prior BENCH.json, scanned for comparison. The harness writes one cell
/// object per line, so a line-based scan of its own output is exact — in
/// both the spaced `"k": v` layout of older files and the writer's compact
/// `"k":v`; foreign or hand-edited files simply yield no baseline.
struct Baseline {
    schema: String,
    requests_per_cell: u64,
    /// `(architecture, workload, events_per_sec)` per prior cell.
    cells: Vec<(String, String, f64)>,
}

impl Baseline {
    fn parse(prior: &str) -> Option<Baseline> {
        let schema = json_str_field(prior, "schema")?;
        if !schema.starts_with("nssd-bench-perf/") {
            return None;
        }
        let requests_per_cell = json_num_field(prior, "requests_per_cell")? as u64;
        let cells = prior
            .lines()
            .filter_map(|line| {
                Some((
                    json_str_field(line, "architecture")?,
                    json_str_field(line, "workload")?,
                    json_num_field(line, "events_per_sec")?,
                ))
            })
            .collect();
        Some(Baseline {
            schema,
            requests_per_cell,
            cells,
        })
    }

    /// The prior events/sec of a cell — `None` when the baseline ran at a
    /// different scale, where a delta would compare unlike steady states.
    fn events_per_sec(&self, requests: usize, arch: &str, workload: &str) -> Option<f64> {
        if self.requests_per_cell != requests as u64 {
            return None;
        }
        self.cells
            .iter()
            .find(|(a, w, _)| a == arch && w == workload)
            .map(|&(_, _, eps)| eps)
            .filter(|&eps| eps > 0.0)
    }
}

/// The raw text after `"key":` (and any spaces) in `s`.
fn json_field<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let rest = &s[s.find(&pat)? + pat.len()..];
    Some(rest.trim_start().strip_prefix(':')?.trim_start())
}

fn json_str_field(s: &str, key: &str) -> Option<String> {
    let rest = json_field(s, key)?.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn json_num_field(s: &str, key: &str) -> Option<f64> {
    let rest = json_field(s, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One serial-pass cell as written to the artifact; `baseline_eps` is the
/// cell's prior events/sec, `None` when there is nothing comparable.
fn cell_json(
    (arch, workload): (Architecture, PaperWorkload),
    r: &SimReport,
    allocs: u64,
    baseline_eps: Option<f64>,
) -> Json {
    let (events, eps) = (r.engine.scheduled_events, r.engine.events_per_sec());
    obj! {
        architecture: arch.label(), workload: workload.name(),
        wall_ms: Json::fixed(r.engine.wall_clock.as_secs_f64() * 1e3, 3),
        scheduled_events: events, events_per_sec: Json::fixed(eps, 0),
        allocs_per_event: Json::fixed(allocs as f64 / events.max(1) as f64, 3),
        baseline_events_per_sec: Json::fixed(baseline_eps, 0),
        delta_pct: Json::fixed(baseline_eps.map(|b| (eps - b) / b * 100.0), 1),
    }
}

fn main() {
    let results = Results::from_args("perf");
    let smoke = results.smoke;
    let requests = perf_requests(smoke);
    let parallel_workers = Pool::from_env().workers();
    let detected_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // A serial-vs-parallel comparison on a 1-CPU host (or with NSSD_JOBS=1)
    // measures scheduling noise, not speedup — run both passes anyway (the
    // equivalence assert still matters) but don't report a speedup figure.
    let speedup_comparable = parallel_workers >= 2 && detected_cpus >= 2;
    eprintln!(
        ">>> perf harness: {} cells x {requests} requests, serial then {parallel_workers} \
         worker(s) on {detected_cpus} detected CPU(s){}",
        cells().len(),
        if smoke { " [smoke]" } else { "" }
    );

    let baseline = std::fs::read_to_string("BENCH.json")
        .ok()
        .and_then(|prior| Baseline::parse(&prior));

    let queue_ops = if smoke { 200_000 } else { 2_000_000 };
    let queue = queuebench::run(queue_ops, &alloc_count);
    eprintln!(
        ">>> queue: dense {:.1} Mops, bursts {:.1} Mops, far-future {:.1} Mops, \
         steady-state {:.4} allocs/op",
        queue.dense_mops, queue.burst_mops, queue.far_future_mops, queue.steady_state_allocs_per_op
    );

    let (serial_reports, serial_wall_ms) = run_cells(Pool::with_workers(1), requests);
    let (parallel_reports, parallel_wall_ms) = run_cells(Pool::from_env(), requests);

    // The perf harness is also an equivalence witness: the parallel pass must
    // reproduce the serial pass byte-for-byte.
    for (i, ((s, _), (p, _))) in serial_reports.iter().zip(&parallel_reports).enumerate() {
        assert_eq!(
            nssd_core::golden::canonical_json(s),
            nssd_core::golden::canonical_json(p),
            "cell {i}: parallel run diverged from serial"
        );
    }

    let speedup = speedup_comparable.then(|| serial_wall_ms / parallel_wall_ms.max(1e-9));
    let cells_json = Json::array(
        cells().into_iter().zip(&serial_reports),
        |(cell, (r, allocs))| {
            let prior = baseline
                .as_ref()
                .and_then(|b| b.events_per_sec(requests, cell.0.label(), cell.1.name()));
            cell_json(cell, r, *allocs, prior)
        },
    );
    let queue_json = obj! {
        ops: queue_ops,
        dense_schedule_pop_mops: Json::fixed(queue.dense_mops, 2),
        same_tick_burst_mops: Json::fixed(queue.burst_mops, 2),
        far_future_mix_mops: Json::fixed(queue.far_future_mops, 2),
        steady_state_allocs_per_op: Json::fixed(queue.steady_state_allocs_per_op, 6),
    };
    let baseline_json = baseline.as_ref().map(|b| {
        obj! { schema: b.schema.as_str(), requests_per_cell: b.requests_per_cell }
    });
    let body = obj! {
        requests_per_cell: requests, parallel_workers: parallel_workers,
        detected_cpus: detected_cpus, smoke: smoke, cells: cells_json, queue: queue_json,
        baseline: baseline_json,
        serial_wall_ms: Json::fixed(serial_wall_ms, 3),
        parallel_wall_ms: Json::fixed(parallel_wall_ms, 3),
        speedup_comparable: speedup_comparable, speedup: Json::fixed(speedup, 3),
        peak_rss_kb: peak_rss_kb(),
    };
    // Smoke runs are a CI gate, not a measurement: they compare against the
    // committed baseline but write elsewhere, so a 300-request gate run
    // never clobbers the trend record.
    let path = if smoke {
        "target/BENCH.smoke.json"
    } else {
        "BENCH.json"
    };
    results.write(path, "nssd-bench-perf/2", body, 2);
    if let Some(b) = &baseline {
        let scale = if b.requests_per_cell == requests as u64 {
            ""
        } else {
            " (another scale: no per-cell deltas)"
        };
        eprintln!(
            ">>> baseline: compared against prior {} run at {} requests/cell{scale}",
            b.schema, b.requests_per_cell
        );
    }
    match speedup {
        Some(speedup) => eprintln!(
            ">>> serial {serial_wall_ms:.0} ms, parallel {parallel_wall_ms:.0} ms \
             ({parallel_workers} workers) -> {speedup:.2}x"
        ),
        None => eprintln!(
            ">>> serial {serial_wall_ms:.0} ms, parallel {parallel_wall_ms:.0} ms \
             ({parallel_workers} workers, {detected_cpus} CPUs — speedup not comparable)"
        ),
    }
    // The smoke gate: the cells ran, the committed baseline was found,
    // `speedup` is reported exactly when comparable (and then positive), the
    // queue hot loop is allocation-free, and no cell falls below a coarse
    // events/sec floor — a catastrophic event-core regression (orders of
    // magnitude, not noise).
    results.smoke_gate(|| {
        let ran = !serial_reports.is_empty() && detected_cpus >= 1;
        let speedup_ok = speedup.is_some() == speedup_comparable && speedup.is_none_or(|s| s > 0.0);
        let queue_ok = queue.steady_state_allocs_per_op < 0.01 && queue.dense_mops > 1.0;
        let mut checks = vec![
            (
                ran,
                format!("{} cells on {detected_cpus} CPUs", serial_reports.len()),
            ),
            (
                baseline.is_some(),
                "committed BENCH.json baseline missing".into(),
            ),
            (
                speedup_ok,
                format!("speedup {speedup:?}, comparable {speedup_comparable}"),
            ),
            (queue_ok, format!("{queue:?}")),
        ];
        for ((arch, workload), (r, _)) in cells().iter().zip(&serial_reports) {
            let eps = r.engine.events_per_sec();
            let cell = format!("{} x {}: {eps:.0} events/s", arch.label(), workload.name());
            checks.push((eps > 200_000.0, cell));
        }
        checks
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed BENCH.json layout (`"k": v`) and the writer's compact
    /// cell layout (`"k":v`) must both scan to the same baseline.
    #[test]
    fn baseline_reader_accepts_both_layouts() {
        let spaced = "{\n  \"schema\": \"nssd-bench-perf/2\",\n  \"requests_per_cell\": 60000,\n  \
             \"cells\": [\n    {\"architecture\": \"baseSSD\", \"workload\": \"ycsb-a\", \
             \"wall_ms\": 74.147, \"events_per_sec\": 6878441, \
             \"baseline_events_per_sec\": 4705447}\n  ]\n}\n";
        let cell = obj! {
            architecture: "baseSSD", workload: "ycsb-a", events_per_sec: Json::fixed(6878441.0, 0),
            baseline_events_per_sec: Json::fixed(4705447.0, 0),
        };
        let compact = nssd_sim::json::render(
            &obj! { schema: "nssd-bench-perf/2", requests_per_cell: 60_000u64, cells: Json::Array(vec![cell]) },
            2,
        );
        assert!(
            compact.contains("\n    {\"architecture\":\"baseSSD\","),
            "{compact}"
        );
        for text in [spaced, compact.as_str()] {
            let b = Baseline::parse(text).expect("baseline parses");
            assert_eq!(b.schema, "nssd-bench-perf/2");
            assert_eq!(b.requests_per_cell, 60_000);
            let want = vec![("baseSSD".to_string(), "ycsb-a".to_string(), 6_878_441.0)];
            assert_eq!(b.cells, want, "{text}");
        }
        assert!(Baseline::parse("{\"schema\": \"other/1\"}").is_none());
    }

    /// A baseline at another `requests_per_cell` yields no prior, so the
    /// cell's `baseline_events_per_sec` and `delta_pct` render as `null`.
    #[test]
    fn deltas_are_null_against_a_baseline_at_another_scale() {
        let b = Baseline {
            schema: "nssd-bench-perf/2".into(),
            requests_per_cell: 60_000,
            cells: vec![("baseSSD".into(), "ycsb-a".into(), 4_000_000.0)],
        };
        assert_eq!(b.events_per_sec(60_000, "baseSSD", "ycsb-a"), Some(4e6));
        assert_eq!(b.events_per_sec(60_000, "pSSD", "ycsb-a"), None);
        assert_eq!(b.events_per_sec(300, "baseSSD", "ycsb-a"), None);

        let (reports, _) = run_cells(Pool::with_workers(1), 40);
        let (r, allocs) = &reports[0];
        let cell = cells()[0];
        let prior = b.events_per_sec(40, "baseSSD", "ycsb-a");
        let rendered = cell_json(cell, r, *allocs, prior).to_string();
        assert!(
            rendered.ends_with(",\"baseline_events_per_sec\":null,\"delta_pct\":null}"),
            "{rendered}"
        );
        let rendered =
            cell_json(cell, r, *allocs, Some(r.engine.events_per_sec() / 2.0)).to_string();
        assert!(rendered.ends_with(",\"delta_pct\":100.0}"), "{rendered}");
    }
}
