//! The repository benchmark: host time a Networked SSD simulation costs,
//! end to end and split by layer.
//!
//! ```text
//! cargo run --release --manifest-path nssdbench/Cargo.toml -- \
//!     --workload io-mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process, one thread, cells run serially. A run repeats passes over
//! the workload's cells (see [`cells::Workload`]) for `--seconds` seconds
//! after one untimed warm-up pass and reports medians over the passes;
//! `setup_s` is the median of dedicated set-up rounds. All times are host
//! time, normalised for host drift by an interleaved probe (see [`probe`]);
//! simulated statistics are deterministic and serve as output checks.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics: it alternates untraced and traced passes, keeps one span per
//! layer call of the traced passes, writes them to
//! `nssdbench/out/spans-<workload>-<seed>.jsonl` and reports the tracing
//! overhead. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. An operation is one
//! simulated cell; a cell fails when any output check fails.
//!
//! `nssdbench/METRICS.md` records why each workload was chosen and which
//! end-to-end metric each per-layer metric should move.

mod alloc;
mod cells;
mod probe;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use nssd_bench::{queuebench, setup};
use nssd_core::{Architecture, Checkpoint, SimReport, SsdSim};
use nssd_ftl::GcPolicy;

use cells::{Cell, CellRun, Workload};
use spans::Recorder;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Timed passes a run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 7;
/// Dedicated set-up rounds behind `setup_s`.
const SETUP_ROUNDS: usize = 15;
/// Checkpoint save/resume repeats in the traced run.
const CKPT_REPEATS: usize = 5;
/// Operations per front of the event-queue microbench.
const QUEUE_OPS: usize = 1_000_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::IoMixed,
        seed: setup::EXPERIMENT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(&value).ok_or(format!(
                    "unknown workload {value:?}; expected one of {:?}",
                    Workload::ALL.map(Workload::name)
                ))?
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in 0..=600".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Counts operations and failures, and holds what every later repeat of a
/// cell must reproduce.
struct Checker {
    workload: Workload,
    attempted: u64,
    failed: u64,
    /// Canonical JSON and scheduled-event count of each cell's first run.
    first: Vec<Option<(String, u64)>>,
    /// The oracle-off run `oracle-gc` must match outside the oracle block.
    reference: Option<SimReport>,
}

impl Checker {
    fn new(workload: Workload, cells: usize) -> Self {
        Checker {
            workload,
            attempted: 0,
            failed: 0,
            first: vec![None; cells],
            reference: None,
        }
    }

    fn record(&mut self, cell: &Cell, problems: &[String]) {
        self.attempted += 1;
        for p in problems {
            eprintln!("FAILED {}/{}: {p}", self.workload.name(), cell.arch_name());
        }
        self.failed += u64::from(!problems.is_empty());
    }

    /// Checks the oracle-off reference run and keeps it when clean.
    fn reference(&mut self, cell: &Cell, run: Result<SimReport, String>) {
        let problems = match &run {
            Ok(r) => cells::check(cell, r),
            Err(e) => vec![format!("reference run: {e}")],
        };
        self.record(cell, &problems);
        if problems.is_empty() {
            self.reference = run.ok();
        }
    }

    /// Checks run `index` of the workload's cells.
    fn cell(&mut self, index: usize, cell: &Cell, run: &Result<CellRun, String>) {
        let run = match run {
            Ok(run) => run,
            Err(e) => return self.record(cell, std::slice::from_ref(e)),
        };
        let mut problems = cells::check(cell, &run.report);
        let events = run.report.engine.scheduled_events;
        match &self.first[index] {
            None => {
                println!(
                    "digest {}/{} fnv1a={:#018x} events={events}",
                    self.workload.name(),
                    cell.arch_name(),
                    cells::fnv1a(run.canonical.as_bytes())
                );
                self.first[index] = Some((run.canonical.clone(), events));
            }
            Some((canonical, first_events)) => {
                if *canonical != run.canonical {
                    problems.push("canonical report differs from the first run".into());
                }
                if *first_events != events {
                    problems.push(format!(
                        "{events} scheduled events, first run had {first_events}"
                    ));
                }
            }
        }
        if self.workload == Workload::OracleGc {
            match &self.reference {
                Some(r) if cells::same_outside_oracle(&run.report, r) => {}
                Some(_) => problems.push("report differs from the oracle-off run".into()),
                None => problems.push("no clean oracle-off reference run".into()),
            }
        }
        self.record(cell, &problems);
    }
}

/// What one pass over the workload's cells measured.
#[derive(Default)]
struct Pass {
    traced: bool,
    wall: f64,
    setup: f64,
    run: f64,
    /// Loop seconds and scheduled events per architecture.
    arch: BTreeMap<&'static str, (f64, u64)>,
    loop_allocs: u64,
    /// Self seconds per span name (traced passes only).
    self_s: BTreeMap<&'static str, f64>,
    /// Summed exact counts: GC events, pages copied, blocks erased, oracle
    /// checks, host page writes, GC relocations.
    counts: [u64; 6],
}

impl Pass {
    fn layer(&self, span: &str) -> f64 {
        self.self_s.get(span).copied().unwrap_or(0.0)
    }

    /// Multiplies every host time of the pass by `k`.
    fn normalise(&mut self, k: f64) {
        self.wall *= k;
        self.setup *= k;
        self.run *= k;
        self.arch.values_mut().for_each(|a| a.0 *= k);
        self.self_s.values_mut().for_each(|s| *s *= k);
    }
}

fn run_pass(
    cells: &[Cell],
    seed: u64,
    rec: &mut Recorder,
    checker: &mut Checker,
    number: u64,
    traced: bool,
) -> Pass {
    rec.tracing = traced;
    alloc::set_counting(traced);
    let mark = rec.len();
    let mut pass = Pass {
        traced,
        ..Pass::default()
    };
    let whole = rec.begin("pass", 0);
    for (i, cell) in cells.iter().enumerate() {
        let run = cells::run_cell(cell, seed, rec, number * 16 + i as u64, None);
        checker.cell(i, cell, &run);
        let Ok(run) = run else { continue };
        let r = &run.report;
        pass.setup += run.setup_s;
        pass.run += run.loop_s;
        let arch = pass.arch.entry(cell.arch_name()).or_default();
        arch.0 += run.loop_s;
        arch.1 += r.engine.scheduled_events;
        pass.loop_allocs += run.loop_allocs;
        let counts = [
            r.gc.events,
            r.gc.pages_copied,
            r.gc.blocks_erased,
            r.oracle.checks,
            r.ftl.host_writes,
            r.ftl.gc_relocations,
        ];
        for (sum, c) in pass.counts.iter_mut().zip(counts) {
            *sum += c;
        }
    }
    pass.wall = rec.end(whole);
    if traced {
        pass.self_s = rec.self_seconds(mark);
    }
    rec.tracing = false;
    alloc::set_counting(false);
    pass
}

/// Checkpoint costs: saves and resumes the prepared first cell's device
/// `CKPT_REPEATS` times, then runs the last resumed copy, which must
/// reproduce the cell's report. Returns median save and resume seconds and
/// the image size in bytes.
fn checkpoint_costs(
    cell: &Cell,
    seed: u64,
    rec: &mut Recorder,
    checker: &mut Checker,
) -> (f64, f64, f64) {
    rec.tracing = true;
    let (mut saves, mut resumes, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    let mut hook = |rec: &mut Recorder, mut sim: SsdSim| -> Result<SsdSim, String> {
        for _ in 0..CKPT_REPEATS {
            let t = rec.begin("ckpt.save", 0);
            let image = Checkpoint::save(&sim);
            saves.push(rec.end(t));
            bytes = image.len();
            let t = rec.begin("ckpt.resume", 0);
            let resumed = Checkpoint::resume(*sim.config(), &image);
            resumes.push(rec.end(t));
            sim = resumed?;
        }
        Ok(sim)
    };
    let run = cells::run_cell(cell, seed, rec, 0, Some(&mut hook));
    checker.cell(0, cell, &run);
    rec.tracing = false;
    (median(&mut saves), median(&mut resumes), bytes as f64)
}

/// Event-queue microbench, three times; median Mops/s of the dense, burst
/// and far-future fronts.
fn queue_bench(rec: &mut Recorder) -> [f64; 3] {
    rec.tracing = true;
    let runs: Vec<_> = (0..3)
        .map(|_| {
            let t = rec.begin("sim.queue", 0);
            let q = queuebench::run(QUEUE_OPS, &|| 0);
            let _ = rec.end(t);
            q
        })
        .collect();
    rec.tracing = false;
    let front =
        |f: fn(&queuebench::QueueBench) -> f64| median(&mut runs.iter().map(f).collect::<Vec<_>>());
    [
        front(|q| q.dense_mops),
        front(|q| q.burst_mops),
        front(|q| q.far_future_mops),
    ]
}

fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn median_of<'a>(passes: impl Iterator<Item = &'a Pass>, f: impl Fn(&Pass) -> f64) -> f64 {
    median(&mut passes.map(f).collect::<Vec<_>>())
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM line in /proc/self/status".into())
}

/// `SETUP_ROUNDS` rounds of set-up alone: trace generation, construction
/// and preconditioning of every cell of the workload, nothing run, each
/// followed by a host-speed probe. Returns each round's host seconds,
/// normalised by the probes around it.
fn setup_rounds(
    cells: &[Cell],
    seed: u64,
    rec: &mut Recorder,
    probes: &mut Vec<f64>,
) -> Result<Vec<f64>, String> {
    (0..SETUP_ROUNDS)
        .map(|_| {
            let round = cells.iter().try_fold(0.0, |total, cell| {
                Ok(total + black_box(cells::prepare(cell, seed, rec, 0)?).2)
            });
            let k = probe::bracketed(probes);
            round.map(|s| s * k)
        })
        .collect()
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn end_to_end(passes: &[Pass], mut setup_rounds: Vec<f64>, peak_rss_mb: f64) -> Vec<Metric> {
    let all = || passes.iter();
    vec![
        ("wall_s".into(), median_of(all(), |p| p.wall), "s"),
        ("setup_s".into(), median(&mut setup_rounds), "s"),
        ("loop_s".into(), median_of(all(), |p| p.run), "s"),
        ("peak_rss_mb".into(), peak_rss_mb, "MB"),
    ]
}

/// Per-layer metrics from the traced passes; untraced passes give the
/// baseline for the tracing overhead and the oracle's loop overhead.
fn per_layer(
    passes: &[Pass],
    queue: [f64; 3],
    ckpt: (f64, f64, f64),
    reference_loop: f64,
) -> Vec<Metric> {
    let traced = || passes.iter().filter(|p| p.traced);
    let untraced = || passes.iter().filter(|p| !p.traced);
    let layer = |span: &str| median_of(traced(), |p| p.layer(span));
    let last = passes.last().expect("a run makes at least one pass");
    let mut m: Vec<Metric> = vec![
        (
            "workloads.generate_s".into(),
            layer("workloads.generate"),
            "s",
        ),
        ("core.construct_s".into(), layer("core.construct"), "s"),
        ("ftl.precondition_s".into(), layer("ftl.precondition"), "s"),
        ("ckpt.save_s".into(), ckpt.0, "s"),
        ("ckpt.resume_s".into(), ckpt.1, "s"),
        ("ckpt.bytes".into(), ckpt.2, "bytes"),
    ];
    for arch in cells::IO_ARCHES.map(cells::arch_name) {
        let run = median_of(traced(), |p| p.arch.get(arch).map_or(0.0, |a| a.0));
        let events = last.arch.get(arch).map_or(0, |a| a.1);
        let ns = if events == 0 {
            0.0
        } else {
            run * 1e9 / events as f64
        };
        m.push((format!("engine.loop_s.{arch}"), run, "s"));
        m.push((format!("engine.events.{arch}"), events as f64, "count"));
        m.push((format!("engine.ns_per_event.{arch}"), ns, "ns"));
    }
    let allocs: u64 = traced().map(|p| p.loop_allocs).sum();
    let events: u64 = traced().flat_map(|p| p.arch.values().map(|a| a.1)).sum();
    m.push((
        "engine.allocs_per_event".into(),
        allocs as f64 / events.max(1) as f64,
        "allocs/event",
    ));
    m.push(("sim.queue.dense_mops".into(), queue[0], "Mops/s"));
    m.push(("sim.queue.burst_mops".into(), queue[1], "Mops/s"));
    m.push(("sim.queue.far_future_mops".into(), queue[2], "Mops/s"));
    let [gc_events, copied, erased, checks, host_writes, relocations] = last.counts;
    m.push(("gc.events".into(), gc_events as f64, "count"));
    m.push(("gc.pages_copied".into(), copied as f64, "count"));
    m.push(("gc.blocks_erased".into(), erased as f64, "count"));
    let wa = if host_writes == 0 {
        1.0
    } else {
        (host_writes + relocations) as f64 / host_writes as f64
    };
    m.push(("ftl.write_amplification".into(), wa, "x"));
    m.push(("oracle.sync_s".into(), layer("oracle.sync"), "s"));
    m.push(("oracle.checks".into(), checks as f64, "count"));
    let overhead_x = if reference_loop > 0.0 {
        median_of(untraced(), |p| p.run) / reference_loop
    } else {
        0.0
    };
    m.push(("oracle.loop_overhead_x".into(), overhead_x, "x"));
    m.push(("report.assemble_s".into(), layer("report.assemble"), "s"));
    let overhead = median_of(traced(), |p| p.wall) - median_of(untraced(), |p| p.wall);
    m.push(("trace.overhead_s".into(), overhead, "s"));
    m
}

fn write_spans(rec: &Recorder, w: Workload, seed: u64) -> Result<(), String> {
    let dir = std::path::Path::new("nssdbench").join("out");
    let path = dir.join(format!("spans-{}-{seed}.jsonl", w.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&path, rec.to_jsonl()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans {} written to {}", rec.len(), path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nssdbench: {e}");
            eprintln!(
                "usage: nssdbench --workload <io-mixed|gc-aged|oracle-gc> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let cells = w.cells();
    let mut rec = Recorder::new();
    let mut checker = Checker::new(w, cells.len());

    // oracle-gc must equal the gc-aged pnSSD(+split) cell outside the oracle
    // block; run that cell once through the public runner as the reference.
    if w == Workload::OracleGc {
        let cell = cells::gc_cell(Architecture::PnSsdSplit, GcPolicy::Spatial);
        checker.reference(&cell, cell.run_with_runner(args.seed));
    }
    let reference_loop = checker
        .reference
        .as_ref()
        .map_or(0.0, |r| r.engine.wall_clock.as_secs_f64());
    let queue = args.trace.then(|| queue_bench(&mut rec));

    // Warm-up pass: checked and counted, not timed.
    let _ = run_pass(&cells, args.seed, &mut rec, &mut checker, 0, false);
    // The probe maps more memory than some workloads use, so the peak is
    // read before the first probe; the timed passes repeat the same work.
    let peak_rss = peak_rss_mb();
    let mut passes = Vec::new();
    let mut probes = vec![probe::probe()];
    let start = Instant::now();
    while passes.len() < MIN_PASSES * (1 + usize::from(args.trace))
        || start.elapsed().as_secs_f64() < args.seconds
    {
        let n = passes.len() as u64 + 1;
        let traced = args.trace && n.is_multiple_of(2);
        let mut pass = run_pass(&cells, args.seed, &mut rec, &mut checker, n, traced);
        pass.normalise(probe::bracketed(&mut probes));
        passes.push(pass);
    }

    let result = match queue {
        None => {
            let rounds = setup_rounds(&cells, args.seed, &mut rec, &mut probes);
            rounds.and_then(|rounds| Ok(end_to_end(&passes, rounds, peak_rss?)))
        }
        Some(queue) => {
            // Times measured outside the passes take the run's median scale.
            let k = probe::scale(median(&mut probes.clone()));
            let (save, resume, bytes) =
                checkpoint_costs(&cells[0], args.seed, &mut rec, &mut checker);
            let ckpt = (save * k, resume * k, bytes);
            let metrics = per_layer(&passes, queue, ckpt, reference_loop * k);
            write_spans(&rec, w, args.seed).map(|()| metrics)
        }
    };
    let (mut metrics, error) = match result {
        Ok(m) => (m, None),
        Err(e) => {
            eprintln!("nssdbench: {e}");
            (Vec::new(), Some(e))
        }
    };
    let probe_s = median(&mut probes);
    if args.trace && error.is_none() {
        metrics.push(("host.probe_s".into(), probe_s, "s"));
    }

    println!(
        "workload {} seed {} passes {} ({} traced); host probe median {probe_s} s, \
         times normalised to a {} s probe",
        w.name(),
        args.seed,
        passes.len(),
        passes.iter().filter(|p| p.traced).count(),
        probe::PROBE_REFERENCE_S
    );
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        println!("metric {name} = {value} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = checker.failed == 0 && error.is_none();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        checker.attempted, checker.failed
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics a run prints are exactly those `BENCHMARK.json` lists.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let passes = [
            Pass::default(),
            Pass {
                traced: true,
                ..Pass::default()
            },
        ];
        let mut names: Vec<String> = end_to_end(&passes, vec![1.0], 1.0)
            .into_iter()
            .chain(per_layer(&passes, [1.0; 3], (1.0, 1.0, 1.0), 1.0))
            .map(|(name, _, unit)| {
                assert!(
                    spec.contains(&format!(
                        "\"name\": \"{name}\",\n      \"unit\": \"{unit}\""
                    )),
                    "{name} [{unit}] missing from BENCHMARK.json"
                );
                name
            })
            .collect();
        names.push("host.probe_s".into());
        names.extend(Workload::ALL.map(|w| w.name().to_string()));
        assert_eq!(spec.matches("\"name\":").count(), names.len());
    }
}
