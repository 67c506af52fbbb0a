//! Device-lifetime endurance experiment: months of simulated write churn per
//! architecture, run as checkpointed segments.
//!
//! Each architecture streams random-write-heavy closed-loop traffic through
//! a small-endurance device in segments. Between segments the simulator is
//! serialized with [`Checkpoint::save`], re-serialized after
//! [`Checkpoint::resume`] as a byte-identity self-check, and the *resumed*
//! simulator carries the run forward — so the whole experiment doubles as an
//! end-to-end exercise of the checkpoint subsystem under wear, grown-bad
//! accumulation, and GC churn.
//!
//! Per segment it reports wear-leveling efficacy (erase-count spread and
//! per-way imbalance), grown-bad-block accumulation, write amplification,
//! and end-of-life tail-latency drift — per-segment exact p50/p99 from
//! [`Histogram::delta_since`] plus sliding-window tails from the
//! bounded-memory [`WindowedStats`] estimator. Results go to
//! `target/lifetime.json` and a human summary to stdout.
//!
//! Usage: `lifetime [--smoke] [--out <path>]`

use nssd_bench::results::Results;
use nssd_core::{Architecture, Checkpoint, Drive, SsdConfig, SsdSim};
use nssd_host::{IoOp, IoRequest};
use nssd_sim::json::Json;
use nssd_sim::{obj, DetRng, Histogram, Rng, SimTime};
use nssd_workloads::{tail_resolvable, WindowedStats};

/// One architecture's segment-by-segment lifetime record.
struct LifetimeRecord {
    arch: Architecture,
    segments: Vec<SegmentRecord>,
    /// Segment during which the device reached end of life (GC could no
    /// longer reclaim space and writes stalled), if it did.
    died_in_segment: Option<usize>,
}

#[derive(Debug)]
struct SegmentRecord {
    /// 1-based segment index.
    index: usize,
    /// Simulated time at segment end.
    now: SimTime,
    /// Completions within this segment.
    completed: u64,
    /// Cumulative host write amplification.
    write_amp: f64,
    /// Erase-count statistics at segment end.
    wear_mean: f64,
    wear_std: f64,
    wear_min: u32,
    wear_max: u32,
    /// Max/min per-way mean wear (1.0 = perfectly leveled).
    way_imbalance: f64,
    /// Cumulative grown-bad blocks (erase failures).
    grown_bad: u64,
    /// Cumulative blocks retired at the endurance limit.
    retired: u64,
    /// Exact per-segment tails from the cumulative histogram delta
    /// (`None` when the segment's completion count cannot resolve them).
    seg_p50_us: Option<f64>,
    seg_p99_us: Option<f64>,
    /// Sliding-window tails over the most recent completions (bounded
    /// memory, survives any run length).
    win_p50_us: Option<f64>,
    win_p99_us: Option<f64>,
    /// Checkpoint size for this segment boundary.
    ckpt_bytes: usize,
}

/// Closed-loop segment traffic: page-sized requests, 80% writes over a
/// uniformly random working set (wear-driving churn), 20% reads. The
/// working set covers 70% of the logical span so the device keeps enough
/// slack to absorb the blocks it loses to defects and wear-out over the
/// run, instead of write-stalling at device death.
fn segment_requests(cfg: &SsdConfig, n: usize, seed: u64) -> Vec<IoRequest> {
    let page = cfg.geometry.page_bytes as u64;
    let working_set = cfg.logical_bytes() / page * 7 / 10;
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let lpn = rng.gen_range(0..working_set);
            let op = if rng.gen_range(0..10u64) < 8 {
                IoOp::Write
            } else {
                IoOp::Read
            };
            IoRequest::new(op, lpn * page, page as u32, SimTime::ZERO)
        })
        .collect()
}

fn percentile_us(h: &Histogram, p: f64) -> Option<f64> {
    tail_resolvable(h.count(), p).then(|| h.percentile(p).as_us_f64())
}

fn run_architecture(
    arch: Architecture,
    segments: usize,
    requests_per_segment: usize,
) -> Result<LifetimeRecord, String> {
    let mut cfg = SsdConfig::tiny(arch);
    // A deliberately short-lived device: mean wear reaches a large fraction
    // of the limit within the run, so late-life behaviour (endurance
    // retirement, shrinking spare pool, GC pressure) is observable — while
    // staying short of the write-stall the engine treats as device death.
    cfg.endurance_limit = Some(170);
    cfg.faults.bad_blocks.grown_rate = 0.0008;
    cfg.oracle = true;
    // The Fig 3 channel-utilization instrumentation bins busy time per
    // 100 µs window, which grows linearly with simulated time (and with
    // it, the checkpoint). This experiment doesn't read it — widen the
    // window so months of simulated traffic stay bounded.
    cfg.util_window = SimTime::from_ms(100);

    let mut sim = SsdSim::new(cfg)?;
    let mut windowed = WindowedStats::new(requests_per_segment as u64, 3);
    let mut hist_snapshot = sim.latency_histogram().clone();
    let mut records = Vec::with_capacity(segments);

    let mut died_in_segment = None;
    for index in 1..=segments {
        let requests = segment_requests(&cfg, requests_per_segment, 0xDEAD + index as u64);
        let before = sim.completed();
        // End of life announces itself as the engine's write-stall
        // watchdog: once wear-out and grown defects have eaten the spare
        // pool, GC cannot reclaim space and the drain panics. Treat that
        // as the device's death, not the experiment's.
        let drained = {
            let prev_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {})); // silence the watchdog
            let sim = &mut sim;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                sim.start(Drive::ClosedLoop {
                    requests,
                    depth: 16,
                });
                sim.run_to_idle();
            }));
            std::panic::set_hook(prev_hook);
            outcome.is_ok()
        };
        if !drained {
            died_in_segment = Some(index);
            break;
        }

        // Segment boundary: checkpoint, verify save∘resume is the identity
        // on the bytes, and continue from the *resumed* simulator.
        let bytes = Checkpoint::save(&sim);
        let resumed = Checkpoint::resume(cfg, &bytes)
            .map_err(|e| format!("{}: segment {index} resume: {e}", arch.label()))?;
        if Checkpoint::save(&resumed) != bytes {
            return Err(format!(
                "{}: segment {index}: re-serializing the resumed state diverged",
                arch.label()
            ));
        }
        sim = resumed;

        let delta = sim
            .latency_histogram()
            .delta_since(&hist_snapshot)
            .ok_or_else(|| format!("{}: histogram went backwards", arch.label()))?;
        hist_snapshot = sim.latency_histogram().clone();
        // Stream the segment's completions (at bucket resolution) into the
        // sliding-window estimator.
        let total = delta.count();
        let mut seen = 0u64;
        for (value, fraction) in delta.cdf_points() {
            let cum = (fraction * total as f64).round() as u64;
            for _ in seen..cum {
                windowed.record(value);
            }
            seen = cum;
        }

        let wear = sim.ftl().blocks().wear_summary();
        let ftl_stats = sim.ftl().stats();
        records.push(SegmentRecord {
            index,
            now: sim.now(),
            completed: sim.completed() - before,
            write_amp: ftl_stats.write_amplification(),
            wear_mean: wear.mean,
            wear_std: wear.std_dev,
            wear_min: wear.min,
            wear_max: wear.max,
            way_imbalance: wear.way_imbalance(),
            grown_bad: sim.reliability().grown_bad_blocks,
            retired: ftl_stats.blocks_retired,
            seg_p50_us: percentile_us(&delta, 50.0),
            seg_p99_us: percentile_us(&delta, 99.0),
            win_p50_us: windowed.percentile(50.0).map(|t| t.as_us_f64()),
            win_p99_us: windowed.percentile(99.0).map(|t| t.as_us_f64()),
            ckpt_bytes: bytes.len(),
        });
    }
    Ok(LifetimeRecord {
        arch,
        segments: records,
        died_in_segment,
    })
}

impl LifetimeRecord {
    fn to_json(&self) -> Json {
        obj! {
            architecture: self.arch.label(),
            died_in_segment: self.died_in_segment,
            segments: Json::array(&self.segments, SegmentRecord::to_json),
        }
    }
}

impl SegmentRecord {
    fn to_json(&self) -> Json {
        obj! {
            segment: self.index, sim_time_ms: Json::fixed(self.now.as_secs_f64() * 1e3, 3),
            completed: self.completed, write_amp: Json::fixed(self.write_amp, 3),
            wear_mean: Json::fixed(self.wear_mean, 2), wear_std: Json::fixed(self.wear_std, 2),
            wear_min: self.wear_min, wear_max: self.wear_max,
            way_imbalance: Json::fixed(self.way_imbalance, 3),
            grown_bad: self.grown_bad, retired: self.retired,
            seg_p50_us: Json::fixed(self.seg_p50_us, 1),
            seg_p99_us: Json::fixed(self.seg_p99_us, 1),
            win_p50_us: Json::fixed(self.win_p50_us, 1),
            win_p99_us: Json::fixed(self.win_p99_us, 1),
            ckpt_bytes: self.ckpt_bytes,
        }
    }
}

/// The smoke gate: all four architectures ran, each completed at least one
/// segment, and every segment served requests and checkpointed.
fn smoke_checks(records: &[LifetimeRecord]) -> Vec<(bool, String)> {
    let count = format!("{} architectures, expected 4", records.len());
    let mut checks = vec![(records.len() == 4, count)];
    checks.extend(records.iter().map(|rec| {
        let segments = &rec.segments;
        let ok =
            !segments.is_empty() && segments.iter().all(|s| s.ckpt_bytes > 0 && s.completed > 0);
        (ok, format!("{}: {segments:?}", rec.arch.label()))
    }));
    checks
}

fn main() {
    let results = Results::from_args("lifetime");
    let (segments, per_segment) = if results.smoke {
        (3, 1_500)
    } else {
        (20, 6_000)
    };

    let archs = [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsd,
        Architecture::PnSsdSplit,
    ];
    let mut records = Vec::new();
    for arch in archs {
        eprintln!(
            ">>> {}: {segments} segments x {per_segment} requests",
            arch.label()
        );
        let rec = run_architecture(arch, segments, per_segment).unwrap_or_else(|e| results.fail(e));
        let (Some(last), Some(first)) = (rec.segments.last(), rec.segments.first()) else {
            println!(
                "{:<14} died before completing its first segment",
                rec.arch.label()
            );
            records.push(rec);
            continue;
        };
        println!(
            "{:<14} wear {:.1}±{:.1} (imbalance {:.2}), grown-bad {}, retired {}, \
             WA {:.2}, p99 {} → {} µs{}",
            rec.arch.label(),
            last.wear_mean,
            last.wear_std,
            last.way_imbalance,
            last.grown_bad,
            last.retired,
            last.write_amp,
            Json::fixed(first.seg_p99_us, 1),
            Json::fixed(last.seg_p99_us, 1),
            match rec.died_in_segment {
                Some(s) => format!(", died in segment {s}"),
                None => String::new(),
            },
        );
        records.push(rec);
    }

    let body = obj! { architectures: Json::array(&records, LifetimeRecord::to_json) };
    results.write("target/lifetime.json", "nssd-bench-lifetime/1", body, 4);
    results.smoke_gate(|| smoke_checks(&records));
}
