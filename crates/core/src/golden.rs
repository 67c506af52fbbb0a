//! Golden-report snapshot harness.
//!
//! A [`SimReport`] rendered through [`canonical_json`] is byte-stable for a
//! fixed configuration and seed: every field is serialized in a fixed key
//! order, floats through Rust's shortest-roundtrip formatter, times as
//! integer nanoseconds. The pinned [`matrix`] of (topology × GC policy ×
//! workload × seed) runs is committed under `tests/golden/`; the
//! `golden_report` integration test re-runs the matrix and diffs against
//! the committed files, so *any* behavioural drift — timing, GC accounting,
//! wear, energy, oracle digest — shows up as a readable JSON diff in CI.
//!
//! To bless a deliberate change:
//!
//! ```text
//! NSSD_BLESS=1 cargo test --test golden_report
//! git diff tests/golden/   # review, then commit
//! ```

use nssd_faults::ChipFailureSpec;
use nssd_ftl::{GcPlanSpec, GcPolicy, RedundancyConfig};
use nssd_sim::json::{self, Json};
use nssd_sim::{obj, SimTime};
use nssd_workloads::{PaperWorkload, TenantMix};

use crate::{
    prepare_tenants, prepare_tenants_preconditioned, prepare_trace, prepare_trace_preconditioned,
    Architecture, ChannelUtilSummary, Drive, LatencySummary, SchedulerKind, SimReport, SsdConfig,
    SsdSim, TenantSummary,
};

/// The pinned multi-tenant scenarios a golden case can run instead of a
/// single workload (the `workload` field is unused for these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantScenario {
    /// [`TenantMix::interference`] — a GC-heavy write-burst tenant against
    /// a read-latency-sensitive neighbor — under weighted-fair arbitration.
    InterferenceWfq,
}

impl TenantScenario {
    /// File-name slug standing in for the workload name.
    fn slug(self) -> &'static str {
        match self {
            TenantScenario::InterferenceWfq => "mt-interference-wfq",
        }
    }
}

/// One pinned run of the golden matrix.
#[derive(Debug, Clone, Copy)]
pub struct GoldenCase {
    /// Architecture simulated.
    pub architecture: Architecture,
    /// Workload driving the run (ignored when `tenants` is set).
    pub workload: PaperWorkload,
    /// Trace and simulator seed.
    pub seed: u64,
    /// Requests in the trace (per tenant when `tenants` is set).
    pub requests: usize,
    /// When set, the case runs this multi-tenant scenario through the
    /// submission frontend instead of a single open-loop workload.
    pub tenants: Option<TenantScenario>,
    /// The GC plan; with `None` GC is off and the device is not
    /// preconditioned.
    pub plan: Option<GcPlanSpec>,
    /// When set, enables parity redundancy of this stripe width *and*
    /// schedules a fail-stop failure of chip (0, 0) mid-run, pinning the
    /// degraded-read reconstruction path and the fabric-routed rebuild.
    pub redundancy: Option<u32>,
}

impl GoldenCase {
    /// Stable snapshot file name, e.g. `pnssd_spatial_ycsb-a_s13.json`.
    pub fn file_name(&self) -> String {
        let arch = match self.architecture {
            Architecture::BaseSsd => "base",
            Architecture::PSsd => "pssd",
            Architecture::PnSsd => "pnssd",
            Architecture::PnSsdSplit => "pnssd-split",
            Architecture::ChannelSliced => "sliced",
            Architecture::NoSsdPinConstrained => "nossd-pin",
            Architecture::NoSsdUnconstrained => "nossd",
        };
        let policy = match self.plan {
            None => "nogc".to_string(),
            Some(plan) if plan == GcPolicy::Parallel.plan() => "pagc".to_string(),
            Some(plan) if plan == GcPolicy::Preemptive.plan() => "preempt".to_string(),
            Some(plan) if plan == GcPolicy::Spatial.plan() => "spatial".to_string(),
            Some(plan) => format!("plan-{plan}"),
        };
        let workload: String = match self.tenants {
            Some(scenario) => scenario.slug().to_string(),
            None => self
                .workload
                .name()
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '-'
                    }
                })
                .collect(),
        };
        let red = match self.redundancy {
            Some(w) => format!("_red{w}"),
            None => String::new(),
        };
        format!("{arch}_{policy}_{workload}{red}_s{}.json", self.seed)
    }

    /// The configuration this case runs under: the tiny geometry with the
    /// shadow oracle enabled, so every golden run is also an invariant run.
    pub fn config(&self) -> SsdConfig {
        let mut cfg = SsdConfig::tiny(self.architecture);
        cfg.gc.plan = self.plan;
        cfg.gc.victims_per_trigger = 2;
        cfg.seed = self.seed;
        cfg.oracle = true;
        if let Some(width) = self.redundancy {
            cfg.redundancy = RedundancyConfig::with_stripe(width);
            // Roughly a third of the way through the pinned traces: enough
            // writes land on the victim chip first, enough reads arrive
            // after to exercise reconstruction while the rebuild runs.
            cfg.faults.chip_failure = Some(ChipFailureSpec {
                channel: 0,
                way: 0,
                at: SimTime::from_us(900),
            });
        }
        cfg
    }

    /// Executes the case and returns the report.
    ///
    /// # Errors
    ///
    /// Propagates configuration/run errors from the runner.
    pub fn run(&self) -> Result<SimReport, String> {
        let (sim, drive) = self.prepare()?;
        Ok(sim.run(drive))
    }

    /// Builds the preconditioned simulator and [`Drive`] for this case
    /// without running it — the checkpoint-equivalence tests step this pair
    /// by hand, snapshotting mid-run.
    ///
    /// # Errors
    ///
    /// Returns a message for invalid configurations or infeasible traces.
    pub fn prepare(&self) -> Result<(SsdSim, Drive), String> {
        let cfg = self.config();
        if let Some(scenario) = self.tenants {
            let mix = match scenario {
                TenantScenario::InterferenceWfq => TenantMix::interference(self.requests),
            };
            // 3/4 of logical space: inside the 0.85 preconditioned region,
            // split into per-tenant partitions by the mix.
            let streams = mix.generate(cfg.logical_bytes() * 3 / 4, self.seed);
            return if self.plan.is_none() {
                prepare_tenants(cfg, streams, SchedulerKind::WeightedFair, 8)
            } else {
                prepare_tenants_preconditioned(
                    cfg,
                    streams,
                    SchedulerKind::WeightedFair,
                    8,
                    0.85,
                    0.3,
                )
            };
        }
        // The trace is generated per run, so it moves into the engine
        // by value — the zero-copy `TraceInput` path.
        let trace = self
            .workload
            .generate(self.requests, cfg.logical_bytes() / 2, self.seed);
        if self.plan.is_none() {
            prepare_trace(cfg, trace)
        } else {
            // GC cases start from a preconditioned (aged) device so the
            // policies actually fire within the pinned request budget.
            prepare_trace_preconditioned(cfg, trace, 0.85, 0.3)
        }
    }
}

/// The pinned snapshot matrix.
///
/// Interconnect sweep: every evaluated topology under a read-skewed and a
/// mixed workload with GC off — pure interconnect behaviour. GC sweep: the
/// conventional bus and the paper's pnSSD under all three GC policies on an
/// aged device. Small request counts keep the whole matrix a debug-mode
/// test, not a benchmark.
pub fn matrix() -> Vec<GoldenCase> {
    let mut cases = Vec::new();
    for architecture in [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsd,
        Architecture::PnSsdSplit,
        Architecture::NoSsdUnconstrained,
    ] {
        for workload in [PaperWorkload::YcsbA, PaperWorkload::WebSearch0] {
            cases.push(GoldenCase {
                architecture,
                workload,
                seed: 7,
                requests: 120,
                tenants: None,
                plan: None,
                redundancy: None,
            });
        }
    }
    for architecture in [Architecture::BaseSsd, Architecture::PnSsd] {
        for policy in [GcPolicy::Parallel, GcPolicy::Preemptive, GcPolicy::Spatial] {
            cases.push(GoldenCase {
                architecture,
                workload: PaperWorkload::YcsbA,
                seed: 13,
                requests: 120,
                tenants: None,
                plan: Some(policy.plan()),
                redundancy: None,
            });
        }
    }
    // Composed-plan sweep: the two plans that are not paper presets —
    // hot/cold generational placement and wear-aware victim scoring — on the
    // paper's pnSSD over the same aged-device YCSB-A trace as the GC sweep.
    for plan in [GcPlanSpec::hot_cold(), GcPlanSpec::wear_aware()] {
        cases.push(GoldenCase {
            architecture: Architecture::PnSsd,
            workload: PaperWorkload::YcsbA,
            seed: 13,
            requests: 120,
            tenants: None,
            plan: Some(plan),
            redundancy: None,
        });
    }
    // Tenant-interference sweep: the write-burst vs latency-sensitive mix
    // through the multi-queue frontend on an aged device, across the
    // conventional bus, the packetized bus, and the paper's pnSSD.
    for architecture in [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsd,
    ] {
        cases.push(GoldenCase {
            architecture,
            workload: PaperWorkload::YcsbA, // unused: the scenario drives it
            seed: 21,
            requests: 60,
            tenants: Some(TenantScenario::InterferenceWfq),
            plan: Some(GcPolicy::Parallel.plan()),
            redundancy: None,
        });
    }
    // Redundancy sweep: parity stripe of 2 with a fail-stop chip failure
    // mid-run on the conventional bus and the paper's pnSSD. Pins the
    // degraded-read reconstruction path, the parity-write overhead, the
    // fabric-routed rebuild, and the oracle's zero-silent-loss proof.
    for architecture in [Architecture::BaseSsd, Architecture::PnSsd] {
        cases.push(GoldenCase {
            architecture,
            workload: PaperWorkload::YcsbA,
            seed: 29,
            requests: 120,
            tenants: None,
            plan: None,
            redundancy: Some(2),
        });
    }
    cases
}

fn tenant(t: &TenantSummary) -> Json {
    obj! {
        name: t.name.as_str(), weight: t.weight, slo_latency_ns: t.slo_latency.as_ns(),
        completed: t.completed, bytes: t.bytes,
        all: latency(&t.all), read: latency(&t.read), write: latency(&t.write),
        slo_violations: t.slo_violations, mean_queue_delay_ns: t.mean_queue_delay.as_ns(),
        last_completion_ns: t.last_completion.as_ns(),
    }
}

fn latency(l: &LatencySummary) -> Json {
    obj! {
        count: l.count, mean_ns: l.mean.as_ns(), p50_ns: l.p50.as_ns(), p95_ns: l.p95.as_ns(),
        p99_ns: l.p99.as_ns(), p999_ns: l.p999.as_ns(), max_ns: l.max.as_ns(),
    }
}

/// Channel utilization is snapshotted as per-channel busy-fraction *totals*
/// (the sum over time windows) per traffic class: the imbalance signal the
/// report exists for, without committing hundreds of per-window floats.
fn util(u: &ChannelUtilSummary) -> Json {
    let totals = |per: &Vec<Vec<f64>>| Json::array(per, |ch| ch.iter().sum::<f64>().into());
    obj! {
        window_ns: u.window.as_ns(),
        read: totals(&u.read), write: totals(&u.write), gc: totals(&u.gc),
    }
}

/// Serializes a [`SimReport`] to canonical JSON (fixed key order, stable
/// number formatting) — the golden-snapshot representation: one top-level
/// field per line, each field's value compact on its line.
///
/// The report's `engine` block is deliberately *not* serialized: its
/// wall-clock is host time (different every run), and even the
/// deterministic event count would force a re-bless of every committed
/// snapshot on any engine bookkeeping change. Golden snapshots pin
/// simulated behaviour, not execution metrics.
pub fn canonical_json(r: &SimReport) -> String {
    let (gc, ftl, energy, wear, rel) = (&r.gc, &r.ftl, &r.energy, &r.wear, &r.reliability);
    let mut doc = obj! {
        architecture: r.architecture.to_string(),
        completed: r.completed,
        unmapped_reads: r.unmapped_reads,
        first_arrival_ns: r.first_arrival.as_ns(),
        last_completion_ns: r.last_completion.as_ns(),
        all: latency(&r.all),
        read: latency(&r.read),
        write: latency(&r.write),
        gc: obj! {
            events: gc.events, total_time_ns: gc.total_time.as_ns(),
            mean_time_ns: gc.mean_time.as_ns(), pages_copied: gc.pages_copied,
            blocks_erased: gc.blocks_erased,
        },
        ftl: obj! {
            host_writes: ftl.host_writes, gc_relocations: ftl.gc_relocations, erases: ftl.erases,
            blocks_retired: ftl.blocks_retired, gc_triggers: ftl.gc_triggers,
        },
        channel_util: util(&r.channel_util),
        energy: obj! {
            h_channel_mj: energy.h_channel_mj, v_channel_mj: energy.v_channel_mj,
            mesh_mj: energy.mesh_mj, host_bytes: energy.host_bytes,
        },
        wear: obj! {
            min: wear.min, max: wear.max, mean: wear.mean, std_dev: wear.std_dev,
            per_way_mean: Json::array(&wear.per_way_mean, |&x| x.into()),
        },
    };
    // Emitted only for wear-observing GC plans that actually ran GC: the
    // legacy-policy snapshots predate the block and must stay byte-identical.
    if r.wear_tracked && gc.events > 0 {
        let detail = obj! { min: wear.min, max: wear.max, mean: wear.mean, spread: wear.spread() };
        doc.push("wear_detail", detail);
    }
    let reliability = obj! {
        read_retries: rel.read_retries, soft_decodes: rel.soft_decodes,
        uncorrectable_reads: rel.uncorrectable_reads, retransmissions: rel.retransmissions,
        silent_corruptions: rel.silent_corruptions, grown_bad_blocks: rel.grown_bad_blocks,
        chip_failures: rel.chip_failures,
    };
    doc.push("reliability", reliability);
    // Emitted only for multi-tenant runs: the single-tenant snapshots
    // predate the field and must stay byte-identical.
    if !r.tenants.is_empty() {
        doc.push("tenants", Json::array(&r.tenants, tenant));
    }
    // Emitted only when parity redundancy is configured: the baseline
    // snapshots predate the subsystem and must stay byte-identical. The
    // fault counters that only move under redundancy/failure ride along
    // here rather than widening the pinned reliability block.
    if let Some(red) = &r.redundancy {
        let ns = |t: Option<SimTime>| t.map(SimTime::as_ns);
        let redundancy = obj! {
            stripe_width: red.stripe_width, degraded: latency(&red.degraded),
            rebuild_pages: red.rebuild_pages, rebuild_started_ns: ns(red.rebuild_started),
            rebuild_completed_ns: ns(red.rebuild_completed),
            pages_degraded: rel.pages_degraded, reconstructed_reads: rel.reconstructed_reads,
            host_io_errors: rel.host_io_errors, unrecovered_transfers: rel.unrecovered_transfers,
        };
        doc.push("redundancy", redundancy);
    }
    let o = &r.oracle;
    let oracle = obj! {
        enabled: o.enabled, checks: o.checks,
        violations: Json::array(&o.violations, |v| v.as_str().into()),
        functional_digest: format!("{:016x}", o.functional_digest),
    };
    doc.push("oracle", oracle);
    json::render(&doc, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_are_unique_and_filesystem_safe() {
        let cases = matrix();
        let mut names: Vec<String> = cases.iter().map(GoldenCase::file_name).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate golden file names");
        for n in &names {
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)),
                "unsafe file name {n}"
            );
        }
    }

    #[test]
    fn canonical_json_is_stable_and_parseable_shape() {
        let case = matrix()[0];
        let a = canonical_json(&case.run().unwrap());
        let b = canonical_json(&case.run().unwrap());
        assert_eq!(a, b, "same case must serialize byte-identically");
        // Shape smoke checks without a JSON parser (none in-tree).
        assert!(a.starts_with("{\n"));
        assert!(a.ends_with("}\n"));
        assert!(a.contains("\"functional_digest\""));
        assert_eq!(a.matches("\"architecture\"").count(), 1);
    }
}
