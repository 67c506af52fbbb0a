//! End-to-end fault-injection behavior: the retry ladder degrades reads and
//! uncorrectable reads fail the host request, packetized links recover wire
//! corruption while the dedicated-signal baseline corrupts silently, bad
//! blocks retire, and a chip fail-stop without parity loses its live data,
//! fails those reads and continues degraded.

use networked_ssd::faults::ChipFailureSpec;
use networked_ssd::sim::SimTime;
use networked_ssd::{
    run_trace, run_trace_preconditioned, Architecture, GcPolicy, PaperWorkload, SsdConfig, Trace,
};

fn no_gc_config(arch: Architecture) -> SsdConfig {
    let mut cfg = SsdConfig::tiny(arch);
    cfg.gc.plan = None;
    cfg
}

fn trace_for(cfg: &SsdConfig, requests: usize) -> Trace {
    PaperWorkload::YcsbA.generate(requests, cfg.logical_bytes() / 2, 11)
}

#[test]
fn read_retries_scale_with_rber_and_degrade_latency() {
    let cfg = no_gc_config(Architecture::PSsd);
    let trace = trace_for(&cfg, 300);
    let run = |rber: f64| {
        let mut c = cfg;
        c.faults.bit_error.rber = rber;
        run_trace(c, &trace).unwrap()
    };
    // Tiny geometry has 4 KiB pages (32768 bits): RBER 1e-3 means ~33 raw
    // errors per sense — past the 16-bit fast tier, mostly soft-decoded —
    // and 3e-3 (~98 errors) forces retry senses before any tier corrects.
    let clean = run(0.0);
    let mild = run(1e-3);
    let harsh = run(3e-3);
    assert_eq!(clean.reliability.read_retries, 0);
    assert!(
        mild.reliability.read_retries + mild.reliability.soft_decodes
            > clean.reliability.read_retries,
        "RBER 1e-3 on 4 KiB pages must trip the ECC tiers"
    );
    assert!(harsh.reliability.read_retries > mild.reliability.read_retries);
    // Every extra sense is a full tR on the plane: read latency must grow.
    assert!(harsh.read.mean > mild.read.mean);
    assert!(mild.read.mean >= clean.read.mean);
    assert_eq!(clean.completed, harsh.completed);
}

#[test]
fn packetized_links_recover_while_base_corrupts_silently() {
    let requests = 300;
    // The dedicated-signal baseline: corruption is invisible — zero
    // retransmissions, zero time cost, every timing identical to fault-free.
    let base = no_gc_config(Architecture::BaseSsd);
    let trace = trace_for(&base, requests);
    let clean = run_trace(base, &trace).unwrap();
    let mut faulty = base;
    faulty.faults.link.ber = 1e-6;
    let silent = run_trace(faulty, &trace).unwrap();
    assert!(silent.reliability.silent_corruptions > 0);
    assert_eq!(silent.reliability.retransmissions, 0);
    assert_eq!(silent.all, clean.all, "silent corruption must cost no time");
    assert_eq!(silent.read, clean.read);

    // The packetized interface: CRC catches the same wire noise and repairs
    // it with NAK + retransmission — counted, time-charged, nothing silent.
    for arch in [Architecture::PSsd, Architecture::PnSsdSplit] {
        let cfg = no_gc_config(arch);
        let trace = trace_for(&cfg, requests);
        let clean = run_trace(cfg, &trace).unwrap();
        let mut faulty = cfg;
        faulty.faults.link.ber = 1e-6;
        let r = run_trace(faulty, &trace).unwrap();
        assert!(r.reliability.retransmissions > 0, "{arch}");
        assert_eq!(r.reliability.silent_corruptions, 0, "{arch}");
        assert!(r.reliability.link_efficiency() < 1.0, "{arch}");
        // (Mean latency degradation is asserted at scale in fault_sweep —
        // on a 300-request run allocation reordering can mask it.)
        assert_eq!(r.completed, clean.completed, "{arch}");
    }
}

#[test]
fn manufacture_bad_blocks_are_retired_up_front() {
    let mut cfg = no_gc_config(Architecture::PnSsdSplit);
    // Tiny geometry only has 128 blocks; 5% keeps the expected mark count
    // comfortably above zero for any seed.
    cfg.faults.bad_blocks.manufacture_rate = 0.05;
    let trace = trace_for(&cfg, 200);
    let r = run_trace(cfg, &trace).unwrap();
    // Factory marking happens before the device serves I/O, so it shows up
    // in the reliability counters (run-scoped FtlStats are reset by
    // preconditioning) — and the device must absorb the lost spares.
    assert!(r.reliability.bad_blocks_manufacture > 0);
    assert_eq!(r.completed, 200);
    let again = run_trace(cfg, &trace).unwrap();
    assert_eq!(r, again, "factory marking must be deterministic");
}

#[test]
fn grown_bad_blocks_retire_during_gc() {
    let mut cfg = SsdConfig::tiny(Architecture::PnSsd);
    cfg.gc.plan = Some(GcPolicy::Spatial.plan());
    cfg.faults.bad_blocks.grown_rate = 0.01;
    let trace = PaperWorkload::YcsbA.generate(250, cfg.logical_bytes() / 2, 13);
    let r = run_trace_preconditioned(cfg, &trace, 0.85, 0.3).unwrap();
    // Every grown defect must be mirrored by an FTL retirement (the
    // deterministic seed fixes how many actually occur).
    assert_eq!(r.ftl.blocks_retired, r.reliability.grown_bad_blocks);
    assert_eq!(r.completed, 250);
}

#[test]
fn chip_failure_loses_live_data_fails_those_reads_and_finishes_degraded() {
    for arch in [Architecture::BaseSsd, Architecture::PnSsdSplit] {
        let mut cfg = no_gc_config(arch);
        cfg.faults.chip_failure = Some(ChipFailureSpec {
            channel: 1,
            way: 0,
            at: SimTime::from_us(500),
        });
        let trace = trace_for(&cfg, 300);
        let r = run_trace(cfg, &trace).unwrap();
        assert_eq!(r.reliability.chip_failures, 1, "{arch}");
        // A dead chip cannot be read: nothing is relocated, every live page
        // on it is lost, and host reads of those pages are I/O errors.
        assert!(r.reliability.pages_lost > 0, "{arch}");
        assert!(r.reliability.host_io_errors > 0, "{arch}");
        assert!(r.unmapped_reads >= r.reliability.host_io_errors, "{arch}");
        assert_eq!(r.reliability.pages_degraded, 0, "{arch}");
        assert_eq!(r.completed, 300, "{arch}: device must finish degraded");
    }
}

#[test]
fn uncorrectable_reads_fail_the_host_request() {
    let mut cfg = no_gc_config(Architecture::PSsd);
    // ~330 raw errors per 4 KiB sense, halved per retry sense: two retries
    // still leave ~80, past the 48-bit soft tier.
    cfg.faults.bit_error.rber = 1e-2;
    cfg.faults.bit_error.max_read_retries = 2;
    let trace = trace_for(&cfg, 300);
    let r = run_trace(cfg, &trace).unwrap();
    assert!(r.reliability.uncorrectable_reads > 0);
    assert!(
        r.reliability.host_io_errors > 0,
        "uncorrectable reads completed as successes: {:?}",
        r.reliability
    );
    assert_eq!(r.completed, 300, "failed requests still complete");
}

#[test]
fn chip_failure_outside_geometry_is_rejected() {
    let mut cfg = no_gc_config(Architecture::PSsd);
    cfg.faults.chip_failure = Some(ChipFailureSpec {
        channel: 10_000,
        way: 0,
        at: SimTime::ZERO,
    });
    let trace = trace_for(&cfg, 10);
    assert!(run_trace(cfg, &trace).is_err());
}
