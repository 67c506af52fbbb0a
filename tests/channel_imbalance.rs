//! Cross-crate integration: the Fig 3 property — FTL-placed writes balance
//! across channels while workload-placed reads do not — measured from the
//! engine's per-channel utilization recorders.

use networked_ssd::core::Traffic;
use networked_ssd::{run_trace, Architecture, PaperWorkload, SsdConfig};

#[test]
fn reads_are_more_imbalanced_than_writes() {
    // The scaled 8-channel geometry, as in the paper's Fig 3 setup.
    let mut cfg = SsdConfig::new(Architecture::BaseSsd);
    cfg.gc.plan = None;
    let trace = PaperWorkload::Exchange1.generate(8_000, cfg.logical_bytes() / 2, 21);
    let report = run_trace(cfg, &trace).expect("run");
    let read_cov = report.channel_util.imbalance(Traffic::HostRead);
    let write_cov = report.channel_util.imbalance(Traffic::HostWrite);
    assert!(
        read_cov > write_cov,
        "read imbalance (CoV {read_cov:.3}) should exceed write imbalance ({write_cov:.3})"
    );
    assert!(
        write_cov < 0.2,
        "writes should be near-balanced: {write_cov:.3}"
    );
}

#[test]
fn every_channel_sees_traffic() {
    let mut cfg = SsdConfig::new(Architecture::BaseSsd);
    cfg.gc.plan = None;
    let trace = PaperWorkload::YcsbA.generate(4_000, cfg.logical_bytes() / 2, 22);
    let report = run_trace(cfg, &trace).expect("run");
    assert_eq!(report.channel_util.read.len(), 8);
    for (ch, windows) in report.channel_util.write.iter().enumerate() {
        let busy: f64 = windows.iter().sum();
        assert!(busy > 0.0, "channel {ch} saw no write traffic");
    }
}

#[test]
fn utilization_fractions_are_valid() {
    let mut cfg = SsdConfig::new(Architecture::PnSsdSplit);
    cfg.gc.plan = None;
    let trace = PaperWorkload::WebSearch0.generate(3_000, cfg.logical_bytes() / 2, 23);
    let report = run_trace(cfg, &trace).expect("run");
    for matrix in [
        &report.channel_util.read,
        &report.channel_util.write,
        &report.channel_util.gc,
    ] {
        for row in matrix {
            for &f in row {
                assert!((0.0..=1.0 + 1e-9).contains(&f), "fraction {f} out of range");
            }
        }
    }
    // No GC ran, so GC-tagged utilization must be zero.
    let gc_total: f64 = report.channel_util.gc.iter().flatten().sum();
    assert_eq!(gc_total, 0.0);
}

#[test]
fn higher_bus_width_raises_throughput_on_hot_traces() {
    // The Fig 4 premise, as an invariant: widening the baseSSD bus never
    // hurts and measurably helps a bus-bound workload.
    let run_width = |width: u32| {
        let mut cfg = SsdConfig::new(Architecture::BaseSsd);
        cfg.gc.plan = None;
        cfg.base_width_bits = width;
        let trace = PaperWorkload::Exchange1.generate(6_000, cfg.logical_bytes() / 2, 24);
        run_trace(cfg, &trace).expect("run")
    };
    let narrow = run_width(8);
    let wide = run_width(16);
    assert!(
        wide.all.mean < narrow.all.mean,
        "16-bit bus ({}) should beat 8-bit ({})",
        wide.all.mean,
        narrow.all.mean
    );
}
