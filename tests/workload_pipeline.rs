//! Cross-crate integration: the workload pipeline — generation,
//! serialization, import, characterization — feeding the simulator.

use networked_ssd::workloads::{import_msr, MsrImportOptions, TraceStats};
use networked_ssd::{run_trace, Architecture, PaperWorkload, SsdConfig, Trace};

fn cfg() -> SsdConfig {
    let mut cfg = SsdConfig::tiny(Architecture::PSsd);
    cfg.gc.plan = None;
    cfg
}

#[test]
fn text_roundtrip_preserves_simulation_results() {
    let cfg = cfg();
    let original = PaperWorkload::Exchange0.generate(200, cfg.logical_bytes() / 2, 40);
    let reloaded: Trace = original.to_text().parse().expect("parse");
    let a = run_trace(cfg, &original).unwrap();
    let b = run_trace(cfg, &reloaded).unwrap();
    assert_eq!(a, b, "round-tripped trace must simulate identically");
}

#[test]
fn msr_import_replays_end_to_end() {
    let cfg = cfg();
    // Synthesize MSR-format text from a generated workload so the test is
    // self-contained: FILETIME ticks are 100 ns.
    let source = PaperWorkload::YcsbA.generate(150, cfg.logical_bytes() / 2, 41);
    let mut csv = String::new();
    for r in &source {
        csv.push_str(&format!(
            "{},host,0,{},{},{},0\n",
            128_166_372_003_061_629u64 + r.at.as_ns() / 100,
            if r.op.is_read() { "Read" } else { "Write" },
            r.offset,
            r.len
        ));
    }
    let imported = import_msr(&csv, "synth", MsrImportOptions::default()).expect("import");
    assert_eq!(imported.len(), source.len());
    let report = run_trace(cfg, &imported).unwrap();
    assert_eq!(report.completed, 150);
    assert_eq!(report.unmapped_reads, 0);
}

#[test]
fn stats_reflect_what_the_simulator_sees() {
    let cfg = cfg();
    let trace = PaperWorkload::WebSearch0.generate(500, cfg.logical_bytes() / 2, 42);
    let stats = TraceStats::measure(&trace);
    let report = run_trace(cfg, &trace).unwrap();
    // The report's read/write split must agree with the trace's.
    let measured_reads = report.read.count as f64 / report.completed as f64;
    assert!(
        (measured_reads - stats.read_fraction).abs() < 1e-9,
        "stats {} vs simulated {}",
        stats.read_fraction,
        measured_reads
    );
    // Offered duration matches the trace span.
    assert!(report.last_completion >= trace.records().last().unwrap().at);
}

#[test]
fn every_suite_workload_replays_on_every_architecture_without_unmapped_reads() {
    for workload in PaperWorkload::all() {
        let cfg = cfg();
        let trace = workload.generate(60, cfg.logical_bytes() / 2, 43);
        for arch in [Architecture::BaseSsd, Architecture::PnSsdSplit] {
            let mut c = SsdConfig::tiny(arch);
            c.gc.plan = None;
            let report = run_trace(c, &trace).unwrap();
            assert_eq!(report.unmapped_reads, 0, "{} on {arch}", workload.name());
        }
    }
}
