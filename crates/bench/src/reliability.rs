//! Reliability extension: fault-injection sweeps across the architectures.
//!
//! The paper evaluates an ideal (error-free) device; these experiments ask
//! how the interconnect choice behaves once flash and wire faults are
//! injected. The headline contrast: packetized links carry a CRC and repair
//! wire corruption with NAK + retransmission (a visible bandwidth cost),
//! while the dedicated-signal baseline has no frame check at all — the same
//! corruption is *silent*.

use nssd_core::{run_trace, Architecture, SsdConfig};
use nssd_sim::{Pool, SimTime};
use nssd_workloads::PaperWorkload;

use crate::experiments::Experiment;
use crate::setup;
use crate::table::{fmt_us, Table};

/// The three architectures the fault story contrasts: the unframed bus, the
/// packetized bus, and the packetized 2D organization.
pub fn fault_architectures() -> [Architecture; 3] {
    [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsdSplit,
    ]
}

fn faulty_config(arch: Architecture, rber: f64, link_ber: f64) -> SsdConfig {
    let mut cfg = setup::io_config(arch);
    cfg.faults.bit_error.rber = rber;
    cfg.faults.link.ber = link_ber;
    cfg
}

fn fmt_rate(r: f64) -> String {
    if r == 0.0 {
        "0".to_string()
    } else {
        format!("{r:.0e}")
    }
}

/// Ext E4: flash RBER sweep (retry ladder), wire BER sweep (CRC recovery vs
/// silent corruption), and a mid-run chip fail-stop.
pub fn fault_sweep() -> Experiment {
    let requests = setup::requests_per_run() / 4;
    let cfg0 = setup::io_config(Architecture::BaseSsd);
    let trace =
        PaperWorkload::YcsbA.generate(requests, setup::io_footprint(&cfg0), setup::EXPERIMENT_SEED);

    let mut flash_t = Table::new(vec![
        "architecture".to_string(),
        "RBER".to_string(),
        "KIOPS".to_string(),
        "read mean".to_string(),
        "read p99".to_string(),
        "retries".to_string(),
        "soft decodes".to_string(),
        "uncorrectable".to_string(),
    ]);
    let flash_cells: Vec<_> = fault_architectures()
        .into_iter()
        .flat_map(|arch| [0.0, 1e-5, 1e-4, 1e-3].map(|rber| (arch, rber)))
        .collect();
    let jobs: Vec<_> = flash_cells
        .iter()
        .map(|&(arch, rber)| {
            let trace = &trace;
            move || run_trace(faulty_config(arch, rber, 0.0), trace).expect("rber run")
        })
        .collect();
    for (&(arch, rber), r) in flash_cells.iter().zip(Pool::from_env().map(jobs).iter()) {
        let rel = r.reliability;
        flash_t.row(vec![
            arch.label().to_string(),
            fmt_rate(rber),
            format!("{:.1}", r.kiops()),
            fmt_us(r.read.mean.as_ns()),
            fmt_us(r.read.p99.as_ns()),
            rel.read_retries.to_string(),
            rel.soft_decodes.to_string(),
            rel.uncorrectable_reads.to_string(),
        ]);
    }

    let mut link_t = Table::new(vec![
        "architecture".to_string(),
        "link BER".to_string(),
        "KIOPS".to_string(),
        "retransmissions".to_string(),
        "unrecovered".to_string(),
        "silent corruptions".to_string(),
        "link efficiency".to_string(),
    ]);
    let link_cells: Vec<_> = fault_architectures()
        .into_iter()
        .flat_map(|arch| [1e-8, 1e-7, 1e-6].map(|ber| (arch, ber)))
        .collect();
    let jobs: Vec<_> = link_cells
        .iter()
        .map(|&(arch, ber)| {
            let trace = &trace;
            move || run_trace(faulty_config(arch, 0.0, ber), trace).expect("link run")
        })
        .collect();
    for (&(arch, ber), r) in link_cells.iter().zip(Pool::from_env().map(jobs).iter()) {
        let rel = r.reliability;
        link_t.row(vec![
            arch.label().to_string(),
            fmt_rate(ber),
            format!("{:.1}", r.kiops()),
            rel.retransmissions.to_string(),
            rel.unrecovered_transfers.to_string(),
            rel.silent_corruptions.to_string(),
            format!("{:.4}", rel.link_efficiency()),
        ]);
    }

    let mut chip_t = Table::new(vec![
        "architecture".to_string(),
        "completed".to_string(),
        "pages remapped".to_string(),
        "pages lost".to_string(),
        "all mean".to_string(),
    ]);
    let jobs: Vec<_> = fault_architectures()
        .into_iter()
        .map(|arch| {
            let trace = &trace;
            move || {
                let mut cfg = setup::io_config(arch);
                cfg.faults.chip_failure = Some(nssd_core::ChipFailureSpec {
                    channel: 1,
                    way: 0,
                    at: SimTime::from_ms(1),
                });
                run_trace(cfg, trace).expect("chip-fail run")
            }
        })
        .collect();
    for (arch, r) in fault_architectures()
        .into_iter()
        .zip(Pool::from_env().map(jobs).iter())
    {
        chip_t.row(vec![
            arch.label().to_string(),
            r.completed.to_string(),
            r.reliability.pages_remapped.to_string(),
            r.reliability.pages_lost.to_string(),
            fmt_us(r.all.mean.as_ns()),
        ]);
    }

    Experiment {
        id: "Ext E4",
        title: "fault injection: RBER retry ladder, wire-BER recovery, chip fail-stop",
        tables: vec![
            ("flash bit errors".to_string(), flash_t),
            ("wire bit errors".to_string(), link_t),
            ("chip fail-stop at 1 ms".to_string(), chip_t),
        ],
        notes: vec![
            "read retries re-sense the array (one full tR each) and soft decodes add \
             decoder latency, so read latency and throughput degrade monotonically \
             with RBER; the array pays, so the effect is architecture-independent"
                .into(),
            "packetized links (pSSD/pnSSD) detect wire corruption by CRC and repair \
             it with NAK + retransmission — visible as retransmissions and link \
             efficiency < 1; the dedicated-signal baseline has no frame check, so \
             the same corruption lands as silent corruptions: zero time cost, wrong \
             data"
                .into(),
            "after the fail-stop every live page of the chip is remapped onto \
             survivors and the device continues degraded; losses appear only when \
             the survivors cannot absorb the capacity"
                .into(),
        ],
    }
}
