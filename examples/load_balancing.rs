//! Path diversity under imbalanced placement: reproduce the Fig 17 effect
//! where Omnibus routing absorbs a skewed page-allocation policy.
//!
//! ```sh
//! cargo run --release --example load_balancing
//! ```

use networked_ssd::ftl::AllocPolicy;
use networked_ssd::{
    prepare, Aging, Architecture, Drive, SsdConfig, SyntheticPattern, SyntheticSpec,
};

fn main() -> Result<(), String> {
    println!("sequential reads, 64KB each, 16 concurrent — by placement policy:\n");
    println!(
        "{:<24} {:>14} {:>14}",
        "architecture", "PCWD (balanced)", "PWCD (skewed)"
    );
    for arch in [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsd,
        Architecture::PnSsdSplit,
    ] {
        let mut row = format!("{:<24}", arch.label());
        for policy in [AllocPolicy::Pcwd, AllocPolicy::Pwcd] {
            let mut cfg = SsdConfig::new(arch);
            cfg.gc.plan = None;
            cfg.alloc_policy = policy;
            let spec = SyntheticSpec::paper(
                SyntheticPattern::SequentialRead,
                4_000,
                cfg.logical_bytes() / 2,
            );
            let requests = spec.generate().into_records();
            let drive = Drive::ClosedLoop {
                requests,
                depth: 16,
            };
            let report = prepare(cfg, &drive, Aging::Footprint)?.run(drive);
            row += &format!(" {:>14}", report.all.mean.to_string());
        }
        println!("{row}");
    }
    println!(
        "\nPWCD piles consecutive pages onto one channel's ways; pSSD still queues on\n\
         that hot channel, while pnSSD routes the overflow through the v-channels\n\
         (greedy adaptive choice + page split) — the paper's Fig 16/17 contrast."
    );
    Ok(())
}
