//! Validation is complete: every configuration `SsdConfig::validate`
//! accepts builds a simulator without panicking, and every one it rejects
//! fails `SsdSim::new` with the very same `ConfigError`.

use networked_ssd::core::{ChipFailureSpec, SsdSim};
use networked_ssd::ftl::{AllocPolicy, RedundancyConfig};
use networked_ssd::sim::{DetRng, Rng, SimTime};
use networked_ssd::{Architecture, ConfigError, GcPlanSpec, GcPolicy, SsdConfig};

const CASES: usize = if cfg!(feature = "heavy-tests") {
    4096
} else {
    384
};

/// Builds `cfg` and checks construction agrees with validation.
fn assert_construction_agrees(cfg: SsdConfig) -> Result<(), ConfigError> {
    let verdict = cfg.validate();
    let built = std::panic::catch_unwind(|| SsdSim::new(cfg).map(|_| ()))
        .unwrap_or_else(|_| panic!("SsdSim::new panicked on {verdict:?} for {cfg:?}"));
    assert_eq!(
        built, verdict,
        "construction disagrees with validation: {cfg:?}"
    );
    verdict
}

fn plans() -> [Option<GcPlanSpec>; 6] {
    [
        None,
        Some(GcPolicy::Parallel.plan()),
        Some(GcPolicy::Preemptive.plan()),
        Some(GcPolicy::Spatial.plan()),
        Some(GcPlanSpec::hot_cold()),
        Some(GcPlanSpec::wear_aware()),
    ]
}

fn pick<T: Copy>(rng: &mut DetRng, values: &[T]) -> T {
    values[rng.gen_range(0..values.len())]
}

/// One random perturbation of one field. Every value keeps the device
/// small enough to build in a debug test: no geometry here reaches more
/// than a few million pages unless validation rejects it first.
fn perturb(cfg: &mut SsdConfig, rng: &mut DetRng) {
    let g = &mut cfg.geometry;
    match rng.gen_range(0..26u64) {
        0 => g.channels = pick(rng, &[0, 1, 2, 3, 4, 8]),
        1 => g.ways = pick(rng, &[0, 1, 2, 3, 5, 64, 65, 1000]),
        2 => g.dies = pick(rng, &[0, 1, 2]),
        3 => g.planes = pick(rng, &[0, 1, 2, 4]),
        4 => g.blocks_per_plane = pick(rng, &[0, 1, 2, 3, 8, 16]),
        5 => g.pages_per_block = pick(rng, &[0, 1, 2, 16, 64]),
        6 => g.page_bytes = pick(rng, &[0, 512, 4096, 16384]),
        // A page count past u64, rejected before anything is sized by it.
        // Every dimension is maxed, so the at most three later perturbations
        // cannot shrink the product back into range: validation accepts any
        // page count that fits u64, and construction would then try to
        // allocate it.
        7 => {
            g.channels = u32::MAX;
            g.ways = u32::MAX;
            g.dies = u32::MAX;
            g.planes = u32::MAX;
            g.blocks_per_plane = u32::MAX;
            g.pages_per_block = u32::MAX;
        }
        8 => cfg.op_ratio = pick(rng, &[-0.1, 0.0, 0.3, 0.89, 0.9, f64::NAN]),
        9 => cfg.gc.trigger_free_ratio = pick(rng, &[0.0, 0.02, 0.025, 0.15, 0.5, 1.0, f64::NAN]),
        10 => {
            let t = cfg.gc.trigger_free_ratio;
            cfg.gc.stop_free_ratio = pick(rng, &[t - 0.01, t, t + 0.01, 0.999, 1.0]);
        }
        11 => cfg.gc.victims_per_trigger = pick(rng, &[0, 1, 2, 8, 9, 1000]),
        12 => cfg.gc.gc_group_fraction = pick(rng, &[0.0, 0.01, 0.5, 0.99, 1.0]),
        13 => cfg.gc.plan = pick(rng, &plans()),
        14 => {
            let width = pick(rng, &[0, 1, 2, 3, 4, 8]);
            cfg.redundancy = if rng.gen_bool(0.8) {
                RedundancyConfig::with_stripe(width)
            } else {
                RedundancyConfig {
                    enabled: false,
                    stripe_width: width,
                }
            };
        }
        15 => cfg.faults.bit_error.rber = pick(rng, &[-1e-4, 0.0, 1e-4, 2e-2, f64::NAN]),
        16 => cfg.faults.bit_error.pe_cycle_slope = pick(rng, &[-1e-9, 0.0, 1e-9, f64::NAN]),
        17 => cfg.faults.link.ber = pick(rng, &[0.0, 1e-5, 0.5]),
        18 => cfg.faults.link.max_retries = pick(rng, &[0, 8, 64, 65]),
        19 => cfg.faults.bad_blocks.manufacture_rate = pick(rng, &[0.0, 0.05, 0.5]),
        20 => cfg.faults.bad_blocks.grown_rate = pick(rng, &[0.0, 0.01, 0.02]),
        21 => {
            cfg.faults.chip_failure = Some(ChipFailureSpec {
                channel: pick(rng, &[0, 1, 2, 8]),
                way: pick(rng, &[0, 1, 2, 8]),
                at: SimTime::from_us(100),
            })
        }
        22 => cfg.base_width_bits = pick(rng, &[0, 1, 8, 16]),
        23 => cfg.util_window = pick(rng, &[SimTime::ZERO, SimTime::from_ns(1)]),
        24 => cfg.endurance_limit = pick(rng, &[None, Some(0), Some(1), Some(3000)]),
        _ => {
            cfg.alloc_policy = pick(
                rng,
                &[AllocPolicy::Pcwd, AllocPolicy::Pwcd, AllocPolicy::Cwdp],
            );
            cfg.oracle = rng.gen_bool(0.5);
        }
    }
}

#[test]
fn validation_decides_construction_across_a_perturbation_sweep() {
    let mut rng = DetRng::seed_from_u64(0xC0F1_6000);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for _ in 0..CASES {
        let arch = pick(&mut rng, &Architecture::with_strawmen());
        let mut cfg = if rng.gen_bool(0.5) {
            SsdConfig::tiny(arch)
        } else {
            SsdConfig::gc_scaled(arch)
        };
        // Way count and collector are drawn for every case: the rules that
        // couple them to the architecture need both at once.
        cfg.geometry.ways = pick(&mut rng, &[1, 2, 4]);
        cfg.gc.plan = pick(&mut rng, &plans());
        for _ in 0..rng.gen_range(0..4usize) {
            perturb(&mut cfg, &mut rng);
        }
        match assert_construction_agrees(cfg) {
            Ok(()) => accepted += 1,
            Err(_) => rejected += 1,
        }
    }
    // The sweep must exercise both sides of the rule set.
    assert!(
        accepted >= CASES / 8 && rejected >= CASES / 8,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn former_holes_are_rejected_by_validation() {
    // A GC reserve that reaches the trigger watermark: 9 victims + 1 on the
    // tiny device's 64 blocks at a 15 % trigger (9 blocks).
    let mut cfg = SsdConfig::tiny(Architecture::BaseSsd);
    cfg.gc.victims_per_trigger = 9;
    let err = assert_construction_agrees(cfg).unwrap_err();
    assert_eq!(err.field, "gc.victims_per_trigger");

    // More ways than a way mask holds.
    let mut cfg = SsdConfig::tiny(Architecture::PnSsd);
    cfg.geometry.ways = 65;
    let err = assert_construction_agrees(cfg).unwrap_err();
    assert_eq!(err.field, "geometry.ways");
    cfg.geometry.ways = 64;
    assert_construction_agrees(cfg).unwrap();
}

#[test]
fn config_errors_convert_to_the_runner_strings() {
    let mut cfg = SsdConfig::tiny(Architecture::PSsd);
    cfg.op_ratio = 0.95;
    let build = || -> Result<SsdSim, String> { Ok(SsdSim::new(cfg)?) };
    let msg = build().unwrap_err();
    assert_eq!(msg, cfg.validate().unwrap_err().to_string());
    assert!(msg.contains("op_ratio"), "{msg}");
}
