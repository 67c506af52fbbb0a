//! # networked-ssd
//!
//! A from-scratch Rust reproduction of *"Networked SSD: Flash Memory
//! Interconnection Network for High-Bandwidth SSD"* (Kim, Kang, Park, Kim —
//! MICRO 2022): the packetized flash interface (**pSSD**), the Omnibus 2D
//! bus topology with flash-to-flash connectivity (**pnSSD**), and
//! **spatial garbage collection**, built on a complete discrete-event SSD
//! simulator substrate (flash model, interconnect models, FTL, host
//! interface, workload suite).
//!
//! This crate is the facade: it re-exports every workspace crate under one
//! name. Depend on the individual `nssd-*` crates instead if you only need
//! one layer.
//!
//! ## Quick start
//!
//! ```
//! use networked_ssd::core::{run_trace, Architecture, SsdConfig};
//! use networked_ssd::workloads::PaperWorkload;
//!
//! // Compare the conventional bus against the packetized-network SSD.
//! let cfg = SsdConfig::tiny(Architecture::BaseSsd);
//! let trace = PaperWorkload::WebSearch0.generate(200, cfg.logical_bytes() / 2, 1);
//!
//! let base = run_trace(cfg, &trace)?;
//! let pnssd = run_trace(SsdConfig::tiny(Architecture::PnSsdSplit), &trace)?;
//!
//! println!(
//!     "baseSSD {} vs pnSSD(+split) {} → {:.2}x",
//!     base.all.mean,
//!     pnssd.all.mean,
//!     pnssd.speedup_vs(&base),
//! );
//! # Ok::<(), String>(())
//! ```
//!
//! ## Layer map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `nssd-sim` | Discrete-event kernel, resources, statistics |
//! | [`flash`] | `nssd-flash` | Geometry, timing, commands, chip model |
//! | [`interconnect`] | `nssd-interconnect` | Packets, buses, Omnibus, NoSSD mesh |
//! | [`ftl`] | `nssd-ftl` | Mapping, allocation, victim selection, GC policies |
//! | [`host`] | `nssd-host` | Requests, host-side bandwidth pipes |
//! | [`workloads`] | `nssd-workloads` | Traces, Zipf, synthetic + named suites |
//! | [`faults`] | `nssd-faults` | Deterministic fault injection, reliability counters |
//! | [`oracle`] | `nssd-oracle` | Timing-free shadow model, conservation invariants |
//! | [`core`] | `nssd-core` | Architectures, engine, the run API (`prepare`, `Aging`, `Drive`), reports, golden snapshots |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nssd_core as core;
pub use nssd_faults as faults;
pub use nssd_flash as flash;
pub use nssd_ftl as ftl;
pub use nssd_host as host;
pub use nssd_interconnect as interconnect;
pub use nssd_oracle as oracle;
pub use nssd_sim as sim;
pub use nssd_workloads as workloads;

// The most-used items, flattened for convenience.
pub use nssd_core::{
    prepare, run_trace, run_trace_preconditioned, Aging, Architecture, Drive, FaultConfig,
    GoldenCase, OracleSummary, ReliabilityStats, SchedulerKind, SimReport, SloClass, SsdConfig,
    TenantConfig, TenantSummary,
};
pub use nssd_ftl::{GcPlan, GcPlanSpec, GcPolicy, PlacementSpec, PreemptionSpec, VictimSpec};
pub use nssd_workloads::{
    MixedSpec, PaperWorkload, SyntheticPattern, SyntheticSpec, TenantMix, TenantSpec,
    TenantWorkload, Trace,
};
