//! Per-tenant workload mixes for the multi-tenant host frontend.
//!
//! A [`TenantMix`] names N tenants, each pairing a QoS configuration
//! ([`TenantConfig`]: weight + SLO class) with an arrival process drawn
//! from the existing generators — a raw [`WorkloadSpec`], a named
//! [`PaperWorkload`], or a closed-loop [`MixedSpec`]. [`TenantMix::generate`]
//! carves the logical address space into equal per-tenant partitions and
//! renders one trace per tenant, ready for the core crate's multi-tenant
//! `Drive`.
//!
//! The canonical interference scenario the paper-style experiments use —
//! a GC-heavy write-burst tenant against a read-latency-sensitive
//! neighbor — is pinned in [`TenantMix::interference`].

use nssd_host::{IoRequest, SloClass, TenantConfig};

use crate::{generate_trace, MixedSpec, PaperWorkload, Trace, WorkloadSpec};

/// The arrival process of one tenant, drawn from the existing generators.
#[derive(Debug, Clone, Copy)]
pub enum TenantWorkload {
    /// An explicit open-loop spec (timestamps from intensity/burstiness).
    Spec(WorkloadSpec),
    /// A named workload from the paper suite.
    Paper(PaperWorkload),
    /// A closed-loop synthetic stream (all arrivals at t=0, so the tenant
    /// is fully backlogged and paced only by queue arbitration).
    Mixed(MixedSpec),
}

/// One tenant of a mix: QoS parameters plus its workload.
#[derive(Debug, Clone, Copy)]
pub struct TenantSpec {
    /// Tenant name (shows up in per-tenant report rows).
    pub name: &'static str,
    /// Arbitration weight (≥ 1).
    pub weight: u32,
    /// SLO class, setting the latency target violations count against.
    pub slo: SloClass,
    /// Arrival process.
    pub workload: TenantWorkload,
    /// Requests to generate for this tenant.
    pub requests: usize,
}

/// A named set of tenants sharing one device.
#[derive(Debug, Clone)]
pub struct TenantMix {
    /// Mix name (for tables and file names).
    pub name: &'static str,
    /// The tenants, in queue-index order (ties in arbitration break toward
    /// the earlier tenant).
    pub tenants: Vec<TenantSpec>,
}

impl TenantMix {
    /// The pinned interference scenario: a GC-heavy write-burst tenant
    /// (large bursty writes, low weight, throughput SLO) sharing the device
    /// with a read-latency-sensitive neighbor (small skewed reads, high
    /// weight, tight SLO). `requests` is per tenant.
    pub fn interference(requests: usize) -> Self {
        TenantMix {
            name: "interference",
            tenants: vec![
                TenantSpec {
                    name: "latency",
                    weight: 3,
                    slo: SloClass::LatencySensitive,
                    workload: TenantWorkload::Spec(WorkloadSpec {
                        name: "latency",
                        read_fraction: 0.98,
                        read_skew: 1.1,
                        sequential_fraction: 0.1,
                        request_bytes: 16 * 1024,
                        intensity: 0.15,
                        burst: None,
                        hot_region_pages: 2,
                    }),
                    requests,
                },
                TenantSpec {
                    name: "writeburst",
                    weight: 1,
                    slo: SloClass::Throughput,
                    workload: TenantWorkload::Spec(WorkloadSpec {
                        name: "writeburst",
                        read_fraction: 0.05,
                        read_skew: 0.6,
                        sequential_fraction: 0.3,
                        request_bytes: 64 * 1024,
                        intensity: 0.5,
                        burst: Some((0.3, 3.0)),
                        hot_region_pages: 8,
                    }),
                    requests,
                },
            ],
        }
    }

    /// Renders the mix over a shared footprint: the address space is split
    /// into equal 16 KiB-aligned partitions — one per tenant, so tenants
    /// interfere through device resources (channels, chips, GC), never
    /// through overlapping data — and each tenant's trace is generated
    /// inside its partition from a per-tenant seed derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty or the per-tenant partition is smaller
    /// than 64 KiB (four 16 KiB pages, the generator minimum).
    pub fn generate(&self, footprint_bytes: u64, seed: u64) -> Vec<(TenantConfig, Trace)> {
        const PAGE: u64 = 16 * 1024;
        assert!(!self.tenants.is_empty(), "tenant mix is empty");
        let partition = (footprint_bytes / self.tenants.len() as u64) / PAGE * PAGE;
        assert!(
            partition >= 4 * PAGE,
            "{} bytes across {} tenants leaves partitions under the \
             4-page generator minimum",
            footprint_bytes,
            self.tenants.len()
        );
        self.tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let tenant_seed = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1);
                let trace = match t.workload {
                    TenantWorkload::Spec(ref spec) => {
                        generate_trace(spec, t.requests, partition, tenant_seed)
                    }
                    TenantWorkload::Paper(w) => w.generate(t.requests, partition, tenant_seed),
                    TenantWorkload::Mixed(spec) => MixedSpec {
                        requests: t.requests,
                        footprint_bytes: partition,
                        seed: tenant_seed,
                        ..spec
                    }
                    .generate(),
                };
                let config = TenantConfig::new(t.name, t.weight, t.slo);
                (config, offset_trace(trace, i as u64 * partition))
            })
            .collect()
    }
}

/// Rebases every request of `trace` by `base` bytes (partition placement).
fn offset_trace(trace: Trace, base: u64) -> Trace {
    let mut out = Trace::new(trace.name());
    for r in trace.into_records() {
        out.push(IoRequest::new(r.op, r.offset + base, r.len, r.at));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FOOTPRINT: u64 = 8 << 20;

    #[test]
    fn interference_mix_has_the_two_paper_tenants() {
        let mix = TenantMix::interference(100);
        assert_eq!(mix.tenants.len(), 2);
        assert_eq!(mix.tenants[0].name, "latency");
        assert!(mix.tenants[0].weight > mix.tenants[1].weight);
        let streams = mix.generate(FOOTPRINT, 7);
        assert_eq!(streams.len(), 2);
        let (lat_cfg, lat_trace) = &streams[0];
        let (wb_cfg, wb_trace) = &streams[1];
        assert_eq!(lat_cfg.name, "latency");
        assert!(lat_cfg.slo_latency < wb_cfg.slo_latency);
        assert!(lat_trace.read_fraction() > 0.9, "latency tenant reads");
        assert!(wb_trace.read_fraction() < 0.2, "writeburst tenant writes");
    }

    #[test]
    fn partitions_do_not_overlap() {
        let mix = TenantMix::interference(300);
        let streams = mix.generate(FOOTPRINT, 11);
        let partition = FOOTPRINT / 2;
        for (i, (_, trace)) in streams.iter().enumerate() {
            let lo = i as u64 * partition;
            for r in trace.records() {
                assert!(r.offset >= lo, "tenant {i} below its partition");
                assert!(
                    r.offset + r.len as u64 <= lo + partition,
                    "tenant {i} past its partition"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let mix = TenantMix::interference(50);
        let a = mix.generate(FOOTPRINT, 5);
        let b = mix.generate(FOOTPRINT, 5);
        for ((_, ta), (_, tb)) in a.iter().zip(&b) {
            assert_eq!(ta, tb);
        }
        let c = mix.generate(FOOTPRINT, 6);
        assert_ne!(a[0].1, c[0].1, "seed must matter");
    }

    #[test]
    fn tenants_get_distinct_seeds() {
        // Two tenants with the *same* workload must not mirror each other.
        let mix = TenantMix {
            name: "twins",
            tenants: vec![
                TenantSpec {
                    name: "a",
                    weight: 1,
                    slo: SloClass::BestEffort,
                    workload: TenantWorkload::Paper(PaperWorkload::YcsbA),
                    requests: 80,
                },
                TenantSpec {
                    name: "b",
                    weight: 1,
                    slo: SloClass::BestEffort,
                    workload: TenantWorkload::Paper(PaperWorkload::YcsbA),
                    requests: 80,
                },
            ],
        };
        let streams = mix.generate(FOOTPRINT, 9);
        let a = offset_trace(streams[0].1.clone(), 0);
        let b = offset_trace(streams[1].1.clone(), 0);
        // Compare shapes modulo the partition rebase: offsets relative to
        // each partition start.
        let rel = |t: &Trace, base: u64| -> Vec<(u64, u32)> {
            t.records()
                .iter()
                .map(|r| (r.offset - base, r.len))
                .collect()
        };
        assert_ne!(rel(&a, 0), rel(&b, FOOTPRINT / 2), "tenants shared a seed");
    }

    #[test]
    fn mixed_workload_is_backlogged_at_time_zero() {
        let mix = TenantMix {
            name: "closed",
            tenants: vec![TenantSpec {
                name: "m",
                weight: 1,
                slo: SloClass::Throughput,
                workload: TenantWorkload::Mixed(MixedSpec {
                    read_ratio: 1.0,
                    mean_run_length: 1.0,
                    request_bytes: 16 * 1024,
                    requests: 0,        // overridden by TenantSpec.requests
                    footprint_bytes: 0, // overridden by the partition
                    seed: 0,            // overridden by the derived seed
                }),
                requests: 40,
            }],
        };
        let streams = mix.generate(FOOTPRINT, 3);
        let trace = &streams[0].1;
        assert_eq!(trace.len(), 40);
        assert!(trace.records().iter().all(|r| r.at.is_zero()));
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn undersized_footprint_rejected() {
        TenantMix::interference(10).generate(100 * 1024, 1);
    }
}
