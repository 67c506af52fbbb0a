//! Composable garbage-collection plans.
//!
//! The three evaluated policies (PaGC, semi-preemptive, SpGC) are not
//! monoliths — each is a particular combination of three orthogonal
//! choices, in the style of MMTk's plan/policy decomposition:
//!
//! * **victim selection** ([`VictimSpec`]) — which full blocks to reclaim;
//! * **placement** ([`PlacementPolicy`]) — where user writes and GC copies
//!   may land while an event runs;
//! * **preemption** ([`PreemptionPolicy`]) — how the copy backlog is
//!   dispatched against foreground I/O.
//!
//! When GC starts, chains and is forced is not a component: every plan
//! uses the [`GcConfig`] watermarks through [`Ftl::needs_gc`],
//! [`Ftl::below_stop_watermark`] and [`Ftl::critically_low`].
//!
//! A [`GcPlan`] assembles the placement and preemption components from a
//! declarative [`GcPlanSpec`]; victim selection is data the FTL interprets
//! directly. The paper's collectors are named by
//! [`GcPolicy::plan`](crate::GcPolicy::plan):
//!
//! | policy | victim | placement | preemption |
//! |---|---|---|---|
//! | PaGC | greedy | unconstrained | run-to-completion |
//! | preemptive | greedy | unconstrained | yield-to-I/O |
//! | SpGC | greedy | spatial | run-to-completion |
//!
//! Beyond the paper's collectors, the decomposition adds two components:
//! [`VictimSpec::WearAware`] (victim scoring that folds per-block erase
//! counts into the greedy cost) and [`HotColdPlacement`] (generational
//! separation — pages that keep surviving GC are routed to a dedicated cold
//! relocation stream).

use core::fmt;

use nssd_sim::{CkptError, CkptReader, CkptWriter, SimTime};

use crate::{
    Ftl, GcConfig, GcStream, Lpn, SpatialGroups, VictimSpec, WayMask, DEFAULT_WEAR_WEIGHT,
};

/// Declarative placement choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementSpec {
    /// User writes and GC copies roam all ways.
    Unconstrained,
    /// SpGC way groups: user writes confined to the I/O group, victims and
    /// copies to the GC group, groups swapping every epoch.
    Spatial,
    /// Generational separation: unconstrained masks, but pages that have
    /// already survived a GC copy relocate through a separate cold stream.
    HotCold,
}

/// Declarative preemption choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreemptionSpec {
    /// Copies pipeline per victim until the event completes.
    RunToCompletion,
    /// Copies launch only into foreground-idle gaps (semi-preemptive).
    YieldToIo,
}

/// A full GC plan as data: one spec per component axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GcPlanSpec {
    /// Victim selection.
    pub victim: VictimSpec,
    /// Placement policy.
    pub placement: PlacementSpec,
    /// Preemption policy.
    pub preemption: PreemptionSpec,
}

impl GcPlanSpec {
    /// The hot/cold (generational) separation plan.
    pub fn hot_cold() -> Self {
        GcPlanSpec {
            victim: VictimSpec::Greedy,
            placement: PlacementSpec::HotCold,
            preemption: PreemptionSpec::RunToCompletion,
        }
    }

    /// The wear-aware victim-scoring plan with the default wear weight.
    pub fn wear_aware() -> Self {
        GcPlanSpec {
            victim: VictimSpec::WearAware {
                wear_weight: DEFAULT_WEAR_WEIGHT,
            },
            placement: PlacementSpec::Unconstrained,
            preemption: PreemptionSpec::RunToCompletion,
        }
    }

    /// Whether this plan observes per-block wear (its results are judged by
    /// the wear-detail report block).
    pub fn tracks_wear(&self) -> bool {
        matches!(self.victim, VictimSpec::WearAware { .. })
            || self.placement == PlacementSpec::HotCold
    }

    /// A short, filesystem-safe identifier (used in golden-case file names
    /// and bench tables).
    pub fn slug(&self) -> String {
        let placement = match self.placement {
            PlacementSpec::Unconstrained => "free",
            PlacementSpec::Spatial => "spatial",
            PlacementSpec::HotCold => "hotcold",
        };
        let preemption = match self.preemption {
            PreemptionSpec::RunToCompletion => "run",
            PreemptionSpec::YieldToIo => "yield",
        };
        format!("{}-{placement}-{preemption}", self.victim.slug())
    }
}

impl fmt::Display for GcPlanSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.slug())
    }
}

/// How a plan's copy backlog is dispatched by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchDiscipline {
    /// One copy in flight per victim (a copyback chain per die), run to
    /// completion — PaGC-style concurrency.
    PerVictimChain,
    /// A bounded global batch that launches only into foreground-idle gaps,
    /// polling every `poll` when blocked.
    Paced {
        /// Maximum copies in flight at once.
        batch: usize,
        /// Re-poll interval while foreground traffic blocks the next copy.
        poll: SimTime,
    },
}

/// Controls where user writes and GC copies may land while a GC event is
/// active, and which relocation stream each surviving page takes.
pub trait PlacementPolicy: fmt::Debug + Send {
    /// Opens a GC event: may narrow the FTL's user write mask. Returns the
    /// way mask victims are selected from.
    fn begin_event(&mut self, ftl: &mut Ftl) -> WayMask;

    /// Closes the event (also called when a trigger starved without
    /// victims), lifting any write restriction.
    fn end_event(&mut self, ftl: &mut Ftl);

    /// The mask copy destinations are confined to while an event is
    /// active, or `None` when destinations roam freely.
    fn confinement(&self) -> Option<WayMask> {
        None
    }

    /// Whether GC command/readout traffic should prefer dedicated
    /// v-channels where the topology offers them.
    fn wants_v_channel(&self) -> bool {
        false
    }

    /// The relocation stream a surviving page is copied through.
    fn stream_for(&self, _ftl: &Ftl, _lpn: Lpn) -> GcStream {
        GcStream::Gc
    }

    /// Serializes per-placement runtime state (group rotation, active
    /// masks). Stateless placements write nothing.
    fn ckpt_save(&self, _w: &mut CkptWriter) {}

    /// Restores state written by [`PlacementPolicy::ckpt_save`].
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or a configuration mismatch.
    fn ckpt_load(&mut self, _r: &mut CkptReader) -> Result<(), CkptError> {
        Ok(())
    }
}

/// No placement constraints: writes and copies roam all ways.
#[derive(Debug, Clone, Copy)]
pub struct UnconstrainedPlacement;

impl PlacementPolicy for UnconstrainedPlacement {
    fn begin_event(&mut self, ftl: &mut Ftl) -> WayMask {
        WayMask::all(ftl.geometry().ways)
    }

    fn end_event(&mut self, _ftl: &mut Ftl) {}
}

/// SpGC placement (§VI): the ways split into an I/O group and a GC group;
/// user writes are confined to the I/O group for the duration of the
/// event, victims and copy destinations to the GC group, and the groups
/// swap when the event ends so both halves age evenly.
#[derive(Debug)]
pub struct SpatialPlacement {
    groups: SpatialGroups,
    /// The GC-group mask while an event is active.
    active: Option<WayMask>,
    total_ways: u32,
}

impl SpatialPlacement {
    /// Creates the placement for `total_ways` ways with `gc_fraction` of
    /// them in the GC group.
    ///
    /// # Panics
    ///
    /// Panics unless `total_ways >= 2` (configuration validation rejects a
    /// spatial plan on a one-way device).
    pub fn new(total_ways: u32, gc_fraction: f64) -> Self {
        SpatialPlacement {
            groups: SpatialGroups::new(total_ways, gc_fraction),
            active: None,
            total_ways,
        }
    }

    /// The current group rotation.
    pub fn groups(&self) -> &SpatialGroups {
        &self.groups
    }
}

impl PlacementPolicy for SpatialPlacement {
    fn begin_event(&mut self, ftl: &mut Ftl) -> WayMask {
        let gc = self.groups.gc_ways();
        ftl.set_write_mask(self.groups.io_ways());
        self.active = Some(gc);
        gc
    }

    fn end_event(&mut self, ftl: &mut Ftl) {
        ftl.reset_write_mask();
        self.groups.swap();
        self.active = None;
    }

    fn confinement(&self) -> Option<WayMask> {
        self.active
    }

    fn wants_v_channel(&self) -> bool {
        true
    }

    fn ckpt_save(&self, w: &mut CkptWriter) {
        self.groups.ckpt_save(w);
        match self.active {
            Some(m) => {
                w.put_bool(true);
                w.put_u64(m.bits());
            }
            None => w.put_bool(false),
        }
    }

    fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.groups.ckpt_load(r)?;
        self.active = if r.take_bool()? {
            Some(WayMask::from_bits(r.take_u64()?, self.total_ways)?)
        } else {
            None
        };
        Ok(())
    }
}

/// Generational (hot/cold) separation at GC-copy time: masks stay
/// unconstrained, but a page that has already survived at least one GC
/// copy since its last host write relocates through the FTL's cold stream,
/// segregating stable data from write-hot churn (see
/// [`Ftl::gc_generation`]).
#[derive(Debug, Clone, Copy)]
pub struct HotColdPlacement;

impl PlacementPolicy for HotColdPlacement {
    fn begin_event(&mut self, ftl: &mut Ftl) -> WayMask {
        WayMask::all(ftl.geometry().ways)
    }

    fn end_event(&mut self, _ftl: &mut Ftl) {}

    fn stream_for(&self, ftl: &Ftl, lpn: Lpn) -> GcStream {
        if ftl.gc_generation(lpn) >= 1 {
            GcStream::Cold
        } else {
            GcStream::Gc
        }
    }
}

/// Chooses the dispatch discipline for the copy backlog.
pub trait PreemptionPolicy: fmt::Debug + Send {
    /// The discipline the engine dispatches copy packets under.
    fn discipline(&self) -> DispatchDiscipline;
}

/// Run every victim's copyback chain to completion (PaGC/SpGC).
#[derive(Debug, Clone, Copy)]
pub struct RunToCompletion;

impl PreemptionPolicy for RunToCompletion {
    fn discipline(&self) -> DispatchDiscipline {
        DispatchDiscipline::PerVictimChain
    }
}

/// Semi-preemptive pacing (Lee et al., ISPASS'11): a small batch of copies
/// launched only into foreground-idle gaps.
#[derive(Debug, Clone, Copy)]
pub struct YieldToIo {
    /// Maximum copies in flight.
    pub batch: usize,
    /// Poll interval while foreground traffic blocks the next copy.
    pub poll: SimTime,
}

impl Default for YieldToIo {
    fn default() -> Self {
        YieldToIo {
            batch: 4,
            poll: SimTime::from_us(20),
        }
    }
}

impl PreemptionPolicy for YieldToIo {
    fn discipline(&self) -> DispatchDiscipline {
        DispatchDiscipline::Paced {
            batch: self.batch,
            poll: self.poll,
        }
    }
}

/// An assembled GC plan: the spec plus its stateful components.
#[derive(Debug)]
pub struct GcPlan {
    /// The spec this plan was assembled from (its victim selection runs
    /// through [`Ftl::select_gc_victims`]).
    pub spec: GcPlanSpec,
    /// Placement policy.
    pub placement: Box<dyn PlacementPolicy>,
    /// Preemption policy.
    pub preemption: Box<dyn PreemptionPolicy>,
}

impl GcPlan {
    /// Assembles the plan `spec` describes, pulling the group fraction
    /// from `cfg` and sizing spatial groups for `total_ways`.
    pub fn assemble(spec: GcPlanSpec, cfg: &GcConfig, total_ways: u32) -> Self {
        let placement: Box<dyn PlacementPolicy> = match spec.placement {
            PlacementSpec::Unconstrained => Box::new(UnconstrainedPlacement),
            PlacementSpec::Spatial => {
                Box::new(SpatialPlacement::new(total_ways, cfg.gc_group_fraction))
            }
            PlacementSpec::HotCold => Box::new(HotColdPlacement),
        };
        let preemption: Box<dyn PreemptionPolicy> = match spec.preemption {
            PreemptionSpec::RunToCompletion => Box::new(RunToCompletion),
            PreemptionSpec::YieldToIo => Box::new(YieldToIo::default()),
        };
        GcPlan {
            spec,
            placement,
            preemption,
        }
    }

    /// Assembles the plan `cfg` calls for, or `None` when GC is disabled.
    pub fn from_config(cfg: &GcConfig, total_ways: u32) -> Option<Self> {
        cfg.plan.map(|spec| GcPlan::assemble(spec, cfg, total_ways))
    }

    /// The dispatch discipline of the preemption component.
    pub fn discipline(&self) -> DispatchDiscipline {
        self.preemption.discipline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FtlConfig, GcPolicy};
    use nssd_flash::Geometry;

    fn tiny_ftl() -> Ftl {
        let mut cfg = FtlConfig::evaluation_defaults();
        cfg.geometry = Geometry::tiny();
        cfg.gc.victims_per_trigger = 2;
        Ftl::new(cfg).unwrap()
    }

    #[test]
    fn spec_slugs_are_distinct_and_stable() {
        assert_eq!(GcPlanSpec::hot_cold().slug(), "greedy-hotcold-run");
        assert_eq!(GcPlanSpec::wear_aware().slug(), "wearaware-free-run");
        assert!(GcPlanSpec::hot_cold().tracks_wear());
        assert!(GcPlanSpec::wear_aware().tracks_wear());
        assert!(!GcPolicy::Parallel.plan().tracks_wear());
    }

    #[test]
    fn spatial_placement_confines_writes_and_swaps() {
        let mut ftl = tiny_ftl();
        let ways = ftl.geometry().ways;
        let mut p = SpatialPlacement::new(ways, 0.5);
        let gc_mask = p.begin_event(&mut ftl);
        assert_eq!(p.confinement(), Some(gc_mask));
        assert!(p.wants_v_channel());
        let io_mask = ftl.write_mask();
        assert_eq!(gc_mask.count() + io_mask.count(), ways);
        for l in 0..8 {
            let out = ftl.write(Lpn::new(l)).unwrap();
            let way = ftl.geometry().page_addr(out.ppn).way;
            assert!(io_mask.contains(way) && !gc_mask.contains(way));
        }
        let before = p.groups().gc_ways();
        p.end_event(&mut ftl);
        assert_eq!(p.confinement(), None);
        assert_eq!(ftl.write_mask(), WayMask::all(ways));
        assert_ne!(p.groups().gc_ways(), before);
    }

    #[test]
    fn spatial_placement_ckpt_roundtrip() {
        let mut ftl = tiny_ftl();
        let ways = ftl.geometry().ways;
        let mut p = SpatialPlacement::new(ways, 0.5);
        p.begin_event(&mut ftl);
        let mut w = CkptWriter::new();
        p.ckpt_save(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = SpatialPlacement::new(ways, 0.5);
        let mut r = CkptReader::new(&bytes);
        fresh.ckpt_load(&mut r).unwrap();
        assert_eq!(fresh.confinement(), p.confinement());
        assert_eq!(fresh.groups().gc_ways(), p.groups().gc_ways());
        assert_eq!(fresh.groups().epochs(), p.groups().epochs());
    }

    #[test]
    fn hot_cold_placement_routes_survivors_to_cold_stream() {
        let mut cfg = FtlConfig::evaluation_defaults();
        cfg.geometry = Geometry::tiny();
        cfg.gc.victims_per_trigger = 2;
        cfg.gc.plan = Some(GcPlanSpec::hot_cold());
        let mut ftl = Ftl::new(cfg).unwrap();
        let p = HotColdPlacement;
        let all = WayMask::all(ftl.geometry().ways);
        let hot = Lpn::new(0);
        let cold = Lpn::new(1);
        let h = ftl.write(hot).unwrap();
        let c = ftl.write(cold).unwrap();
        // Fresh host writes are generation 0: both take the Gc stream.
        assert_eq!(p.stream_for(&ftl, hot), GcStream::Gc);
        assert_eq!(p.stream_for(&ftl, cold), GcStream::Gc);
        // One survived relocation promotes a page to the cold stream.
        ftl.relocate_to(cold, c.ppn, all, GcStream::Gc).unwrap();
        assert_eq!(p.stream_for(&ftl, cold), GcStream::Cold);
        assert_eq!(p.stream_for(&ftl, hot), GcStream::Gc);
        // A host overwrite resets the generation: hot again.
        ftl.relocate_to(hot, h.ppn, all, GcStream::Gc).unwrap();
        assert_eq!(p.stream_for(&ftl, hot), GcStream::Cold);
        ftl.write(hot).unwrap();
        assert_eq!(p.stream_for(&ftl, hot), GcStream::Gc);
    }

    #[test]
    fn hot_cold_segregates_destination_blocks() {
        let mut cfg = FtlConfig::evaluation_defaults();
        cfg.geometry = Geometry::tiny();
        cfg.gc.victims_per_trigger = 2;
        cfg.gc.plan = Some(GcPlanSpec::hot_cold());
        let mut ftl = Ftl::new(cfg).unwrap();
        let all = WayMask::all(ftl.geometry().ways);
        let a = ftl.write(Lpn::new(0)).unwrap();
        let b = ftl.write(Lpn::new(1)).unwrap();
        let ra = ftl
            .relocate_to(Lpn::new(0), a.ppn, all, GcStream::Cold)
            .unwrap()
            .unwrap();
        let rb = ftl
            .relocate_to(Lpn::new(1), b.ppn, all, GcStream::Gc)
            .unwrap()
            .unwrap();
        // Cold and hot survivors land in different open blocks: the
        // streams never share a destination block.
        let g = ftl.geometry();
        assert_ne!(g.pbn_of(ra.dst), g.pbn_of(rb.dst));
    }

    #[test]
    fn preemption_components_expose_disciplines() {
        assert_eq!(
            RunToCompletion.discipline(),
            DispatchDiscipline::PerVictimChain
        );
        let y = YieldToIo::default();
        assert_eq!(
            y.discipline(),
            DispatchDiscipline::Paced {
                batch: 4,
                poll: SimTime::from_us(20)
            }
        );
    }

    #[test]
    fn assemble_builds_every_component_family() {
        let cfg = GcConfig::evaluation_defaults();
        for spec in [
            GcPolicy::Parallel.plan(),
            GcPolicy::Preemptive.plan(),
            GcPolicy::Spatial.plan(),
            GcPlanSpec::hot_cold(),
            GcPlanSpec::wear_aware(),
        ] {
            let plan = GcPlan::assemble(spec, &cfg, 8);
            assert_eq!(plan.spec, spec);
            // The discipline must follow the preemption spec.
            match spec.preemption {
                PreemptionSpec::RunToCompletion => {
                    assert_eq!(plan.discipline(), DispatchDiscipline::PerVictimChain)
                }
                PreemptionSpec::YieldToIo => {
                    assert!(matches!(
                        plan.discipline(),
                        DispatchDiscipline::Paced { .. }
                    ))
                }
            }
        }
    }

    #[test]
    fn from_config_assembles_the_configured_plan() {
        let mut cfg = GcConfig::evaluation_defaults();
        cfg.plan = None;
        assert!(GcPlan::from_config(&cfg, 8).is_none());
        cfg.plan = Some(GcPlanSpec::hot_cold());
        let plan = GcPlan::from_config(&cfg, 8).unwrap();
        assert_eq!(plan.spec.placement, PlacementSpec::HotCold);
        cfg.plan = Some(GcPolicy::Spatial.plan());
        let plan = GcPlan::from_config(&cfg, 8).unwrap();
        assert_eq!(plan.spec.placement, PlacementSpec::Spatial);
    }
}
