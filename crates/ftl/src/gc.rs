//! Garbage-collection configuration.
//!
//! Which collector runs is exactly one [`GcPlanSpec`] (or none: GC off).
//! The paper's evaluation (§VII-C) compares three of them, named by
//! [`GcPolicy`]:
//!
//! * [`GcPolicy::Parallel`] — PaGC (Shahidi et al., SC'16): all chips
//!   reclaim concurrently; foreground I/O queues behind GC traffic.
//! * [`GcPolicy::Preemptive`] — semi-preemptive GC (Lee et al., ISPASS'11):
//!   GC page copies yield to pending I/O until a hard free-space watermark
//!   forces progress.
//! * [`GcPolicy::Spatial`] — the paper's SpGC (§VI): the ways are split into
//!   an I/O group and a GC group; user writes are confined to the I/O
//!   group, victims and copy destinations to the GC group, and the groups
//!   swap every epoch to level wear.

use core::fmt;

use nssd_sim::{CkptError, CkptReader, CkptWriter, ConfigError};

use crate::{GcPlanSpec, PlacementSpec, PreemptionSpec, VictimSpec, WayMask};

/// The paper's three evaluated collectors, as names for their plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GcPolicy {
    /// Parallel GC (PaGC), the paper's baseline.
    Parallel,
    /// Semi-preemptive GC.
    Preemptive,
    /// Spatial GC (the paper's contribution).
    Spatial,
}

impl GcPolicy {
    /// The component tuple this collector is, with greedy victims.
    pub fn plan(self) -> GcPlanSpec {
        let (placement, preemption) = match self {
            GcPolicy::Parallel => (
                PlacementSpec::Unconstrained,
                PreemptionSpec::RunToCompletion,
            ),
            GcPolicy::Preemptive => (PlacementSpec::Unconstrained, PreemptionSpec::YieldToIo),
            GcPolicy::Spatial => (PlacementSpec::Spatial, PreemptionSpec::RunToCompletion),
        };
        GcPlanSpec {
            victim: VictimSpec::Greedy,
            placement,
            preemption,
        }
    }
}

impl fmt::Display for GcPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GcPolicy::Parallel => "PaGC",
            GcPolicy::Preemptive => "preemptive",
            GcPolicy::Spatial => "SpGC",
        };
        f.write_str(s)
    }
}

/// Garbage-collection tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcConfig {
    /// Start GC when the free-block ratio drops to this value.
    pub trigger_free_ratio: f64,
    /// Keep chaining GC events until the free-block ratio recovers to this
    /// value (hysteresis: the gap between trigger and stop sets the GC duty
    /// cycle under sustained writes).
    pub stop_free_ratio: f64,
    /// Victim blocks reclaimed per GC event (total across the device; the
    /// same total is used for every policy, per §VII-A).
    pub victims_per_trigger: u32,
    /// Fraction of ways assigned to the GC group under spatial GC.
    pub gc_group_fraction: f64,
    /// The collector: one component per axis. `None` disables timed GC
    /// (the no-GC I/O experiments, Figs 14–17).
    pub plan: Option<GcPlanSpec>,
}

impl GcConfig {
    /// Below this free ratio, preemptive GC stops yielding to I/O.
    pub const HARD_FREE_RATIO: f64 = 0.025;

    /// The evaluation defaults: PaGC with greedy victims, trigger at 10%
    /// free blocks, 8 victims per event, half/half spatial groups.
    pub fn evaluation_defaults() -> Self {
        GcConfig {
            trigger_free_ratio: 0.10,
            stop_free_ratio: 0.105,
            victims_per_trigger: 8,
            gc_group_fraction: 0.5,
            plan: Some(GcPolicy::Parallel.plan()),
        }
    }

    /// Validates ratios are sane.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // The trigger may not sit below the hard watermark.
        if !(Self::HARD_FREE_RATIO..1.0).contains(&self.trigger_free_ratio) {
            let reason = format!("must be in [{}, 1)", Self::HARD_FREE_RATIO);
            return ConfigError::err("gc.trigger_free_ratio", reason);
        }
        // The gap must be strictly positive: an equal pair validates a
        // zero-duty-cycle hysteresis where every finished event immediately
        // re-arms the trigger.
        if !(self.stop_free_ratio > self.trigger_free_ratio && self.stop_free_ratio < 1.0) {
            return ConfigError::err("gc.stop_free_ratio", "must be in (trigger_free_ratio, 1)");
        }
        if !(0.0 < self.gc_group_fraction && self.gc_group_fraction < 1.0) {
            return ConfigError::err("gc.gc_group_fraction", "must be in (0, 1)");
        }
        if self.victims_per_trigger == 0 {
            return ConfigError::err("gc.victims_per_trigger", "must be nonzero");
        }
        Ok(())
    }
}

/// The I/O-group / GC-group split of spatial GC (Fig 12), swapping each
/// epoch so both halves age evenly.
///
/// # Examples
///
/// ```
/// use nssd_ftl::SpatialGroups;
///
/// let mut groups = SpatialGroups::new(8, 0.5);
/// // First epoch: GC group is the upper half (Fig 12a).
/// assert_eq!(groups.gc_ways().ways(), vec![4, 5, 6, 7]);
/// assert_eq!(groups.io_ways().ways(), vec![0, 1, 2, 3]);
/// groups.swap();
/// assert_eq!(groups.gc_ways().ways(), vec![0, 1, 2, 3]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpatialGroups {
    total_ways: u32,
    gc_ways_count: u32,
    gc_is_upper: bool,
    epochs: u64,
}

impl SpatialGroups {
    /// Creates the group split for `total_ways` ways with `gc_fraction` of
    /// them in the GC group.
    ///
    /// # Panics
    ///
    /// Panics unless `total_ways >= 2` and the fraction leaves at least one
    /// way on each side.
    pub fn new(total_ways: u32, gc_fraction: f64) -> Self {
        assert!(total_ways >= 2, "spatial GC needs at least two ways");
        let gc_ways_count =
            ((total_ways as f64 * gc_fraction).round() as u32).clamp(1, total_ways - 1);
        SpatialGroups {
            total_ways,
            gc_ways_count,
            gc_is_upper: true,
            epochs: 0,
        }
    }

    /// Ways currently assigned to garbage collection.
    pub fn gc_ways(&self) -> WayMask {
        if self.gc_is_upper {
            WayMask::from_ways(self.total_ways - self.gc_ways_count..self.total_ways)
        } else {
            WayMask::from_ways(0..self.gc_ways_count)
        }
    }

    /// Ways currently assigned to foreground I/O writes.
    pub fn io_ways(&self) -> WayMask {
        self.gc_ways().complement(self.total_ways)
    }

    /// Swaps the groups (end of a GC epoch, Fig 12c).
    pub fn swap(&mut self) {
        self.gc_is_upper = !self.gc_is_upper;
        self.epochs += 1;
    }

    /// Number of completed epochs.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Serializes the group split (the way counts double as a config check
    /// on restore).
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_u32(self.total_ways);
        w.put_u32(self.gc_ways_count);
        w.put_bool(self.gc_is_upper);
        w.put_u64(self.epochs);
    }

    /// Restores state saved by [`SpatialGroups::ckpt_save`] into groups
    /// built from the same configuration.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or a way-count mismatch.
    pub fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let total_ways = r.take_u32()?;
        let gc_ways_count = r.take_u32()?;
        if total_ways != self.total_ways || gc_ways_count != self.gc_ways_count {
            return Err(CkptError::Invalid(format!(
                "spatial groups {gc_ways_count}/{total_ways} differ from configured {}/{}",
                self.gc_ways_count, self.total_ways
            )));
        }
        self.gc_is_upper = r.take_bool()?;
        self.epochs = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        GcConfig::evaluation_defaults().validate().unwrap();
        let mut c = GcConfig::evaluation_defaults();
        c.plan = Some(GcPolicy::Spatial.plan());
        c.validate().unwrap();
    }

    #[test]
    fn bad_configs_rejected() {
        let field = |f: fn(&mut GcConfig)| {
            let mut c = GcConfig::evaluation_defaults();
            f(&mut c);
            c.validate().unwrap_err().field
        };
        assert_eq!(
            field(|c| c.trigger_free_ratio = 1.5),
            "gc.trigger_free_ratio"
        );
        // The trigger may not sit below the hard watermark.
        assert_eq!(
            field(|c| c.trigger_free_ratio = 0.01),
            "gc.trigger_free_ratio"
        );
        assert_eq!(field(|c| c.gc_group_fraction = 1.0), "gc.gc_group_fraction");
        assert_eq!(
            field(|c| c.victims_per_trigger = 0),
            "gc.victims_per_trigger"
        );
    }

    #[test]
    fn hysteresis_gap_must_be_strictly_positive() {
        // An equal trigger/stop pair is a zero-duty-cycle config: every
        // finished GC event instantly re-arms the trigger. Reject it.
        let mut c = GcConfig::evaluation_defaults();
        c.stop_free_ratio = c.trigger_free_ratio;
        assert!(c.validate().is_err());
        c.stop_free_ratio = c.trigger_free_ratio - 0.01;
        assert!(c.validate().is_err());
        c.stop_free_ratio = c.trigger_free_ratio + 0.001;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn groups_partition_the_ways() {
        let groups = SpatialGroups::new(8, 0.5);
        let gc = groups.gc_ways();
        let io = groups.io_ways();
        assert_eq!(gc.count() + io.count(), 8);
        for w in 0..8 {
            assert!(gc.contains(w) != io.contains(w));
        }
    }

    #[test]
    fn swap_alternates_and_counts_epochs() {
        let mut groups = SpatialGroups::new(4, 0.5);
        let first = groups.gc_ways();
        groups.swap();
        assert_ne!(groups.gc_ways(), first);
        groups.swap();
        assert_eq!(groups.gc_ways(), first);
        assert_eq!(groups.epochs(), 2);
    }

    #[test]
    fn quarter_fraction_supported() {
        // §VI-A: the GC group can be smaller, e.g. 1/4 of the ways.
        let groups = SpatialGroups::new(8, 0.25);
        assert_eq!(groups.gc_ways().count(), 2);
        assert_eq!(groups.io_ways().count(), 6);
    }

    #[test]
    fn extreme_fractions_clamped() {
        let g = SpatialGroups::new(4, 0.01);
        assert_eq!(g.gc_ways().count(), 1);
        let g = SpatialGroups::new(4, 0.99);
        assert_eq!(g.gc_ways().count(), 3);
    }

    #[test]
    fn presets_name_their_component_tuples() {
        let slugs =
            [GcPolicy::Parallel, GcPolicy::Preemptive, GcPolicy::Spatial].map(|p| p.plan().slug());
        assert_eq!(
            slugs,
            ["greedy-free-run", "greedy-free-yield", "greedy-spatial-run"]
        );
        assert_eq!(
            GcConfig::evaluation_defaults().plan,
            Some(GcPolicy::Parallel.plan())
        );
    }

    #[test]
    fn policy_display() {
        assert_eq!(GcPolicy::Spatial.to_string(), "SpGC");
        assert_eq!(GcPolicy::Parallel.to_string(), "PaGC");
    }
}
