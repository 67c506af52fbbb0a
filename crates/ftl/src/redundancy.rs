//! Intra-SSD parity redundancy configuration.
//!
//! With redundancy enabled the device stripes user data plus one rotated
//! parity page across a *parity group* of `stripe_width` chips — the
//! consecutive channels of one way, so every group member hangs off its own
//! h-channel and (on Omnibus topologies) the whole group shares the way's
//! v-channel. One chip per group may fail-stop without data loss: a lost
//! page is reconstructed by reading the `stripe_width - 1` surviving group
//! members at the same array offset and XOR-ing them, and a background
//! rebuild re-protects the device onto spare capacity.
//!
//! The FTL models parity as reserved capacity (logical space shrinks by
//! `1/stripe_width`) plus the degraded-state bookkeeping; the engine in
//! `nssd-core` attaches parity-write traffic, degraded-read fabric plans,
//! and the paced rebuild process.

use nssd_flash::{Geometry, PageAddr};
use nssd_sim::ConfigError;

/// Parity-redundancy configuration (off by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedundancyConfig {
    /// Whether parity striping is active.
    pub enabled: bool,
    /// Chips per parity group, *including* the parity chip: `k` data pages
    /// are protected by one parity page with `stripe_width = k + 1`. Width 2
    /// is mirroring.
    pub stripe_width: u32,
}

impl RedundancyConfig {
    /// Redundancy disabled (the default; preserves all baseline behaviour).
    pub fn off() -> Self {
        RedundancyConfig {
            enabled: false,
            stripe_width: 2,
        }
    }

    /// Redundancy over groups of `stripe_width` chips.
    pub fn with_stripe(stripe_width: u32) -> Self {
        RedundancyConfig {
            enabled: true,
            stripe_width,
        }
    }

    /// Validates the stripe against the device geometry. Parity groups span
    /// consecutive channels within one way, so the channel count must host
    /// an integer number of groups.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on `redundancy.stripe_width` describing the
    /// first invalid combination.
    pub fn validate(&self, g: &Geometry) -> Result<(), ConfigError> {
        if !self.enabled {
            return Ok(());
        }
        let err = |reason: String| ConfigError::err("redundancy.stripe_width", reason);
        if self.stripe_width < 2 {
            return err("must be at least 2 (one data chip plus parity)".into());
        }
        if g.channels < self.stripe_width {
            if g.ways == 1 {
                return err(format!(
                    "{} cannot fit a single-way device with {} channels: the \
                     parity group spans channels, so a ways == 1 geometry needs \
                     at least stripe_width channels",
                    self.stripe_width, g.channels
                ));
            }
            return err(format!(
                "{} exceeds the {} channels a parity group spans",
                self.stripe_width, g.channels
            ));
        }
        if !g.channels.is_multiple_of(self.stripe_width) {
            return err(format!(
                "{} does not divide the channel count {}: parity groups must \
                 tile the channels exactly",
                self.stripe_width, g.channels
            ));
        }
        Ok(())
    }

    /// The first channel of the parity group containing `channel`.
    pub fn group_base(&self, channel: u32) -> u32 {
        (channel / self.stripe_width) * self.stripe_width
    }

    /// Parity groups per way.
    pub fn groups_per_way(&self, g: &Geometry) -> u32 {
        g.channels / self.stripe_width
    }

    /// Total parity groups in the device.
    pub fn group_count(&self, g: &Geometry) -> u32 {
        self.groups_per_way(g) * g.ways
    }

    /// Stable index of the parity group owning the chip at
    /// (`channel`, `way`).
    pub fn group_index(&self, g: &Geometry, channel: u32, way: u32) -> u32 {
        way * self.groups_per_way(g) + channel / self.stripe_width
    }

    /// The surviving stripe members a reconstruction of `addr` must read:
    /// the same array offset on every other chip of `addr`'s parity group.
    pub fn survivors(&self, addr: PageAddr) -> Vec<PageAddr> {
        let base = self.group_base(addr.channel);
        (base..base + self.stripe_width)
            .filter(|&c| c != addr.channel)
            .map(|c| PageAddr { channel: c, ..addr })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_always_validates() {
        let g = Geometry::tiny();
        assert!(RedundancyConfig::off().validate(&g).is_ok());
        // A disabled config never rejects, whatever its width says.
        let mut c = RedundancyConfig::off();
        c.stripe_width = 0;
        assert!(c.validate(&g).is_ok());
    }

    #[test]
    fn narrow_stripe_rejected_with_message() {
        let g = Geometry::tiny();
        let err = RedundancyConfig::with_stripe(1).validate(&g).unwrap_err();
        assert_eq!(err.field, "redundancy.stripe_width");
        assert!(err.reason.contains("at least 2"), "{err}");
    }

    #[test]
    fn stripe_must_tile_the_channels() {
        // scaled() has 8 channels: width 3 does not divide them.
        let g = Geometry::scaled();
        let err = RedundancyConfig::with_stripe(3).validate(&g).unwrap_err();
        assert!(err.reason.contains("does not divide"), "{err}");
        for w in [2u32, 4, 8] {
            assert!(RedundancyConfig::with_stripe(w).validate(&g).is_ok());
        }
    }

    #[test]
    fn single_way_device_needs_enough_channels() {
        let mut g = Geometry::tiny();
        g.ways = 1;
        // 2 channels host a width-2 stripe even with one way...
        assert!(RedundancyConfig::with_stripe(2).validate(&g).is_ok());
        // ...but a wider stripe than the channel count cannot fit.
        let err = RedundancyConfig::with_stripe(4).validate(&g).unwrap_err();
        assert!(err.reason.contains("single-way"), "{err}");
    }

    #[test]
    fn oversized_stripe_on_multiway_device_names_the_channels() {
        let g = Geometry::tiny(); // 2 channels, 2 ways
        let err = RedundancyConfig::with_stripe(4).validate(&g).unwrap_err();
        assert!(err.reason.contains("exceeds the 2 channels"), "{err}");
    }

    #[test]
    fn survivors_are_the_rest_of_the_group() {
        let g = Geometry::scaled();
        let r = RedundancyConfig::with_stripe(4);
        r.validate(&g).unwrap();
        let addr = PageAddr {
            channel: 5,
            way: 2,
            die: 0,
            plane: 1,
            block: 3,
            page: 7,
        };
        let s = r.survivors(addr);
        let channels: Vec<u32> = s.iter().map(|a| a.channel).collect();
        assert_eq!(channels, vec![4, 6, 7]);
        for a in &s {
            assert_eq!(
                (a.way, a.die, a.plane, a.block, a.page),
                (addr.way, addr.die, addr.plane, addr.block, addr.page)
            );
        }
        assert_eq!(r.group_index(&g, 5, 2), 2 * 2 + 1);
        assert_eq!(r.group_count(&g), 16);
    }
}
