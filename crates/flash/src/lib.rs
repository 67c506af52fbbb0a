//! Flash memory device model for the Networked SSD reproduction.
//!
//! This crate models the *device* side of the system:
//!
//! * [`Geometry`] — channel/way/die/plane/block/page shape and the packed
//!   [`Ppn`]/[`Pbn`] address codec used by the FTL.
//! * [`FlashTiming`] — array latencies (Table II uses ULL flash: 3 µs read,
//!   50 µs program, 1 ms erase).
//! * [`FlashCommand`] — the ONFI-style command set plus the packetized
//!   extensions the paper introduces (*read data transfer*, chip-to-chip
//!   *xfer*).
//! * [`FlashChip`] — per-plane timed resources and on-die state.
//!
//! ```
//! use nssd_flash::{FlashChip, FlashTiming, Geometry, PageAddr};
//! use nssd_sim::SimTime;
//!
//! let g = Geometry::scaled();
//! let addr = PageAddr { channel: 3, way: 1, die: 0, plane: 2, block: 10, page: 4 };
//! let ppn = g.ppn(addr);
//! assert_eq!(g.page_addr(ppn), addr);
//!
//! let mut chip = FlashChip::new(&g, FlashTiming::ull());
//! let read = chip.reserve_read(addr.die, addr.plane, SimTime::ZERO);
//! assert_eq!(read.duration(), SimTime::from_us(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chip;
mod command;
mod geometry;
mod timing;

pub use chip::FlashChip;
pub use command::FlashCommand;
pub use geometry::{BlockAddr, Geometry, PageAddr, Pbn, Ppn};
pub use timing::FlashTiming;

#[cfg(test)]
const CASES: usize = if cfg!(feature = "heavy-tests") {
    8192
} else {
    256
};

#[cfg(test)]
mod proptests {
    use super::*;
    use nssd_sim::{DetRng, Rng};

    fn arb_geometry(rng: &mut DetRng) -> Geometry {
        Geometry {
            channels: rng.gen_range(1..6u64) as u32,
            ways: rng.gen_range(1..6u64) as u32,
            dies: rng.gen_range(1..3u64) as u32,
            planes: rng.gen_range(1..5u64) as u32,
            blocks_per_plane: rng.gen_range(1..20u64) as u32,
            pages_per_block: rng.gen_range(1..40u64) as u32,
            page_bytes: 16 * 1024,
        }
    }

    #[test]
    fn ppn_roundtrip() {
        let mut rng = DetRng::seed_from_u64(0xFFA5);
        for _ in 0..CASES {
            let g = arb_geometry(&mut rng);
            let raw = rng.gen_range(0..1_000_000u64) % g.page_count();
            let ppn = Ppn::new(raw);
            let addr = g.page_addr(ppn);
            assert_eq!(g.ppn(addr), ppn);
            assert!(addr.channel < g.channels);
            assert!(addr.way < g.ways);
            assert!(addr.die < g.dies);
            assert!(addr.plane < g.planes);
            assert!(addr.block < g.blocks_per_plane);
            assert!(addr.page < g.pages_per_block);
        }
    }

    #[test]
    fn pbn_roundtrip() {
        let mut rng = DetRng::seed_from_u64(0x9B2);
        for _ in 0..CASES {
            let g = arb_geometry(&mut rng);
            let raw = rng.gen_range(0..1_000_000u64) % g.block_count();
            let pbn = Pbn::new(raw);
            let addr = g.block_addr(pbn);
            assert_eq!(g.pbn(addr), pbn);
        }
    }

    #[test]
    fn pbn_of_consistent_with_unpack() {
        let mut rng = DetRng::seed_from_u64(0x77B);
        for _ in 0..CASES {
            let g = arb_geometry(&mut rng);
            let raw = rng.gen_range(0..1_000_000u64) % g.page_count();
            let ppn = Ppn::new(raw);
            let page = g.page_addr(ppn);
            let pbn = g.pbn_of(ppn);
            assert_eq!(g.block_addr(pbn), page.block_addr());
            assert_eq!(g.ppn_in_block(pbn, page.page), ppn);
        }
    }

    #[test]
    fn counts_are_products() {
        let mut rng = DetRng::seed_from_u64(0xC0DE);
        for _ in 0..CASES {
            let g = arb_geometry(&mut rng);
            assert_eq!(g.page_count(), g.block_count() * g.pages_per_block as u64);
            assert_eq!(g.block_count(), g.plane_count() * g.blocks_per_plane as u64);
            assert_eq!(g.plane_count(), g.chip_count() * (g.dies * g.planes) as u64);
            assert!(g.validate().is_ok());
        }
    }
}
