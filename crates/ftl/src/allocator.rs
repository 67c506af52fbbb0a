//! Write-page allocation with configurable striping policies.
//!
//! The paper's synthetic studies (Figs 16/17) hinge on the FTL's *page
//! allocation scheme*: the order in which consecutive writes stripe across
//! the parallelism dimensions. PCWD spreads consecutive pages over planes
//! then channels (balanced channel load); PWCD spreads planes then ways,
//! concentrating consecutive pages on one channel (imbalanced load that
//! pnSSD's path diversity absorbs).

use core::fmt;

use nssd_flash::{Geometry, Ppn};
use nssd_sim::{CkptError, CkptReader, CkptWriter};

use crate::BlockTable;

/// A set of permitted ways (columns), used by spatial GC to confine user
/// writes to the I/O group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayMask(u64);

impl WayMask {
    /// Permits all `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or exceeds 64.
    pub fn all(ways: u32) -> Self {
        assert!(ways > 0 && ways <= 64, "way count must be in 1..=64");
        if ways == 64 {
            WayMask(u64::MAX)
        } else {
            WayMask((1u64 << ways) - 1)
        }
    }

    /// Permits exactly the listed ways.
    pub fn from_ways<I: IntoIterator<Item = u32>>(ways: I) -> Self {
        let mut bits = 0u64;
        for w in ways {
            assert!(w < 64, "way index {w} out of range");
            bits |= 1 << w;
        }
        assert!(bits != 0, "way mask must permit at least one way");
        WayMask(bits)
    }

    /// Whether `way` is permitted.
    pub fn contains(&self, way: u32) -> bool {
        way < 64 && self.0 & (1 << way) != 0
    }

    /// Number of permitted ways.
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// The permitted way indices, ascending.
    pub fn ways(&self) -> Vec<u32> {
        (0..64).filter(|&w| self.contains(w)).collect()
    }

    /// The complementary mask within a device of `total` ways.
    ///
    /// # Panics
    ///
    /// Panics if the complement would be empty.
    pub fn complement(&self, total: u32) -> WayMask {
        let all = WayMask::all(total);
        let bits = all.0 & !self.0;
        assert!(bits != 0, "complement mask is empty");
        WayMask(bits)
    }

    /// The raw permitted-way bits, for checkpointing.
    pub fn bits(&self) -> u64 {
        self.0
    }

    /// Rebuilds a mask from bits captured by [`WayMask::bits`].
    ///
    /// # Errors
    ///
    /// Returns a [`CkptError`] if the bits are empty or permit a way at or
    /// beyond `total_ways`.
    pub fn from_bits(bits: u64, total_ways: u32) -> Result<WayMask, CkptError> {
        if bits == 0 {
            return Err(CkptError::Invalid("way mask permits no ways".into()));
        }
        let all = WayMask::all(total_ways);
        if bits & !all.0 != 0 {
            return Err(CkptError::Invalid(format!(
                "way mask {bits:#x} permits ways beyond {total_ways}"
            )));
        }
        Ok(WayMask(bits))
    }
}

impl fmt::Display for WayMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ways{:?}", self.ways())
    }
}

/// Page allocation striping order (SimpleSSD-style letter notation: listed
/// dimensions vary fastest-first for consecutive pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocPolicy {
    /// Plane → Channel → Way → Die: channel parallelism prioritized
    /// (the balanced scheme of Fig 16).
    Pcwd,
    /// Plane → Way → Channel → Die: way parallelism prioritized, creating
    /// channel imbalance (Fig 17).
    Pwcd,
    /// Channel → Way → Die → Plane: pure channel-first striping, an ablation
    /// point without plane grouping.
    Cwdp,
}

impl fmt::Display for AllocPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AllocPolicy::Pcwd => "PCWD",
            AllocPolicy::Pwcd => "PWCD",
            AllocPolicy::Cwdp => "CWDP",
        };
        f.write_str(s)
    }
}

/// Error returned when no permitted plane has a free block left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfSpace;

impl fmt::Display for OutOfSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("no free block available in any permitted plane")
    }
}

impl std::error::Error for OutOfSpace {}

/// A striping write allocator with one open block per plane.
///
/// # Examples
///
/// ```
/// use nssd_flash::Geometry;
/// use nssd_ftl::{AllocPolicy, BlockTable, PageAllocator, WayMask};
///
/// let g = Geometry::tiny();
/// let mut blocks = BlockTable::new(&g);
/// let mut alloc = PageAllocator::new(&g, AllocPolicy::Pcwd);
/// let mask = WayMask::all(g.ways);
///
/// let a = alloc.allocate(&mut blocks, mask).unwrap();
/// let b = alloc.allocate(&mut blocks, mask).unwrap();
/// // Consecutive pages land on different planes (plane varies fastest).
/// assert_ne!(g.page_addr(a).plane, g.page_addr(b).plane);
/// ```
#[derive(Debug, Clone)]
pub struct PageAllocator {
    policy: AllocPolicy,
    seq: u64,
    open: Vec<Option<nssd_flash::Pbn>>,
}

impl PageAllocator {
    /// Creates an allocator for `geometry` with the given striping policy.
    pub fn new(geometry: &Geometry, policy: AllocPolicy) -> Self {
        PageAllocator {
            policy,
            seq: 0,
            open: vec![None; geometry.plane_count() as usize],
        }
    }

    /// The striping policy.
    pub fn policy(&self) -> AllocPolicy {
        self.policy
    }

    /// Decodes an allocation sequence number into `(channel, way_index,
    /// die, plane)`, where `way_index` indexes the *permitted* way list.
    fn decode(&self, mut s: u64, g: &Geometry, permitted_ways: u32) -> (u32, u32, u32, u32) {
        let p = g.planes as u64;
        let c = g.channels as u64;
        let w = permitted_ways as u64;
        let d = g.dies as u64;
        match self.policy {
            AllocPolicy::Pcwd => {
                let plane = (s % p) as u32;
                s /= p;
                let channel = (s % c) as u32;
                s /= c;
                let way_i = (s % w) as u32;
                s /= w;
                let die = (s % d) as u32;
                (channel, way_i, die, plane)
            }
            AllocPolicy::Pwcd => {
                let plane = (s % p) as u32;
                s /= p;
                let way_i = (s % w) as u32;
                s /= w;
                let channel = (s % c) as u32;
                s /= c;
                let die = (s % d) as u32;
                (channel, way_i, die, plane)
            }
            AllocPolicy::Cwdp => {
                let channel = (s % c) as u32;
                s /= c;
                let way_i = (s % w) as u32;
                s /= w;
                let die = (s % d) as u32;
                s /= d;
                let plane = (s % p) as u32;
                (channel, way_i, die, plane)
            }
        }
    }

    /// The plane unit that allocation sequence number `s` stripes onto,
    /// among the `way_count` ways set in `way_bits` (nonempty, within the
    /// geometry). Inlined: it runs once per programmed page.
    #[inline]
    fn unit_at(&self, s: u64, g: &Geometry, way_bits: u64, way_count: u32) -> usize {
        let (channel, way_i, die, plane) = self.decode(s, g, way_count);
        let way = {
            // The `way_i`-th (ascending) set bit of `way_bits`.
            let mut bits = way_bits;
            for _ in 0..way_i {
                bits &= bits - 1;
            }
            bits.trailing_zeros()
        };
        ((g.chip_index(channel, way) as u64 * g.dies as u64 + die as u64) * g.planes as u64
            + plane as u64) as usize
    }

    /// Allocates (programs) the next physical page, striping per policy and
    /// confined to `mask`'s ways.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfSpace`] if every permitted plane is exhausted.
    pub fn allocate(&mut self, blocks: &mut BlockTable, mask: WayMask) -> Result<Ppn, OutOfSpace> {
        self.allocate_with_reserve(blocks, mask, 0)
    }

    /// Like [`PageAllocator::allocate`], but refuses to *open a new block*
    /// while the device-wide free-block count is at or below `reserve`.
    /// Already-open blocks keep accepting pages, so the reserve throttles
    /// block consumption without stranding open-page capacity. The FTL uses
    /// this to keep free blocks back for GC relocations.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfSpace`] when no open block has room and no block can
    /// be taken without dipping into the reserve.
    pub fn allocate_with_reserve(
        &mut self,
        blocks: &mut BlockTable,
        mask: WayMask,
        reserve: u64,
    ) -> Result<Ppn, OutOfSpace> {
        let g = *blocks.geometry();
        // Permitted ways as bits, clipped to the geometry — this runs once
        // per programmed page, so the way list is never materialized; the
        // `way_i`-th permitted way is selected straight from the bits below.
        let way_bits = mask.bits() & WayMask::all(g.ways).bits();
        let way_count = way_bits.count_ones();
        if way_count == 0 {
            return Err(OutOfSpace);
        }
        let units = g.planes as u64 * g.channels as u64 * way_count as u64 * g.dies as u64;
        for _ in 0..units {
            let unit = self.unit_at(self.seq, &g, way_bits, way_count);
            self.seq += 1;
            // Program into the open block, replacing it when exhausted. A
            // block is released from `open` the moment it fills, so garbage
            // collection (which only reclaims Full blocks) can never erase a
            // block the allocator still points at.
            if let Some(pbn) = self.open[unit] {
                if let Some(ppn) = blocks.program_next_page(pbn) {
                    if blocks.meta(pbn).state() == crate::BlockState::Full {
                        self.open[unit] = None;
                    }
                    return Ok(ppn);
                }
                self.open[unit] = None;
            }
            if blocks.free_blocks() > reserve {
                if let Some(pbn) = blocks.take_free_block(unit) {
                    let ppn = blocks
                        .program_next_page(pbn)
                        .expect("fresh block must accept a page");
                    self.open[unit] =
                        (blocks.meta(pbn).state() != crate::BlockState::Full).then_some(pbn);
                    return Ok(ppn);
                }
            }
            // This plane is exhausted; try the next unit in stripe order.
        }
        Err(OutOfSpace)
    }

    /// Whether nothing was ever allocated: the stripe sequence is at 0 and
    /// no block is open.
    pub(crate) fn is_fresh(&self) -> bool {
        self.seq == 0 && self.open.iter().all(Option::is_none)
    }

    /// The sequence number of the allocation that opens block number
    /// `opening` (0-based) when a fresh allocator stripes over the full way
    /// mask of a fresh device and skips no unit. Allocation `s` lands on
    /// stripe position `s % U` of the `U` plane units and fills that unit's
    /// blocks in order, so it opens a block exactly when its stripe row
    /// `s / U` is a multiple of the pages per block: the first `U`
    /// allocations of every `U × pages_per_block` open one block each.
    pub(crate) fn fresh_opening_seq(g: &Geometry, opening: u64) -> u64 {
        let units = g.plane_count();
        opening / units * units * g.pages_per_block as u64 + opening % units
    }

    /// Makes `pages` allocations at once: the end state that `pages` calls
    /// of [`PageAllocator::allocate_with_reserve`] under the full way mask
    /// leave on a fresh allocator and a fresh device when none of them
    /// skips a unit (no plane runs dry, the reserve is never reached).
    /// Stripe position `r` receives allocations `r, r + U, r + 2U, …`,
    /// which fill its unit's blocks in free-stack order; each such block
    /// run is taken and programmed in one step, and the block a unit is
    /// left partway through stays its open block. `placed(s, ppn, len)` is
    /// called for every run: allocations `s + j·U` programmed pages
    /// `ppn + j` for `j < len`.
    ///
    /// # Panics
    ///
    /// Panics if this allocator is not fresh or a plane runs out of free
    /// blocks.
    pub(crate) fn fill_fresh(
        &mut self,
        blocks: &mut BlockTable,
        pages: u64,
        mut placed: impl FnMut(u64, Ppn, u32),
    ) {
        assert!(self.is_fresh(), "bulk allocation needs a fresh allocator");
        let g = *blocks.geometry();
        let all = WayMask::all(g.ways).bits();
        let units: Vec<usize> = (0..g.plane_count())
            .map(|s| self.unit_at(s, &g, all, g.ways))
            .collect();
        let u = units.len() as u64;
        let ppb = g.pages_per_block as u64;
        let clock = blocks.op_clock();
        for row0 in (0..pages.div_ceil(u)).step_by(ppb as usize) {
            for (r, &unit) in (0u64..).zip(&units) {
                let rows = pages / u + u64::from(r < pages % u);
                let len = rows.saturating_sub(row0).min(ppb);
                if len == 0 {
                    // Later positions have no more rows than this one.
                    break;
                }
                let pbn = blocks
                    .take_free_block(unit)
                    .expect("a plane ran out of free blocks during a bulk allocation");
                let first = row0 * u + r;
                let last = first + (len - 1) * u;
                // Allocation `s` is the device's `s + 1`-th program since
                // `clock`.
                let ppn = blocks.program_fresh_run(pbn, len as u32, clock + last + 1);
                placed(first, ppn, len as u32);
                if len < ppb {
                    self.open[unit] = Some(pbn);
                }
            }
        }
        self.seq = pages;
    }

    /// Number of pages allocated so far.
    pub fn allocated(&self) -> u64 {
        self.seq // upper bound; equals allocations when no unit was skipped
    }

    /// Serializes the stripe sequence counter and the per-plane open-block
    /// frontier (the policy is configuration).
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_u64(self.seq);
        w.put_usize(self.open.len());
        for slot in &self.open {
            match slot {
                Some(pbn) => {
                    w.put_bool(true);
                    w.put_u64(pbn.raw());
                }
                None => w.put_bool(false),
            }
        }
    }

    /// Restores state saved by [`PageAllocator::ckpt_save`] into an
    /// allocator built for the same geometry and policy.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, a plane-count mismatch, or an open
    /// block outside the device.
    pub fn ckpt_load(&mut self, r: &mut CkptReader, block_count: u64) -> Result<(), CkptError> {
        let seq = r.take_u64()?;
        let n = r.take_usize()?;
        if n != self.open.len() {
            return Err(CkptError::Invalid(format!(
                "allocator has {n} planes in checkpoint, {} configured",
                self.open.len()
            )));
        }
        let mut open = Vec::with_capacity(n);
        for _ in 0..n {
            if r.take_bool()? {
                let raw = r.take_u64()?;
                if raw >= block_count {
                    return Err(CkptError::Invalid(format!(
                        "open block {raw} outside device of {block_count} blocks"
                    )));
                }
                open.push(Some(nssd_flash::Pbn::new(raw)));
            } else {
                open.push(None);
            }
        }
        self.seq = seq;
        self.open = open;
        Ok(())
    }

    /// Drops every open-block frontier whose block satisfies `retire`.
    /// Open blocks accept programs regardless of free-list state, so a
    /// fail-stop chip removal must close its frontiers or the allocator
    /// would keep writing into the dead chip.
    pub fn close_open_blocks(&mut self, retire: impl Fn(nssd_flash::Pbn) -> bool) {
        for slot in &mut self.open {
            if slot.is_some_and(&retire) {
                *slot = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn setup(policy: AllocPolicy) -> (Geometry, BlockTable, PageAllocator) {
        let g = Geometry::tiny();
        let blocks = BlockTable::new(&g);
        let alloc = PageAllocator::new(&g, policy);
        (g, blocks, alloc)
    }

    #[test]
    fn pcwd_varies_plane_then_channel() {
        let (g, mut blocks, mut alloc) = setup(AllocPolicy::Pcwd);
        let mask = WayMask::all(g.ways);
        let addrs: Vec<_> = (0..4)
            .map(|_| g.page_addr(alloc.allocate(&mut blocks, mask).unwrap()))
            .collect();
        // First 2 allocations: planes 0,1 on channel 0; then channel 1.
        assert_eq!((addrs[0].plane, addrs[0].channel), (0, 0));
        assert_eq!((addrs[1].plane, addrs[1].channel), (1, 0));
        assert_eq!((addrs[2].plane, addrs[2].channel), (0, 1));
        assert_eq!((addrs[3].plane, addrs[3].channel), (1, 1));
        // Way stays put until planes × channels are exhausted.
        assert!(addrs.iter().all(|a| a.way == 0));
    }

    #[test]
    fn pwcd_piles_onto_one_channel_first() {
        let (g, mut blocks, mut alloc) = setup(AllocPolicy::Pwcd);
        let mask = WayMask::all(g.ways);
        // planes(2) × ways(2) = 4 consecutive pages all on channel 0.
        let addrs: Vec<_> = (0..4)
            .map(|_| g.page_addr(alloc.allocate(&mut blocks, mask).unwrap()))
            .collect();
        assert!(addrs.iter().all(|a| a.channel == 0));
        let ways: HashSet<u32> = addrs.iter().map(|a| a.way).collect();
        assert_eq!(ways.len(), 2);
    }

    #[test]
    fn mask_confines_ways() {
        let (g, mut blocks, mut alloc) = setup(AllocPolicy::Pcwd);
        let mask = WayMask::from_ways([1u32]);
        for _ in 0..20 {
            let a = g.page_addr(alloc.allocate(&mut blocks, mask).unwrap());
            assert_eq!(a.way, 1);
        }
    }

    #[test]
    fn allocation_covers_all_planes_evenly() {
        let (g, mut blocks, mut alloc) = setup(AllocPolicy::Pcwd);
        let mask = WayMask::all(g.ways);
        let n = g.plane_count() * 4;
        let mut per_plane = std::collections::HashMap::new();
        for _ in 0..n {
            let a = g.page_addr(alloc.allocate(&mut blocks, mask).unwrap());
            *per_plane
                .entry((a.channel, a.way, a.die, a.plane))
                .or_insert(0u64) += 1;
        }
        assert_eq!(per_plane.len(), g.plane_count() as usize);
        assert!(per_plane.values().all(|&v| v == 4));
    }

    #[test]
    fn exhaustion_yields_out_of_space() {
        let (g, mut blocks, mut alloc) = setup(AllocPolicy::Pcwd);
        let mask = WayMask::all(g.ways);
        for _ in 0..g.page_count() {
            alloc.allocate(&mut blocks, mask).unwrap();
        }
        assert_eq!(alloc.allocate(&mut blocks, mask), Err(OutOfSpace));
    }

    #[test]
    fn exhaustion_of_one_way_spills_to_others_only_with_mask_widened() {
        let (g, mut blocks, mut alloc) = setup(AllocPolicy::Pcwd);
        let narrow = WayMask::from_ways([0u32]);
        let per_way = g.page_count() / g.ways as u64;
        for _ in 0..per_way {
            alloc.allocate(&mut blocks, narrow).unwrap();
        }
        assert_eq!(alloc.allocate(&mut blocks, narrow), Err(OutOfSpace));
        // Widening the mask makes the rest of the device reachable.
        assert!(alloc.allocate(&mut blocks, WayMask::all(g.ways)).is_ok());
    }

    #[test]
    fn way_mask_basics() {
        let m = WayMask::all(8);
        assert_eq!(m.count(), 8);
        let lo = WayMask::from_ways(0..4);
        assert_eq!(lo.ways(), vec![0, 1, 2, 3]);
        let hi = lo.complement(8);
        assert_eq!(hi.ways(), vec![4, 5, 6, 7]);
        assert!(lo.contains(2) && !lo.contains(5));
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn empty_mask_rejected() {
        let _ = WayMask::from_ways(std::iter::empty());
    }

    #[test]
    fn policies_display() {
        assert_eq!(AllocPolicy::Pcwd.to_string(), "PCWD");
        assert_eq!(AllocPolicy::Pwcd.to_string(), "PWCD");
    }
}
