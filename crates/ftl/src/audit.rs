//! Change tracking and the incremental structural audit built on it.
//!
//! [`Ftl::check_invariants`] sweeps every block, free list and mapping
//! entry of the device. A lockstep checker that audits after every erase
//! cannot afford that sweep, so the FTL can record what changed instead.
//! With tracking on ([`Ftl::track_changes`]), every [`BlockTable`] primitive
//! marks the block it touched; that also marks the block's plane, whose
//! free list only those primitives change. Every [`MappingTable`] primitive
//! marks each LPN and PPN entry it writes, plus the entries their old
//! values pointed at. [`FtlAudit::audit`] then re-checks only the marked
//! blocks, their planes and the marked entries, and clears the marks.
//!
//! # Why the incremental audit equals the full sweep
//!
//! Every check of the full sweep is local to one block, one plane, one LPN
//! entry or one PPN entry, except the global counter checks. Those compare
//! `free_total`, `retired` and the mapped count against sums of per-block,
//! per-plane or per-LPN tallies, and they run at every audit.
//!
//! * A block check reads only that block's metadata and valid bitmap, which
//!   change only inside the marking primitives. An unmarked block therefore
//!   gives the same answer as at the previous audit, and its tally (state,
//!   valid pages, accounted pages) is still exact.
//! * A plane check reads the plane's free list and the sum of its blocks'
//!   accounted pages. Both change only when one of its blocks is marked.
//! * The LPN check for `l` reads `l2p[l]` and `p2l[l2p[l]]`. If `l2p[l]`
//!   changed, `l` is marked. If `p2l[p]` changed while the check held
//!   before, its old value was `l`, and the primitive marked `l` as the
//!   entry that old value pointed at. The PPN check is symmetric.
//! * Blocks, planes and entries that failed a check stay on a suspect list
//!   and are re-checked at every audit until they pass. A persisting defect
//!   is therefore reported again at every audit, as the full sweep does.
//!
//! Blocks and planes are checked in ascending order, so the incremental
//! audit emits the same messages in the same order as the full sweep.

use nssd_flash::Geometry;

use crate::block::{BlockTally, Totals};
use crate::{BlockTable, Ftl, MappingTable};

/// A deduplicated set of indices, listed in first-marked order.
#[derive(Debug, Clone)]
pub(crate) struct DirtySet {
    bits: Vec<u64>,
    list: Vec<u64>,
}

impl DirtySet {
    /// An empty set over indices `0..universe`.
    pub(crate) fn new(universe: u64) -> Self {
        DirtySet {
            bits: vec![0; universe.div_ceil(64) as usize],
            list: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn mark(&mut self, i: u64) {
        let word = &mut self.bits[(i / 64) as usize];
        let bit = 1u64 << (i % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.list.push(i);
        }
    }

    /// The marked indices, in first-marked order.
    pub(crate) fn marked(&self) -> &[u64] {
        &self.list
    }

    pub(crate) fn clear(&mut self) {
        for &i in &self.list {
            self.bits[(i / 64) as usize] = 0;
        }
        self.list.clear();
    }
}

/// The state an incremental audit carries from one call to the next:
/// per-block and per-plane tallies, the mapped-ness of every LPN as last
/// audited, and the suspects that failed a check.
///
/// # Examples
///
/// ```
/// use nssd_ftl::{Ftl, FtlAudit, FtlConfig, Lpn};
///
/// let mut cfg = FtlConfig::evaluation_defaults();
/// cfg.geometry = nssd_flash::Geometry::tiny();
/// cfg.gc.victims_per_trigger = 2;
/// let mut ftl = Ftl::new(cfg)?;
/// let mut audit = FtlAudit::new(ftl.geometry(), ftl.logical_pages());
/// assert!(audit.audit(&mut ftl).is_empty()); // full sweep, starts tracking
/// ftl.write(Lpn::new(3))?;
/// assert!(audit.audit(&mut ftl).is_empty()); // re-checks one block
/// assert_eq!(audit.audited_blocks().len(), 1);
/// # Ok::<(), nssd_ftl::FtlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FtlAudit {
    blocks_per_plane: u64,
    block_tallies: Vec<BlockTally>,
    /// Free-list length of each plane at its last audit.
    plane_listed: Vec<u64>,
    /// Pages each plane's blocks accounted for at their last audits.
    plane_accounted: Vec<u64>,
    totals: Totals,
    /// Mapped-ness of each LPN at the last audit, one bit per LPN.
    mapped_seen: Vec<u64>,
    /// Number of set bits in `mapped_seen`.
    mapped_tally: u64,
    suspect_blocks: Vec<u64>,
    suspect_planes: Vec<u64>,
    suspect_lpns: Vec<u64>,
    suspect_ppns: Vec<u64>,
    /// Blocks the last call checked, ascending.
    audited_blocks: Vec<u64>,
    /// Planes the last call checked, ascending.
    audited_planes: Vec<u64>,
    /// Whether the tallies describe the device (a full sweep has run since
    /// construction or the last [`FtlAudit::reset`]).
    primed: bool,
}

impl FtlAudit {
    /// An auditor for a device of `geometry` with `logical_pages` LPNs. Its
    /// first [`FtlAudit::audit`] is a full sweep.
    pub fn new(geometry: &Geometry, logical_pages: u64) -> Self {
        let planes = geometry.plane_count() as usize;
        FtlAudit {
            blocks_per_plane: geometry.blocks_per_plane as u64,
            block_tallies: vec![BlockTally::default(); geometry.block_count() as usize],
            plane_listed: vec![0; planes],
            plane_accounted: vec![0; planes],
            totals: Totals::default(),
            mapped_seen: vec![0; logical_pages.div_ceil(64) as usize],
            mapped_tally: 0,
            suspect_blocks: Vec::new(),
            suspect_planes: Vec::new(),
            suspect_lpns: Vec::new(),
            suspect_ppns: Vec::new(),
            audited_blocks: Vec::new(),
            audited_planes: Vec::new(),
            primed: false,
        }
    }

    /// Forgets the tallies: the next [`FtlAudit::audit`] is a full sweep.
    /// Call after the FTL state was replaced wholesale (resync, restore).
    pub fn reset(&mut self) {
        self.primed = false;
    }

    /// Raw PBNs of the blocks the last audit or sweep checked, ascending.
    pub fn audited_blocks(&self) -> &[u64] {
        &self.audited_blocks
    }

    /// Audits `ftl`. Returns one message per violated invariant, exactly
    /// as [`Ftl::check_invariants`] would at this point (empty = clean).
    ///
    /// Runs a full sweep and starts change tracking on `ftl` when this
    /// auditor is fresh or reset, or when `ftl` is not tracking; otherwise
    /// re-checks only what changed since the previous audit. Either way the
    /// change marks are cleared.
    pub fn audit(&mut self, ftl: &mut Ftl) -> Vec<String> {
        if !self.primed || !ftl.is_tracking_changes() {
            let problems = self.sweep(ftl);
            ftl.track_changes();
            return problems;
        }
        let mut problems = Vec::new();
        self.audited_blocks.clear();
        self.audited_blocks
            .extend_from_slice(ftl.blocks().changed_blocks());
        self.audited_blocks.append(&mut self.suspect_blocks);
        self.audited_blocks.sort_unstable();
        self.audited_blocks.dedup();
        self.audited_planes.clear();
        let bpp = self.blocks_per_plane;
        self.audited_planes
            .extend(self.audited_blocks.iter().map(|&raw| raw / bpp));
        self.audited_planes.append(&mut self.suspect_planes);
        self.audited_planes.sort_unstable();
        self.audited_planes.dedup();
        self.audit_blocks(ftl.blocks(), &mut problems);

        let mapping = ftl.mapping();
        let (lpns, ppns) = mapping.changed_entries();
        let mut consistent = true;
        for &l in lpns {
            let word = &mut self.mapped_seen[(l / 64) as usize];
            let bit = 1u64 << (l % 64);
            let was = *word & bit != 0;
            let now = mapping.lpn_is_mapped(l);
            if was != now {
                *word ^= bit;
                if now {
                    self.mapped_tally += 1;
                } else {
                    self.mapped_tally -= 1;
                }
            }
        }
        let old_lpns = std::mem::take(&mut self.suspect_lpns);
        for &l in lpns.iter().chain(&old_lpns) {
            if !mapping.lpn_consistent(l) {
                consistent = false;
                self.suspect_lpns.push(l);
            }
        }
        let old_ppns = std::mem::take(&mut self.suspect_ppns);
        for &p in ppns.iter().chain(&old_ppns) {
            if !mapping.ppn_consistent(p) {
                consistent = false;
                self.suspect_ppns.push(p);
            }
        }
        self.suspect_lpns.sort_unstable();
        self.suspect_lpns.dedup();
        self.suspect_ppns.sort_unstable();
        self.suspect_ppns.dedup();
        self.finish_mapping(mapping, consistent, &mut problems);
        ftl.clear_changes();
        problems
    }

    /// The full sweep: checks every plane and every mapping entry of `ftl`
    /// and re-primes the tallies from them. Leaves `ftl`'s change marks
    /// alone; re-checking them later is redundant but harmless.
    pub fn sweep(&mut self, ftl: &Ftl) -> Vec<String> {
        let mut problems = Vec::new();
        self.sweep_blocks(ftl.blocks(), &mut problems);

        let mapping = ftl.mapping();
        self.mapped_seen.fill(0);
        self.mapped_tally = 0;
        self.suspect_lpns.clear();
        self.suspect_ppns.clear();
        for l in 0..mapping.logical_pages() {
            if mapping.lpn_is_mapped(l) {
                self.mapped_seen[(l / 64) as usize] |= 1 << (l % 64);
                self.mapped_tally += 1;
            }
            if !mapping.lpn_consistent(l) {
                self.suspect_lpns.push(l);
            }
        }
        for p in 0..mapping.physical_pages() {
            if !mapping.ppn_consistent(p) {
                self.suspect_ppns.push(p);
            }
        }
        let consistent = self.suspect_lpns.is_empty() && self.suspect_ppns.is_empty();
        self.finish_mapping(mapping, consistent, &mut problems);
        self.primed = true;
        problems
    }

    /// The block-table half of [`FtlAudit::sweep`]: checks every block and
    /// plane and re-primes their tallies.
    pub(crate) fn sweep_blocks(&mut self, blocks: &BlockTable, problems: &mut Vec<String>) {
        self.block_tallies.fill(BlockTally::default());
        self.plane_listed.fill(0);
        self.plane_accounted.fill(0);
        self.totals = Totals::default();
        self.suspect_blocks.clear();
        self.suspect_planes.clear();
        self.audited_blocks.clear();
        self.audited_blocks
            .extend(0..self.block_tallies.len() as u64);
        self.audited_planes.clear();
        self.audited_planes
            .extend(0..self.plane_listed.len() as u64);
        self.audit_blocks(blocks, problems);
    }

    /// Checks the blocks and planes due for audit and the global block
    /// counters, recording the blocks and planes that raised a problem as
    /// suspects.
    fn audit_blocks(&mut self, blocks: &BlockTable, problems: &mut Vec<String>) {
        for &raw in &self.audited_blocks {
            let before = problems.len();
            let tally = blocks.audit_block(raw, problems);
            let old = std::mem::replace(&mut self.block_tallies[raw as usize], tally);
            self.totals.swap_block(&old, &tally);
            let accounted = &mut self.plane_accounted[(raw / self.blocks_per_plane) as usize];
            *accounted = *accounted - old.accounted_pages + tally.accounted_pages;
            if problems.len() > before {
                self.suspect_blocks.push(raw);
            }
        }
        for &unit in &self.audited_planes {
            let listed = blocks.free_listed(unit as usize);
            let old = std::mem::replace(&mut self.plane_listed[unit as usize], listed);
            self.totals.listed_free = self.totals.listed_free - old + listed;
        }
        blocks.audit_totals(&self.totals, problems);
        for &unit in &self.audited_planes {
            let before = problems.len();
            blocks.audit_free_list(unit as usize, problems);
            if problems.len() > before {
                self.suspect_planes.push(unit);
            }
        }
        for &unit in &self.audited_planes {
            let before = problems.len();
            let accounted = self.plane_accounted[unit as usize];
            blocks.audit_conservation(unit as usize, accounted, problems);
            if problems.len() > before {
                self.suspect_planes.push(unit);
            }
        }
        self.suspect_planes.sort_unstable();
        self.suspect_planes.dedup();
    }

    /// The mapping verdict and the mapped == valid agreement.
    fn finish_mapping(&self, mapping: &MappingTable, consistent: bool, problems: &mut Vec<String>) {
        if !consistent || self.mapped_tally != mapping.mapped_pages() {
            problems.push("mapping forward/reverse tables disagree".into());
        }
        let mapped = mapping.mapped_pages();
        let valid = self.totals.valid_pages;
        if mapped != valid {
            problems.push(format!("{mapped} mapped pages but {valid} valid pages"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockState, FtlConfig, Lpn, WayMask};
    use nssd_flash::{Pbn, Ppn};
    use nssd_sim::{DetRng, Rng};

    /// A structural corruption planted through a `debug_*` hook, with what
    /// it takes to repair it.
    enum Planted {
        Bit(Ppn),
        Reverse(Ppn, Option<Lpn>),
        DroppedPage(Lpn),
        Swap(Lpn, Lpn),
    }

    fn tiny_ftl() -> Ftl {
        let mut cfg = FtlConfig::evaluation_defaults();
        cfg.geometry = Geometry::tiny();
        cfg.gc.victims_per_trigger = 2;
        Ftl::new(cfg).unwrap()
    }

    fn mapped_lpns(ftl: &Ftl) -> Vec<Lpn> {
        (0..ftl.logical_pages())
            .map(Lpn::new)
            .filter(|&l| ftl.lookup(l).is_some())
            .collect()
    }

    /// A random Full block whose valid count satisfies `want`. (Open
    /// blocks may be an allocator's write frontier, which GC never takes.)
    fn pick_full_block(ftl: &Ftl, gen: &mut DetRng, want: impl Fn(u32) -> bool) -> Option<Pbn> {
        let picks: Vec<Pbn> = ftl
            .blocks()
            .iter()
            .filter(|(_, m)| m.state() == BlockState::Full && want(m.valid_count()))
            .map(|(pbn, _)| pbn)
            .collect();
        (!picks.is_empty()).then(|| picks[gen.gen_range(0..picks.len())])
    }

    /// One random FTL action through the public primitives. Erases and
    /// retires run in steps of their own, so a primitive that forgot to
    /// mark its plane cannot hide behind another action's mark.
    fn random_action(ftl: &mut Ftl, gen: &mut DetRng, rng: &mut DetRng, chip_failed: &mut bool) {
        let g = *ftl.geometry();
        let all = WayMask::all(g.ways);
        let lpn = Lpn::new(gen.gen_range(0..ftl.logical_pages()));
        match gen.gen_range(0..100u64) {
            0..=49 => {
                if ftl.needs_gc() {
                    let _ = ftl.instant_gc(rng);
                }
                let _ = ftl.write(lpn);
            }
            50..=59 => {
                ftl.trim(lpn).unwrap();
            }
            60..=69 => {
                if let Some(src) = ftl.lookup(lpn) {
                    let _ = ftl.relocate(lpn, src, all);
                }
            }
            70..=79 => {
                // Drain a full block so a later step can erase it.
                if let Some(pbn) = pick_full_block(ftl, gen, |v| v > 0) {
                    for (lpn, src) in ftl.live_pages(pbn) {
                        let _ = ftl.relocate(lpn, src, all);
                    }
                }
            }
            80..=96 => {
                if ftl.dead_chip().is_none() {
                    if let Some(pbn) = pick_full_block(ftl, gen, |v| v == 0) {
                        if gen.gen_bool(0.8) {
                            ftl.erase_block(pbn);
                        } else {
                            ftl.retire_block(pbn);
                        }
                    }
                }
            }
            _ => {
                if !*chip_failed && gen.gen_bool(0.2) {
                    *chip_failed = true;
                    let c = gen.gen_range(0..g.channels as u64) as u32;
                    let w = gen.gen_range(0..g.ways as u64) as u32;
                    ftl.fail_chip(c, w);
                }
            }
        }
    }

    fn plant(ftl: &mut Ftl, gen: &mut DetRng) -> Option<Planted> {
        let g = *ftl.geometry();
        let mapped = mapped_lpns(ftl);
        match gen.gen_range(0..4u64) {
            0 => {
                let ppn = Ppn::new(gen.gen_range(0..g.page_count()));
                ftl.tables_mut().0.debug_flip_valid_bit(ppn);
                Some(Planted::Bit(ppn))
            }
            1 => {
                let ppn = Ppn::new(gen.gen_range(0..g.page_count()));
                let old = ftl.mapping().reverse(ppn);
                let owner = Lpn::new(gen.gen_range(0..ftl.logical_pages()));
                ftl.tables_mut().1.debug_set_reverse(ppn, Some(owner));
                Some(Planted::Reverse(ppn, old))
            }
            2 if !mapped.is_empty() => {
                let lpn = mapped[gen.gen_range(0..mapped.len())];
                ftl.debug_drop_valid_page(lpn);
                Some(Planted::DroppedPage(lpn))
            }
            3 if mapped.len() >= 2 => {
                let a = mapped[gen.gen_range(0..mapped.len())];
                let b = mapped[gen.gen_range(0..mapped.len())];
                if a == b {
                    return None;
                }
                ftl.debug_swap_mapping(a, b);
                Some(Planted::Swap(a, b))
            }
            _ => None,
        }
    }

    fn repair(ftl: &mut Ftl, planted: Planted) {
        match planted {
            Planted::Bit(ppn) => ftl.tables_mut().0.debug_flip_valid_bit(ppn),
            Planted::Reverse(ppn, old) => ftl.tables_mut().1.debug_set_reverse(ppn, old),
            Planted::DroppedPage(lpn) => {
                ftl.tables_mut().1.unmap(lpn);
            }
            Planted::Swap(a, b) => ftl.debug_swap_mapping(a, b),
        }
    }

    /// The incremental audit reports exactly what a fresh full sweep
    /// reports — the same messages in the same order — after every step of
    /// random primitive sequences, including planted corruptions that
    /// persist across audits and are then repaired.
    #[test]
    fn incremental_audit_matches_the_full_sweep() {
        let mut gen = DetRng::seed_from_u64(0xA0D1);
        let mut fired = 0;
        for _ in 0..crate::CASES {
            let mut ftl = tiny_ftl();
            let mut audit = FtlAudit::new(ftl.geometry(), ftl.logical_pages());
            let mut rng = DetRng::seed_from_u64(gen.gen_range(0..1000u64));
            let mut chip_failed = false;
            assert!(audit.audit(&mut ftl).is_empty());
            // Factory bad blocks are marked on a fresh device only.
            ftl.mark_manufacture_bad(0.05, &mut rng);
            assert!(audit.audit(&mut ftl).is_empty());
            let steps = gen.gen_range(20..200usize);
            for step in 0..steps {
                random_action(&mut ftl, &mut gen, &mut rng, &mut chip_failed);
                assert_eq!(audit.audit(&mut ftl), ftl.check_invariants(), "step {step}");
                assert_eq!(ftl.audit_backlog(), 0);
                if gen.gen_bool(0.1) {
                    let Some(planted) = plant(&mut ftl, &mut gen) else {
                        continue;
                    };
                    // A defect persists until repaired: every audit in
                    // between must keep reporting it, marks or not.
                    for _ in 0..gen.gen_range(1..4u64) {
                        let full = ftl.check_invariants();
                        fired += !full.is_empty() as u32;
                        assert_eq!(audit.audit(&mut ftl), full, "step {step}, planted");
                    }
                    repair(&mut ftl, planted);
                    let full = ftl.check_invariants();
                    assert_eq!(audit.audit(&mut ftl), full, "step {step}, repaired");
                    if !full.is_empty() {
                        // Some repairs cannot undo what a corruption let
                        // through; start the next case from a clean device.
                        break;
                    }
                }
            }
        }
        assert!(fired > 0, "no planted corruption was ever visible");
    }

    #[test]
    fn restoring_a_checkpoint_stops_tracking() {
        let mut ftl = tiny_ftl();
        let mut audit = FtlAudit::new(ftl.geometry(), ftl.logical_pages());
        audit.audit(&mut ftl);
        ftl.write(Lpn::new(1)).unwrap();
        assert!(ftl.is_tracking_changes());
        assert!(ftl.audit_backlog() > 0);
        let mut w = nssd_sim::CkptWriter::new();
        ftl.ckpt_save(&mut w);
        let bytes = w.into_bytes();
        ftl.ckpt_load(&mut nssd_sim::CkptReader::new(&bytes))
            .unwrap();
        assert!(!ftl.is_tracking_changes());
        assert_eq!(ftl.audit_backlog(), 0);
        // The next audit sweeps again and re-arms tracking.
        assert!(audit.audit(&mut ftl).is_empty());
        assert_eq!(
            audit.audited_blocks().len(),
            ftl.geometry().block_count() as usize
        );
        assert!(ftl.is_tracking_changes());
    }
}
