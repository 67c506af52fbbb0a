//! Page-level logical-to-physical mapping.
//!
//! A dense forward table (LPN → PPN) plus the reverse table (PPN → LPN) that
//! garbage collection needs to find the owner of a valid physical page.

use core::fmt;

use nssd_flash::Ppn;
use nssd_sim::{ckpt, CkptError, CkptReader, CkptWriter};

use crate::audit::DirtySet;

/// A logical page number (host-visible page index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lpn(u64);

impl Lpn {
    /// Creates an LPN from its raw index.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Lpn(raw)
    }

    /// The raw index.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Lpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lpn{}", self.0)
    }
}

const UNMAPPED: u64 = u64::MAX;

/// Dense bidirectional page mapping table.
///
/// # Examples
///
/// ```
/// use nssd_flash::Ppn;
/// use nssd_ftl::{Lpn, MappingTable};
///
/// let mut m = MappingTable::new(100, 200);
/// assert_eq!(m.lookup(Lpn::new(5)), None);
/// m.map(Lpn::new(5), Ppn::new(42));
/// assert_eq!(m.lookup(Lpn::new(5)), Some(Ppn::new(42)));
/// assert_eq!(m.reverse(Ppn::new(42)), Some(Lpn::new(5)));
/// ```
#[derive(Debug, Clone)]
pub struct MappingTable {
    l2p: Vec<u64>,
    p2l: Vec<u64>,
    mapped: u64,
    /// Entries changed since the last audit, while tracking is on.
    changes: Option<Box<EntryChanges>>,
}

/// The LPN and PPN entries a [`MappingTable`] primitive wrote, plus the
/// entries their old values pointed at.
#[derive(Debug, Clone)]
struct EntryChanges {
    lpns: DirtySet,
    ppns: DirtySet,
}

impl MappingTable {
    /// Creates an empty table for `logical_pages` LPNs and `physical_pages`
    /// PPNs.
    pub fn new(logical_pages: u64, physical_pages: u64) -> Self {
        MappingTable {
            l2p: vec![UNMAPPED; logical_pages as usize],
            p2l: vec![UNMAPPED; physical_pages as usize],
            mapped: 0,
            changes: None,
        }
    }

    /// Records, before they change, that the entries of `lpns` and `ppns`
    /// changed, plus the entries their current values point at. Skips
    /// [`UNMAPPED`] arguments. Out of line: only an audited table pays.
    #[cold]
    #[inline(never)]
    fn record(&mut self, lpns: &[u64], ppns: &[u64]) {
        let Some(c) = self.changes.as_deref_mut() else {
            return;
        };
        for &l in lpns.iter().filter(|&&l| l != UNMAPPED) {
            c.lpns.mark(l);
            let p = self.l2p[l as usize];
            if p != UNMAPPED {
                c.ppns.mark(p);
            }
        }
        for &p in ppns.iter().filter(|&&p| p != UNMAPPED) {
            c.ppns.mark(p);
            let l = self.p2l[p as usize];
            if l != UNMAPPED {
                c.lpns.mark(l);
            }
        }
    }

    /// Starts (or restarts, with nothing marked) recording changed entries.
    pub(crate) fn track_changes(&mut self) {
        self.changes = Some(Box::new(EntryChanges {
            lpns: DirtySet::new(self.logical_pages()),
            ppns: DirtySet::new(self.physical_pages()),
        }));
    }

    pub(crate) fn is_tracking_changes(&self) -> bool {
        self.changes.is_some()
    }

    /// Raw LPNs and PPNs whose entries changed since the last
    /// [`MappingTable::clear_changes`] (empty when tracking is off).
    pub(crate) fn changed_entries(&self) -> (&[u64], &[u64]) {
        match self.changes.as_deref() {
            Some(c) => (c.lpns.marked(), c.ppns.marked()),
            None => (&[], &[]),
        }
    }

    pub(crate) fn clear_changes(&mut self) {
        if let Some(c) = self.changes.as_deref_mut() {
            c.lpns.clear();
            c.ppns.clear();
        }
    }

    pub(crate) fn lpn_is_mapped(&self, lpn: u64) -> bool {
        self.l2p[lpn as usize] != UNMAPPED
    }

    /// Whether raw `lpn` is unmapped or its page maps back to it.
    pub(crate) fn lpn_consistent(&self, lpn: u64) -> bool {
        let p = self.l2p[lpn as usize];
        p == UNMAPPED || self.p2l[p as usize] == lpn
    }

    /// Whether raw `ppn` is unowned or its owner maps to it.
    pub(crate) fn ppn_consistent(&self, ppn: u64) -> bool {
        let l = self.p2l[ppn as usize];
        l == UNMAPPED || self.l2p[l as usize] == ppn
    }

    /// Number of logical pages the table covers.
    pub fn logical_pages(&self) -> u64 {
        self.l2p.len() as u64
    }

    /// Number of physical pages the table covers.
    pub fn physical_pages(&self) -> u64 {
        self.p2l.len() as u64
    }

    /// Number of currently mapped logical pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// The physical page backing `lpn`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub fn lookup(&self, lpn: Lpn) -> Option<Ppn> {
        let v = self.l2p[lpn.raw() as usize];
        (v != UNMAPPED).then(|| Ppn::new(v))
    }

    /// The logical owner of physical page `ppn`, if it is mapped.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` is out of range.
    pub fn reverse(&self, ppn: Ppn) -> Option<Lpn> {
        let v = self.p2l[ppn.raw() as usize];
        (v != UNMAPPED).then(|| Lpn::new(v))
    }

    /// Maps `lpn` to `ppn`, returning the previously mapped physical page
    /// (which the caller must invalidate).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range, or if `ppn` is already the
    /// backing page of a different LPN (a double-allocation bug).
    pub fn map(&mut self, lpn: Lpn, ppn: Ppn) -> Option<Ppn> {
        let prev_p = self.p2l[ppn.raw() as usize];
        assert!(
            prev_p == UNMAPPED || prev_p == lpn.raw(),
            "physical page {ppn} already owned by lpn{prev_p}"
        );
        let old = self.l2p[lpn.raw() as usize];
        if self.changes.is_some() {
            self.record(&[lpn.raw()], &[ppn.raw(), old]);
        }
        if old != UNMAPPED {
            self.p2l[old as usize] = UNMAPPED;
        } else {
            self.mapped += 1;
        }
        self.l2p[lpn.raw() as usize] = ppn.raw();
        self.p2l[ppn.raw() as usize] = lpn.raw();
        (old != UNMAPPED).then(|| Ppn::new(old))
    }

    /// Maps the `len` LPNs `first_lpn + j·lpn_stride` to the consecutive
    /// pages `first_ppn + j`, as `len` calls of [`MappingTable::map`] would
    /// when every one of those LPNs is unmapped and every page unowned.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range, an LPN is already mapped or a
    /// page already owned.
    pub(crate) fn map_fresh_run(
        &mut self,
        first_lpn: u64,
        lpn_stride: u64,
        first_ppn: Ppn,
        len: u32,
    ) {
        let p0 = first_ppn.raw();
        let lpn = |j: u64| first_lpn + j * lpn_stride;
        if self.changes.is_some() {
            for j in 0..len as u64 {
                self.record(&[lpn(j)], &[p0 + j]);
            }
        }
        let owners = &mut self.p2l[p0 as usize..(p0 + len as u64) as usize];
        for (j, owner) in (0u64..).zip(owners) {
            let l = lpn(j);
            let entry = &mut self.l2p[l as usize];
            assert!(
                *entry == UNMAPPED && *owner == UNMAPPED,
                "bulk-mapping lpn{l} to ppn{}, which is not fresh",
                p0 + j
            );
            *entry = p0 + j;
            *owner = l;
        }
        self.mapped += len as u64;
    }

    /// Unmaps `lpn` (trim), returning its former physical page.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub fn unmap(&mut self, lpn: Lpn) -> Option<Ppn> {
        let old = self.l2p[lpn.raw() as usize];
        if old == UNMAPPED {
            return None;
        }
        if self.changes.is_some() {
            self.record(&[lpn.raw()], &[old]);
        }
        self.l2p[lpn.raw() as usize] = UNMAPPED;
        self.p2l[old as usize] = UNMAPPED;
        self.mapped -= 1;
        Some(Ppn::new(old))
    }

    /// Swaps the backing pages of two mapped LPNs *consistently* — both the
    /// forward and the reverse entries move, so the corruption is invisible
    /// to [`MappingTable::check_consistency`]. This models a silent FTL bug
    /// (data served from the wrong page) and exists solely as a mutation
    /// hook for oracle self-tests.
    ///
    /// # Panics
    ///
    /// Panics if either LPN is unmapped or out of range.
    pub fn debug_swap(&mut self, a: Lpn, b: Lpn) {
        let pa = self.l2p[a.raw() as usize];
        let pb = self.l2p[b.raw() as usize];
        assert!(
            pa != UNMAPPED && pb != UNMAPPED,
            "debug_swap requires two mapped LPNs"
        );
        self.record(&[a.raw(), b.raw()], &[pa, pb]);
        self.l2p[a.raw() as usize] = pb;
        self.l2p[b.raw() as usize] = pa;
        self.p2l[pa as usize] = b.raw();
        self.p2l[pb as usize] = a.raw();
    }

    /// Overwrites the reverse entry of `ppn` alone, leaving the forward
    /// table as it is — a deliberate inconsistency that
    /// [`MappingTable::check_consistency`] must report. Mutation hook for
    /// audit self-tests only.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` or `owner` is out of range.
    #[cfg(test)]
    pub(crate) fn debug_set_reverse(&mut self, ppn: Ppn, owner: Option<Lpn>) {
        let owner = owner.map_or(UNMAPPED, Lpn::raw);
        assert!(
            owner == UNMAPPED || owner < self.logical_pages(),
            "owner lpn{owner} out of range"
        );
        self.record(&[owner], &[ppn.raw()]);
        self.p2l[ppn.raw() as usize] = owner;
    }

    /// Serializes both direction tables and the mapped count.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        ckpt::put_u64_slice(w, &self.l2p);
        ckpt::put_u64_slice(w, &self.p2l);
        w.put_u64(self.mapped);
    }

    /// Restores state saved by [`MappingTable::ckpt_save`] into a table of
    /// the same dimensions.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, a dimension mismatch, or a table
    /// that fails the forward/reverse consistency invariant.
    pub fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let l2p = ckpt::take_u64_vec_exact(r, self.l2p.len(), "l2p table")?;
        let p2l = ckpt::take_u64_vec_exact(r, self.p2l.len(), "p2l table")?;
        let mapped = r.take_u64()?;
        // Range-check raw entries first so check_consistency cannot index
        // out of bounds on corrupt input.
        if l2p.iter().any(|&p| p != UNMAPPED && p >= p2l.len() as u64) {
            return Err(CkptError::Invalid("l2p entry out of physical range".into()));
        }
        if p2l.iter().any(|&l| l != UNMAPPED && l >= l2p.len() as u64) {
            return Err(CkptError::Invalid("p2l entry out of logical range".into()));
        }
        // Restored tables replace every entry: marks would not describe
        // them, so an auditor must sweep again.
        let restored = MappingTable {
            l2p,
            p2l,
            mapped,
            changes: None,
        };
        if !restored.check_consistency() {
            return Err(CkptError::Invalid(
                "mapping table fails forward/reverse consistency".into(),
            ));
        }
        *self = restored;
        Ok(())
    }

    /// Checks the forward/reverse consistency invariant: every mapped LPN's
    /// page maps back to it, every owned page's owner maps to it, and the
    /// mapped count is exact.
    pub fn check_consistency(&self) -> bool {
        (0..self.logical_pages()).all(|l| self.lpn_consistent(l))
            && (0..self.physical_pages()).all(|p| self.ppn_consistent(p))
            && self.l2p.iter().filter(|&&p| p != UNMAPPED).count() as u64 == self.mapped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_lookup() {
        let mut m = MappingTable::new(10, 20);
        assert_eq!(m.map(Lpn::new(3), Ppn::new(7)), None);
        assert_eq!(m.lookup(Lpn::new(3)), Some(Ppn::new(7)));
        assert_eq!(m.reverse(Ppn::new(7)), Some(Lpn::new(3)));
        assert_eq!(m.mapped_pages(), 1);
        assert!(m.check_consistency());
    }

    #[test]
    fn remap_returns_old_page_and_releases_it() {
        let mut m = MappingTable::new(10, 20);
        m.map(Lpn::new(3), Ppn::new(7));
        assert_eq!(m.map(Lpn::new(3), Ppn::new(9)), Some(Ppn::new(7)));
        assert_eq!(m.reverse(Ppn::new(7)), None);
        assert_eq!(m.reverse(Ppn::new(9)), Some(Lpn::new(3)));
        assert_eq!(m.mapped_pages(), 1);
        assert!(m.check_consistency());
    }

    #[test]
    fn unmap_trims() {
        let mut m = MappingTable::new(10, 20);
        m.map(Lpn::new(1), Ppn::new(2));
        assert_eq!(m.unmap(Lpn::new(1)), Some(Ppn::new(2)));
        assert_eq!(m.unmap(Lpn::new(1)), None);
        assert_eq!(m.mapped_pages(), 0);
        assert!(m.check_consistency());
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn double_allocation_detected() {
        let mut m = MappingTable::new(10, 20);
        m.map(Lpn::new(1), Ppn::new(2));
        m.map(Lpn::new(3), Ppn::new(2));
    }

    #[test]
    fn debug_swap_stays_internally_consistent() {
        let mut m = MappingTable::new(10, 20);
        m.map(Lpn::new(1), Ppn::new(4));
        m.map(Lpn::new(2), Ppn::new(9));
        m.debug_swap(Lpn::new(1), Lpn::new(2));
        // The corruption is real (pages crossed)...
        assert_eq!(m.lookup(Lpn::new(1)), Some(Ppn::new(9)));
        assert_eq!(m.lookup(Lpn::new(2)), Some(Ppn::new(4)));
        // ...but structurally invisible: only a shadow model can see it.
        assert!(m.check_consistency());
    }

    #[test]
    #[should_panic(expected = "two mapped LPNs")]
    fn debug_swap_rejects_unmapped() {
        let mut m = MappingTable::new(10, 20);
        m.map(Lpn::new(1), Ppn::new(4));
        m.debug_swap(Lpn::new(1), Lpn::new(5));
    }

    #[test]
    fn mapping_same_pair_is_idempotent() {
        let mut m = MappingTable::new(10, 20);
        m.map(Lpn::new(1), Ppn::new(2));
        assert_eq!(m.map(Lpn::new(1), Ppn::new(2)), Some(Ppn::new(2)));
        assert!(m.check_consistency());
    }
}
