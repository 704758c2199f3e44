//! Logical-to-physical page mapping with validity tracking.
//!
//! The reverse map is a flat `Vec` indexed by [`Geometry::page_index`],
//! with a per-block valid-page counter maintained incrementally on every
//! map/unmap/trim. Validity queries ([`Mapping::valid_in_block_count`]) are
//! O(1) counter reads and [`Mapping::valid_in_block`] walks only the
//! block's contiguous index range, so garbage collection never rescans the
//! whole device. The `HashMap` model it replaced is the differential
//! oracle of `tests/properties.rs`.

use flash_model::{BlockAddr, Geometry, PageAddr};

/// Sentinel marking an invalid (unmapped) physical page in the reverse map.
/// Safe because stored LPNs are always below the logical capacity.
const INVALID: u64 = u64::MAX;

/// Page-level L2P/P2L mapping.
///
/// Invariant: `l2p[lpn] == Some(ppa)` iff `p2l` maps `ppa` to `lpn`; a
/// physical page holding `INVALID` is invalid (stale or never written).
#[derive(Debug, Clone)]
pub struct Mapping {
    l2p: Vec<Option<PageAddr>>,
    /// Reverse map indexed by `Geometry::page_index`; `INVALID` = stale.
    p2l: Vec<u64>,
    /// Valid-page count per `Geometry::block_index`.
    block_valid: Vec<u32>,
    /// Total valid pages (sum of `block_valid`).
    valid: usize,
    /// Geometry defining the flattening.
    geo: Geometry,
}

impl Mapping {
    /// A mapping exporting `capacity` logical pages over `geo`'s physical
    /// space, all unmapped.
    #[must_use]
    pub fn new(capacity: u64, geo: &Geometry) -> Self {
        Mapping {
            l2p: vec![None; capacity as usize],
            p2l: vec![INVALID; geo.total_pages() as usize],
            block_valid: vec![0; geo.total_blocks() as usize],
            valid: 0,
            geo: geo.clone(),
        }
    }

    /// Exported logical capacity in pages.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.l2p.len() as u64
    }

    /// Physical location of a logical page.
    #[must_use]
    pub fn lookup(&self, lpn: u64) -> Option<PageAddr> {
        self.l2p.get(lpn as usize).copied().flatten()
    }

    /// Logical page stored at a physical page, if it is valid.
    #[must_use]
    pub fn reverse(&self, ppa: PageAddr) -> Option<u64> {
        let lpn = self.p2l[self.geo.page_index(ppa)];
        (lpn != INVALID).then_some(lpn)
    }

    /// Whether a physical page holds valid data.
    #[must_use]
    pub fn is_valid(&self, ppa: PageAddr) -> bool {
        self.reverse(ppa).is_some()
    }

    /// Number of valid physical pages.
    #[must_use]
    pub fn valid_pages(&self) -> usize {
        self.valid
    }

    /// Maps `lpn` to `ppa`, invalidating any previous location.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range or `ppa` already holds another
    /// logical page (a physical page is written once per erase cycle).
    pub fn map(&mut self, lpn: u64, ppa: PageAddr) {
        assert!((lpn as usize) < self.l2p.len(), "lpn {lpn} out of range");
        if let Some(old) = self.l2p[lpn as usize].take() {
            self.clear_reverse(old);
        }
        let idx = self.geo.page_index(ppa);
        assert!(self.p2l[idx] == INVALID, "physical page written twice without erase");
        self.p2l[idx] = lpn;
        self.block_valid[self.geo.block_index(ppa.wl.block)] += 1;
        self.valid += 1;
        self.l2p[lpn as usize] = Some(ppa);
    }

    /// Unmaps a logical page (trim); returns its old location.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub fn unmap(&mut self, lpn: u64) -> Option<PageAddr> {
        assert!((lpn as usize) < self.l2p.len(), "lpn {lpn} out of range");
        let old = self.l2p[lpn as usize].take();
        if let Some(ppa) = old {
            self.clear_reverse(ppa);
        }
        old
    }

    /// Drops the reverse-map record of one page, fixing the counters.
    fn clear_reverse(&mut self, ppa: PageAddr) {
        let idx = self.geo.page_index(ppa);
        if self.p2l[idx] != INVALID {
            self.p2l[idx] = INVALID;
            self.block_valid[self.geo.block_index(ppa.wl.block)] -= 1;
            self.valid -= 1;
        }
    }

    /// Drops validity records for every page of a block (after erase).
    pub fn invalidate_block(&mut self, block: BlockAddr) {
        // Erase only happens after relocation, so every page of the block
        // must already be invalid; this is a defensive sweep.
        let bi = self.geo.block_index(block);
        if self.block_valid[bi] == 0 {
            return;
        }
        let ppb = self.geo.pages_per_block() as usize;
        let base = bi * ppb;
        for slot in &mut self.p2l[base..base + ppb] {
            let lpn = std::mem::replace(slot, INVALID);
            if lpn != INVALID {
                self.l2p[lpn as usize] = None;
                self.valid -= 1;
            }
        }
        self.block_valid[bi] = 0;
    }

    /// Number of valid pages currently stored in a block: one O(1) counter
    /// read.
    #[must_use]
    pub fn valid_in_block_count(&self, block: BlockAddr) -> usize {
        self.block_valid[self.geo.block_index(block)] as usize
    }

    /// Valid logical pages currently stored in a block, with locations, in
    /// `(lwl, page)` program order. Alloc-free; collect into a reusable
    /// buffer when the mapping must be mutated while iterating.
    pub fn valid_in_block(&self, block: BlockAddr) -> impl Iterator<Item = (u64, PageAddr)> + '_ {
        let ppb = self.geo.pages_per_block() as usize;
        let base = self.geo.block_index(block) * ppb;
        self.p2l[base..base + ppb]
            .iter()
            .enumerate()
            .filter(|&(_, &lpn)| lpn != INVALID)
            .map(move |(off, &lpn)| (lpn, self.geo.page_at_offset(block, off)))
    }

    /// Checks the L2P/P2L bijection, each block's valid counter against a
    /// recount of its pages, and the total valid count (for tests).
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        let forward_ok = self
            .l2p
            .iter()
            .enumerate()
            .filter_map(|(l, p)| p.map(|p| (l as u64, p)))
            .all(|(l, p)| self.reverse(p) == Some(l));
        if !forward_ok {
            return false;
        }
        let ppb = self.geo.pages_per_block() as usize;
        let mut total = 0usize;
        for (bi, &count) in self.block_valid.iter().enumerate() {
            let base = bi * ppb;
            let live = self.p2l[base..base + ppb].iter().filter(|&&l| l != INVALID).count();
            if live != count as usize {
                return false;
            }
            total += live;
        }
        if total != self.valid {
            return false;
        }
        self.p2l.iter().enumerate().filter(|(_, &l)| l != INVALID).all(|(i, &l)| {
            match self.l2p[l as usize] {
                Some(p) => self.geo.page_index(p) == i,
                None => false,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_model::{BlockAddr, BlockId, CellType, ChipId, LwlId, PageType, PlaneId};

    fn geo() -> Geometry {
        Geometry::new(2, 1, 4, 2, 2, CellType::Tlc)
    }

    fn ppa(b: u32, lwl: u32, pt: PageType) -> PageAddr {
        BlockAddr::new(ChipId(0), PlaneId(0), BlockId(b)).wl(LwlId(lwl)).page(pt)
    }

    #[test]
    fn map_and_lookup_roundtrip() {
        let mut m = Mapping::new(10, &geo());
        m.map(3, ppa(0, 0, PageType::Lsb));
        assert_eq!(m.lookup(3), Some(ppa(0, 0, PageType::Lsb)));
        assert_eq!(m.reverse(ppa(0, 0, PageType::Lsb)), Some(3));
        assert!(m.is_consistent());
    }

    #[test]
    fn remap_invalidates_old_location() {
        let mut m = Mapping::new(10, &geo());
        m.map(3, ppa(0, 0, PageType::Lsb));
        m.map(3, ppa(1, 0, PageType::Lsb));
        assert!(!m.is_valid(ppa(0, 0, PageType::Lsb)));
        assert_eq!(m.lookup(3), Some(ppa(1, 0, PageType::Lsb)));
        assert!(m.is_consistent());
    }

    #[test]
    #[should_panic(expected = "written twice")]
    fn double_write_to_same_ppa_panics() {
        let mut m = Mapping::new(10, &geo());
        m.map(1, ppa(0, 0, PageType::Lsb));
        m.map(2, ppa(0, 0, PageType::Lsb));
    }

    #[test]
    fn unmap_clears_both_directions() {
        let mut m = Mapping::new(10, &geo());
        m.map(3, ppa(0, 0, PageType::Lsb));
        assert_eq!(m.unmap(3), Some(ppa(0, 0, PageType::Lsb)));
        assert_eq!(m.lookup(3), None);
        assert_eq!(m.valid_pages(), 0);
        assert!(m.is_consistent());
    }

    #[test]
    fn valid_in_block_filters_and_sorts() {
        let mut m = Mapping::new(10, &geo());
        m.map(1, ppa(0, 1, PageType::Lsb));
        m.map(2, ppa(0, 0, PageType::Msb));
        m.map(3, ppa(1, 0, PageType::Lsb));
        let blk0 = BlockAddr::new(ChipId(0), PlaneId(0), BlockId(0));
        let v: Vec<_> = m.valid_in_block(blk0).collect();
        assert_eq!(v.len(), 2);
        assert_eq!(m.valid_in_block_count(blk0), 2);
        assert_eq!(v[0].0, 2, "WL0 before WL1");
    }

    #[test]
    fn invalidate_block_sweeps_everything() {
        let mut m = Mapping::new(10, &geo());
        m.map(1, ppa(0, 0, PageType::Lsb));
        m.map(2, ppa(0, 1, PageType::Csb));
        m.invalidate_block(BlockAddr::new(ChipId(0), PlaneId(0), BlockId(0)));
        assert_eq!(m.valid_pages(), 0);
        assert_eq!(m.lookup(1), None);
        assert!(m.is_consistent());
    }

    #[test]
    fn block_counters_track_map_unmap_remap() {
        let mut m = Mapping::new(20, &geo());
        let blk0 = BlockAddr::new(ChipId(0), PlaneId(0), BlockId(0));
        let blk1 = BlockAddr::new(ChipId(0), PlaneId(0), BlockId(1));
        m.map(1, ppa(0, 0, PageType::Lsb));
        m.map(2, ppa(0, 0, PageType::Csb));
        m.map(3, ppa(1, 0, PageType::Lsb));
        assert_eq!(m.valid_in_block_count(blk0), 2);
        assert_eq!(m.valid_in_block_count(blk1), 1);
        // Remap lpn 1 into block 1: counters move with it.
        m.map(1, ppa(1, 0, PageType::Csb));
        assert_eq!(m.valid_in_block_count(blk0), 1);
        assert_eq!(m.valid_in_block_count(blk1), 2);
        m.unmap(2);
        assert_eq!(m.valid_in_block_count(blk0), 0);
        assert!(m.is_consistent());
    }

    #[test]
    fn lookup_out_of_range_is_none() {
        let m = Mapping::new(4, &geo());
        assert_eq!(m.lookup(99), None);
    }
}
