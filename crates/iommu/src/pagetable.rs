//! The per-device I/O page table.
//!
//! One hash map from IOVA page to entry. The radix levels of a hardware
//! table reach no simulated number: the caller ([`crate::Iommu`]) charges
//! each map, unmap and IOTLB-miss walk one calibrated cost-model constant.

use crate::{IovaPage, Perms};
use memsim::Pfn;
use simcore::FxHashMap;
use std::collections::hash_map::Entry;
use std::fmt;

/// A leaf page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtEntry {
    /// The physical frame the IOVA page maps to.
    pub pfn: Pfn,
    /// Device access rights.
    pub perms: Perms,
}

/// Page-table operation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtError {
    /// `map` targeted an already-mapped IOVA page.
    AlreadyMapped(IovaPage),
    /// `unmap` targeted an unmapped IOVA page.
    NotMapped(IovaPage),
}

impl fmt::Display for PtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtError::AlreadyMapped(p) => write!(f, "IOVA page {p} is already mapped"),
            PtError::NotMapped(p) => write!(f, "IOVA page {p} is not mapped"),
        }
    }
}

impl std::error::Error for PtError {}

/// The I/O page table of one device domain: translates 36-bit IOVA page
/// numbers (48-bit IOVAs) to physical frames with access rights.
#[derive(Debug, Default)]
pub struct IoPageTable {
    entries: FxHashMap<u64, PtEntry>,
}

impl IoPageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mapped IOVA pages.
    pub fn mapped_pages(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Installs a mapping for one IOVA page.
    ///
    /// # Errors
    ///
    /// Fails with [`PtError::AlreadyMapped`] if the page already has a
    /// mapping (the DMA API never overwrites live mappings).
    pub fn map(&mut self, page: IovaPage, pfn: Pfn, perms: Perms) -> Result<(), PtError> {
        match self.entries.entry(page.0) {
            Entry::Occupied(_) => Err(PtError::AlreadyMapped(page)),
            Entry::Vacant(v) => {
                v.insert(PtEntry { pfn, perms });
                Ok(())
            }
        }
    }

    /// Removes the mapping of one IOVA page, returning the removed entry.
    ///
    /// Note: removing the mapping does **not** remove any cached IOTLB
    /// entry — that requires an explicit invalidation (see
    /// [`crate::InvalQueue`]).
    pub fn unmap(&mut self, page: IovaPage) -> Result<PtEntry, PtError> {
        self.entries.remove(&page.0).ok_or(PtError::NotMapped(page))
    }

    /// Looks up one IOVA page (the hardware page walk on an IOTLB miss).
    pub fn translate(&self, page: IovaPage) -> Option<PtEntry> {
        self.entries.get(&page.0).copied()
    }
}

/// A nested-`HashMap` 4-level radix table, the behavioral oracle for the
/// property tests below.
#[cfg(test)]
mod oracle {
    use super::{PtEntry, PtError};
    use crate::{IovaPage, Perms};
    use memsim::Pfn;
    use std::collections::HashMap;

    /// Bits of IOVA page number consumed per radix level (like x86-64).
    const LEVEL_BITS: u32 = 9;
    /// 4 levels × 9 bits + 12-bit page offset = 48 bits.
    const LEVELS: u32 = 4;

    fn level_index(page: IovaPage, level: u32) -> usize {
        // level 0 is the root (most significant 9 bits of the page number).
        let shift = (LEVELS - 1 - level) * LEVEL_BITS;
        ((page.0 >> shift) & ((1 << LEVEL_BITS) - 1)) as usize
    }

    #[derive(Debug, Default)]
    enum Node {
        #[default]
        Empty,
        Table(HashMap<u16, Node>),
        Leaf(PtEntry),
    }

    #[derive(Debug, Default)]
    pub struct OracleIoPageTable {
        root: HashMap<u16, Node>,
        mapped: u64,
    }

    impl OracleIoPageTable {
        pub fn mapped_pages(&self) -> u64 {
            self.mapped
        }

        pub fn map(&mut self, page: IovaPage, pfn: Pfn, perms: Perms) -> Result<(), PtError> {
            let mut table = &mut self.root;
            for level in 0..LEVELS - 1 {
                let idx = level_index(page, level) as u16;
                let node = table
                    .entry(idx)
                    .or_insert_with(|| Node::Table(HashMap::new()));
                table = match node {
                    Node::Table(t) => t,
                    _ => unreachable!("interior node must be a table"),
                };
            }
            let idx = level_index(page, LEVELS - 1) as u16;
            match table.get(&idx) {
                Some(Node::Leaf(_)) => return Err(PtError::AlreadyMapped(page)),
                Some(_) => unreachable!("leaf level holds only leaves"),
                None => {}
            }
            table.insert(idx, Node::Leaf(PtEntry { pfn, perms }));
            self.mapped += 1;
            Ok(())
        }

        pub fn unmap(&mut self, page: IovaPage) -> Result<PtEntry, PtError> {
            fn go(
                table: &mut HashMap<u16, Node>,
                page: IovaPage,
                level: u32,
            ) -> Result<PtEntry, PtError> {
                let idx = level_index(page, level) as u16;
                if level == LEVELS - 1 {
                    return match table.remove(&idx) {
                        Some(Node::Leaf(e)) => Ok(e),
                        Some(_) => unreachable!("leaf level holds only leaves"),
                        None => Err(PtError::NotMapped(page)),
                    };
                }
                let node = table.get_mut(&idx).ok_or(PtError::NotMapped(page))?;
                let inner = match node {
                    Node::Table(t) => t,
                    _ => unreachable!("interior node must be a table"),
                };
                let entry = go(inner, page, level + 1)?;
                if inner.is_empty() {
                    table.remove(&idx); // prune empty interior tables
                }
                Ok(entry)
            }
            let e = go(&mut self.root, page, 0)?;
            self.mapped -= 1;
            Ok(e)
        }

        pub fn translate(&self, page: IovaPage) -> Option<PtEntry> {
            let mut table = &self.root;
            for level in 0..LEVELS - 1 {
                match table.get(&(level_index(page, level) as u16))? {
                    Node::Table(t) => table = t,
                    _ => unreachable!("interior node must be a table"),
                }
            }
            match table.get(&(level_index(page, LEVELS - 1) as u16))? {
                Node::Leaf(e) => Some(*e),
                _ => unreachable!("leaf level holds only leaves"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::OracleIoPageTable;
    use super::*;
    use simcore::SimRng;

    #[test]
    fn map_translate_unmap_roundtrip() {
        let mut pt = IoPageTable::new();
        let page = IovaPage(0x1234);
        pt.map(page, Pfn(7), Perms::Write).unwrap();
        assert_eq!(
            pt.translate(page),
            Some(PtEntry {
                pfn: Pfn(7),
                perms: Perms::Write
            })
        );
        assert_eq!(pt.mapped_pages(), 1);
        let e = pt.unmap(page).unwrap();
        assert_eq!(e.pfn, Pfn(7));
        assert_eq!(pt.translate(page), None);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn double_map_rejected() {
        let mut pt = IoPageTable::new();
        let page = IovaPage(5);
        pt.map(page, Pfn(1), Perms::Read).unwrap();
        assert_eq!(
            pt.map(page, Pfn(2), Perms::Read),
            Err(PtError::AlreadyMapped(page))
        );
        // Original mapping intact.
        assert_eq!(pt.translate(page).unwrap().pfn, Pfn(1));
    }

    #[test]
    fn unmap_missing_rejected() {
        let mut pt = IoPageTable::new();
        assert_eq!(pt.unmap(IovaPage(9)), Err(PtError::NotMapped(IovaPage(9))));
    }

    #[test]
    fn distant_pages_do_not_interfere() {
        let mut pt = IoPageTable::new();
        // Pages that differ only in the top radix level.
        let a = IovaPage(0);
        let b = IovaPage(1 << 27); // top-level bit of the 36-bit page number
        pt.map(a, Pfn(1), Perms::Read).unwrap();
        pt.map(b, Pfn(2), Perms::Write).unwrap();
        assert_eq!(pt.translate(a).unwrap().pfn, Pfn(1));
        assert_eq!(pt.translate(b).unwrap().pfn, Pfn(2));
        pt.unmap(a).unwrap();
        assert_eq!(pt.translate(a), None);
        assert_eq!(pt.translate(b).unwrap().pfn, Pfn(2));
    }

    #[test]
    fn adjacent_pages_all_translate() {
        let mut pt = IoPageTable::new();
        for i in 0..512u64 {
            pt.map(IovaPage(i), Pfn(i + 100), Perms::ReadWrite).unwrap();
        }
        assert_eq!(pt.mapped_pages(), 512);
        for i in 0..512u64 {
            assert_eq!(pt.translate(IovaPage(i)).unwrap().pfn, Pfn(i + 100));
        }
    }

    #[test]
    fn full_48bit_range_addressable() {
        let mut pt = IoPageTable::new();
        let top = IovaPage((1u64 << 36) - 1); // highest page of 48-bit space
        pt.map(top, Pfn(42), Perms::ReadWrite).unwrap();
        assert_eq!(pt.translate(top).unwrap().pfn, Pfn(42));
    }

    /// Randomized map/unmap/translate against the nested-map radix: every
    /// return value — including the exact error — and the `mapped_pages`
    /// count must match at each step.
    #[test]
    fn matches_oracle_on_random_workloads() {
        let mut rng = SimRng::seed(0x9a9e);
        let mut pt = IoPageTable::new();
        let mut oracle = OracleIoPageTable::default();
        // A mix of clustered pages (sharing tables) and far-flung ones.
        let page_pool: Vec<IovaPage> = (0..48)
            .map(|i| {
                if i % 3 == 0 {
                    IovaPage(rng.below(1 << 36))
                } else {
                    IovaPage(0x4_0000 + rng.below(1024))
                }
            })
            .collect();
        for step in 0..6_000 {
            let page = page_pool[rng.below(page_pool.len() as u64) as usize];
            match rng.below(4) {
                0 | 1 => {
                    let pfn = Pfn(rng.below(1 << 24));
                    assert_eq!(
                        pt.map(page, pfn, Perms::ReadWrite),
                        oracle.map(page, pfn, Perms::ReadWrite),
                        "step {step}"
                    );
                }
                2 => assert_eq!(pt.unmap(page), oracle.unmap(page), "step {step}"),
                _ => assert_eq!(pt.translate(page), oracle.translate(page), "step {step}"),
            }
            assert_eq!(pt.mapped_pages(), oracle.mapped_pages(), "step {step}");
        }
        assert!(pt.mapped_pages() > 0, "workload must leave live mappings");
    }
}
