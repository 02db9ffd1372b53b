//! Physical addresses and page frames.

// lint: allow(panic) — address-overflow invariants are constructor contracts, documented under # Panics

use std::fmt;

/// Size of a physical page / IOMMU mapping granule, 4 KB.
pub const PAGE_SIZE: usize = 4096;
/// `log2(PAGE_SIZE)`.
pub const PAGE_SHIFT: u32 = 12;

/// A byte address in the simulated physical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Creates a physical address.
    pub const fn new(a: u64) -> Self {
        PhysAddr(a)
    }

    /// Raw address value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The frame containing this address.
    pub const fn pfn(self) -> Pfn {
        Pfn(self.0 >> PAGE_SHIFT)
    }

    /// Byte offset within the containing frame.
    pub const fn page_offset(self) -> usize {
        (self.0 & (PAGE_SIZE as u64 - 1)) as usize
    }

    /// Whether the address is page-aligned.
    pub const fn is_page_aligned(self) -> bool {
        self.0 & (PAGE_SIZE as u64 - 1) == 0
    }

    /// Address advanced by `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics on address-space overflow.
    #[allow(clippy::should_implement_trait)] // `add` mirrors pointer::add
    pub fn add(self, n: u64) -> PhysAddr {
        PhysAddr(self.0.checked_add(n).expect("physical address overflow"))
    }

    /// Rounds down to the page boundary.
    pub const fn page_base(self) -> PhysAddr {
        PhysAddr(self.0 & !(PAGE_SIZE as u64 - 1))
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pa:{:#x}", self.0)
    }
}

/// A page frame number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pfn(pub u64);

impl Pfn {
    /// Creates a page frame number.
    pub const fn new(n: u64) -> Self {
        Pfn(n)
    }

    /// Raw frame number.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The base physical address of this frame.
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }

    /// The frame `n` frames after this one.
    #[allow(clippy::should_implement_trait)] // `add` mirrors pointer::add
    pub fn add(self, n: u64) -> Pfn {
        Pfn(self.0.checked_add(n).expect("pfn overflow"))
    }
}

impl fmt::Display for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn:{:#x}", self.0)
    }
}

/// Number of pages needed to hold `bytes` bytes.
pub(crate) fn pages_for(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(PAGE_SIZE as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pfn_and_offset() {
        let pa = PhysAddr(0x12345);
        assert_eq!(pa.pfn(), Pfn(0x12));
        assert_eq!(pa.page_offset(), 0x345);
        assert_eq!(pa.page_base(), PhysAddr(0x12000));
        assert!(!pa.is_page_aligned());
        assert!(pa.page_base().is_page_aligned());
    }

    #[test]
    fn pfn_base_roundtrip() {
        let pfn = Pfn(7);
        assert_eq!(pfn.base(), PhysAddr(7 * 4096));
        assert_eq!(pfn.base().pfn(), pfn);
        assert_eq!(pfn.add(3), Pfn(10));
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(4096), 1);
        assert_eq!(pages_for(4097), 2);
        assert_eq!(pages_for(65536), 16);
    }

    #[test]
    fn display() {
        assert_eq!(PhysAddr(0x1000).to_string(), "pa:0x1000");
        assert_eq!(Pfn(1).to_string(), "pfn:0x1");
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn add_overflow_panics() {
        PhysAddr(u64::MAX).add(1);
    }
}
