//! DMA API data types.

use iommu::{Iova, Perms};
use memsim::{MemError, PhysAddr};
use std::fmt;

/// DMA direction from the CPU's point of view, exactly the Linux DMA API
/// directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmaDirection {
    /// CPU → device (the device will *read* the buffer, e.g. TX packets).
    ToDevice,
    /// Device → CPU (the device will *write* the buffer, e.g. RX packets).
    FromDevice,
    /// Both directions.
    Bidirectional,
}

impl DmaDirection {
    /// The device access rights this direction requires.
    pub fn perms(self) -> Perms {
        match self {
            DmaDirection::ToDevice => Perms::Read,
            DmaDirection::FromDevice => Perms::Write,
            DmaDirection::Bidirectional => Perms::ReadWrite,
        }
    }

    /// Whether the device may read the buffer (so `dma_map` must copy
    /// OS → shadow under DMA shadowing).
    pub fn device_reads(self) -> bool {
        matches!(self, DmaDirection::ToDevice | DmaDirection::Bidirectional)
    }

    /// Whether the device may write the buffer (so `dma_unmap` must copy
    /// shadow → OS under DMA shadowing).
    pub fn device_writes(self) -> bool {
        matches!(self, DmaDirection::FromDevice | DmaDirection::Bidirectional)
    }
}

impl fmt::Display for DmaDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmaDirection::ToDevice => f.write_str("to-device"),
            DmaDirection::FromDevice => f.write_str("from-device"),
            DmaDirection::Bidirectional => f.write_str("bidirectional"),
        }
    }
}

/// An OS-allocated DMA buffer handed to `dma_map`: a physical address and a
/// byte length. Typically comes from `kmalloc`, so it may share its first
/// and last pages with unrelated data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaBuf {
    /// Start of the buffer in physical memory.
    pub pa: PhysAddr,
    /// Length in bytes.
    pub len: usize,
}

impl DmaBuf {
    /// Creates a buffer descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(pa: PhysAddr, len: usize) -> Self {
        assert!(len > 0, "zero-length DMA buffer");
        DmaBuf { pa, len }
    }

    /// Number of IOVA/physical pages the buffer touches.
    pub fn pages(&self) -> u64 {
        let start = self.pa.get() >> memsim::PAGE_SHIFT;
        let end = (self.pa.get() + self.len as u64 - 1) >> memsim::PAGE_SHIFT;
        end - start + 1
    }
}

/// A live DMA mapping returned by `dma_map`; the token `dma_unmap` takes.
///
/// Mirrors the information a Linux driver passes to `dma_unmap_single`
/// (IOVA, size, direction); `os_pa` additionally records the OS buffer so
/// engines can verify their reverse lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaMapping {
    /// The device-visible address of the buffer.
    pub iova: Iova,
    /// Mapped length in bytes.
    pub len: usize,
    /// Direction the mapping was established with.
    pub dir: DmaDirection,
    /// The OS buffer backing this mapping.
    pub os_pa: PhysAddr,
}

/// A buffer allocated with `dma_alloc_coherent` (§2.2): permanently mapped,
/// page-quantity memory shared between driver and device (descriptor rings,
/// mailboxes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherentBuffer {
    /// Device-visible address.
    pub iova: Iova,
    /// CPU-visible physical address.
    pub pa: PhysAddr,
    /// Usable length in bytes.
    pub len: usize,
    /// Pages backing the buffer.
    pub pages: u64,
}

/// The qualitative security/performance properties of an engine — the rows
/// of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtectionProfile {
    /// Human-readable engine name as used in the paper's figures.
    pub name: &'static str,
    /// Whether the IOMMU restricts the device at all.
    pub uses_iommu: bool,
    /// Whether protection is byte-granular (true only for DMA shadowing).
    pub sub_page: bool,
    /// Whether there is **no** window in which the device can access
    /// unmapped buffers (strict protection).
    pub no_vulnerability_window: bool,
}

impl ProtectionProfile {
    /// Renders the Table 1 check marks: (iommu, sub-page, no-window).
    pub fn marks(&self) -> (char, char, char) {
        let m = |b: bool| if b { '+' } else { '-' };
        (
            m(self.uses_iommu),
            m(self.sub_page),
            m(self.no_vulnerability_window),
        )
    }
}

/// Errors from DMA API operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DmaError {
    /// Physical memory exhausted or misused.
    Mem(MemError),
    /// An IOMMU management operation failed.
    Iommu(iommu::IommuError),
    /// `dma_unmap` was called with an IOVA that is not mapped.
    BadUnmap(Iova),
    /// The device's IOVA space (or a pool's metadata space) is exhausted.
    IovaExhausted,
}

impl fmt::Display for DmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmaError::Mem(e) => write!(f, "memory: {e}"),
            DmaError::Iommu(e) => write!(f, "iommu: {e}"),
            DmaError::BadUnmap(iova) => write!(f, "unmap of unknown mapping {iova}"),
            DmaError::IovaExhausted => f.write_str("IOVA space exhausted"),
        }
    }
}

impl std::error::Error for DmaError {}

impl From<MemError> for DmaError {
    fn from(e: MemError) -> Self {
        DmaError::Mem(e)
    }
}

impl From<iommu::IommuError> for DmaError {
    fn from(e: iommu::IommuError) -> Self {
        DmaError::Iommu(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_perms() {
        assert_eq!(DmaDirection::ToDevice.perms(), Perms::Read);
        assert_eq!(DmaDirection::FromDevice.perms(), Perms::Write);
        assert_eq!(DmaDirection::Bidirectional.perms(), Perms::ReadWrite);
    }

    #[test]
    fn direction_copy_requirements() {
        assert!(DmaDirection::ToDevice.device_reads());
        assert!(!DmaDirection::ToDevice.device_writes());
        assert!(!DmaDirection::FromDevice.device_reads());
        assert!(DmaDirection::FromDevice.device_writes());
        assert!(DmaDirection::Bidirectional.device_reads());
        assert!(DmaDirection::Bidirectional.device_writes());
    }

    #[test]
    fn dmabuf_page_count() {
        assert_eq!(DmaBuf::new(PhysAddr(0), 1).pages(), 1);
        assert_eq!(DmaBuf::new(PhysAddr(0), 4096).pages(), 1);
        assert_eq!(DmaBuf::new(PhysAddr(0), 4097).pages(), 2);
        // Unaligned 1500-byte buffer near a page end spans two pages.
        assert_eq!(DmaBuf::new(PhysAddr(4000), 1500).pages(), 2);
        assert_eq!(DmaBuf::new(PhysAddr(4096), 65536).pages(), 16);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_len_buf_panics() {
        DmaBuf::new(PhysAddr(0), 0);
    }

    #[test]
    fn profile_marks() {
        let p = ProtectionProfile {
            name: "copy",
            uses_iommu: true,
            sub_page: true,
            no_vulnerability_window: true,
        };
        assert_eq!(p.marks(), ('+', '+', '+'));
    }

    #[test]
    fn error_display() {
        let e = DmaError::BadUnmap(Iova(0x1000));
        assert!(e.to_string().contains("0x1000"));
        assert_eq!(DmaError::IovaExhausted.to_string(), "IOVA space exhausted");
    }
}
