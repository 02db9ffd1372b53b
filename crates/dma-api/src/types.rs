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
///
/// The handle is **linear**: it is neither `Clone` nor `Copy`,
/// [`crate::DmaEngine::map`] is what issues one, and `unmap` consumes it by
/// value. Unmapping twice, or touching the handle after its unmap, is
/// therefore a use of a moved value — rustc error E0382, through aliases,
/// helpers and closures alike — not a rule some later checker has to
/// re-derive. What a *device* may keep past the unmap is the raw [`Iova`]
/// (`let stale = m.iova;` before the unmap), which is how tests and the
/// attack scenarios replay a stale address. The fields stay public, so a
/// handle the engine never issued can still be written out as a struct
/// literal — forging is explicit, never an accident — and such handles are
/// what dmasan and each engine's [`DmaError::BadUnmap`] exist to catch.
/// Nothing runs on drop (`unmap` needs a `CoreCtx` to charge): a handle
/// dropped while mapped is a leak, reported by dmasan at teardown.
///
/// Because the handle travels from `map` to `unmap` by value, it is also
/// where the driver says how much of the buffer the device filled (§5.4):
/// see [`DmaMapping::device_wrote`].
///
/// ```
/// use dma_api::{DmaBuf, DmaDirection, DmaEngine, NoIommu};
/// # use memsim::{NumaDomain, NumaTopology, PhysMemory};
/// # use simcore::{CoreCtx, CoreId, CostModel};
/// # use std::sync::Arc;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
/// # let eng = NoIommu::new(mem.clone(), iommu::DeviceId(0));
/// # let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
/// # let buf = DmaBuf::new(mem.alloc_frame(NumaDomain(0))?.base(), 1500);
/// let m = eng.map(&mut ctx, buf, DmaDirection::FromDevice)?;
/// let stale = m.iova; // the address outlives the handle; the handle does not
/// eng.unmap(&mut ctx, m)?;
/// # let _ = stale;
/// # Ok(())
/// # }
/// ```
///
/// The same code unmapping twice does not compile:
///
/// ```compile_fail,E0382
/// use dma_api::{DmaBuf, DmaDirection, DmaEngine, NoIommu};
/// # use memsim::{NumaDomain, NumaTopology, PhysMemory};
/// # use simcore::{CoreCtx, CoreId, CostModel};
/// # use std::sync::Arc;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
/// # let eng = NoIommu::new(mem.clone(), iommu::DeviceId(0));
/// # let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
/// # let buf = DmaBuf::new(mem.alloc_frame(NumaDomain(0))?.base(), 1500);
/// let m = eng.map(&mut ctx, buf, DmaDirection::FromDevice)?;
/// eng.unmap(&mut ctx, m)?;
/// eng.unmap(&mut ctx, m)?; // error[E0382]: use of moved value: `m`
/// # Ok(())
/// # }
/// ```
///
/// Nor does reading the handle after its unmap:
///
/// ```compile_fail,E0382
/// use dma_api::{DmaBuf, DmaDirection, DmaEngine, NoIommu};
/// # use memsim::{NumaDomain, NumaTopology, PhysMemory};
/// # use simcore::{CoreCtx, CoreId, CostModel};
/// # use std::sync::Arc;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
/// # let eng = NoIommu::new(mem.clone(), iommu::DeviceId(0));
/// # let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
/// # let buf = DmaBuf::new(mem.alloc_frame(NumaDomain(0))?.base(), 1500);
/// let m = eng.map(&mut ctx, buf, DmaDirection::FromDevice)?;
/// eng.unmap(&mut ctx, m)?;
/// let stale = m.iova; // error[E0382]: use of moved value: `m`
/// # let _ = stale;
/// # Ok(())
/// # }
/// ```
#[must_use = "a mapping dropped without `unmap` stays device-reachable"]
#[derive(Debug, PartialEq, Eq)]
pub struct DmaMapping {
    /// The device-visible address of the buffer.
    pub iova: Iova,
    /// Mapped length in bytes.
    pub len: usize,
    /// Direction the mapping was established with.
    pub dir: DmaDirection,
    /// The OS buffer backing this mapping.
    pub os_pa: PhysAddr,
    /// Bytes the device is known to have written, from the buffer's start:
    /// `len` as issued by `map`, less once the driver has called
    /// [`DmaMapping::device_wrote`]. Device-controlled, so an engine that
    /// acts on it clamps it to `len`.
    pub wrote: usize,
}

impl DmaMapping {
    /// Records the completion length the device wrote back for this buffer
    /// (§5.4's copying hint): *copy* then moves `n` bytes out of the shadow
    /// at `unmap`, not all `len`, and the OS buffer's tail is never
    /// written. The engines that map the OS buffer itself ignore it. `n`
    /// comes off a device-written descriptor and is passed as read; the
    /// clamp to `len` is the engine's. The Linux analogue is the `size` a
    /// driver passes to `dma_sync_single_for_cpu`.
    pub fn device_wrote(self, n: usize) -> Self {
        DmaMapping { wrote: n, ..self }
    }
}

/// A buffer allocated with `dma_alloc_coherent` (§2.2): permanently mapped,
/// page-quantity memory shared between driver and device (descriptor rings,
/// mailboxes).
///
/// Linear like [`DmaMapping`]: `free_coherent` consumes the handle, so a
/// second free (or a ring access through a freed handle) is E0382.
///
/// ```
/// use dma_api::{DmaEngine, NoIommu};
/// # use memsim::{NumaTopology, PhysMemory};
/// # use simcore::{CoreCtx, CoreId, CostModel};
/// # use std::sync::Arc;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
/// # let eng = NoIommu::new(mem.clone(), iommu::DeviceId(0));
/// # let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
/// let ring = eng.alloc_coherent(&mut ctx, 4096)?;
/// eng.free_coherent(&mut ctx, ring)?;
/// # Ok(())
/// # }
/// ```
///
/// ```compile_fail,E0382
/// use dma_api::{DmaEngine, NoIommu};
/// # use memsim::{NumaTopology, PhysMemory};
/// # use simcore::{CoreCtx, CoreId, CostModel};
/// # use std::sync::Arc;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
/// # let eng = NoIommu::new(mem.clone(), iommu::DeviceId(0));
/// # let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
/// let ring = eng.alloc_coherent(&mut ctx, 4096)?;
/// eng.free_coherent(&mut ctx, ring)?;
/// eng.free_coherent(&mut ctx, ring)?; // error[E0382]: use of moved value: `ring`
/// # Ok(())
/// # }
/// ```
#[must_use = "a coherent buffer dropped without `free_coherent` stays mapped"]
#[derive(Debug, PartialEq, Eq)]
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
