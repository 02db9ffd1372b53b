//! DMA API data types.

use iommu::{Iova, Perms};
use memsim::{MemError, PhysAddr, PAGE_SIZE};
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
/// (IOVA, size, direction), plus the OS buffer, which *copy* copies back
/// into and the identity engines count pages from.
///
/// The handle is **linear**: neither `Clone` nor `Copy`, and consumed by
/// `unmap`, so unmapping twice or touching it after its unmap is E0382,
/// through aliases, helpers and closures alike. What a *device* may keep
/// past the unmap is the raw [`Iova`] (`let stale = m.iova;` first), which
/// is how tests and the attack scenarios replay a stale address. Nothing
/// runs on drop (`unmap` needs a `CoreCtx`): a handle dropped while mapped
/// is a leak, reported by dmasan at teardown.
///
/// It is also **sealed**: every field but `iova` is private and
/// [`DmaMapping::issue`] is the only constructor, so an engine trusts the
/// handle it is given back, as Linux's `dma_unmap_*` do. A re-aimed `iova`
/// is what dmasan's unmap rules still catch.
///
/// Because the handle travels from `map` to `unmap` by value, it is also
/// where the driver says how much of the buffer the device filled (§5.4):
/// see [`DmaMapping::device_wrote`].
///
/// ```
/// use dma_api::{DmaBuf, DmaDirection, DmaEngine, DmaMapping, NoIommu};
/// # use memsim::{NumaDomain, NumaTopology, PhysMemory}; use simcore::{CoreCtx, CoreId, CostModel}; use std::sync::Arc;
/// # let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
/// # let (eng, mut ctx) = (NoIommu::new(mem.clone(), iommu::DeviceId(0)), CoreCtx::new(CoreId(0), Arc::new(CostModel::zero())));
/// # let buf = DmaBuf::new(mem.alloc_frame(NumaDomain(0))?.base(), 1500);
/// let mut m = eng.map(&mut ctx, buf, DmaDirection::FromDevice)?;
/// let stale = m.iova; // the address outlives the handle; the handle does not
/// m = m.device_wrote(100); // the completion length the device reported
/// eng.unmap(&mut ctx, m)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Each example below differs from that one in one line (unmapping twice,
/// reading the handle after its unmap, a struct literal, a changed length)
/// and does not compile. Stable rustdoc does not check the error code, so
/// the example above is what shows the rest of each one compiles.
///
/// ```compile_fail,E0382
/// use dma_api::{DmaBuf, DmaDirection, DmaEngine, DmaMapping, NoIommu};
/// # use memsim::{NumaDomain, NumaTopology, PhysMemory}; use simcore::{CoreCtx, CoreId, CostModel}; use std::sync::Arc;
/// # let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
/// # let (eng, mut ctx) = (NoIommu::new(mem.clone(), iommu::DeviceId(0)), CoreCtx::new(CoreId(0), Arc::new(CostModel::zero())));
/// # let buf = DmaBuf::new(mem.alloc_frame(NumaDomain(0))?.base(), 1500);
/// let mut m = eng.map(&mut ctx, buf, DmaDirection::FromDevice)?;
/// let stale = m.iova; // the address outlives the handle; the handle does not
/// m = m.device_wrote(100); // the completion length the device reported
/// eng.unmap(&mut ctx, m)?;
/// eng.unmap(&mut ctx, m)?; // error[E0382]: use of moved value: `m`
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// ```compile_fail,E0382
/// use dma_api::{DmaBuf, DmaDirection, DmaEngine, DmaMapping, NoIommu};
/// # use memsim::{NumaDomain, NumaTopology, PhysMemory}; use simcore::{CoreCtx, CoreId, CostModel}; use std::sync::Arc;
/// # let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
/// # let (eng, mut ctx) = (NoIommu::new(mem.clone(), iommu::DeviceId(0)), CoreCtx::new(CoreId(0), Arc::new(CostModel::zero())));
/// # let buf = DmaBuf::new(mem.alloc_frame(NumaDomain(0))?.base(), 1500);
/// let mut m = eng.map(&mut ctx, buf, DmaDirection::FromDevice)?;
/// let stale = m.iova; // the address outlives the handle; the handle does not
/// m = m.device_wrote(100); // the completion length the device reported
/// eng.unmap(&mut ctx, m)?;
/// assert_eq!(m.iova, stale); // error[E0382]: borrow of moved value: `m`
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// ```compile_fail,E0451
/// use dma_api::{DmaBuf, DmaDirection, DmaEngine, DmaMapping, NoIommu};
/// # use memsim::{NumaDomain, NumaTopology, PhysMemory}; use simcore::{CoreCtx, CoreId, CostModel}; use std::sync::Arc;
/// # let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
/// # let (eng, mut ctx) = (NoIommu::new(mem.clone(), iommu::DeviceId(0)), CoreCtx::new(CoreId(0), Arc::new(CostModel::zero())));
/// # let buf = DmaBuf::new(mem.alloc_frame(NumaDomain(0))?.base(), 1500);
/// let mut m = DmaMapping { iova: iommu::Iova::new(buf.pa.get()), len: buf.len, dir: DmaDirection::FromDevice, os_pa: buf.pa, wrote: buf.len }; // error[E0451]
/// let stale = m.iova; // the address outlives the handle; the handle does not
/// m = m.device_wrote(100); // the completion length the device reported
/// eng.unmap(&mut ctx, m)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// ```compile_fail,E0616
/// use dma_api::{DmaBuf, DmaDirection, DmaEngine, DmaMapping, NoIommu};
/// # use memsim::{NumaDomain, NumaTopology, PhysMemory}; use simcore::{CoreCtx, CoreId, CostModel}; use std::sync::Arc;
/// # let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
/// # let (eng, mut ctx) = (NoIommu::new(mem.clone(), iommu::DeviceId(0)), CoreCtx::new(CoreId(0), Arc::new(CostModel::zero())));
/// # let buf = DmaBuf::new(mem.alloc_frame(NumaDomain(0))?.base(), 1500);
/// let mut m = eng.map(&mut ctx, buf, DmaDirection::FromDevice)?;
/// let stale = m.iova; // the address outlives the handle; the handle does not
/// m.len = 0; // error[E0616]: field `len` of struct `DmaMapping` is private
/// eng.unmap(&mut ctx, m)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use = "a mapping dropped without `unmap` stays device-reachable"]
#[derive(Debug, PartialEq, Eq)]
pub struct DmaMapping {
    /// The device-visible address of the buffer.
    pub iova: Iova,
    len: usize,
    dir: DmaDirection,
    os_pa: PhysAddr,
    wrote: usize,
}

impl DmaMapping {
    /// The handle `dma_map` returns for `buf` mapped at `iova` in direction
    /// `dir`: the only way to make one. Public, as the engines live in two
    /// crates; the seal rules out a handle built or edited field by field.
    pub fn issue(iova: Iova, buf: DmaBuf, dir: DmaDirection) -> Self {
        DmaMapping {
            iova,
            len: buf.len,
            dir,
            os_pa: buf.pa,
            wrote: buf.len,
        }
    }

    /// The OS buffer this mapping was issued for.
    pub fn buf(&self) -> DmaBuf {
        DmaBuf {
            pa: self.os_pa,
            len: self.len,
        }
    }

    /// Direction the mapping was established with.
    pub fn dir(&self) -> DmaDirection {
        self.dir
    }

    /// Bytes the device wrote, as [`DmaMapping::device_wrote`] recorded them.
    pub fn wrote(&self) -> usize {
        self.wrote
    }

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
/// Linear and sealed like [`DmaMapping`]: a second free (or a ring access
/// through a freed handle) is E0382, and only an engine's `alloc_coherent`
/// makes one. `iova` and `pa` stay public fields.
///
/// ```
/// use dma_api::{CoherentBuffer, DmaEngine, NoIommu};
/// # use memsim::{NumaTopology, PhysMemory}; use simcore::{CoreCtx, CoreId, CostModel}; use std::sync::Arc;
/// # let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
/// # let (eng, mut ctx) = (NoIommu::new(mem.clone(), iommu::DeviceId(0)), CoreCtx::new(CoreId(0), Arc::new(CostModel::zero())));
/// let ring = eng.alloc_coherent(&mut ctx, 4096)?;
/// eng.free_coherent(&mut ctx, ring)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Each example below differs from that one in one line (a second free, a
/// struct literal) and does not compile.
///
/// ```compile_fail,E0382
/// use dma_api::{CoherentBuffer, DmaEngine, NoIommu};
/// # use memsim::{NumaTopology, PhysMemory}; use simcore::{CoreCtx, CoreId, CostModel}; use std::sync::Arc;
/// # let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
/// # let (eng, mut ctx) = (NoIommu::new(mem.clone(), iommu::DeviceId(0)), CoreCtx::new(CoreId(0), Arc::new(CostModel::zero())));
/// let ring = eng.alloc_coherent(&mut ctx, 4096)?;
/// eng.free_coherent(&mut ctx, ring)?;
/// eng.free_coherent(&mut ctx, ring)?; // error[E0382]: use of moved value: `ring`
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// ```compile_fail,E0451
/// use dma_api::{CoherentBuffer, DmaEngine, NoIommu};
/// # use memsim::{NumaTopology, PhysMemory}; use simcore::{CoreCtx, CoreId, CostModel}; use std::sync::Arc;
/// # let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
/// # let (eng, mut ctx) = (NoIommu::new(mem.clone(), iommu::DeviceId(0)), CoreCtx::new(CoreId(0), Arc::new(CostModel::zero())));
/// let ring = CoherentBuffer { iova: iommu::Iova::new(0x1000), pa: memsim::PhysAddr(0x1000), len: 4096 }; // error[E0451]
/// eng.free_coherent(&mut ctx, ring)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use = "a coherent buffer dropped without `free_coherent` stays mapped"]
#[derive(Debug, PartialEq, Eq)]
pub struct CoherentBuffer {
    /// Device-visible address.
    pub iova: Iova,
    /// CPU-visible physical address.
    pub pa: PhysAddr,
    len: usize,
}

impl CoherentBuffer {
    pub(crate) fn new(iova: Iova, pa: PhysAddr, len: usize) -> Self {
        CoherentBuffer { iova, pa, len }
    }

    /// Usable length in bytes: the `size` passed to `dma_alloc_coherent`.
    pub fn size(&self) -> usize {
        self.len
    }

    /// Pages backing the buffer.
    pub fn pages(&self) -> u64 {
        self.len.div_ceil(PAGE_SIZE) as u64
    }
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
    /// The device's IOVA space (or a pool's metadata space) is exhausted.
    IovaExhausted,
}

impl fmt::Display for DmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmaError::Mem(e) => write!(f, "memory: {e}"),
            DmaError::Iommu(e) => write!(f, "iommu: {e}"),
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
        assert_eq!(DmaError::IovaExhausted.to_string(), "IOVA space exhausted");
    }
}
