//! Shared implementation of `dma_alloc_coherent`/`dma_free_coherent` for
//! the IOMMU-backed engines.
//!
//! Coherent buffers are allocated in page quantities (so their pages are
//! never shared with other data — §5.2 notes this already gives byte-level
//! protection) and mapped read-write with strict unmap semantics.

use crate::{CoherentBuffer, DmaError};
use iommu::{DeviceId, Iommu, IovaPage, Perms};
use memsim::{PhysMemory, PAGE_SIZE};
use simcore::CoreCtx;
use std::sync::Arc;

/// Coherent-buffer helper shared by the IOMMU-backed engines; the engine
/// supplies the IOVA placement policy.
#[derive(Debug, Clone)]
pub struct CoherentHelper {
    mem: Arc<PhysMemory>,
    mmu: Arc<Iommu>,
    dev: DeviceId,
}

impl CoherentHelper {
    /// Creates a helper for `dev`.
    pub fn new(mem: Arc<PhysMemory>, mmu: Arc<Iommu>, dev: DeviceId) -> Self {
        CoherentHelper { mem, mmu, dev }
    }

    /// Allocates `len` bytes of coherent memory on the calling core's NUMA
    /// domain and maps it read-write at the IOVA chosen by `place`
    /// (called with the number of pages and the first allocated frame).
    pub fn alloc(
        &self,
        ctx: &mut CoreCtx,
        len: usize,
        place: impl FnOnce(&mut CoreCtx, u64, memsim::Pfn) -> Result<IovaPage, DmaError>,
    ) -> Result<CoherentBuffer, DmaError> {
        assert!(len > 0, "zero-length coherent allocation");
        let pages = (len as u64).div_ceil(PAGE_SIZE as u64);
        let domain = self.mem.topology().domain_of_core(ctx.core);
        let pfn = self.mem.alloc_frames(domain, pages)?;
        let iova_page = place(ctx, pages, pfn)?;
        self.mmu
            .map_range(ctx, self.dev, iova_page, pfn, pages, Perms::ReadWrite)?;
        Ok(CoherentBuffer::new(iova_page.base(), pfn.base(), len))
    }

    /// Unmaps (with strict, synchronous invalidation) and frees a coherent
    /// buffer; `unplace` releases the IOVA range if the engine allocated
    /// one.
    pub fn free(
        &self,
        ctx: &mut CoreCtx,
        buf: CoherentBuffer,
        unplace: impl FnOnce(&mut CoreCtx, IovaPage, u64),
    ) -> Result<(), DmaError> {
        let (first, n) = (buf.iova.page(), buf.pages());
        let pages: Vec<IovaPage> = (0..n).map(|i| first.add(i)).collect();
        for &p in &pages {
            self.mmu.unmap_page_nosync(ctx, self.dev, p)?;
        }
        self.mmu.invalidate_pages_sync(ctx, self.dev, &pages);
        self.mem.free_frames(buf.pa.pfn(), n)?;
        unplace(ctx, first, n);
        Ok(())
    }
}
