//! Shared implementation of `dma_alloc_coherent`/`dma_free_coherent` for
//! the IOMMU-backed engines.
//!
//! Coherent buffers are allocated in page quantities (so their pages are
//! never shared with other data — §5.2 notes this already gives byte-level
//! protection) and mapped read-write with strict unmap semantics.

use crate::{CoherentBuffer, DmaError};
use iommu::{DeviceId, Iommu, IovaPage, Perms};
use memsim::{Pfn, PhysMemory, PAGE_SIZE};
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
    /// On an error nothing is left behind: the frames are freed, and a
    /// placed range the map failed on goes back through `unplace`.
    pub fn alloc(
        &self,
        ctx: &mut CoreCtx,
        len: usize,
        place: impl FnOnce(&mut CoreCtx, u64, Pfn) -> Result<IovaPage, DmaError>,
        unplace: impl FnOnce(&mut CoreCtx, IovaPage, u64),
    ) -> Result<CoherentBuffer, DmaError> {
        assert!(len > 0, "zero-length coherent allocation");
        let pages = (len as u64).div_ceil(PAGE_SIZE as u64);
        let domain = self.mem.topology().domain_of_core(ctx.core);
        let pfn = self.mem.alloc_frames(domain, pages)?;
        let mapped = place(ctx, pages, pfn).and_then(|iova_page| {
            // All or nothing: a failed map installed no PTE.
            self.mmu
                .map_range(ctx, self.dev, iova_page, pfn, pages, Perms::ReadWrite)
                .map(|()| iova_page)
                .map_err(|e| {
                    unplace(ctx, iova_page, pages);
                    DmaError::from(e)
                })
        });
        match mapped {
            Ok(iova_page) => Ok(CoherentBuffer::new(iova_page.base(), pfn.base(), len)),
            Err(e) => {
                self.mem.free_frames(pfn, pages)?;
                Err(e)
            }
        }
    }

    /// Unmaps (with strict, synchronous invalidation) and frees a coherent
    /// buffer; `unplace` releases the IOVA range if the engine allocated
    /// one. A page found unmapped does not stop it: every page's PTE and
    /// IOTLB entry is gone and everything is released before the first
    /// such page is returned as the error.
    pub fn free(
        &self,
        ctx: &mut CoreCtx,
        buf: CoherentBuffer,
        unplace: impl FnOnce(&mut CoreCtx, IovaPage, u64),
    ) -> Result<(), DmaError> {
        let (first, n) = (buf.iova.page(), buf.pages());
        let unmapped = self.mmu.unmap_range_nosync(ctx, self.dev, first, n);
        self.mmu.invalidate_range_sync(ctx, self.dev, first, n);
        self.mem.free_frames(buf.pa.pfn(), n)?;
        unplace(ctx, first, n);
        unmapped.map_err(DmaError::from)
    }
}
