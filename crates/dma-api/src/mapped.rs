//! The zero-copy engines: one [`MappedDma`] core over an (IOVA policy,
//! invalidation policy) pair.
//!
//! The paper's Table 1 / §2.2.1 separates the zero-copy schemes on exactly
//! two axes. **Where the IOVA comes from** ([`IovaPolicy`]): identity
//! placement (Peleg et al., ATC'15 \[42\] — IOVA = PA, no allocator at
//! all) or an [`IovaAllocator`] (stock Linux's tree, EiovaR's cached tree
//! \[38\], per-core magazines \[42\]). **When the IOTLB entry dies**
//! ([`InvalPolicy`]): synchronously per unmap, deferred in a
//! 250-entry / 10 ms batch, or by self-destructing hardware (Basu et al.
//! \[10\], the §7 ablation). Every named engine of the figures is one pair.
//!
//! Protection is page-granular whatever the pair (the paper's sub-page
//! argument, §4), which is why none of them earns Table 1's "sub-page
//! protect" mark.

use crate::flush::PendingUnmap;
use crate::{
    CoherentBuffer, CoherentHelper, DeferredFlusher, DmaBuf, DmaDirection, DmaEngine, DmaError,
    DmaMapping, IovaAllocator, ProtectionProfile,
};
use iommu::{DeviceId, Iommu, IommuError, IovaPage, Perms, PtError};
use memsim::PhysMemory;
use simcore::sync::Mutex;
use simcore::{CoreCtx, FxHashMap};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// The list [`MappedDma::revoke`] gathers dead pages in, taken and put
    /// back by every unmap so unmapping allocates nothing. Thread-local
    /// rather than a locked field: an engine is shared by host threads, and
    /// a host lock held across the invalidation would span the queue-lock
    /// acquisition (a model-checker preemption point).
    static DEAD_PAGES: Cell<Vec<IovaPage>> = const { Cell::new(Vec::new()) };
}

/// Where a mapping's IOVA comes from — which also decides the PTE
/// permissions and where coherent buffers are placed.
pub enum IovaPolicy {
    /// IOVA = physical address. kmalloc can co-locate several DMA buffers
    /// on one page, possibly mapped in both directions at once, so pages
    /// are refcounted (the map: page → live mappings) and share one
    /// read-write PTE.
    Identity(Mutex<FxHashMap<u64, u32>>),
    /// IOVA ranges come from an allocator and carry the mapping's own
    /// direction permissions.
    Allocated(Box<dyn IovaAllocator + Send + Sync>),
}

impl IovaPolicy {
    /// Identity placement with no page referenced yet.
    pub fn identity() -> Self {
        IovaPolicy::Identity(Mutex::default())
    }

    /// Placement by `allocator`.
    pub fn allocated(allocator: impl IovaAllocator + Send + Sync + 'static) -> Self {
        IovaPolicy::Allocated(Box::new(allocator))
    }

    /// Claims `page` for one more mapping; `true` if the caller must
    /// install its PTE.
    fn retain(&self, page: IovaPage) -> bool {
        match self {
            IovaPolicy::Identity(refs) => {
                let mut refs = refs.lock();
                let count = refs.entry(page.0).or_insert(0);
                *count += 1;
                *count == 1
            }
            IovaPolicy::Allocated(_) => true,
        }
    }

    /// Drops one mapping's claim on `page`; `true` if the caller must
    /// remove its PTE. An identity page nothing claims is not mapped.
    fn release(&self, page: IovaPage) -> Result<bool, IommuError> {
        match self {
            IovaPolicy::Identity(refs) => {
                let mut refs = refs.lock();
                let count = refs
                    .get_mut(&page.0)
                    .ok_or(IommuError::PageTable(PtError::NotMapped(page)))?;
                *count -= 1;
                let dead = *count == 0;
                if dead {
                    refs.remove(&page.0);
                }
                Ok(dead)
            }
            IovaPolicy::Allocated(_) => Ok(true),
        }
    }
}

/// When an unmapped page's IOTLB entry dies.
#[allow(clippy::large_enum_variant)] // one per engine, built once, never moved in bulk
pub enum InvalPolicy {
    /// `dma_unmap` posts the invalidation and waits for it.
    Strict,
    /// `dma_unmap` appends to the flusher's pending list(s) — one global
    /// list or one per core, the flusher's [`crate::FlushScope`] — and one
    /// domain-selective flush retires a whole batch. Allocated IOVA ranges
    /// become reusable only after that flush.
    Deferred(DeferredFlusher),
    /// The entry self-destructs the moment `dma_unmap` runs: no queue, no
    /// wait, no CPU cost — the hardware proposal's best case.
    Hardware,
}

/// A zero-copy DMA engine: `dma_map` installs page-table entries for the
/// OS buffer itself, `dma_unmap` removes them, and the policy pair decides
/// the rest.
pub struct MappedDma {
    name: &'static str,
    mmu: Arc<Iommu>,
    dev: DeviceId,
    iova: IovaPolicy,
    inval: InvalPolicy,
    coherent: CoherentHelper,
}

impl MappedDma {
    /// Creates the engine the paper's figures call `name` from its policy
    /// pair.
    pub fn new(
        name: &'static str,
        mem: Arc<PhysMemory>,
        mmu: Arc<Iommu>,
        dev: DeviceId,
        iova: IovaPolicy,
        inval: InvalPolicy,
    ) -> Self {
        MappedDma {
            name,
            coherent: CoherentHelper::new(mem, mmu.clone(), dev),
            mmu,
            dev,
            iova,
            inval,
        }
    }

    /// Removes the first `installed` pages of the `span`-page range at
    /// `first` from the page table, applies the invalidation policy to the
    /// pages whose PTE died, and releases the range (at once, or after the
    /// deferred flush). `dma_unmap` revokes a whole mapping
    /// (`installed == span`); a failed `dma_map` rolls back a prefix.
    fn revoke(
        &self,
        ctx: &mut CoreCtx,
        first: IovaPage,
        installed: u64,
        span: u64,
    ) -> Result<(), DmaError> {
        let mut dead = DEAD_PAGES.take();
        dead.clear();
        for i in 0..installed {
            let page = first.add(i);
            if self.iova.release(page)? {
                self.mmu.unmap_page_nosync(ctx, self.dev, page)?;
                dead.push(page);
            }
        }
        let flusher = match &self.inval {
            InvalPolicy::Strict => {
                self.mmu.invalidate_pages_sync(ctx, self.dev, &dead);
                None
            }
            InvalPolicy::Hardware => {
                for &page in &dead {
                    self.mmu.invalidate_page_hw(self.dev, page);
                }
                None
            }
            InvalPolicy::Deferred(flusher) => Some(flusher),
        };
        match (&self.iova, flusher) {
            (IovaPolicy::Allocated(allocator), None) => allocator.free(ctx, first, span),
            // One entry per mapping: the drain frees the range it names.
            (IovaPolicy::Allocated(_), Some(flusher)) => flusher.defer(
                ctx,
                PendingUnmap {
                    page: first,
                    pages: span,
                },
                |ctx, batch| self.drain(ctx, batch),
            ),
            (IovaPolicy::Identity(_), Some(flusher)) => {
                for &page in &dead {
                    flusher.defer(ctx, PendingUnmap { page, pages: 1 }, |ctx, batch| {
                        self.drain(ctx, batch)
                    });
                }
            }
            (IovaPolicy::Identity(_), None) => {}
        }
        DEAD_PAGES.set(dead);
        Ok(())
    }

    /// Retires a deferred batch: one domain-selective flush, after which
    /// (and only then) allocated ranges are reusable.
    fn drain(&self, ctx: &mut CoreCtx, batch: &[PendingUnmap]) {
        self.mmu.flush_device_sync(ctx, self.dev);
        if let IovaPolicy::Allocated(allocator) = &self.iova {
            for e in batch {
                allocator.free(ctx, e.page, e.pages);
            }
        }
    }
}

impl DmaEngine for MappedDma {
    fn name(&self) -> &'static str {
        self.name
    }

    fn device(&self) -> DeviceId {
        self.dev
    }

    fn profile(&self) -> ProtectionProfile {
        ProtectionProfile {
            name: self.name,
            uses_iommu: true,
            sub_page: false,
            no_vulnerability_window: match self.inval {
                InvalPolicy::Strict | InvalPolicy::Hardware => true,
                InvalPolicy::Deferred(_) => false,
            },
        }
    }

    fn map(
        &self,
        ctx: &mut CoreCtx,
        buf: DmaBuf,
        dir: DmaDirection,
    ) -> Result<DmaMapping, DmaError> {
        let pages = buf.pages();
        let pfn = buf.pa.pfn();
        let (first, perms) = match &self.iova {
            IovaPolicy::Identity(_) => (IovaPage(pfn.get()), Perms::ReadWrite),
            IovaPolicy::Allocated(allocator) => (allocator.alloc(ctx, pages)?, dir.perms()),
        };
        for i in 0..pages {
            let page = first.add(i);
            if !self.iova.retain(page) {
                continue;
            }
            if let Err(e) = self.mmu.map_page(ctx, self.dev, page, pfn.add(i), perms) {
                // Page `i` took a claim but owns no PTE; the `i` pages
                // before it are fully installed. Undo both, so the error
                // leaves no refcount, PTE or IOVA range behind.
                let _ = self.iova.release(page);
                let _ = self.revoke(ctx, first, i, pages);
                return Err(e.into());
            }
        }
        let iova = first.base().add(buf.pa.page_offset() as u64);
        Ok(DmaMapping::issue(iova, buf, dir))
    }

    fn unmap(&self, ctx: &mut CoreCtx, mapping: DmaMapping) -> Result<(), DmaError> {
        // The IOVA keeps the buffer's page offset: the span `map` placed.
        let pages = mapping.buf().pages();
        self.revoke(ctx, mapping.iova.page(), pages, pages)
    }

    fn alloc_coherent(&self, ctx: &mut CoreCtx, len: usize) -> Result<CoherentBuffer, DmaError> {
        self.coherent
            .alloc(ctx, len, |ctx, pages, pfn| match &self.iova {
                IovaPolicy::Identity(_) => Ok(IovaPage(pfn.get())),
                IovaPolicy::Allocated(allocator) => allocator.alloc(ctx, pages),
            })
    }

    fn free_coherent(&self, ctx: &mut CoreCtx, buf: CoherentBuffer) -> Result<(), DmaError> {
        self.coherent.free(ctx, buf, |ctx, first, pages| {
            if let IovaPolicy::Allocated(allocator) = &self.iova {
                allocator.free(ctx, first, pages);
            }
        })
    }

    fn flush_deferred(&self, ctx: &mut CoreCtx) {
        if let InvalPolicy::Deferred(flusher) = &self.inval {
            flusher.force_flush(ctx, |ctx, batch| self.drain(ctx, batch));
        }
        if let IovaPolicy::Allocated(allocator) = &self.iova {
            // Magazine-backed allocators park freed ranges per core; return
            // them so teardown leaves nothing checked out of the shared pool.
            allocator.drain(ctx);
        }
    }

    fn iova_lock_stats(&self) -> Option<(&'static str, simcore::LockStats)> {
        match &self.iova {
            IovaPolicy::Identity(_) => None,
            IovaPolicy::Allocated(allocator) => allocator.lock_stats(),
        }
    }
}
