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
use memsim::{Pfn, PhysMemory};
use simcore::sync::Mutex;
use simcore::{CoreCtx, FxHashMap};
use std::sync::Arc;

/// The pages of one mapping whose PTE a `dma_map` must install or a
/// `dma_unmap` must remove, in ascending order. A buffer's own pages are
/// one run, so the common case builds no list; only identity pages that
/// another mapping still claims, in the middle of the buffer, split it.
enum Pages {
    /// `n` consecutive pages from the first (none if `n == 0`).
    Run(IovaPage, u64),
    /// Pages that are not one run.
    Scattered(Vec<IovaPage>),
}

impl Pages {
    /// Appends `page`, which lies above every page already held.
    fn push(&mut self, page: IovaPage) {
        match self {
            Pages::Run(_, 0) => *self = Pages::Run(page, 1),
            Pages::Run(first, n) if first.add(*n) == page => *n += 1,
            Pages::Run(first, n) => {
                let list = (0..*n).map(|i| first.add(i)).chain([page]).collect();
                *self = Pages::Scattered(list);
            }
            Pages::Scattered(list) => list.push(page),
        }
    }

    /// The pages, as runs of `(first, n)`.
    fn runs(&self) -> impl Iterator<Item = (IovaPage, u64)> + '_ {
        let (run, list) = match self {
            Pages::Run(first, n) => (Some((*first, *n)), &[][..]),
            Pages::Scattered(list) => (None, &list[..]),
        };
        run.into_iter().chain(list.iter().map(|&p| (p, 1)))
    }

    /// Installs the pages' PTEs, IOVA page `first + i` onto frame
    /// `pfn + i`: each run is one [`Iommu::map_range`] call, and on an
    /// error the runs before it are removed again, so nothing is left.
    fn map(
        &self,
        mmu: &Iommu,
        ctx: &mut CoreCtx,
        dev: DeviceId,
        (first, pfn): (IovaPage, Pfn),
        perms: Perms,
    ) -> Result<(), IommuError> {
        for (done, (page, n)) in self.runs().enumerate() {
            let frame = pfn.add(page.get() - first.get());
            if let Err(e) = mmu.map_range(ctx, dev, page, frame, n, perms) {
                for (page, n) in self.runs().take(done) {
                    let _ = mmu.unmap_range_nosync(ctx, dev, page, n);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Removes the pages' PTEs; every page is tried, and the first one
    /// not mapped is the error.
    fn unmap(&self, mmu: &Iommu, ctx: &mut CoreCtx, dev: DeviceId) -> Result<(), IommuError> {
        let mut result = Ok(());
        for (page, n) in self.runs() {
            let unmapped = mmu.unmap_range_nosync(ctx, dev, page, n);
            result = result.and(unmapped);
        }
        result
    }
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

    /// Claims the `n` pages from `first` for one more mapping, under one
    /// hold of the refcount map; returns the pages whose PTE the caller
    /// must install.
    fn retain(&self, first: IovaPage, n: u64) -> Pages {
        match self {
            IovaPolicy::Identity(refs) => {
                let mut refs = refs.lock();
                let mut fresh = Pages::Run(first, 0);
                for i in 0..n {
                    let count = refs.entry(first.get() + i).or_insert(0);
                    *count += 1;
                    if *count == 1 {
                        fresh.push(first.add(i));
                    }
                }
                fresh
            }
            IovaPolicy::Allocated(_) => Pages::Run(first, n),
        }
    }

    /// Drops one mapping's claim on each of the `n` pages from `first`,
    /// under one hold of the refcount map; returns the pages whose PTE the
    /// caller must remove, and as the error the first page nothing
    /// claimed (an identity page nothing claims is not mapped).
    fn release(&self, first: IovaPage, n: u64) -> (Pages, Result<(), IommuError>) {
        match self {
            IovaPolicy::Identity(refs) => {
                let mut refs = refs.lock();
                let (mut dead, mut result) = (Pages::Run(first, 0), Ok(()));
                for i in 0..n {
                    let page = first.add(i);
                    match refs.get_mut(&page.get()) {
                        Some(count) if *count > 1 => *count -= 1,
                        Some(_) => {
                            refs.remove(&page.get());
                            dead.push(page);
                        }
                        None => {
                            result =
                                result.and(Err(IommuError::PageTable(PtError::NotMapped(page))));
                        }
                    }
                }
                (dead, result)
            }
            IovaPolicy::Allocated(_) => (Pages::Run(first, n), Ok(())),
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

    /// Revokes the `n`-page mapping at `first`: drops its claims, removes
    /// the PTEs of the pages whose last claim it held, applies the
    /// invalidation policy to all of them, and releases the range (at
    /// once, or after the deferred flush). A page that is not mapped does
    /// not stop it; the first one is the error.
    fn revoke(&self, ctx: &mut CoreCtx, first: IovaPage, n: u64) -> Result<(), DmaError> {
        let (dead, released) = self.iova.release(first, n);
        let unmapped = dead.unmap(&self.mmu, ctx, self.dev);
        let flusher = match &self.inval {
            InvalPolicy::Strict => {
                match &dead {
                    Pages::Run(page, n) => self.mmu.invalidate_range_sync(ctx, self.dev, *page, *n),
                    Pages::Scattered(list) => self.mmu.invalidate_pages_sync(ctx, self.dev, list),
                }
                None
            }
            InvalPolicy::Hardware => {
                for (page, n) in dead.runs() {
                    self.mmu.invalidate_pages_hw(self.dev, page, n);
                }
                None
            }
            InvalPolicy::Deferred(flusher) => Some(flusher),
        };
        match (&self.iova, flusher) {
            (IovaPolicy::Allocated(allocator), None) => allocator.free(ctx, first, n),
            // One entry per mapping: the drain frees the range it names.
            (IovaPolicy::Allocated(_), Some(flusher)) => flusher.defer(
                ctx,
                PendingUnmap {
                    page: first,
                    pages: n,
                },
                |ctx, batch| self.drain(ctx, batch),
            ),
            // One entry (and one simulated list-lock acquisition, a
            // model-checker preemption point) per dead page, so no host
            // lock spans the loop.
            (IovaPolicy::Identity(_), Some(flusher)) => {
                for (run, n) in dead.runs() {
                    for i in 0..n {
                        let pending = PendingUnmap {
                            page: run.add(i),
                            pages: 1,
                        };
                        flusher.defer(ctx, pending, |ctx, batch| self.drain(ctx, batch));
                    }
                }
            }
            (IovaPolicy::Identity(_), None) => {}
        }
        released.and(unmapped).map_err(DmaError::from)
    }

    /// Returns a coherent buffer's IOVA range, if the allocator placed it.
    fn unplace(&self, ctx: &mut CoreCtx, first: IovaPage, pages: u64) {
        if let IovaPolicy::Allocated(allocator) = &self.iova {
            allocator.free(ctx, first, pages);
        }
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
        let fresh = self.iova.retain(first, pages);
        if let Err(e) = fresh.map(&self.mmu, ctx, self.dev, (first, pfn), perms) {
            // `map` left no PTE behind: drop the claims and the IOVA range,
            // which no device could reach, so the error leaves nothing.
            let _ = self.iova.release(first, pages);
            if let IovaPolicy::Allocated(allocator) = &self.iova {
                allocator.free(ctx, first, pages);
            }
            return Err(e.into());
        }
        let iova = first.base().add(buf.pa.page_offset() as u64);
        Ok(DmaMapping::issue(iova, buf, dir))
    }

    fn unmap(&self, ctx: &mut CoreCtx, mapping: DmaMapping) -> Result<(), DmaError> {
        // The IOVA keeps the buffer's page offset: the span `map` placed.
        let pages = mapping.buf().pages();
        self.revoke(ctx, mapping.iova.page(), pages)
    }

    fn alloc_coherent(&self, ctx: &mut CoreCtx, len: usize) -> Result<CoherentBuffer, DmaError> {
        self.coherent.alloc(
            ctx,
            len,
            |ctx, pages, pfn| match &self.iova {
                IovaPolicy::Identity(_) => Ok(IovaPage(pfn.get())),
                IovaPolicy::Allocated(allocator) => allocator.alloc(ctx, pages),
            },
            |ctx, first, pages| self.unplace(ctx, first, pages),
        )
    }

    fn free_coherent(&self, ctx: &mut CoreCtx, buf: CoherentBuffer) -> Result<(), DmaError> {
        self.coherent.free(ctx, buf, |ctx, first, pages| {
            self.unplace(ctx, first, pages)
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
