//! The IOMMU: OS-side management operations and device-side translation.

use crate::{
    Access, DeviceId, DmaFault, FaultReason, InvalQueue, IoPageTable, Iotlb, IotlbStats, Iova,
    IovaPage, Perms, PtEntry, PtError,
};
use memsim::{MemError, MemLocked, Pfn, PhysAddr, PhysMemory, PAGE_SIZE};
use obs::{Counter, EventKind, Obs};
use simcore::sync::{Mutex, RwLock};
use simcore::FxHashMap;
use simcore::{CoreCtx, Phase};
use std::fmt;
use std::sync::{MutexGuard, RwLockReadGuard};

/// Sentinel `core` used on trace events initiated by a device rather
/// than a CPU (devices are not cores; see [`obs::Event::core`]).
pub const DEVICE_SIDE_CORE: u16 = u16::MAX;

/// Errors from OS-side IOMMU management.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IommuError {
    /// A page-table operation failed.
    PageTable(PtError),
}

impl fmt::Display for IommuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IommuError::PageTable(e) => write!(f, "page table: {e}"),
        }
    }
}

impl std::error::Error for IommuError {}

impl From<PtError> for IommuError {
    fn from(e: PtError) -> Self {
        IommuError::PageTable(e)
    }
}

/// The simulated IOMMU.
///
/// One per machine: per-device page tables, a shared IOTLB, the global
/// invalidation queue, and a fault log. OS-side operations take a
/// [`CoreCtx`] and charge calibrated costs; device-side translation is free
/// of CPU cost (devices are not CPUs) but exercises the IOTLB for real.
///
/// An OS-side operation on a page range takes one host hold of the page
/// tables however many pages it covers, and still charges, counts and
/// changes every page in order. [`Iommu::map_range`] is all or nothing: a
/// failed map leaves no PTE behind. [`Iommu::unmap_range_nosync`] removes
/// every mapped page of its range and reports the first missing one.
///
/// # Examples
///
/// ```
/// use iommu::{DeviceId, Iommu, IovaPage, Perms};
/// use memsim::{NumaDomain, NumaTopology, PhysMemory};
/// use simcore::{CoreCtx, CoreId, CostModel};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mem = PhysMemory::new(NumaTopology::tiny(16));
/// let mmu = Iommu::new();
/// let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
///
/// let pfn = mem.alloc_frame(NumaDomain(0))?;
/// mmu.map_page(&mut ctx, DeviceId(0), IovaPage(0x10), pfn, Perms::Write)?;
/// mmu.dma_write(&mem, DeviceId(0), IovaPage(0x10).base(), b"packet")?;
/// assert_eq!(mem.read_vec(pfn.base(), 6)?, b"packet");
///
/// // Unmapping alone leaves any cached IOTLB entry usable (the deferred
/// // window); the synchronous invalidation closes it.
/// mmu.unmap_page_nosync(&mut ctx, DeviceId(0), IovaPage(0x10))?;
/// mmu.invalidate_page_sync(&mut ctx, DeviceId(0), IovaPage(0x10));
/// assert!(mmu.dma_write(&mem, DeviceId(0), IovaPage(0x10).base(), b"x").is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Iommu {
    tables: RwLock<FxHashMap<DeviceId, IoPageTable>>,
    iotlb: Mutex<Iotlb>,
    invalq: InvalQueue,
    faults: Mutex<Vec<DmaFault>>,
    obs: Obs,
    iotlb_hits: Counter,
    iotlb_misses: Counter,
    map_ops: Counter,
    unmap_ops: Counter,
    fault_ctr: Counter,
}

impl Default for Iommu {
    fn default() -> Self {
        Iommu::new()
    }
}

impl Iommu {
    /// Creates an IOMMU with the default hardware IOTLB capacity and a
    /// private, isolated telemetry handle.
    pub fn new() -> Self {
        Iommu::with_obs(Obs::isolated())
    }

    /// Creates an IOMMU reporting into a shared telemetry handle.
    pub fn with_obs(obs: Obs) -> Self {
        Iommu::with_queues(obs, 1)
    }

    /// Creates an IOMMU with `queues` hardware invalidation queues (see
    /// [`InvalQueue::with_queues`]): one is the paper's machine, one per
    /// core lets a strict unmap wait only on its own queue.
    pub fn with_queues(obs: Obs, queues: usize) -> Self {
        Iommu {
            tables: RwLock::new(FxHashMap::default()),
            iotlb: Mutex::new(Iotlb::default_hw()),
            invalq: InvalQueue::with_queues(obs.clone(), queues),
            faults: Mutex::new(Vec::new()),
            iotlb_hits: obs.counter("iotlb", "hits", None),
            iotlb_misses: obs.counter("iotlb", "misses", None),
            map_ops: obs.counter("mmu", "map_pages", None),
            unmap_ops: obs.counter("mmu", "unmap_pages", None),
            fault_ctr: obs.counter("mmu", "faults", None),
            obs,
        }
    }

    /// The telemetry handle this IOMMU reports into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    // ---------------------------------------------------------------
    // OS side (charged to a core)
    // ---------------------------------------------------------------

    /// Maps one IOVA page to a physical frame for `dev`: a range of one.
    pub fn map_page(
        &self,
        ctx: &mut CoreCtx,
        dev: DeviceId,
        page: IovaPage,
        pfn: Pfn,
        perms: Perms,
    ) -> Result<(), IommuError> {
        self.map_range(ctx, dev, page, pfn, 1, perms)
    }

    /// Maps `n` consecutive IOVA pages to `n` consecutive physical frames,
    /// all or nothing: if page `k` is already mapped, the `k` pages
    /// installed before it are removed again and the call fails having
    /// changed no PTE. One hold of the page tables however many pages;
    /// each page is still charged `pagetable_map_page` in order (and each
    /// rolled-back one `pagetable_unmap_page`). No device can walk the
    /// tables during the hold, so a rolled-back page was never cached.
    pub fn map_range(
        &self,
        ctx: &mut CoreCtx,
        dev: DeviceId,
        page: IovaPage,
        pfn: Pfn,
        n: u64,
        perms: Perms,
    ) -> Result<(), IommuError> {
        if n == 0 {
            return Ok(());
        }
        obs::profile::scope(ctx, "pt_map", |ctx| {
            let mut tables = self.tables.write();
            let table = tables.entry(dev).or_default();
            let mut result = Ok(());
            for i in 0..n {
                ctx.charge(Phase::IommuPageTableMgmt, ctx.cost.pagetable_map_page);
                if let Err(e) = table.map(page.add(i), pfn.add(i), perms) {
                    for j in 0..i {
                        ctx.charge(Phase::IommuPageTableMgmt, ctx.cost.pagetable_unmap_page);
                        let _ = table.unmap(page.add(j));
                    }
                    result = Err(e.into());
                    break;
                }
            }
            self.obs.set_now_hint(ctx.now());
            if result.is_ok() {
                self.map_ops.add(n);
            }
            result
        })
    }

    /// Removes one IOVA page mapping **without invalidating the IOTLB**.
    ///
    /// Until [`Iommu::invalidate_page_sync`] (or a flush) runs, the device
    /// may still use a cached translation — this is the deferred-protection
    /// vulnerability window.
    pub fn unmap_page_nosync(
        &self,
        ctx: &mut CoreCtx,
        dev: DeviceId,
        page: IovaPage,
    ) -> Result<PtEntry, IommuError> {
        let mut entry = None;
        self.unmap_run(ctx, dev, page, 1, |e| entry = Some(e))?;
        entry.ok_or(IommuError::PageTable(PtError::NotMapped(page)))
    }

    /// Removes the mappings of `n` consecutive IOVA pages **without
    /// invalidating the IOTLB**, under one hold of the page tables. A page
    /// that is not mapped does not stop it: every mapped page of the range
    /// is removed, and the first missing page is the error. Each page is
    /// charged `pagetable_unmap_page` in order.
    pub fn unmap_range_nosync(
        &self,
        ctx: &mut CoreCtx,
        dev: DeviceId,
        page: IovaPage,
        n: u64,
    ) -> Result<(), IommuError> {
        self.unmap_run(ctx, dev, page, n, |_| {})
    }

    /// [`Iommu::unmap_range_nosync`], handing each removed entry to
    /// `removed`.
    fn unmap_run(
        &self,
        ctx: &mut CoreCtx,
        dev: DeviceId,
        page: IovaPage,
        n: u64,
        mut removed: impl FnMut(PtEntry),
    ) -> Result<(), IommuError> {
        if n == 0 {
            return Ok(());
        }
        obs::profile::scope(ctx, "pt_unmap", |ctx| {
            let mut tables = self.tables.write();
            let mut table = tables.get_mut(&dev);
            let (mut first_err, mut count) = (None, 0);
            for i in 0..n {
                ctx.charge(Phase::IommuPageTableMgmt, ctx.cost.pagetable_unmap_page);
                let p = page.add(i);
                match table
                    .as_mut()
                    .map_or(Err(PtError::NotMapped(p)), |t| t.unmap(p))
                {
                    Ok(entry) => {
                        removed(entry);
                        count += 1;
                    }
                    Err(e) => {
                        first_err.get_or_insert(IommuError::PageTable(e));
                    }
                }
            }
            self.obs.set_now_hint(ctx.now());
            self.unmap_ops.add(count);
            first_err.map_or(Ok(()), Err)
        })
    }

    /// Synchronously invalidates one IOVA page of `dev` in the IOTLB
    /// (the calling core's queue lock + posted command + completion wait).
    pub fn invalidate_page_sync(&self, ctx: &mut CoreCtx, dev: DeviceId, page: IovaPage) {
        self.invalq
            .invalidate_page_sync(ctx, &self.iotlb, dev, page);
    }

    /// Synchronously invalidates several pages under one queue-lock hold.
    pub fn invalidate_pages_sync(&self, ctx: &mut CoreCtx, dev: DeviceId, pages: &[IovaPage]) {
        self.invalq
            .invalidate_pages_sync(ctx, &self.iotlb, dev, pages);
    }

    /// Synchronously invalidates `n` consecutive pages from `page`: one
    /// range command under one queue-lock hold, as
    /// [`Iommu::invalidate_pages_sync`] on the same pages.
    pub fn invalidate_range_sync(&self, ctx: &mut CoreCtx, dev: DeviceId, page: IovaPage, n: u64) {
        self.invalq
            .invalidate_range_sync(ctx, &self.iotlb, dev, page, n);
    }

    /// Synchronously flushes all of `dev`'s IOTLB entries with one
    /// domain-selective command (the deferred batch drain).
    pub fn flush_device_sync(&self, ctx: &mut CoreCtx, dev: DeviceId) {
        self.invalq.flush_device_sync(ctx, &self.iotlb, dev);
    }

    /// Hardware-initiated invalidation of `n` consecutive pages from
    /// `page`, under one IOTLB hold: models IOTLB entries that
    /// self-destruct (Basu et al. \[10\]) — no queue interaction, no CPU
    /// cost. Only the `Hardware` invalidation policy of `dma_api::MappedDma`
    /// (the *self-inval hw* ablation engine) uses this.
    pub fn invalidate_pages_hw(&self, dev: DeviceId, page: IovaPage, n: u64) {
        if n == 0 {
            return;
        }
        let mut iotlb = self.iotlb.lock();
        for i in 0..n {
            iotlb.invalidate_page(dev, page.add(i));
        }
    }

    // ---------------------------------------------------------------
    // Device side (no CPU cost)
    // ---------------------------------------------------------------

    /// Holds the IOTLB until the returned handle drops, for a device
    /// burst: every translation and DMA of the burst under one hold, and
    /// every page walk under one read hold of the page tables, taken at
    /// the burst's first IOTLB miss. The single-access methods below are
    /// bursts of one. Lock order: the IOTLB, then the memory a burst's
    /// DMAs reach, then the page tables.
    pub fn burst(&self) -> IommuBurst<'_> {
        IommuBurst {
            mmu: self,
            iotlb: self.iotlb.lock(),
            tables: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Translates one IOVA for a device access (see
    /// [`IommuBurst::translate`]).
    pub fn translate(
        &self,
        dev: DeviceId,
        iova: Iova,
        access: Access,
    ) -> Result<PhysAddr, DmaFault> {
        self.burst().translate(dev, iova, access)
    }

    /// Device DMA read into `buf` (see [`IommuBurst::dma_read_with`]).
    pub fn dma_read(
        &self,
        mem: &PhysMemory,
        dev: DeviceId,
        iova: Iova,
        buf: &mut [u8],
    ) -> Result<(), DmaFault> {
        self.burst().dma_read(&mut mem.locked(), dev, iova, buf)
    }

    /// Device DMA write: the device stores `data` at `iova`.
    pub fn dma_write(
        &self,
        mem: &PhysMemory,
        dev: DeviceId,
        iova: Iova,
        data: &[u8],
    ) -> Result<(), DmaFault> {
        self.burst().dma_write(&mut mem.locked(), dev, iova, data)
    }

    // ---------------------------------------------------------------
    // Introspection
    // ---------------------------------------------------------------

    /// The invalidation queue (for contention statistics).
    pub fn invalq(&self) -> &InvalQueue {
        &self.invalq
    }

    /// Snapshot of the fault log.
    pub fn faults(&self) -> Vec<DmaFault> {
        self.faults.lock().clone()
    }

    /// Number of recorded faults.
    pub fn fault_count(&self) -> usize {
        self.faults.lock().len()
    }

    /// IOTLB statistics snapshot.
    pub fn iotlb_stats(&self) -> IotlbStats {
        self.iotlb.lock().stats()
    }

    /// Whether the IOTLB currently caches a translation (observability for
    /// staleness tests).
    pub fn iotlb_contains(&self, dev: DeviceId, page: IovaPage) -> bool {
        self.iotlb.lock().contains(dev, page)
    }

    /// Whether the page table currently maps an IOVA page.
    pub fn is_mapped(&self, dev: DeviceId, page: IovaPage) -> bool {
        self.tables
            .read()
            .get(&dev)
            .is_some_and(|t| t.translate(page).is_some())
    }

    /// Number of pages mapped for a device.
    pub fn mapped_pages(&self, dev: DeviceId) -> u64 {
        self.tables.read().get(&dev).map_or(0, |t| t.mapped_pages())
    }

    fn fault(&self, dev: DeviceId, iova: Iova, access: Access, reason: FaultReason) -> DmaFault {
        let f = DmaFault {
            device: dev,
            iova,
            access,
            reason,
        };
        self.faults.lock().push(f);
        // Every blocked device access is a traced security event.
        self.fault_ctr.inc();
        self.obs.trace(
            self.obs.now_hint(),
            DEVICE_SIDE_CORE,
            Some(dev.0),
            EventKind::AttackBlocked {
                iova: iova.get(),
                access: match access {
                    Access::Read => "read".into(),
                    Access::Write => "write".into(),
                },
                reason: match reason {
                    FaultReason::NotMapped => "not_mapped".into(),
                    FaultReason::PermissionDenied => "permission_denied".into(),
                },
            },
        );
        f
    }
}

/// The IOMMU under one hold of its IOTLB ([`Iommu::burst`]): the device
/// side of a burst of DMAs. Every access is still translated page by page
/// (hit/miss counts, evictions and the fault log see each page exactly
/// as they would one DMA at a time); only the locks are taken once, and
/// the `iotlb.hits` / `iotlb.misses` counters are added to once, when the
/// burst ends.
pub struct IommuBurst<'a> {
    mmu: &'a Iommu,
    iotlb: MutexGuard<'a, Iotlb>,
    /// The page tables, read-held from the burst's first walk to its end.
    tables: Option<RwLockReadGuard<'a, FxHashMap<DeviceId, IoPageTable>>>,
    hits: u64,
    misses: u64,
}

impl Drop for IommuBurst<'_> {
    fn drop(&mut self) {
        if self.hits > 0 {
            self.mmu.iotlb_hits.add(self.hits);
        }
        if self.misses > 0 {
            self.mmu.iotlb_misses.add(self.misses);
        }
    }
}

impl IommuBurst<'_> {
    /// Translates one IOVA for a device access, exercising the IOTLB:
    /// hit → cached entry (even if the page table no longer maps the page);
    /// miss → page walk, inserting into the IOTLB on success.
    ///
    /// Blocked accesses are recorded in the fault log.
    pub fn translate(
        &mut self,
        dev: DeviceId,
        iova: Iova,
        access: Access,
    ) -> Result<PhysAddr, DmaFault> {
        let mmu = self.mmu;
        let page = iova.page();
        let entry = match self.iotlb.lookup(dev, page) {
            Some(e) => {
                self.hits += 1;
                e
            }
            None => {
                self.misses += 1;
                let tables = self.tables.get_or_insert_with(|| mmu.tables.read());
                match tables.get(&dev).and_then(|t| t.translate(page)) {
                    Some(e) => {
                        self.iotlb.insert(dev, page, e);
                        e
                    }
                    None => {
                        return Err(mmu.fault(dev, iova, access, FaultReason::NotMapped));
                    }
                }
            }
        };
        if !entry.perms.allows(access) {
            return Err(mmu.fault(dev, iova, access, FaultReason::PermissionDenied));
        }
        Ok(entry.pfn.base().add(iova.page_offset() as u64))
    }

    /// Device DMA read: the device fetches `len` bytes from `iova` and
    /// hands them to `visit` in place, in order, as `(offset, bytes)`.
    ///
    /// Translation is per page; a fault aborts the transfer at the faulting
    /// page boundary (earlier pages may already have been read, as on real
    /// hardware where each TLP is checked independently). `visit` runs
    /// under the burst's lock holds (see [`MemLocked::read_with`]).
    pub fn dma_read_with(
        &mut self,
        mem: &mut MemLocked<'_>,
        dev: DeviceId,
        iova: Iova,
        len: usize,
        mut visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), DmaFault> {
        self.dma_access(dev, iova, len, Access::Read, |pa, off, len| {
            mem.read_with(pa, len, |at, bytes| visit(off + at, bytes))
        })
    }

    /// Device DMA read into `buf`: the copying case of
    /// [`IommuBurst::dma_read_with`].
    pub fn dma_read(
        &mut self,
        mem: &mut MemLocked<'_>,
        dev: DeviceId,
        iova: Iova,
        buf: &mut [u8],
    ) -> Result<(), DmaFault> {
        self.dma_read_with(mem, dev, iova, buf.len(), |off, bytes| {
            buf[off..off + bytes.len()].copy_from_slice(bytes)
        })
    }

    /// Device DMA write: the device stores `data` at `iova`.
    pub fn dma_write(
        &mut self,
        mem: &mut MemLocked<'_>,
        dev: DeviceId,
        iova: Iova,
        data: &[u8],
    ) -> Result<(), DmaFault> {
        self.dma_access(dev, iova, data.len(), Access::Write, |pa, off, len| {
            mem.write(pa, &data[off..off + len])
        })
    }

    /// Walks one DMA: every page is translated on its own, but physically
    /// contiguous pages reach memory as one `op` call, so a DMA through a
    /// contiguous buffer is one memory operation. On a fault the pages
    /// before it have been transferred.
    fn dma_access(
        &mut self,
        dev: DeviceId,
        iova: Iova,
        len: usize,
        access: Access,
        mut op: impl FnMut(PhysAddr, usize, usize) -> Result<(), MemError>,
    ) -> Result<(), DmaFault> {
        let mut transfer = |(pa, off, len): (PhysAddr, usize, usize)| {
            if len > 0 {
                op(pa, off, len).unwrap_or_else(|e| {
                    panic!("IOMMU-mapped page must be backed by allocated memory: {e}")
                });
            }
        };
        // The pending run: physical start, offset into the DMA, length.
        let mut run = (PhysAddr(0), 0usize, 0usize);
        let mut off = 0usize;
        while off < len {
            let cur = iova.add(off as u64);
            let take = (PAGE_SIZE - cur.page_offset()).min(len - off);
            match self.translate(dev, cur, access) {
                Ok(pa) if run.2 > 0 && run.0.add(run.2 as u64) == pa => run.2 += take,
                Ok(pa) => {
                    // First page, or a physical discontinuity (rare: skbs
                    // and shadow buffers are contiguous) — the run so far
                    // goes to memory.
                    transfer(run);
                    run = (pa, off, take);
                }
                Err(f) => {
                    transfer(run);
                    return Err(f);
                }
            }
            off += take;
        }
        transfer(run);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{NumaDomain, NumaTopology};
    use simcore::{CoreId, CostModel, Cycles};
    use std::sync::Arc;

    const DEV: DeviceId = DeviceId(1);

    fn setup() -> (Iommu, Arc<PhysMemory>, CoreCtx) {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(64)));
        let ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::haswell_2_4ghz()));
        (Iommu::new(), mem, ctx)
    }

    #[test]
    fn device_dma_through_mapping_moves_real_bytes() {
        let (mmu, mem, mut ctx) = setup();
        let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        let page = IovaPage(0x100);
        mmu.map_page(&mut ctx, DEV, page, pfn, Perms::ReadWrite)
            .unwrap();

        mmu.dma_write(&mem, DEV, page.base().add(16), b"from the device")
            .unwrap();
        assert_eq!(
            mem.read_vec(pfn.base().add(16), 15).unwrap(),
            b"from the device"
        );

        let mut buf = vec![0u8; 15];
        mmu.dma_read(&mem, DEV, page.base().add(16), &mut buf)
            .unwrap();
        assert_eq!(buf, b"from the device");
    }

    #[test]
    fn unmapped_dma_faults_and_is_logged() {
        let (mmu, mem, _) = setup();
        let err = mmu
            .dma_write(&mem, DEV, Iova(0x5000), b"attack")
            .unwrap_err();
        assert_eq!(err.reason, FaultReason::NotMapped);
        assert_eq!(mmu.fault_count(), 1);
        assert_eq!(mmu.faults()[0].device, DEV);
    }

    #[test]
    fn permission_enforced_per_direction() {
        let (mmu, mem, mut ctx) = setup();
        let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        let page = IovaPage(0x10);
        mmu.map_page(&mut ctx, DEV, page, pfn, Perms::Read).unwrap();
        // Device may read...
        let mut buf = [0u8; 4];
        mmu.dma_read(&mem, DEV, page.base(), &mut buf).unwrap();
        // ...but not write.
        let err = mmu.dma_write(&mem, DEV, page.base(), b"x").unwrap_err();
        assert_eq!(err.reason, FaultReason::PermissionDenied);
    }

    #[test]
    fn devices_have_separate_domains() {
        let (mmu, mem, mut ctx) = setup();
        let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        let page = IovaPage(0x10);
        mmu.map_page(&mut ctx, DeviceId(1), page, pfn, Perms::ReadWrite)
            .unwrap();
        // Device 2 cannot use device 1's mapping.
        let err = mmu
            .dma_write(&mem, DeviceId(2), page.base(), b"x")
            .unwrap_err();
        assert_eq!(err.reason, FaultReason::NotMapped);
    }

    #[test]
    fn stale_iotlb_entry_survives_unmap_until_invalidation() {
        // The deferred-protection vulnerability window, end to end.
        let (mmu, mem, mut ctx) = setup();
        let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        let page = IovaPage(0x20);
        mmu.map_page(&mut ctx, DEV, page, pfn, Perms::ReadWrite)
            .unwrap();

        // Device touches the page: IOTLB now caches the translation.
        mmu.dma_write(&mem, DEV, page.base(), b"first").unwrap();
        assert!(mmu.iotlb_contains(DEV, page));

        // OS unmaps WITHOUT invalidating (deferred protection).
        mmu.unmap_page_nosync(&mut ctx, DEV, page).unwrap();
        assert!(!mmu.is_mapped(DEV, page));

        // The device can STILL write through the stale IOTLB entry.
        mmu.dma_write(&mem, DEV, page.base(), b"stale-write!")
            .unwrap();
        assert_eq!(mem.read_vec(pfn.base(), 12).unwrap(), b"stale-write!");

        // After invalidation the access is blocked.
        mmu.invalidate_page_sync(&mut ctx, DEV, page);
        let err = mmu
            .dma_write(&mem, DEV, page.base(), b"blocked")
            .unwrap_err();
        assert_eq!(err.reason, FaultReason::NotMapped);
    }

    #[test]
    fn unmap_before_device_touch_blocks_immediately() {
        // If the device never pulled the translation into the IOTLB, the
        // unmap alone blocks it (nothing cached to be stale).
        let (mmu, mem, mut ctx) = setup();
        let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        let page = IovaPage(0x30);
        mmu.map_page(&mut ctx, DEV, page, pfn, Perms::ReadWrite)
            .unwrap();
        mmu.unmap_page_nosync(&mut ctx, DEV, page).unwrap();
        assert!(mmu.dma_write(&mem, DEV, page.base(), b"x").is_err());
    }

    #[test]
    fn multi_page_dma_crosses_pages() {
        let (mmu, mem, mut ctx) = setup();
        let pfn = mem.alloc_frames(NumaDomain(0), 2).unwrap();
        let page = IovaPage(0x40);
        mmu.map_range(&mut ctx, DEV, page, pfn, 2, Perms::ReadWrite)
            .unwrap();
        let data: Vec<u8> = (0..6000).map(|i| (i % 256) as u8).collect();
        mmu.dma_write(&mem, DEV, page.base().add(100), &data)
            .unwrap();
        assert_eq!(mem.read_vec(pfn.base().add(100), 6000).unwrap(), data);
    }

    #[test]
    fn multi_page_dma_faults_at_boundary() {
        let (mmu, mem, mut ctx) = setup();
        let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        let page = IovaPage(0x50);
        mmu.map_page(&mut ctx, DEV, page, pfn, Perms::Write)
            .unwrap();
        // Write spans into the next (unmapped) page: fault.
        let data = vec![0xaa; PAGE_SIZE + 100];
        let err = mmu.dma_write(&mem, DEV, page.base(), &data).unwrap_err();
        assert_eq!(err.iova.page(), page.add(1));
        // The first page's bytes did land (per-TLP checking).
        assert_eq!(
            mem.read_vec(pfn.base(), PAGE_SIZE).unwrap(),
            vec![0xaa; PAGE_SIZE]
        );
    }

    #[test]
    fn scattered_frames_split_runs_at_every_discontinuity() {
        let (mmu, mem, mut ctx) = setup();
        let base = mem.alloc_frames(NumaDomain(0), 8).unwrap();
        // IOVA pages 0x70.. map to frames +3 +4 +5 | +0 | +7 | +6: one
        // ascending run of three, then three single-page runs (descending
        // neighbours are not contiguous).
        let order = [3, 4, 5, 0, 7, 6];
        let page = IovaPage(0x70);
        for (i, f) in order.into_iter().enumerate() {
            mmu.map_page(
                &mut ctx,
                DEV,
                page.add(i as u64),
                base.add(f),
                Perms::ReadWrite,
            )
            .unwrap();
        }
        let start = page.base().add(100);
        let len = 6 * PAGE_SIZE - 300;
        let mut runs = Vec::new();
        mmu.burst()
            .dma_access(DEV, start, len, Access::Write, |pa, off, len| {
                runs.push((pa, off, len));
                Ok(())
            })
            .unwrap();
        let first = 3 * PAGE_SIZE - 100;
        assert_eq!(
            runs,
            [
                (base.add(3).base().add(100), 0, first),
                (base.base(), first, PAGE_SIZE),
                (base.add(7).base(), first + PAGE_SIZE, PAGE_SIZE),
                (base.add(6).base(), first + 2 * PAGE_SIZE, PAGE_SIZE - 200),
            ]
        );
        // Translation stayed per page: six walks, then six hits.
        let stats = mmu.iotlb_stats();
        assert_eq!((stats.hits, stats.misses), (0, 6));

        // The bytes land where page-by-page translation puts them.
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        mmu.dma_write(&mem, DEV, start, &data).unwrap();
        let mut off = 0;
        for (i, f) in order.into_iter().enumerate() {
            let at = if i == 0 { 100 } else { 0 };
            let take = (PAGE_SIZE - at).min(len - off);
            let got = mem
                .read_vec(base.add(f).base().add(at as u64), take)
                .unwrap();
            assert_eq!(got, data[off..off + take], "page {i}");
            off += take;
        }
        let mut back = vec![0u8; len];
        mmu.dma_read(&mem, DEV, start, &mut back).unwrap();
        assert_eq!(back, data);
        let stats = mmu.iotlb_stats();
        assert_eq!((stats.hits, stats.misses), (12, 6));
    }

    #[test]
    fn fault_at_page_k_transfers_the_pages_before_it() {
        let (mmu, mem, mut ctx) = setup();
        let (k, n) = (3usize, 5usize);
        let pfn = mem.alloc_frames(NumaDomain(0), n as u64).unwrap();
        let page = IovaPage(0x90);
        mmu.map_range(&mut ctx, DEV, page, pfn, k as u64, Perms::Write)
            .unwrap();
        let data = vec![0x77u8; n * PAGE_SIZE];
        let err = mmu.dma_write(&mem, DEV, page.base(), &data).unwrap_err();
        assert_eq!(err.iova, page.add(k as u64).base());
        assert_eq!(err.reason, FaultReason::NotMapped);
        // Exactly one fault, raised by page k: the walk stops there.
        assert_eq!(mmu.faults(), [err]);
        let stats = mmu.iotlb_stats();
        assert_eq!((stats.hits, stats.misses), (0, k as u64 + 1));
        // Pages before the fault were written, pages from it on were not.
        let got = mem.read_vec(pfn.base(), n * PAGE_SIZE).unwrap();
        assert_eq!(got[..k * PAGE_SIZE], data[..k * PAGE_SIZE]);
        assert_eq!(got[k * PAGE_SIZE..], vec![0u8; (n - k) * PAGE_SIZE]);
    }

    #[test]
    fn map_unmap_charge_pagetable_costs() {
        let (mmu, mem, mut ctx) = setup();
        let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        mmu.map_page(&mut ctx, DEV, IovaPage(1), pfn, Perms::Read)
            .unwrap();
        mmu.unmap_page_nosync(&mut ctx, DEV, IovaPage(1)).unwrap();
        let charged = ctx.breakdown().get(Phase::IommuPageTableMgmt);
        assert_eq!(
            charged,
            ctx.cost.pagetable_map_page + ctx.cost.pagetable_unmap_page
        );
        // ≈0.17 us per the paper's Figure 5.
        let us = charged.to_micros(ctx.cost.clock_ghz);
        assert!((us - 0.17).abs() < 0.02, "{us}");
    }

    #[test]
    fn unmap_nosync_does_not_touch_inval_queue() {
        let (mmu, mem, mut ctx) = setup();
        let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        mmu.map_page(&mut ctx, DEV, IovaPage(1), pfn, Perms::Read)
            .unwrap();
        mmu.unmap_page_nosync(&mut ctx, DEV, IovaPage(1)).unwrap();
        assert_eq!(ctx.breakdown().get(Phase::InvalidateIotlb), Cycles::ZERO);
        assert_eq!(mmu.invalq().stats().page_commands, 0);
    }

    #[test]
    fn flush_device_clears_stale_entries() {
        let (mmu, mem, mut ctx) = setup();
        let pfn = mem.alloc_frames(NumaDomain(0), 4).unwrap();
        for i in 0..4 {
            mmu.map_page(
                &mut ctx,
                DEV,
                IovaPage(0x60 + i),
                pfn.add(i),
                Perms::ReadWrite,
            )
            .unwrap();
            mmu.dma_write(&mem, DEV, IovaPage(0x60 + i).base(), b"warm")
                .unwrap();
            mmu.unmap_page_nosync(&mut ctx, DEV, IovaPage(0x60 + i))
                .unwrap();
        }
        // All four entries are stale-but-usable.
        for i in 0..4 {
            assert!(mmu.iotlb_contains(DEV, IovaPage(0x60 + i)));
        }
        mmu.flush_device_sync(&mut ctx, DEV);
        for i in 0..4 {
            assert!(!mmu.iotlb_contains(DEV, IovaPage(0x60 + i)));
            assert!(mmu
                .dma_write(&mem, DEV, IovaPage(0x60 + i).base(), b"x")
                .is_err());
        }
    }

    #[test]
    fn map_range_is_one_hold_and_all_or_nothing() {
        let (mmu, mem, mut ctx) = setup();
        let pfn = mem.alloc_frames(NumaDomain(0), 17).unwrap();
        let page = IovaPage(0x100);
        let before = simcore::sync::holds();
        mmu.map_range(&mut ctx, DEV, page, pfn, 17, Perms::Read)
            .unwrap();
        assert_eq!(simcore::sync::holds() - before, 1);
        let charged = ctx.breakdown().get(Phase::IommuPageTableMgmt);
        assert_eq!(charged, ctx.cost.pagetable_map_page * 17);

        // Page 3 of the next range is taken: the three before it are
        // installed, then removed again, and nothing else changes.
        let taken = IovaPage(0x203);
        mmu.map_page(&mut ctx, DEV, taken, pfn, Perms::Read)
            .unwrap();
        let err = mmu
            .map_range(&mut ctx, DEV, IovaPage(0x200), pfn, 5, Perms::Read)
            .unwrap_err();
        assert_eq!(err, IommuError::PageTable(PtError::AlreadyMapped(taken)));
        assert_eq!(mmu.mapped_pages(DEV), 18);
        assert!((0..3).all(|i| !mmu.is_mapped(DEV, IovaPage(0x200 + i))));
    }

    #[test]
    fn unmap_range_removes_every_mapped_page_and_reports_the_first_gap() {
        let (mmu, mem, mut ctx) = setup();
        let pfn = mem.alloc_frames(NumaDomain(0), 4).unwrap();
        let page = IovaPage(0x40);
        mmu.map_range(&mut ctx, DEV, page, pfn, 4, Perms::Read)
            .unwrap();
        mmu.unmap_page_nosync(&mut ctx, DEV, page.add(1)).unwrap();
        mmu.unmap_page_nosync(&mut ctx, DEV, page.add(2)).unwrap();
        ctx.reset_stats();
        let before = simcore::sync::holds();
        let err = mmu.unmap_range_nosync(&mut ctx, DEV, page, 4).unwrap_err();
        assert_eq!(simcore::sync::holds() - before, 1);
        assert_eq!(err, IommuError::PageTable(PtError::NotMapped(page.add(1))));
        assert_eq!(mmu.mapped_pages(DEV), 0);
        // Every page of the range is charged, missing or not.
        assert_eq!(
            ctx.breakdown().get(Phase::IommuPageTableMgmt),
            ctx.cost.pagetable_unmap_page * 4
        );
    }

    #[test]
    fn a_burst_walks_under_one_table_hold_and_counts_once() {
        let (mmu, mem, mut ctx) = setup();
        let pfn = mem.alloc_frames(NumaDomain(0), 4).unwrap();
        let page = IovaPage(0x60);
        mmu.map_range(&mut ctx, DEV, page, pfn, 4, Perms::ReadWrite)
            .unwrap();
        let misses = mmu.obs().counter("iotlb", "misses", None);
        let before = simcore::sync::holds();
        // Four misses: the IOTLB, the memory and the page tables once each.
        mmu.dma_write(&mem, DEV, page.base(), &[1; 4 * PAGE_SIZE])
            .unwrap();
        assert_eq!(simcore::sync::holds() - before, 3);
        assert_eq!(misses.get(), 4);
        // All hits: no walk, so no page-table hold.
        let before = simcore::sync::holds();
        mmu.dma_write(&mem, DEV, page.base(), &[2; 4 * PAGE_SIZE])
            .unwrap();
        assert_eq!(simcore::sync::holds() - before, 2);
        let hits = mmu.obs().counter("iotlb", "hits", None);
        assert_eq!((hits.get(), misses.get()), (4, 4));
    }

    #[test]
    fn mapped_pages_accounting() {
        let (mmu, mem, mut ctx) = setup();
        let pfn = mem.alloc_frames(NumaDomain(0), 3).unwrap();
        assert_eq!(mmu.mapped_pages(DEV), 0);
        mmu.map_range(&mut ctx, DEV, IovaPage(0x80), pfn, 3, Perms::Read)
            .unwrap();
        assert_eq!(mmu.mapped_pages(DEV), 3);
        mmu.unmap_page_nosync(&mut ctx, DEV, IovaPage(0x81))
            .unwrap();
        assert_eq!(mmu.mapped_pages(DEV), 2);
    }
}
