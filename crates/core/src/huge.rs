//! The hybrid huge-buffer path (§5.5).
//!
//! Copying beats an IOTLB invalidation only while buffers are small; a
//! huge buffer (above the largest pool size class) would cost more to copy
//! than to invalidate. Huge DMAs are rare though (their devices' IO rates
//! are low), so the paper proposes a hybrid: **copy only the sub-page head
//! and tail** of the OS buffer into small dedicated shadow pages, and
//! **zero-copy map the page-aligned middle**, whose pages are fully owned
//! by the buffer — preserving byte granularity. The mapping is destroyed
//! with a strict (synchronous) invalidation at unmap, so there is no
//! vulnerability window.
//!
//! The IOVA range comes from an external allocator (\[42\]) so that device
//! sees one contiguous range: `[head shadow page | middle pages | tail
//! shadow page]`.

use dma_api::{DmaBuf, DmaError, GlobalTreeIovaAllocator, IovaAllocator};
use iommu::{DeviceId, Iommu, Iova, IovaPage, Perms};
use memsim::{Pfn, PhysAddr, PhysMemory, PAGE_SIZE};
use obs::{Counter, Obs};
use simcore::sync::Mutex;
use simcore::FxHashMap;
use simcore::{CoreCtx, Phase};
use std::sync::Arc;

/// Huge-path statistics.
///
/// A thin view over the unified metric registry (`huge.*{dev}` keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HugeStats {
    /// Huge mappings established.
    pub maps: u64,
    /// Huge mappings destroyed.
    pub unmaps: u64,
    /// Bytes copied through head/tail shadows.
    pub shadowed_bytes: u64,
    /// Bytes mapped zero-copy through the middle.
    pub zero_copy_bytes: u64,
}

/// A live huge mapping; [`HugeMapper::take`] hands it to `unmap`.
#[derive(Debug)]
pub(crate) struct HugeEntry {
    first_page: IovaPage,
    n_pages: u64,
    os_pa: PhysAddr,
    len: usize,
    rights: Perms,
    head_frame: Option<Pfn>,
    head_len: usize,
    tail_frame: Option<Pfn>,
    tail_len: usize,
}

/// Establishes and tears down hybrid huge-buffer mappings.
#[derive(Debug)]
pub struct HugeMapper {
    mem: Arc<PhysMemory>,
    mmu: Arc<Iommu>,
    dev: DeviceId,
    live: Mutex<FxHashMap<u64, HugeEntry>>,
    maps: Counter,
    unmaps: Counter,
    shadowed_bytes: Counter,
    zero_copy_bytes: Counter,
}

impl HugeMapper {
    /// Creates a mapper for `dev` sharing the IOMMU's telemetry handle.
    pub fn new(mem: Arc<PhysMemory>, mmu: Arc<Iommu>, dev: DeviceId) -> Self {
        let obs = mmu.obs().clone();
        Self::with_obs(mem, mmu, dev, obs)
    }

    /// Creates a mapper reporting into `obs` (metric keys `huge.*{dev}`).
    pub fn with_obs(mem: Arc<PhysMemory>, mmu: Arc<Iommu>, dev: DeviceId, obs: Obs) -> Self {
        let d = Some(dev.0);
        HugeMapper {
            mem,
            mmu,
            dev,
            live: Mutex::new(FxHashMap::default()),
            maps: obs.counter("huge", "maps", d),
            unmaps: obs.counter("huge", "unmaps", d),
            shadowed_bytes: obs.counter("huge", "shadowed_bytes", d),
            zero_copy_bytes: obs.counter("huge", "zero_copy_bytes", d),
        }
    }

    /// Takes the live huge mapping at `iova` out of the table, if any.
    pub(crate) fn take(&self, iova: Iova) -> Option<HugeEntry> {
        self.live.lock().remove(&iova.get())
    }

    /// Number of live huge mappings.
    pub fn live_count(&self) -> usize {
        self.live.lock().len()
    }

    /// Statistics snapshot (a view over the registry's `huge.*` counters).
    pub fn stats(&self) -> HugeStats {
        HugeStats {
            maps: self.maps.get(),
            unmaps: self.unmaps.get(),
            shadowed_bytes: self.shadowed_bytes.get(),
            zero_copy_bytes: self.zero_copy_bytes.get(),
        }
    }

    /// Maps a huge OS buffer: head/tail shadow copies + zero-copy middle.
    /// If the device reads the buffer (`rights` includes read), the head
    /// and tail contents are copied into their shadow pages now.
    ///
    /// Returns the IOVA at which the device sees the buffer's first byte.
    /// On error nothing stays behind: what was mapped is unmapped and
    /// strictly invalidated, and the frames and the IOVA range are freed.
    pub(crate) fn map(
        &self,
        ctx: &mut CoreCtx,
        iova_alloc: &GlobalTreeIovaAllocator,
        buf: DmaBuf,
        rights: Perms,
    ) -> Result<Iova, DmaError> {
        let off = buf.pa.page_offset();
        let head_len = if off == 0 {
            0
        } else {
            (PAGE_SIZE - off).min(buf.len)
        };
        let after_head = buf.len - head_len;
        let tail_len = after_head % PAGE_SIZE;
        let mid_len = after_head - tail_len;
        let n_pages =
            u64::from(head_len > 0) + (mid_len / PAGE_SIZE) as u64 + u64::from(tail_len > 0);
        assert!(n_pages > 0, "huge mapping of empty buffer");
        let mut entry = HugeEntry {
            first_page: iova_alloc.alloc(ctx, n_pages)?,
            n_pages,
            os_pa: buf.pa,
            len: buf.len,
            rights,
            head_frame: None,
            head_len,
            tail_frame: None,
            tail_len,
        };
        let mut mapped = 0;
        if let Err(e) = self.populate(ctx, &mut entry, &mut mapped) {
            // The caller gets no handle, so nothing else could undo this.
            let _ = self.release(ctx, iova_alloc, &entry, mapped);
            return Err(e);
        }
        let iova = entry.first_page.base().add(off as u64);
        self.live.lock().insert(iova.get(), entry);
        self.maps.inc();
        self.shadowed_bytes.add((head_len + tail_len) as u64);
        self.zero_copy_bytes.add(mid_len as u64);
        Ok(iova)
    }

    /// Allocates `entry`'s shadow frames, fills them if the device reads,
    /// and maps its pages in order, counting them in `mapped`.
    fn populate(
        &self,
        ctx: &mut CoreCtx,
        entry: &mut HugeEntry,
        mapped: &mut u64,
    ) -> Result<(), DmaError> {
        let domain = self.mem.topology().domain_of_core(ctx.core);
        let device_reads = entry.rights.allows(iommu::Access::Read);
        let off = entry.os_pa.page_offset();
        let (first_page, rights) = (entry.first_page, entry.rights);
        // Maps the next `n` pages onto the `n` frames from `pfn`, all or
        // nothing.
        let mut map_next = |ctx: &mut CoreCtx, pfn: Pfn, n: u64| -> Result<(), DmaError> {
            self.mmu
                .map_range(ctx, self.dev, first_page.add(*mapped), pfn, n, rights)?;
            *mapped += n;
            Ok(())
        };

        // Head shadow page.
        if entry.head_len > 0 {
            let f = self.mem.alloc_frames(domain, 1)?;
            entry.head_frame = Some(f);
            if device_reads {
                self.mem
                    .copy(entry.os_pa, f.base().add(off as u64), entry.head_len)?;
                ctx.charge(Phase::Memcpy, ctx.cost.memcpy(entry.head_len, false));
            }
            map_next(ctx, f, 1)?;
        }

        // Zero-copy middle: the OS buffer's own (fully-owned) pages.
        let mid_pfn = entry.os_pa.add(entry.head_len as u64).pfn();
        let mid_pages = ((entry.len - entry.head_len - entry.tail_len) / PAGE_SIZE) as u64;
        map_next(ctx, mid_pfn, mid_pages)?;

        // Tail shadow page.
        if entry.tail_len > 0 {
            let f = self.mem.alloc_frames(domain, 1)?;
            entry.tail_frame = Some(f);
            if device_reads {
                let tail_src = entry.os_pa.add((entry.len - entry.tail_len) as u64);
                self.mem.copy(tail_src, f.base(), entry.tail_len)?;
                ctx.charge(Phase::Memcpy, ctx.cost.memcpy(entry.tail_len, false));
            }
            map_next(ctx, f, 1)?;
        }
        Ok(())
    }

    /// Unmaps a huge mapping [`HugeMapper::take`] returned: copies head/tail
    /// shadows back into the OS buffer if the device could write, then
    /// destroys the whole range with a strict, synchronous invalidation and
    /// releases the shadow frames and the IOVA range.
    ///
    /// `wrote` is how many bytes from the buffer's start the device wrote
    /// (§5.4); only head and tail bytes below it are copied back, so the
    /// OS bytes past it keep their contents.
    pub(crate) fn unmap(
        &self,
        ctx: &mut CoreCtx,
        iova_alloc: &GlobalTreeIovaAllocator,
        entry: HugeEntry,
        wrote: usize,
    ) -> Result<(), DmaError> {
        let off = entry.os_pa.page_offset();
        if entry.rights.allows(iommu::Access::Write) {
            if let Some(f) = entry.head_frame {
                let n = entry.head_len.min(wrote);
                self.mem.copy(f.base().add(off as u64), entry.os_pa, n)?;
                ctx.charge(Phase::Memcpy, ctx.cost.memcpy(n, false));
            }
            if let Some(f) = entry.tail_frame {
                let tail_start = entry.len - entry.tail_len;
                let n = wrote.saturating_sub(tail_start).min(entry.tail_len);
                self.mem
                    .copy(f.base(), entry.os_pa.add(tail_start as u64), n)?;
                ctx.charge(Phase::Memcpy, ctx.cost.memcpy(n, false));
            }
        }
        self.release(ctx, iova_alloc, &entry, entry.n_pages)?;
        self.unmaps.inc();
        Ok(())
    }

    /// Strict teardown, with no vulnerability window: unmaps the first
    /// `mapped` pages of `entry` and invalidates them synchronously, then
    /// frees the shadow frames and the IOVA range.
    fn release(
        &self,
        ctx: &mut CoreCtx,
        iova_alloc: &GlobalTreeIovaAllocator,
        entry: &HugeEntry,
        mapped: u64,
    ) -> Result<(), DmaError> {
        let unmapped = self
            .mmu
            .unmap_range_nosync(ctx, self.dev, entry.first_page, mapped);
        self.mmu
            .invalidate_range_sync(ctx, self.dev, entry.first_page, mapped);
        for f in [entry.head_frame, entry.tail_frame].into_iter().flatten() {
            self.mem.free_frames(f, 1)?;
        }
        iova_alloc.free(ctx, entry.first_page, entry.n_pages);
        Ok(unmapped?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{NumaDomain, NumaTopology};
    use simcore::{CoreId, CostModel};

    const DEV: DeviceId = DeviceId(0);

    struct Rig {
        mem: Arc<PhysMemory>,
        mmu: Arc<Iommu>,
        huge: HugeMapper,
        alloc: GlobalTreeIovaAllocator,
        ctx: CoreCtx,
    }

    fn rig() -> Rig {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(512)));
        let mmu = Arc::new(Iommu::new());
        Rig {
            huge: HugeMapper::new(mem.clone(), mmu.clone(), DEV),
            alloc: GlobalTreeIovaAllocator::new(),
            ctx: CoreCtx::new(CoreId(0), Arc::new(CostModel::haswell_2_4ghz())),
            mem,
            mmu,
        }
    }

    impl Rig {
        fn unmap(&mut self, iova: Iova, wrote: usize) {
            let entry = self.huge.take(iova).expect("a live huge mapping");
            self.huge
                .unmap(&mut self.ctx, &self.alloc, entry, wrote)
                .unwrap();
        }
    }

    fn unaligned_buf(r: &Rig, len: usize, off: u64) -> DmaBuf {
        let pages = (off + len as u64).div_ceil(PAGE_SIZE as u64);
        let pfn = r.mem.alloc_frames(NumaDomain(0), pages).unwrap();
        DmaBuf::new(pfn.base().add(off), len)
    }

    #[test]
    fn device_sees_whole_buffer_contiguously() {
        let mut r = rig();
        let buf = unaligned_buf(&r, 200_000, 1000);
        let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        r.mem.write(buf.pa, &data).unwrap();
        let iova = r.huge.map(&mut r.ctx, &r.alloc, buf, Perms::Read).unwrap();
        let mut out = vec![0u8; 200_000];
        r.mmu.dma_read(&r.mem, DEV, iova, &mut out).unwrap();
        assert_eq!(out, data, "head+middle+tail stitch together");
        r.unmap(iova, buf.len);
    }

    #[test]
    fn device_writes_reach_os_buffer_after_unmap() {
        let mut r = rig();
        let buf = unaligned_buf(&r, 150_000, 300);
        let iova = r.huge.map(&mut r.ctx, &r.alloc, buf, Perms::Write).unwrap();
        let data: Vec<u8> = (0..150_000).map(|i| (i % 241) as u8).collect();
        r.mmu.dma_write(&r.mem, DEV, iova, &data).unwrap();
        // Middle bytes land directly (zero copy)...
        let mid_probe = 80_000;
        assert_eq!(
            r.mem.read_vec(buf.pa.add(mid_probe), 16).unwrap(),
            data[mid_probe as usize..mid_probe as usize + 16]
        );
        // ...head/tail bytes only after the unmap copy-back.
        r.unmap(iova, buf.len);
        assert_eq!(r.mem.read_vec(buf.pa, 150_000).unwrap(), data);
    }

    #[test]
    fn head_tail_are_shadowed_not_exposed() {
        // Byte granularity: the device must NOT reach data co-located on
        // the buffer's first/last pages.
        let mut r = rig();
        let buf = unaligned_buf(&r, 100_000, 2048);
        // A secret lives on the same first page, before the buffer.
        r.mem
            .write(buf.pa.page_base(), b"SECRET-AT-PAGE-START")
            .unwrap();
        let iova = r
            .huge
            .map(&mut r.ctx, &r.alloc, buf, Perms::ReadWrite)
            .unwrap();
        // The device reads "before" the buffer inside the same IOVA page:
        // it sees the shadow page, not the OS page.
        let probe = Iova::new(iova.get() - 100);
        let mut leak = vec![0u8; 20];
        r.mmu.dma_read(&r.mem, DEV, probe, &mut leak).unwrap();
        assert_ne!(&leak, b"SECRET-AT-PAGE-START");
        assert_eq!(leak, vec![0u8; 20], "fresh shadow page is zeroed");
        r.unmap(iova, buf.len);
    }

    #[test]
    fn unmap_is_strict() {
        let mut r = rig();
        let buf = unaligned_buf(&r, 100_000, 512);
        let iova = r.huge.map(&mut r.ctx, &r.alloc, buf, Perms::Write).unwrap();
        // Warm the IOTLB.
        r.mmu.dma_write(&r.mem, DEV, iova, b"warm").unwrap();
        let invals_before = r.mmu.invalq().stats().page_commands;
        r.unmap(iova, buf.len);
        assert!(r.mmu.invalq().stats().page_commands > invals_before);
        // No window: immediately blocked.
        assert!(r.mmu.dma_write(&r.mem, DEV, iova, b"late").is_err());
    }

    #[test]
    fn aligned_buffer_has_no_shadows() {
        let mut r = rig();
        let buf = unaligned_buf(&r, 32 * PAGE_SIZE, 0);
        let frames_before = r.mem.stats().allocated_frames;
        let iova = r
            .huge
            .map(&mut r.ctx, &r.alloc, buf, Perms::ReadWrite)
            .unwrap();
        assert_eq!(
            r.mem.stats().allocated_frames,
            frames_before,
            "no shadow frames for a page-aligned, page-multiple buffer"
        );
        let s = r.huge.stats();
        assert_eq!(s.shadowed_bytes, 0);
        assert_eq!(s.zero_copy_bytes, 32 * PAGE_SIZE as u64);
        r.unmap(iova, buf.len);
    }

    #[test]
    fn copies_only_head_and_tail() {
        let mut r = rig();
        let buf = unaligned_buf(&r, 1_000_000, 100);
        let iova = r.huge.map(&mut r.ctx, &r.alloc, buf, Perms::Read).unwrap();
        let s = r.huge.stats();
        assert!(s.shadowed_bytes < 2 * PAGE_SIZE as u64);
        assert!(s.zero_copy_bytes > 990_000);
        // The memcpy charge is tiny compared to copying the whole buffer.
        let copied = r.ctx.breakdown().get(Phase::Memcpy);
        let full_copy = r.ctx.cost.memcpy(1_000_000, false);
        assert!(copied.get() * 50 < full_copy.get());
        r.unmap(iova, buf.len);
    }

    #[test]
    fn frames_and_iovas_released_on_unmap() {
        let mut r = rig();
        let buf = unaligned_buf(&r, 100_000, 700);
        let frames_before = r.mem.stats().allocated_frames;
        let iova1 = r.huge.map(&mut r.ctx, &r.alloc, buf, Perms::Write).unwrap();
        r.unmap(iova1, buf.len);
        assert_eq!(r.mem.stats().allocated_frames, frames_before);
        assert_eq!(r.huge.live_count(), 0);
        // IOVA range reusable.
        let iova2 = r.huge.map(&mut r.ctx, &r.alloc, buf, Perms::Write).unwrap();
        assert_eq!(iova2, iova1);
        r.unmap(iova2, buf.len);
    }

    #[test]
    fn a_failed_map_leaves_nothing_behind() {
        // Memory sized so the head shadow gets the last free frame and the
        // tail shadow's allocation fails, after the head and the OS
        // buffer's middle pages are already mapped.
        let mut r = rig();
        let buf = unaligned_buf(&r, 4 * PAGE_SIZE, 1000);
        let total = r.mem.topology().total_frames();
        let filler = total - r.mem.stats().allocated_frames - 1;
        let fill = r.mem.alloc_frames(NumaDomain(0), filler).unwrap();
        let frames_before = r.mem.stats().allocated_frames;
        let invals_before = r.mmu.invalq().stats().page_commands;
        let got = r.huge.map(&mut r.ctx, &r.alloc, buf, Perms::Write);
        assert!(got.is_err(), "the tail frame cannot be allocated");
        assert_eq!(r.mmu.mapped_pages(DEV), 0, "no page stays mapped");
        assert!(
            r.mmu.invalq().stats().page_commands > invals_before,
            "the rolled-back pages are strictly invalidated"
        );
        assert_eq!(r.mem.stats().allocated_frames, frames_before);
        assert_eq!(r.huge.live_count(), 0);
        // The IOVA range was freed too: with memory back, the buffer maps
        // at the first range a fresh allocator hands out.
        r.mem.free_frames(fill, filler).unwrap();
        let iova = r.huge.map(&mut r.ctx, &r.alloc, buf, Perms::Write).unwrap();
        let fresh = GlobalTreeIovaAllocator::new().alloc(&mut r.ctx, 1).unwrap();
        assert_eq!(iova.page(), fresh);
        r.unmap(iova, buf.len);
        assert_eq!(r.mmu.mapped_pages(DEV), 0);
    }
}
