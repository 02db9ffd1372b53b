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

#[derive(Debug, Clone, Copy)]
struct HugeEntry {
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

    /// Whether `iova` belongs to a live huge mapping.
    pub fn owns(&self, iova: Iova) -> bool {
        self.live.lock().contains_key(&iova.get())
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
    pub fn map(
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
        let mid_pages = (mid_len / PAGE_SIZE) as u64;
        let n_pages = u64::from(head_len > 0) + mid_pages + u64::from(tail_len > 0);
        assert!(n_pages > 0, "huge mapping of empty buffer");
        let domain = self.mem.topology().domain_of_core(ctx.core);
        let first_page = iova_alloc.alloc(ctx, n_pages)?;

        let mut page = first_page;
        let device_reads = rights.allows(iommu::Access::Read);

        // Head shadow page.
        let head_frame = if head_len > 0 {
            let f = self.mem.alloc_frames(domain, 1)?;
            if device_reads {
                self.mem.copy(buf.pa, f.base().add(off as u64), head_len)?;
                ctx.charge(Phase::Memcpy, ctx.cost.memcpy(head_len, false));
            }
            self.mmu.map_page(ctx, self.dev, page, f, rights)?;
            page = page.add(1);
            Some(f)
        } else {
            None
        };

        // Zero-copy middle: the OS buffer's own (fully-owned) pages.
        if mid_pages > 0 {
            let mid_pfn = buf.pa.add(head_len as u64).pfn();
            self.mmu
                .map_range(ctx, self.dev, page, mid_pfn, mid_pages, rights)?;
            page = page.add(mid_pages);
        }

        // Tail shadow page.
        let tail_frame = if tail_len > 0 {
            let f = self.mem.alloc_frames(domain, 1)?;
            if device_reads {
                let tail_src = buf.pa.add((head_len + mid_len) as u64);
                self.mem.copy(tail_src, f.base(), tail_len)?;
                ctx.charge(Phase::Memcpy, ctx.cost.memcpy(tail_len, false));
            }
            self.mmu.map_page(ctx, self.dev, page, f, rights)?;
            Some(f)
        } else {
            None
        };

        let iova = first_page.base().add(off as u64);
        self.live.lock().insert(
            iova.get(),
            HugeEntry {
                first_page,
                n_pages,
                os_pa: buf.pa,
                len: buf.len,
                rights,
                head_frame,
                head_len,
                tail_frame,
                tail_len,
            },
        );
        self.maps.inc();
        self.shadowed_bytes.add((head_len + tail_len) as u64);
        self.zero_copy_bytes.add(mid_len as u64);
        Ok(iova)
    }

    /// Unmaps a huge mapping: copies head/tail shadows back into the OS
    /// buffer if the device could write, then destroys the whole range
    /// with a strict, synchronous invalidation and releases the shadow
    /// frames and the IOVA range.
    pub fn unmap(
        &self,
        ctx: &mut CoreCtx,
        iova_alloc: &GlobalTreeIovaAllocator,
        iova: Iova,
    ) -> Result<(), DmaError> {
        let entry = self
            .live
            .lock()
            .remove(&iova.get())
            .ok_or(DmaError::BadUnmap(iova))?;
        let off = entry.os_pa.page_offset();
        if entry.rights.allows(iommu::Access::Write) {
            if let Some(f) = entry.head_frame {
                self.mem
                    .copy(f.base().add(off as u64), entry.os_pa, entry.head_len)?;
                ctx.charge(Phase::Memcpy, ctx.cost.memcpy(entry.head_len, false));
            }
            if let Some(f) = entry.tail_frame {
                let tail_dst = entry.os_pa.add((entry.len - entry.tail_len) as u64);
                self.mem.copy(f.base(), tail_dst, entry.tail_len)?;
                ctx.charge(Phase::Memcpy, ctx.cost.memcpy(entry.tail_len, false));
            }
        }
        // Strict teardown: no vulnerability window for huge mappings.
        let pages: Vec<IovaPage> = (0..entry.n_pages)
            .map(|i| entry.first_page.add(i))
            .collect();
        for &p in &pages {
            self.mmu.unmap_page_nosync(ctx, self.dev, p)?;
        }
        self.mmu.invalidate_pages_sync(ctx, self.dev, &pages);
        if let Some(f) = entry.head_frame {
            self.mem.free_frames(f, 1)?;
        }
        if let Some(f) = entry.tail_frame {
            self.mem.free_frames(f, 1)?;
        }
        iova_alloc.free(ctx, entry.first_page, entry.n_pages);
        self.unmaps.inc();
        Ok(())
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
        r.huge.unmap(&mut r.ctx, &r.alloc, iova).unwrap();
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
        r.huge.unmap(&mut r.ctx, &r.alloc, iova).unwrap();
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
        r.huge.unmap(&mut r.ctx, &r.alloc, iova).unwrap();
    }

    #[test]
    fn unmap_is_strict() {
        let mut r = rig();
        let buf = unaligned_buf(&r, 100_000, 512);
        let iova = r.huge.map(&mut r.ctx, &r.alloc, buf, Perms::Write).unwrap();
        // Warm the IOTLB.
        r.mmu.dma_write(&r.mem, DEV, iova, b"warm").unwrap();
        let invals_before = r.mmu.invalq().stats().page_commands;
        r.huge.unmap(&mut r.ctx, &r.alloc, iova).unwrap();
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
        r.huge.unmap(&mut r.ctx, &r.alloc, iova).unwrap();
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
        r.huge.unmap(&mut r.ctx, &r.alloc, iova).unwrap();
    }

    #[test]
    fn frames_and_iovas_released_on_unmap() {
        let mut r = rig();
        let buf = unaligned_buf(&r, 100_000, 700);
        let frames_before = r.mem.stats().allocated_frames;
        let iova1 = r.huge.map(&mut r.ctx, &r.alloc, buf, Perms::Write).unwrap();
        r.huge.unmap(&mut r.ctx, &r.alloc, iova1).unwrap();
        assert_eq!(r.mem.stats().allocated_frames, frames_before);
        assert_eq!(r.huge.live_count(), 0);
        // IOVA range reusable.
        let iova2 = r.huge.map(&mut r.ctx, &r.alloc, buf, Perms::Write).unwrap();
        assert_eq!(iova2, iova1);
        r.huge.unmap(&mut r.ctx, &r.alloc, iova2).unwrap();
    }

    #[test]
    fn unmap_unknown_fails() {
        let mut r = rig();
        assert!(matches!(
            r.huge.unmap(&mut r.ctx, &r.alloc, Iova::new(0x7000)),
            Err(DmaError::BadUnmap(_))
        ));
    }
}
