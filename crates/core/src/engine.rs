//! `ShadowDma` — the *copy* engine: the DMA API implemented by DMA
//! shadowing (§5.2).

// lint: allow(panic) — pool-reclaim invariants are bugs if violated, not runtime errors

use crate::pool::ShadowRef;
use crate::{HugeMapper, PoolConfig, ShadowPool};
use dma_api::{
    CoherentBuffer, CoherentHelper, DmaBuf, DmaDirection, DmaEngine, DmaError, DmaMapping,
    GlobalTreeIovaAllocator, IovaAllocator, ProtectionProfile,
};
use iommu::{DeviceId, Iommu};
use memsim::PhysMemory;
use simcore::{CoreCtx, Phase};
use std::sync::Arc;

/// The DMA-shadowing engine (*copy* in the paper's figures).
///
/// `dma_map` acquires a permanently mapped shadow buffer and copies the OS
/// buffer into it when the device will read it; `dma_unmap` copies DMAed
/// data back when the device could write — as many bytes as the driver
/// says arrived ([`DmaMapping::device_wrote`], §5.4), all of them if it
/// says nothing — then releases the shadow buffer.
/// No IOVA is ever unmapped on the data path, so no IOTLB invalidation is
/// ever issued — protection is strict and byte-granular (§5.2 *Security*).
///
/// Buffers larger than the pool's largest size class take the hybrid
/// huge-buffer path (§5.5).
///
/// # Examples
///
/// ```
/// use dma_api::{Bus, DmaBuf, DmaDirection, DmaEngine};
/// use iommu::{DeviceId, Iommu};
/// use memsim::{NumaDomain, NumaTopology, PhysMemory};
/// use shadow_core::{PoolConfig, ShadowDma};
/// use simcore::{CoreCtx, CoreId, CostModel};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mem = Arc::new(PhysMemory::new(NumaTopology::dual_socket_haswell()));
/// let mmu = Arc::new(Iommu::new());
/// let engine = ShadowDma::new(mem.clone(), mmu.clone(), DeviceId(0), PoolConfig::default());
/// let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::haswell_2_4ghz()));
///
/// // dma_map an RX buffer; the device DMAs into the shadow, and
/// // dma_unmap copies the packet out. No IOTLB invalidation, ever.
/// let skb = mem.alloc_frame(NumaDomain(0))?.base();
/// let mapping = engine.map(&mut ctx, DmaBuf::new(skb, 1500), DmaDirection::FromDevice)?;
/// let bus = Bus::Iommu { mmu: mmu.clone(), mem: mem.clone() };
/// bus.write(DeviceId(0), mapping.iova.get(), b"incoming packet")?;
/// engine.unmap(&mut ctx, mapping)?;
/// assert_eq!(mem.read_vec(skb, 15)?, b"incoming packet");
/// assert_eq!(mmu.invalq().stats().page_commands, 0);
/// # Ok(())
/// # }
/// ```
pub struct ShadowDma {
    pool: Arc<ShadowPool>,
    mem: Arc<PhysMemory>,
    dev: DeviceId,
    huge: HugeMapper,
    /// IOVA allocator for the non-pool paths (huge middles, coherent
    /// buffers) — infrequent, so the global tree's lock stays cold.
    zc_iova: GlobalTreeIovaAllocator,
    coherent: CoherentHelper,
}

impl std::fmt::Debug for ShadowDma {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowDma")
            .field("dev", &self.dev)
            .field("pool", &self.pool.stats())
            .finish()
    }
}

impl ShadowDma {
    /// Creates the engine (and its shadow pool) for `dev`, sharing the
    /// IOMMU's telemetry handle so the whole stack reports into one
    /// registry.
    pub fn new(mem: Arc<PhysMemory>, mmu: Arc<Iommu>, dev: DeviceId, cfg: PoolConfig) -> Self {
        let obs = mmu.obs().clone();
        Self::with_obs(mem, mmu, dev, cfg, obs)
    }

    /// Creates the engine reporting into `obs`.
    pub fn with_obs(
        mem: Arc<PhysMemory>,
        mmu: Arc<Iommu>,
        dev: DeviceId,
        cfg: PoolConfig,
        obs: obs::Obs,
    ) -> Self {
        let pool = Arc::new(ShadowPool::with_obs(
            mem.clone(),
            mmu.clone(),
            dev,
            cfg,
            obs.clone(),
        ));
        ShadowDma {
            huge: HugeMapper::with_obs(mem.clone(), mmu.clone(), dev, obs),
            coherent: CoherentHelper::new(mem.clone(), mmu, dev),
            zc_iova: GlobalTreeIovaAllocator::new(),
            pool,
            mem,
            dev,
        }
    }

    /// The telemetry handle this engine reports into.
    pub fn obs(&self) -> &obs::Obs {
        self.pool.obs()
    }

    /// The shadow buffer pool.
    pub fn pool(&self) -> &Arc<ShadowPool> {
        &self.pool
    }

    /// The huge-buffer mapper.
    pub fn huge(&self) -> &HugeMapper {
        &self.huge
    }

    /// `dma_unmap`'s half of the shadowing: moves the bytes the device
    /// wrote from the shadow into the OS buffer. `mapping.wrote()` came off
    /// a device-written descriptor, so this is the one place it is
    /// clamped: never more than was mapped, whatever the device claims.
    /// The OS buffer beyond it is not written, so it never receives what
    /// the shadow slot's previous occupant left there.
    fn copy_back(
        &self,
        ctx: &mut CoreCtx,
        sref: &ShadowRef,
        mapping: &DmaMapping,
    ) -> Result<(), DmaError> {
        let n = mapping.wrote().min(mapping.buf().len);
        obs::profile::scope(ctx, "copy_back", |ctx| {
            self.mem.copy(sref.shadow_pa, sref.os_pa, n)?;
            self.charge_copy(ctx, n, self.is_cross_numa(sref.shadow_pa, sref.os_pa));
            Ok(())
        })
    }

    fn charge_copy(&self, ctx: &mut CoreCtx, len: usize, cross_numa: bool) {
        ctx.charge(Phase::Memcpy, ctx.cost.memcpy(len, cross_numa));
        let pollution = ctx.cost.cache_pollution(len);
        if pollution > simcore::Cycles::ZERO {
            // Victim working-set refetches surface later, outside the
            // copy itself — the paper attributes them to "other".
            ctx.charge(Phase::Other, pollution);
        }
    }

    fn is_cross_numa(&self, a: memsim::PhysAddr, b: memsim::PhysAddr) -> bool {
        let topo = self.mem.topology();
        topo.domain_of_pfn(a.pfn()) != topo.domain_of_pfn(b.pfn())
    }
}

impl DmaEngine for ShadowDma {
    fn name(&self) -> &'static str {
        "copy"
    }

    fn device(&self) -> DeviceId {
        self.dev
    }

    fn profile(&self) -> ProtectionProfile {
        ProtectionProfile {
            name: "copy",
            uses_iommu: true,
            sub_page: true,
            no_vulnerability_window: true,
        }
    }

    fn map(
        &self,
        ctx: &mut CoreCtx,
        buf: DmaBuf,
        dir: DmaDirection,
    ) -> Result<DmaMapping, DmaError> {
        let largest = *self
            .pool
            .codec()
            .class_sizes()
            .last()
            .expect("pool has classes");
        if buf.len > largest {
            let iova = self.huge.map(ctx, &self.zc_iova, buf, dir.perms())?;
            return Ok(DmaMapping::issue(iova, buf, dir));
        }
        let iova = obs::profile::scope(ctx, "pool_acquire", |ctx| {
            self.pool.acquire_shadow(ctx, buf, dir.perms())
        })?;
        if dir.device_reads() {
            let sref = self.pool.find_shadow(iova).expect("just acquired");
            let copied = obs::profile::scope(ctx, "copy_in", |ctx| {
                self.mem.copy(buf.pa, sref.shadow_pa, buf.len)?;
                self.charge_copy(ctx, buf.len, self.is_cross_numa(buf.pa, sref.shadow_pa));
                Ok::<(), DmaError>(())
            });
            // The caller gets no handle on this path, so nothing could ever
            // release the slot just acquired: release it here and report
            // the copy error.
            if let Err(e) = copied {
                let _ = self.pool.release_shadow(ctx, iova);
                return Err(e);
            }
        }
        Ok(DmaMapping::issue(iova, buf, dir))
    }

    fn unmap(&self, ctx: &mut CoreCtx, mapping: DmaMapping) -> Result<(), DmaError> {
        // Pool IOVAs carry the shadow flag (Fig. 2's MSB), so only the
        // others can be huge mappings: they alone consult the huge table.
        if self.pool.codec().decode(mapping.iova).is_none() {
            if let Some(entry) = self.huge.take(mapping.iova) {
                let wrote = mapping.wrote().min(mapping.buf().len);
                return self.huge.unmap(ctx, &self.zc_iova, entry, wrote);
            }
        }
        let sref = self
            .pool
            .find_shadow(mapping.iova)
            .expect("a handle's shadow slot is held until its unmap");
        debug_assert_eq!(sref.os_pa, mapping.buf().pa, "find_shadow is consistent");
        let copied = if mapping.dir().device_writes() {
            self.copy_back(ctx, &sref, &mapping)
        } else {
            Ok(())
        };
        // `mapping` is consumed, so the caller cannot retry: a failed
        // copy-back must not strand the slot in flight. Release on every
        // path and report the first error.
        let released = obs::profile::scope(ctx, "pool_release", |ctx| {
            self.pool.release_shadow(ctx, mapping.iova)
        });
        copied.and(released)
    }

    fn alloc_coherent(&self, ctx: &mut CoreCtx, len: usize) -> Result<CoherentBuffer, DmaError> {
        self.coherent.alloc(
            ctx,
            len,
            |ctx, pages, _| self.zc_iova.alloc(ctx, pages),
            |ctx, first, pages| self.zc_iova.free(ctx, first, pages),
        )
    }

    fn free_coherent(&self, ctx: &mut CoreCtx, buf: CoherentBuffer) -> Result<(), DmaError> {
        self.coherent.free(ctx, buf, |ctx, first, pages| {
            self.zc_iova.free(ctx, first, pages)
        })
    }

    fn flush_deferred(&self, ctx: &mut CoreCtx) {
        // The copy engine defers no invalidations, but when per-core
        // magazines are enabled the pool parks free slots per core; the
        // teardown/timer path returns them to the depot so the pool's
        // reclaim sees every slot.
        self.pool.drain_magazines(ctx);
    }

    fn iova_lock_stats(&self) -> Option<(&'static str, simcore::LockStats)> {
        self.zc_iova.lock_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dma_api::Bus;
    use memsim::{NumaDomain, NumaTopology, PAGE_SIZE};
    use simcore::{CoreId, CostModel, Cycles};

    const DEV: DeviceId = DeviceId(0);

    struct Rig {
        mem: Arc<PhysMemory>,
        mmu: Arc<Iommu>,
        bus: Bus,
        eng: ShadowDma,
        ctx: CoreCtx,
    }

    fn rig() -> Rig {
        let mem = Arc::new(PhysMemory::new(NumaTopology::new(4, 2, 4096)));
        let mmu = Arc::new(Iommu::new());
        Rig {
            eng: ShadowDma::new(mem.clone(), mmu.clone(), DEV, PoolConfig::default()),
            bus: Bus::Iommu {
                mmu: mmu.clone(),
                mem: mem.clone(),
            },
            ctx: CoreCtx::new(CoreId(0), Arc::new(CostModel::haswell_2_4ghz())),
            mem,
            mmu,
        }
    }

    fn os_buf(r: &Rig, len: usize) -> DmaBuf {
        let pages = (len as u64).div_ceil(PAGE_SIZE as u64);
        let pfn = r.mem.alloc_frames(NumaDomain(0), pages).unwrap();
        DmaBuf::new(pfn.base(), len)
    }

    #[test]
    fn rx_roundtrip_no_invalidation_ever() {
        let mut r = rig();
        let buf = os_buf(&r, 1500);
        let m = r
            .eng
            .map(&mut r.ctx, buf, DmaDirection::FromDevice)
            .unwrap();
        // The device writes a packet into the SHADOW buffer.
        let pkt = vec![0x77u8; 1500];
        r.bus.write(DEV, m.iova.get(), &pkt).unwrap();
        // Until unmap, the OS buffer is untouched (the device never saw it).
        assert_eq!(r.mem.read_vec(buf.pa, 1500).unwrap(), vec![0u8; 1500]);
        r.eng.unmap(&mut r.ctx, m).unwrap();
        // The unmap copy delivered the data.
        assert_eq!(r.mem.read_vec(buf.pa, 1500).unwrap(), pkt);
        // And the whole exchange issued ZERO IOTLB invalidations.
        assert_eq!(r.mmu.invalq().stats().page_commands, 0);
        assert_eq!(r.mmu.invalq().stats().flush_commands, 0);
        assert_eq!(r.ctx.breakdown().get(Phase::InvalidateIotlb), Cycles::ZERO);
    }

    #[test]
    fn tx_copies_at_map_time() {
        let mut r = rig();
        let buf = os_buf(&r, 1000);
        let payload = vec![0x42u8; 1000];
        r.mem.write(buf.pa, &payload).unwrap();
        let m = r.eng.map(&mut r.ctx, buf, DmaDirection::ToDevice).unwrap();
        // The device reads the packet from the shadow.
        let mut out = vec![0u8; 1000];
        r.bus.read(DEV, m.iova.get(), &mut out).unwrap();
        assert_eq!(out, payload);
        // Writes by the device are blocked (rights = Read).
        assert!(r.bus.write(DEV, m.iova.get(), b"x").is_err());
        r.eng.unmap(&mut r.ctx, m).unwrap();
    }

    #[test]
    fn device_never_reaches_os_memory() {
        // The essence of byte-granularity protection: even while a mapping
        // is live, the OS buffer's own physical page is invisible to the
        // device — only the shadow is mapped.
        let mut r = rig();
        let buf = os_buf(&r, 512);
        r.mem.write(buf.pa.add(512), b"neighbor secret").unwrap();
        let m = r
            .eng
            .map(&mut r.ctx, buf, DmaDirection::Bidirectional)
            .unwrap();
        // Probing the OS buffer's physical address as an IOVA faults.
        assert!(r.bus.read(DEV, buf.pa.get(), &mut [0u8; 16]).is_err());
        // Probing beyond the mapped shadow's own bytes stays inside shadow
        // memory (same rights), never in OS memory; the secret at
        // buf.pa+512 is unreachable because no IOVA maps its page.
        let sref = r.eng.pool().find_shadow(m.iova).unwrap();
        assert_ne!(sref.shadow_pa.pfn(), buf.pa.pfn());
        r.eng.unmap(&mut r.ctx, m).unwrap();
    }

    #[test]
    fn stale_mapping_after_unmap_reads_only_shadow() {
        // After unmap the shadow stays mapped (by design!) but it no longer
        // holds OS-relevant data; a malicious late write mutates only the
        // recycled shadow, never the returned OS buffer (§5.2 Security).
        let mut r = rig();
        let buf = os_buf(&r, 1500);
        let m = r
            .eng
            .map(&mut r.ctx, buf, DmaDirection::FromDevice)
            .unwrap();
        let stale = m.iova;
        r.bus.write(DEV, stale.get(), &vec![1u8; 1500]).unwrap();
        r.eng.unmap(&mut r.ctx, m).unwrap();
        let os_after = r.mem.read_vec(buf.pa, 1500).unwrap();
        // Late device write to the (still-mapped) shadow succeeds...
        r.bus.write(DEV, stale.get(), &vec![9u8; 1500]).unwrap();
        // ...but the OS buffer is unaffected.
        assert_eq!(r.mem.read_vec(buf.pa, 1500).unwrap(), os_after);
    }

    #[test]
    fn copy_costs_match_calibration() {
        let mut r = rig();
        let buf = os_buf(&r, 1500);
        // Warm the pool.
        let m = r
            .eng
            .map(&mut r.ctx, buf, DmaDirection::FromDevice)
            .unwrap();
        r.eng.unmap(&mut r.ctx, m).unwrap();
        r.ctx.reset_stats();
        let m = r
            .eng
            .map(&mut r.ctx, buf, DmaDirection::FromDevice)
            .unwrap();
        r.eng.unmap(&mut r.ctx, m).unwrap();
        // RX 1500 B: one copy ≈ 0.11 µs, pool mgmt ≈ 0.02 µs (Fig. 5a).
        let memcpy_us = r
            .ctx
            .breakdown()
            .get(Phase::Memcpy)
            .to_micros(r.ctx.cost.clock_ghz);
        assert!((memcpy_us - 0.11).abs() < 0.03, "{memcpy_us}");
        let mgmt_us = r
            .ctx
            .breakdown()
            .get(Phase::CopyMgmt)
            .to_micros(r.ctx.cost.clock_ghz);
        assert!((mgmt_us - 0.02).abs() < 0.01, "{mgmt_us}");
        assert_eq!(r.ctx.breakdown().get(Phase::InvalidateIotlb), Cycles::ZERO);
    }

    #[test]
    fn copy_back_moves_what_the_device_wrote() {
        let mut r = rig();
        let buf = os_buf(&r, 1500);
        let m = r
            .eng
            .map(&mut r.ctx, buf, DmaDirection::FromDevice)
            .unwrap();
        // The device delivers a 300-byte packet into the MTU-sized buffer.
        let pkt = vec![0xaau8; 300];
        r.bus.write(DEV, m.iova.get(), &pkt).unwrap();
        r.ctx.reset_stats();
        r.eng.unmap(&mut r.ctx, m.device_wrote(300)).unwrap();
        // 300 bytes were copied, not 1500, and the OS buffer got the packet.
        let copied = r.ctx.breakdown().get(Phase::Memcpy);
        assert_eq!(copied, r.ctx.cost.memcpy(300, false));
        assert_eq!(r.mem.read_vec(buf.pa, 300).unwrap(), pkt);
    }

    #[test]
    fn stale_shadow_tail_never_reaches_the_next_buffer() {
        let mut r = rig();
        let deliver = |r: &mut Rig, wire: usize, fill: u8, report: bool| {
            let buf = os_buf(r, 1500);
            let m = r
                .eng
                .map(&mut r.ctx, buf, DmaDirection::FromDevice)
                .unwrap();
            let iova = m.iova;
            r.bus.write(DEV, iova.get(), &vec![fill; wire]).unwrap();
            let m = if report { m.device_wrote(wire) } else { m };
            r.eng.unmap(&mut r.ctx, m).unwrap();
            (iova, r.mem.read_vec(buf.pa, 1500).unwrap())
        };
        // A fills 1400 bytes of a slot; B and C reuse the slot for 100.
        let (slot, _) = deliver(&mut r, 1400, 0xa1, true);
        let (slot_b, b) = deliver(&mut r, 100, 0xb2, true);
        assert_eq!(slot_b, slot, "B landed on A's slot");
        assert_eq!(b[..100], [0xb2; 100]);
        assert_eq!(b[100..], [0u8; 1400], "B's tail was never written");
        // C's driver reports nothing, so all 1500 mapped bytes come back:
        // A's bytes 100..1400 included. That is what reporting prevents.
        let (slot_c, c) = deliver(&mut r, 100, 0xc3, false);
        assert_eq!(slot_c, slot);
        assert_eq!(c[..100], [0xc3; 100]);
        assert_eq!(c[100..1400], [0xa1; 1300]);
    }

    #[test]
    fn a_lying_completion_length_is_clamped_to_the_mapping() {
        let mut r = rig();
        let buf = os_buf(&r, 1500);
        // The rest of the OS buffer's page belongs to somebody else.
        r.mem
            .fill(buf.pa.add(1500), 0xee, PAGE_SIZE - 1500)
            .unwrap();
        let m = r
            .eng
            .map(&mut r.ctx, buf, DmaDirection::FromDevice)
            .unwrap();
        r.bus.write(DEV, m.iova.get(), &vec![5u8; 1500]).unwrap();
        r.ctx.reset_stats();
        r.eng.unmap(&mut r.ctx, m.device_wrote(usize::MAX)).unwrap();
        assert_eq!(
            r.ctx.breakdown().get(Phase::Memcpy),
            r.ctx.cost.memcpy(1500, false)
        );
        assert_eq!(r.mem.read_vec(buf.pa, 1500).unwrap(), vec![5u8; 1500]);
        assert_eq!(
            r.mem.read_vec(buf.pa.add(1500), PAGE_SIZE - 1500).unwrap(),
            vec![0xeeu8; PAGE_SIZE - 1500]
        );
        assert_eq!(r.eng.pool().stats().in_flight, 0);
    }

    #[test]
    fn device_wrote_on_a_to_device_mapping_changes_nothing() {
        let mut r = rig();
        let buf = os_buf(&r, 1000);
        r.mem.write(buf.pa, &vec![0x42u8; 1000]).unwrap();
        let m = r.eng.map(&mut r.ctx, buf, DmaDirection::ToDevice).unwrap();
        r.ctx.reset_stats();
        r.eng.unmap(&mut r.ctx, m.device_wrote(5)).unwrap();
        // No copy-back either way: the device could not write.
        assert_eq!(r.ctx.breakdown().get(Phase::Memcpy), Cycles::ZERO);
        assert_eq!(r.mem.read_vec(buf.pa, 1000).unwrap(), vec![0x42u8; 1000]);
    }

    #[test]
    fn huge_buffers_route_to_hybrid_path() {
        let mut r = rig();
        let buf = os_buf(&r, 300_000);
        let m = r
            .eng
            .map(&mut r.ctx, buf, DmaDirection::FromDevice)
            .unwrap();
        assert_eq!(r.eng.huge().live_count(), 1);
        let data: Vec<u8> = (0..300_000).map(|i| (i % 239) as u8).collect();
        r.bus.write(DEV, m.iova.get(), &data).unwrap();
        r.eng.unmap(&mut r.ctx, m).unwrap();
        assert_eq!(r.mem.read_vec(buf.pa, 300_000).unwrap(), data);
        assert_eq!(r.eng.huge().live_count(), 0);
        // Huge unmap IS strict (it invalidates), unlike the pool path.
        assert!(r.mmu.invalq().stats().page_commands > 0);
    }

    #[test]
    fn huge_copy_back_stops_at_what_the_device_wrote() {
        // §5.4 on the hybrid path: an unaligned 200 KB RX buffer, of which
        // the device fills the first 100 B. The head and tail shadows must
        // not overwrite the OS bytes the device never wrote.
        let mut r = rig();
        let (off, len) = (1000u64, 200_000);
        let pages = (off + len as u64).div_ceil(PAGE_SIZE as u64);
        let pfn = r.mem.alloc_frames(NumaDomain(0), pages).unwrap();
        let buf = DmaBuf::new(pfn.base().add(off), len);
        r.mem.write(buf.pa, &vec![0xabu8; len]).unwrap();
        let m = r
            .eng
            .map(&mut r.ctx, buf, DmaDirection::FromDevice)
            .unwrap();
        assert_eq!(r.eng.huge().live_count(), 1);
        r.bus.write(DEV, m.iova.get(), &[0x11u8; 100]).unwrap();
        r.eng.unmap(&mut r.ctx, m.device_wrote(100)).unwrap();
        let os = r.mem.read_vec(buf.pa, len).unwrap();
        assert_eq!(os[..100], [0x11u8; 100]);
        assert!(
            os[100..].iter().all(|&b| b == 0xab),
            "an OS byte past what the device wrote was overwritten"
        );
    }

    #[test]
    fn sg_list_round_trip() {
        let mut r = rig();
        let bufs: Vec<DmaBuf> = (0..4).map(|_| os_buf(&r, 2048)).collect();
        for (i, b) in bufs.iter().enumerate() {
            r.mem.write(b.pa, &vec![i as u8 + 1; 2048]).unwrap();
        }
        let ms = r
            .eng
            .map_sg(&mut r.ctx, &bufs, DmaDirection::ToDevice)
            .unwrap();
        for (i, m) in ms.iter().enumerate() {
            let mut out = vec![0u8; 2048];
            r.bus.read(DEV, m.iova.get(), &mut out).unwrap();
            assert_eq!(out, vec![i as u8 + 1; 2048]);
        }
        r.eng.unmap_sg(&mut r.ctx, ms).unwrap();
    }

    #[test]
    fn coherent_allocation_works_and_is_strict() {
        let mut r = rig();
        let c = r.eng.alloc_coherent(&mut r.ctx, 4096 * 3).unwrap();
        r.bus.write(DEV, c.iova.get(), b"descriptor ring").unwrap();
        assert_eq!(r.mem.read_vec(c.pa, 15).unwrap(), b"descriptor ring");
        let stale = c.iova;
        r.eng.free_coherent(&mut r.ctx, c).unwrap();
        assert!(r.bus.write(DEV, stale.get(), b"x").is_err());
    }

    #[test]
    fn bidirectional_copies_both_ways() {
        let mut r = rig();
        let buf = os_buf(&r, 4096);
        r.mem.write(buf.pa, &vec![0x10u8; 4096]).unwrap();
        let m = r
            .eng
            .map(&mut r.ctx, buf, DmaDirection::Bidirectional)
            .unwrap();
        // Device sees the OS data...
        let mut out = vec![0u8; 4096];
        r.bus.read(DEV, m.iova.get(), &mut out).unwrap();
        assert_eq!(out, vec![0x10u8; 4096]);
        // ...modifies it...
        r.bus.write(DEV, m.iova.get(), &vec![0x20u8; 4096]).unwrap();
        r.eng.unmap(&mut r.ctx, m).unwrap();
        // ...and the OS sees the modification.
        assert_eq!(r.mem.read_vec(buf.pa, 4096).unwrap(), vec![0x20u8; 4096]);
    }

    #[test]
    fn profile_is_fully_protected() {
        let r = rig();
        let p = r.eng.profile();
        assert!(p.uses_iommu && p.sub_page && p.no_vulnerability_window);
        assert_eq!(r.eng.name(), "copy");
    }

    #[test]
    fn failed_copy_back_still_releases_the_slot() {
        // `unmap` consumes the handle, so it cannot leave the revocation
        // half done for a retry that can never come.
        let mut r = rig();
        let buf = os_buf(&r, 1500);
        let m = r
            .eng
            .map(&mut r.ctx, buf, DmaDirection::FromDevice)
            .unwrap();
        r.mem.free_frames(buf.pa.pfn(), 1).unwrap();
        assert!(matches!(
            r.eng.unmap(&mut r.ctx, m),
            Err(DmaError::Mem(memsim::MemError::Unallocated(_)))
        ));
        assert_eq!(r.eng.pool().stats().in_flight, 0);
    }

    #[test]
    fn failed_copy_in_releases_the_slot_it_acquired() {
        // `map` returns no handle on error, so nobody else can release.
        let mut r = rig();
        let buf = os_buf(&r, 1500);
        let good = r.eng.map(&mut r.ctx, buf, DmaDirection::ToDevice).unwrap();
        let iova = good.iova;
        r.eng.unmap(&mut r.ctx, good).unwrap();

        // In bounds, in the domain nothing here allocates from.
        let never_allocated = DmaBuf::new(memsim::PhysAddr(4000 * PAGE_SIZE as u64), 1500);
        assert!(matches!(
            r.eng
                .map(&mut r.ctx, never_allocated, DmaDirection::ToDevice),
            Err(DmaError::Mem(memsim::MemError::Unallocated(_)))
        ));
        assert_eq!(r.eng.pool().stats().in_flight, 0);
        // The failed map took the slot at the head of the free list; it is
        // back there, not stranded.
        let again = r.eng.map(&mut r.ctx, buf, DmaDirection::ToDevice).unwrap();
        assert_eq!(again.iova, iova);
        r.eng.unmap(&mut r.ctx, again).unwrap();
    }
}
