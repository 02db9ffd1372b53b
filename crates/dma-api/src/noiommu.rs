//! The *no-iommu* baseline: IOMMU disabled, zero protection, zero cost.

use crate::{
    CoherentBuffer, DmaBuf, DmaDirection, DmaEngine, DmaError, DmaMapping, ProtectionProfile,
};
use iommu::{DeviceId, Iova};
use memsim::{PhysMemory, PAGE_SIZE};
use simcore::CoreCtx;
use std::sync::Arc;

/// The IOMMU-disabled DMA API: device addresses *are* physical addresses.
///
/// `map`/`unmap` are bookkeeping-free (and cost-free): the returned "IOVA"
/// is the buffer's physical address, and the device — connected via
/// [`crate::Bus::Direct`] — can reach any allocated memory at any time.
/// This is the paper's performance ceiling and its security floor.
#[derive(Debug)]
pub struct NoIommu {
    mem: Arc<PhysMemory>,
    dev: DeviceId,
}

impl NoIommu {
    /// Creates the engine.
    pub fn new(mem: Arc<PhysMemory>, dev: DeviceId) -> Self {
        NoIommu { mem, dev }
    }
}

impl DmaEngine for NoIommu {
    fn name(&self) -> &'static str {
        "no iommu"
    }

    fn device(&self) -> DeviceId {
        self.dev
    }

    fn profile(&self) -> ProtectionProfile {
        ProtectionProfile {
            name: "no iommu",
            uses_iommu: false,
            sub_page: false,
            no_vulnerability_window: false,
        }
    }

    fn map(
        &self,
        _ctx: &mut CoreCtx,
        buf: DmaBuf,
        dir: DmaDirection,
    ) -> Result<DmaMapping, DmaError> {
        Ok(DmaMapping {
            iova: Iova::new(buf.pa.get()),
            len: buf.len,
            dir,
            os_pa: buf.pa,
            wrote: buf.len,
        })
    }

    fn unmap(&self, _ctx: &mut CoreCtx, _mapping: DmaMapping) -> Result<(), DmaError> {
        Ok(())
    }

    fn alloc_coherent(&self, ctx: &mut CoreCtx, len: usize) -> Result<CoherentBuffer, DmaError> {
        assert!(len > 0, "zero-length coherent allocation");
        let pages = (len as u64).div_ceil(PAGE_SIZE as u64);
        let domain = self.mem.topology().domain_of_core(ctx.core);
        let pfn = self.mem.alloc_frames(domain, pages)?;
        Ok(CoherentBuffer {
            iova: Iova::new(pfn.base().get()),
            pa: pfn.base(),
            len,
            pages,
        })
    }

    fn free_coherent(&self, _ctx: &mut CoreCtx, buf: CoherentBuffer) -> Result<(), DmaError> {
        self.mem.free_frames(buf.pa.pfn(), buf.pages)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bus;
    use memsim::{NumaDomain, NumaTopology, PhysAddr};
    use simcore::{CoreId, CostModel, Cycles};

    fn setup() -> (NoIommu, Arc<PhysMemory>, CoreCtx) {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(32)));
        let ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::haswell_2_4ghz()));
        (NoIommu::new(mem.clone(), DeviceId(0)), mem, ctx)
    }

    #[test]
    fn map_is_identity_and_free() {
        let (eng, mem, mut ctx) = setup();
        let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        let buf = DmaBuf::new(pfn.base().add(10), 100);
        let m = eng.map(&mut ctx, buf, DmaDirection::FromDevice).unwrap();
        assert_eq!(m.iova.get(), buf.pa.get());
        eng.unmap(&mut ctx, m).unwrap();
        assert_eq!(ctx.now(), Cycles::ZERO, "no-iommu map/unmap cost nothing");
    }

    #[test]
    fn device_dma_lands_in_os_buffer_directly() {
        let (eng, mem, mut ctx) = setup();
        let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        let buf = DmaBuf::new(pfn.base(), 64);
        let m = eng.map(&mut ctx, buf, DmaDirection::FromDevice).unwrap();
        let bus = Bus::Direct(mem.clone());
        bus.write(DeviceId(0), m.iova.get(), b"device data")
            .unwrap();
        eng.unmap(&mut ctx, m).unwrap();
        assert_eq!(mem.read_vec(buf.pa, 11).unwrap(), b"device data");
    }

    #[test]
    fn coherent_roundtrip() {
        let (eng, mem, mut ctx) = setup();
        let c = eng.alloc_coherent(&mut ctx, 6000).unwrap();
        assert_eq!(c.pages, 2);
        assert_eq!(c.iova.get(), c.pa.get());
        mem.write(c.pa, b"ring").unwrap();
        let pfn = c.pa.pfn();
        eng.free_coherent(&mut ctx, c).unwrap();
        assert!(!mem.is_allocated(pfn));
    }

    #[test]
    fn profile_is_unprotected() {
        let (eng, _, _) = setup();
        let p = eng.profile();
        assert!(!p.uses_iommu && !p.sub_page && !p.no_vulnerability_window);
        let _ = PhysAddr(0);
    }
}
