//! `TracedDma` — wraps any [`DmaEngine`] with telemetry.
//!
//! Every `dma_map` / `dma_unmap` is recorded as a structured trace event
//! and counted in the registry, regardless of which protection scheme the
//! inner engine implements. The unmap event opens a cause span, so the
//! IOTLB-invalidation (and lock-contention) events the unmap triggers are
//! attributed back to it — this is how a single `dma_unmap` in a report
//! can be broken into its invalidation wait.

use crate::{
    CoherentBuffer, DmaBuf, DmaDirection, DmaEngine, DmaError, DmaMapping, DmaObserver,
    ProtectionProfile,
};
use iommu::DeviceId;
use obs::{Counter, EventKind, Histogram, Obs};
use simcore::CoreCtx;
use std::borrow::Cow;
use std::sync::Arc;

fn dir_str(dir: DmaDirection) -> Cow<'static, str> {
    Cow::Borrowed(match dir {
        DmaDirection::ToDevice => "to_device",
        DmaDirection::FromDevice => "from_device",
        DmaDirection::Bidirectional => "bidirectional",
    })
}

/// A [`DmaEngine`] decorator adding trace events and `dma.*{dev}` metrics.
///
/// # Examples
///
/// ```
/// use dma_api::{DmaBuf, DmaDirection, DmaEngine, NoIommu, TracedDma};
/// use memsim::{NumaDomain, NumaTopology, PhysMemory};
/// use obs::Obs;
/// use simcore::{CoreCtx, CoreId, CostModel};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
/// let obs = Obs::isolated();
/// let inner = Box::new(NoIommu::new(mem.clone(), iommu::DeviceId(0)));
/// let eng = TracedDma::new(inner, obs.clone(), None);
/// let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
/// let buf = DmaBuf::new(mem.alloc_frame(NumaDomain(0))?.base(), 1500);
/// let m = eng.map(&mut ctx, buf, DmaDirection::FromDevice)?;
/// eng.unmap(&mut ctx, m)?;
/// let names: Vec<_> = obs.tracer().events().iter().map(|e| e.kind.name()).collect();
/// assert_eq!(names, ["DmaMap", "DmaUnmap"]);
/// # Ok(())
/// # }
/// ```
pub struct TracedDma {
    inner: Box<dyn DmaEngine>,
    obs: Obs,
    observer: Option<Arc<dyn DmaObserver>>,
    maps: Counter,
    unmaps: Counter,
    map_bytes: Histogram,
}

impl TracedDma {
    /// Wraps `inner`, reporting into `obs` and notifying `observer` (the
    /// DMA sanitizer), if any, of every lifecycle event.
    pub fn new(
        inner: Box<dyn DmaEngine>,
        obs: Obs,
        observer: Option<Arc<dyn DmaObserver>>,
    ) -> Self {
        let d = Some(inner.device().0);
        TracedDma {
            maps: obs.counter("dma", "maps", d),
            unmaps: obs.counter("dma", "unmaps", d),
            map_bytes: obs.histogram("dma", "map_bytes", d),
            inner,
            obs,
            observer,
        }
    }
}

impl DmaEngine for TracedDma {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn device(&self) -> DeviceId {
        self.inner.device()
    }

    fn profile(&self) -> ProtectionProfile {
        self.inner.profile()
    }

    fn map(
        &self,
        ctx: &mut CoreCtx,
        buf: DmaBuf,
        dir: DmaDirection,
    ) -> Result<DmaMapping, DmaError> {
        let m = obs::profile::scope(ctx, "dma_map", |ctx| self.inner.map(ctx, buf, dir))?;
        self.maps.inc();
        self.map_bytes.record(m.len as u64);
        self.obs.set_now_hint(ctx.now());
        let seq = self.obs.trace(
            ctx.now(),
            ctx.core.0,
            Some(self.inner.device().0),
            EventKind::DmaMap {
                iova: m.iova.get(),
                len: m.len as u64,
                dir: dir_str(dir),
            },
        );
        if let Some(o) = &self.observer {
            o.on_map(ctx, self.inner.device(), &m, seq);
        }
        Ok(m)
    }

    fn unmap(&self, ctx: &mut CoreCtx, mapping: DmaMapping) -> Result<(), DmaError> {
        // Record the unmap first and open a cause span: the invalidation
        // (and contention) events the inner engine emits while tearing the
        // mapping down chain back to this event.
        self.obs.set_now_hint(ctx.now());
        let seq = self.obs.trace(
            ctx.now(),
            ctx.core.0,
            Some(self.inner.device().0),
            EventKind::DmaUnmap {
                iova: mapping.iova.get(),
                len: mapping.len as u64,
            },
        );
        let _span = obs::span(seq);
        // Notify the observer *before* the inner unmap so misuse (double
        // unmap, size mismatch) is seen even if the inner engine rejects
        // the call.
        if let Some(o) = &self.observer {
            o.on_unmap(ctx, self.inner.device(), &mapping, seq);
        }
        obs::profile::scope(ctx, "dma_unmap", |ctx| self.inner.unmap(ctx, mapping))?;
        self.unmaps.inc();
        Ok(())
    }

    fn alloc_coherent(&self, ctx: &mut CoreCtx, len: usize) -> Result<CoherentBuffer, DmaError> {
        let buf = obs::profile::scope(ctx, "dma_alloc_coherent", |ctx| {
            self.inner.alloc_coherent(ctx, len)
        })?;
        if let Some(o) = &self.observer {
            o.on_alloc_coherent(ctx, self.inner.device(), &buf);
        }
        Ok(buf)
    }

    fn free_coherent(&self, ctx: &mut CoreCtx, buf: CoherentBuffer) -> Result<(), DmaError> {
        if let Some(o) = &self.observer {
            o.on_free_coherent(ctx, self.inner.device(), &buf);
        }
        obs::profile::scope(ctx, "dma_free_coherent", |ctx| {
            self.inner.free_coherent(ctx, buf)
        })
    }

    fn flush_deferred(&self, ctx: &mut CoreCtx) {
        self.inner.flush_deferred(ctx);
    }

    fn iova_lock_stats(&self) -> Option<(&'static str, simcore::LockStats)> {
        self.inner.iova_lock_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoIommu;
    use memsim::{NumaDomain, NumaTopology, PhysMemory};
    use simcore::{CoreId, CostModel, Cycles};
    use std::sync::Arc;

    fn rig() -> (Arc<PhysMemory>, Obs, TracedDma, CoreCtx) {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(32)));
        let obs = Obs::isolated();
        let inner = Box::new(NoIommu::new(mem.clone(), DeviceId(3)));
        let eng = TracedDma::new(inner, obs.clone(), None);
        let ctx = CoreCtx::new(CoreId(1), Arc::new(CostModel::zero()));
        (mem, obs, eng, ctx)
    }

    #[test]
    fn map_unmap_pair_traced_and_counted() {
        let (mem, obs, eng, mut ctx) = rig();
        let buf = DmaBuf::new(mem.alloc_frame(NumaDomain(0)).unwrap().base(), 999);
        let m = eng.map(&mut ctx, buf, DmaDirection::ToDevice).unwrap();
        let iova = m.iova.get();
        eng.unmap(&mut ctx, m).unwrap();
        let evs = obs.tracer().events();
        assert_eq!(evs.len(), 2);
        assert_eq!(
            evs[0].kind,
            EventKind::DmaMap {
                iova,
                len: 999,
                dir: "to_device".into(),
            }
        );
        assert_eq!(evs[1].kind, EventKind::DmaUnmap { iova, len: 999 });
        assert_eq!(evs[1].device, Some(3));
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("dma", "maps", Some(3)), Some(1));
        assert_eq!(snap.counter("dma", "unmaps", Some(3)), Some(1));
    }

    #[test]
    fn sg_maps_trace_each_element() {
        let (mem, obs, eng, mut ctx) = rig();
        let bufs: Vec<DmaBuf> = (0..3)
            .map(|_| DmaBuf::new(mem.alloc_frame(NumaDomain(0)).unwrap().base(), 2048))
            .collect();
        let ms = eng
            .map_sg(&mut ctx, &bufs, DmaDirection::FromDevice)
            .unwrap();
        eng.unmap_sg(&mut ctx, ms).unwrap();
        let names: Vec<_> = obs
            .tracer()
            .events()
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(
            names,
            ["DmaMap", "DmaMap", "DmaMap", "DmaUnmap", "DmaUnmap", "DmaUnmap"]
        );
    }

    #[test]
    fn events_during_unmap_chain_to_it() {
        let (mem, obs, eng, mut ctx) = rig();
        let buf = DmaBuf::new(mem.alloc_frame(NumaDomain(0)).unwrap().base(), 64);
        let m = eng.map(&mut ctx, buf, DmaDirection::ToDevice).unwrap();
        eng.unmap(&mut ctx, m).unwrap();
        // Simulate a child event recorded while no span is open: no cause.
        let orphan = obs.trace(Cycles(9), 0, None, EventKind::PoolShrink { bytes: 1 });
        let evs = obs.tracer().events();
        assert_eq!(evs[0].cause, None, "map has no enclosing span");
        assert!(evs.iter().any(|e| e.seq == orphan && e.cause.is_none()));
    }
}
