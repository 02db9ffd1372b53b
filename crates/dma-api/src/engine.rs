//! The `DmaEngine` trait: the DMA API every protection scheme implements.

use crate::{CoherentBuffer, DmaBuf, DmaDirection, DmaError, DmaMapping, ProtectionProfile};
use iommu::DeviceId;
use simcore::CoreCtx;

/// The OS DMA API (§2.2), one implementation per protection scheme.
///
/// Drivers use it in the canonical map → DMA → unmap pattern:
///
/// 1. `map` authorizes an upcoming DMA to `buf` and returns the
///    device-visible address. After `map`, the buffer belongs to the
///    device: the OS must not touch it.
/// 2. The device DMAs through [`crate::Bus`] using the returned IOVA.
/// 3. `unmap` revokes device access and returns buffer ownership to the
///    OS.
///
/// The protocol is an ownership protocol and the handles carry it:
/// [`DmaMapping`] and [`CoherentBuffer`] are move-only, `unmap` /
/// `unmap_sg` / `free_coherent` consume them, and every observer borrows.
/// A consumed handle cannot be retried, so an `unmap` that returns `Err`
/// has still finished the revocation as far as it can. The handles are
/// sealed too, so an engine trusts the one it gets back, as Linux's
/// `dma_unmap_*` do, without looking it up. There is no `dma_sync_*`:
/// under DMA shadowing the device's bytes reach the OS buffer only in
/// `unmap`'s copy, so "sync, then read while mapped" has no
/// engine-independent meaning — a driver reads a device-written buffer
/// after `unmap`, and the lint's `cpu-read-while-mapped` rule holds it to
/// that.
///
/// All operations charge their modeled cost to `ctx`. Simulated multi-core
/// contention is expressed in virtual time via `ctx.core`; engines are
/// additionally `Send + Sync` so the `modelcheck` bounded model checker can
/// drive one engine instance from several schedule-controlled host threads.
pub trait DmaEngine: Send + Sync {
    /// The engine's name as used in the paper's figures
    /// (`no iommu`, `copy`, `identity+`, `identity-`, `strict`, `defer`).
    fn name(&self) -> &'static str;

    /// The device this engine instance manages DMA for.
    fn device(&self) -> DeviceId;

    /// Qualitative protection properties (the paper's Table 1 row).
    fn profile(&self) -> ProtectionProfile;

    /// `dma_map`: authorizes a DMA to `buf` with direction `dir`; returns
    /// the mapping whose IOVA the driver programs into the device.
    fn map(
        &self,
        ctx: &mut CoreCtx,
        buf: DmaBuf,
        dir: DmaDirection,
    ) -> Result<DmaMapping, DmaError>;

    /// `dma_unmap`: revokes the mapping. For device-write directions,
    /// engines that copy (DMA shadowing) transfer the DMAed data back into
    /// the OS buffer here.
    fn unmap(&self, ctx: &mut CoreCtx, mapping: DmaMapping) -> Result<(), DmaError>;

    /// `dma_map_sg`: maps a scatter/gather list. The default maps each
    /// element independently, which is how the paper's design treats SG
    /// elements (§5.2).
    fn map_sg(
        &self,
        ctx: &mut CoreCtx,
        bufs: &[DmaBuf],
        dir: DmaDirection,
    ) -> Result<Vec<DmaMapping>, DmaError> {
        let mut out = Vec::with_capacity(bufs.len());
        for &b in bufs {
            match self.map(ctx, b, dir) {
                Ok(m) => out.push(m),
                Err(e) => {
                    // Roll back already-established mappings.
                    for m in out {
                        let _ = self.unmap(ctx, m);
                    }
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    /// `dma_unmap_sg`: unmaps a scatter/gather list. Every element is
    /// unmapped even when one fails — an early return would leave the rest
    /// of the list mapped — and the first error is returned.
    fn unmap_sg(&self, ctx: &mut CoreCtx, mappings: Vec<DmaMapping>) -> Result<(), DmaError> {
        let mut first_err = Ok(());
        for m in mappings {
            first_err = first_err.and(self.unmap(ctx, m));
        }
        first_err
    }

    /// `dma_alloc_coherent`: allocates page-quantity memory permanently
    /// mapped for both driver and device (§2.2). Infrequent and not
    /// performance-critical; every engine uses strict semantics here.
    fn alloc_coherent(&self, ctx: &mut CoreCtx, len: usize) -> Result<CoherentBuffer, DmaError>;

    /// `dma_free_coherent`: releases a coherent buffer, strictly
    /// invalidating its translations.
    fn free_coherent(&self, ctx: &mut CoreCtx, buf: CoherentBuffer) -> Result<(), DmaError>;

    /// Drains any deferred invalidations (the teardown path; nothing
    /// drains on a timer). No-op for strict engines.
    fn flush_deferred(&self, _ctx: &mut CoreCtx) {}

    /// The name and a snapshot of the engine's IOVA-allocator lock, if the
    /// engine allocates IOVAs under a contention-visible lock. The scaling
    /// sweep uses this to attribute `Phase::Spinlock` time to the
    /// allocator, separately from the invalidation-queue lock.
    fn iova_lock_stats(&self) -> Option<(&'static str, simcore::LockStats)> {
        None
    }
}
