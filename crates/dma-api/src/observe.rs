//! Observer hooks for correctness tooling.
//!
//! The sanitizer crate (`dmasan`) sits *above* `dma-api` in the dependency
//! graph, so the DMA layer cannot call it directly. Instead it exposes two
//! small trait hooks — [`DmaObserver`] for the OS-side map/unmap lifecycle
//! and [`BusObserver`] for device-side bus traffic — that `dmasan`
//! implements and the stack wires in at construction time. With no
//! observer installed the hooks cost one `Option` check.

use crate::{CoherentBuffer, DmaMapping};
use iommu::DeviceId;
use simcore::CoreCtx;
use std::fmt::Debug;

/// OS-side DMA-API lifecycle hooks.
///
/// [`crate::TracedDma`] invokes these around the inner engine:
///
/// - `on_map` fires *after* a successful inner map, with the trace `seq`
///   of the `DmaMap` event (so violations can chain back to it);
/// - `on_unmap` fires *before* the inner unmap, so misuse (double unmap,
///   wrong size) is observed even when the inner engine then errors;
/// - the coherent-buffer hooks register long-lived device windows (e.g.
///   descriptor rings) that are legal targets outside any streaming
///   mapping.
pub trait DmaObserver: Debug + Send + Sync {
    /// A streaming mapping was created.
    fn on_map(&self, ctx: &CoreCtx, dev: DeviceId, mapping: &DmaMapping, map_seq: u64);
    /// A streaming mapping is about to be destroyed.
    fn on_unmap(&self, ctx: &CoreCtx, dev: DeviceId, mapping: &DmaMapping, unmap_seq: u64);
    /// A coherent buffer (descriptor ring, status block) was allocated.
    fn on_alloc_coherent(&self, ctx: &CoreCtx, dev: DeviceId, buf: &CoherentBuffer);
    /// A coherent buffer was freed.
    fn on_free_coherent(&self, ctx: &CoreCtx, dev: DeviceId, buf: &CoherentBuffer);
}

/// Device-side bus traffic hook.
///
/// [`crate::Bus::Observed`] invokes this for every device read/write,
/// *after* the underlying bus (IOMMU or direct memory) has decided the
/// access. `granted` reports that hardware decision; the observer layers
/// the DMA-API-contract check (is there a live mapping covering exactly
/// these bytes?) on top. It runs inside the device's burst
/// ([`crate::Bus::burst`]), under the burst's IOTLB and memory holds, so it
/// must not touch that bus's memory or IOMMU.
pub trait BusObserver: Debug + Send + Sync {
    /// A device touched `len` bytes at `addr` (IOVA when protected).
    fn on_device_access(&self, dev: DeviceId, addr: u64, len: usize, is_write: bool, granted: bool);
}
