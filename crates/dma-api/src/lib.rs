//! # dma-api — the OS DMA layer
//!
//! The Linux-style DMA API (§2.2): drivers authorize every DMA by mapping
//! the target buffer before programming the device and unmapping it after
//! the DMA completes. The API is a trait, [`DmaEngine`], implemented by
//! [`NoIommu`], by `ShadowDma` (crate `shadow-core`), and by one zero-copy
//! core, [`MappedDma`], whose behaviour is the product of an
//! [`IovaPolicy`] and an [`InvalPolicy`]:
//!
//! | paper name | engine | IOVA from | IOTLB entry dies | protection |
//! |---|---|---|---|---|
//! | *no-iommu* | [`NoIommu`] | — | — | none (IOMMU disabled) |
//! | *identity+* | [`MappedDma`] | identity | strict | strict, page granularity |
//! | *identity−* | [`MappedDma`] | identity | deferred, per-core lists | deferred, page granularity |
//! | *strict* (stock Linux) | [`MappedDma`] | global tree | strict | strict, page granularity, slow IOVA allocator |
//! | *defer* (stock Linux) | [`MappedDma`] | global tree | deferred, global list | deferred, page granularity, global batching lock |
//! | *eiovar+* / *eiovar−* | [`MappedDma`] | cached global tree | strict / deferred, global list | as stock, cheap steady-state allocation |
//! | *self-inval hw* (§7) | [`MappedDma`] | identity | hardware | strict, page granularity, needs new hardware |
//! | *copy* | `ShadowDma` | shadow pool | never (permanent mappings) | **strict, byte granularity** |
//!
//! The name → pair table itself (including what per-core sharding
//! substitutes) is `shadow_core::build_engine`, the lowest crate that can
//! see every engine.
//!
//! Also here: IOVA allocators (the global-lock tree allocator whose
//! contention EiovaR/FAST'15 identified, with and without EiovaR's
//! free-range cache, and the per-core magazine allocator of ATC'15 \[42\]),
//! the deferred-invalidation batching machinery (global-list and per-core
//! variants), and the device-side [`Bus`] through which device models
//! issue DMAs.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod coherent;
mod engine;
mod flush;
mod iova_alloc;
mod mapped;
mod noiommu;
mod observe;
mod traced;
mod types;

pub use bus::{Bus, BusError};
pub use coherent::CoherentHelper;
pub use engine::DmaEngine;
pub use flush::{DeferPolicy, DeferredFlusher, FlushScope, PendingUnmap, FLUSH_LOCK};
pub use iova_alloc::{GlobalTreeIovaAllocator, IovaAllocator, PerCoreIovaAllocator};
pub use mapped::{InvalPolicy, IovaPolicy, MappedDma};
pub use noiommu::NoIommu;
pub use observe::{BusObserver, DmaObserver};
pub use traced::TracedDma;
pub use types::{CoherentBuffer, DmaBuf, DmaDirection, DmaError, DmaMapping, ProtectionProfile};
