//! # shadow-core — DMA shadowing (the paper's contribution, §5)
//!
//! Implements intra-OS protection via **DMA shadowing**: the device is
//! restricted to a pool of *shadow DMA buffers* that are permanently mapped
//! in the IOMMU, and `dma_map`/`dma_unmap` copy data between OS buffers and
//! shadow buffers instead of mapping and unmapping IOVAs. Because shadow
//! buffers are never unmapped, no IOTLB invalidation ever happens on the
//! data path — and copying a typical DMA buffer is ~5× cheaper than an
//! invalidation. Protection is *strict* (no vulnerability window) and
//! *byte-granular* (the device never sees OS memory at all, only shadows
//! whose pages host same-rights shadow data exclusively).
//!
//! The crate provides:
//!
//! - [`ShadowPool`] — the per-device shadow buffer pool (§5.3, Table 2):
//!   a fast multi-threaded segregated free-list allocator with per-core
//!   lists, NUMA-sticky buffers, lockless owner-core acquire and
//!   tail-locked cross-core release, and O(1) [`ShadowPool::find_shadow`]
//!   via IOVA-encoded metadata indices (Figure 2).
//! - [`IovaCodec`] — the 48-bit IOVA encoding of Figure 2 (MSB flag,
//!   core id, access rights, size class, metadata index), generalized to
//!   configurable field widths.
//! - [`ShadowDma`] — the `DmaEngine` implementation (*copy* in the paper's
//!   figures), including the copy-back bounded by what the device wrote
//!   (§5.4's copying hint) and the hybrid huge-buffer path that copies only
//!   sub-page head/tails and zero-copy-maps the aligned middle (§5.5).
//! - [`EngineKind`] / [`build_engine`] — the table of every engine the
//!   paper compares (this crate is the lowest that can see them all) and
//!   the one function that builds one by name.
//!
//! The pool is safe for real multi-threaded use (its free lists use
//! atomics and a tail lock exactly as §5.3 describes) *and* is driven in
//! virtual time by the simulation harness.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod enc;
mod engine;
mod engines;
mod freelist;
mod huge;
mod pool;
mod slot;

pub use enc::{DecodedIova, IovaCodec};
pub use engine::ShadowDma;
pub use engines::{build_engine, EngineKind};
pub use freelist::FreeList;
pub use huge::{HugeMapper, HugeStats};
pub use pool::{
    MagazineConfig, PoolConfig, PoolStats, ShadowPool, POOL_CACHE_LOCK, POOL_FALLBACK_LOCK,
    POOL_MAGAZINE_LOCK,
};
pub(crate) use slot::MetadataArray;
