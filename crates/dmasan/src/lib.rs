//! # dmasan — correctness tooling for the DMA-shadowing stack
//!
//! The paper's security argument (§2.2, §4) assumes the DMA API is used
//! *correctly*: every `dma_map` is paired with exactly one `dma_unmap`,
//! the device never touches bytes outside a live mapping, and the
//! invalidation machinery is properly lock-serialized. Linux guards the
//! first group of invariants with `CONFIG_DMA_API_DEBUG`; this crate is
//! the reproduction's equivalent, plus an Eraser-style lockset race
//! detector over the `obs` event stream:
//!
//! - [`DmaSan`] — a live-mapping registry fed by the [`dma_api`] observer
//!   hooks ([`dma_api::DmaObserver`], [`dma_api::BusObserver`]). It
//!   detects six dma-debug violation classes: double-map of the same OS
//!   buffer, double-unmap, unmap with the wrong size/direction, device
//!   access to an unmapped/stale IOVA, sub-page out-of-bounds access
//!   against the mapping's byte-granular window, and leak-at-teardown.
//!   Each violation is recorded as an `obs` `SanitizerViolation` event
//!   whose cause chains back to the originating `DmaMap`.
//! - [`LocksetDetector`] — replays the detail-gated `LockAcquire` /
//!   `LockRelease` / `SharedAccess` events emitted by `iommu::invalq`,
//!   `shadow_core`'s pool, and `dma_api`'s deferred flusher, and flags
//!   shared-state accesses whose candidate lockset goes empty (Eraser,
//!   SOSP'97).
//!
//! [`DmaSan::new`] panics on the first violation, which makes every test
//! and workload that builds a stack a sanitizer test; code that provokes
//! violations on purpose (the malicious-device tests, the model checker,
//! the crosscheck replays) asks for [`DmaSan::lenient`] by name.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod lockset;

pub use checker::{AccessVerdict, DmaSan, Violation, ViolationKind};
pub use lockset::{LocksetDetector, RaceReport};
