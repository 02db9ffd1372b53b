//! # dmasan — correctness tooling for the DMA-shadowing stack
//!
//! The paper's security argument (§2.2, §4) assumes the DMA API is used
//! *correctly*: every `dma_map` is paired with exactly one `dma_unmap`
//! and the device never touches bytes outside a live mapping. Linux
//! guards these invariants with `CONFIG_DMA_API_DEBUG`; this crate is the
//! reproduction's equivalent. Lock discipline is not its business: a
//! `simcore::SimLock` panics when a core nests it inside another, and a
//! per-core pending list panics when a core without a list of its own
//! reaches it.
//!
//! [`DmaSan`] is a live-mapping registry fed by the [`dma_api`] observer
//! hooks ([`dma_api::DmaObserver`], [`dma_api::BusObserver`]). It detects
//! six dma-debug violation classes: double-map of the same OS buffer,
//! double-unmap, unmap with the wrong size/direction, device access to an
//! unmapped/stale IOVA, sub-page out-of-bounds access against the
//! mapping's byte-granular window, and leak-at-teardown. Each violation
//! is recorded as an `obs` `SanitizerViolation` event, and its
//! [`Violation::cause`] names the originating `DmaMap`'s trace seq.
//!
//! [`DmaSan::new`] panics on the first violation, which makes every test
//! and workload that builds a stack a sanitizer test; code that provokes
//! violations on purpose (the malicious-device tests, the model checker,
//! the crosscheck replays) asks for [`DmaSan::lenient`] by name.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;

pub use checker::{AccessVerdict, DmaSan, Violation, ViolationKind};
