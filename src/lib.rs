//! # DMA Shadowing — umbrella crate
//!
//! Reproduction of *"True IOMMU Protection from DMA Attacks: When Copy Is
//! Faster Than Zero Copy"* (Markuze, Morrison, Tsafrir — ASPLOS 2016).
//!
//! This crate re-exports the whole stack so applications can depend on a
//! single crate:
//!
//! - [`simcore`] — deterministic virtual-time simulation substrate.
//! - [`memsim`] — simulated physical memory, NUMA domains, and kmalloc.
//! - [`iommu`] — the IOMMU model: I/O page tables, IOTLB, invalidation queue.
//! - [`dma_api`] — the OS DMA layer and the zero-copy protection engines.
//! - [`shadow_core`] — **the paper's contribution**: the shadow buffer pool
//!   and the copy-based `ShadowDma` engine.
//! - [`devices`] — simulated NIC / SSD / malicious device.
//! - [`netsim`] — netperf-like and memcached-like workloads.
//! - [`attacks`] — DMA-attack scenarios used to validate Table 1.
//! - [`obs`] — telemetry: metrics registry, event tracer, report sinks.
//! - [`dmasan`] — the DMA-API sanitizer.
//!
//! It also fronts the workspace's correctness tooling: the [`lint`]
//! crate (one pass over the workspace, parsed once: style rules, the
//! crate-root `#![forbid(unsafe_code)]` rule, and the DMA-API protocol
//! and device-taint checks) and its `cargo run --bin lint` runner.
#![forbid(unsafe_code)]

pub use lint;

pub use attacks;
pub use devices;
pub use dma_api;
pub use dmasan;
pub use iommu;
pub use memsim;
pub use netsim;
pub use obs;
pub use shadow_core;
pub use simcore;
