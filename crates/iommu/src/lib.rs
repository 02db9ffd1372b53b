//! # iommu — the simulated I/O memory management unit
//!
//! Models an Intel VT-d-style IOMMU \[30\] faithfully enough to reproduce
//! both the *protection semantics* and the *costs* that drive the paper:
//!
//! - [`IoPageTable`] — a real 4-level radix page table per device domain,
//!   mapping 48-bit I/O virtual addresses ([`Iova`]) to physical frames at
//!   page granularity with read/write/both access rights ([`Perms`]).
//! - [`Iotlb`] — the translation cache. Entries created by device-side
//!   walks **persist after a page-table unmap until explicitly
//!   invalidated** — this staleness is what makes deferred protection a
//!   real vulnerability window (§2.2.1, §3).
//! - [`InvalQueue`] — the cyclic invalidation queue. Posting an
//!   invalidation and busy-waiting on its wait descriptor costs ≈2000
//!   cycles and is serialized by a single lock, the scalability bottleneck
//!   of strict zero-copy protection (§2.2.1, Figure 8). Built with one
//!   queue per core ([`Iommu::with_queues`]) the lock is shed; the
//!   hardware wait is not.
//! - [`Iommu`] — ties the above together: OS-side map/unmap/invalidate
//!   operations (charged to a [`simcore::CoreCtx`]) and device-side DMA
//!   translation (uncharged — devices are not CPUs).
//!
//! Blocked DMAs are recorded in a fault log, like the hardware's fault
//! recording registers.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod invalq;
mod iotlb;
mod mmu;
mod pagetable;
mod types;

pub use invalq::{InvalQueue, InvalQueueStats, INVALQ_LOCK};
pub use iotlb::{Iotlb, IotlbStats};
pub use mmu::{Iommu, IommuError, DEVICE_SIDE_CORE};
pub use pagetable::{IoPageTable, PtEntry, PtError};
pub use types::{Access, DeviceId, DmaFault, FaultReason, Iova, IovaPage, Perms};
