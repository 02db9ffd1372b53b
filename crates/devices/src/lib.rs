//! # devices — simulated DMA-capable devices
//!
//! Device models that issue *real* DMAs through [`dma_api::Bus`] (and thus
//! through the simulated IOMMU when one is configured):
//!
//! - [`Nic`] — a 40 Gb/s-class ethernet NIC modeled after the paper's
//!   Intel XL710: per-core RX/TX descriptor rings living in coherent
//!   memory (descriptor fetches and write-backs are themselves DMAs),
//!   MTU-1500 receive buffers, and TCP segmentation offload (TSO) for TX
//!   buffers up to 64 KB.
//! - [`Ssd`] — an NVMe-style SSD with 4 KB-block DMA and the IOPS
//!   envelope the paper quotes for Intel's data-center SSDs (§5.5).
//! - [`MaliciousDevice`] — the attacker: a device that issues arbitrary
//!   DMAs (probes, scans, overwrites) to mount the attacks of §3/§4.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod malicious;
mod nic;
mod ssd;

pub use malicious::{MaliciousDevice, ScanReport};
pub use nic::{Nic, NicError, RxCompletion, TxCompletion, DESC_BYTES, MTU, RING_ENTRIES, TSO_MAX};
pub use ssd::{Ssd, SsdError, SSD_BLOCK, SSD_READ_IOPS, SSD_WRITE_IOPS};
