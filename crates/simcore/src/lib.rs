//! # simcore — deterministic virtual-time simulation substrate
//!
//! The paper evaluates DMA protection schemes on a dual-socket 16-core
//! 2.4 GHz Haswell machine with a 40 Gb/s NIC. This reproduction runs on
//! arbitrary hosts (including single-core ones), so *time* is virtual:
//! every operation charges a cost in [`Cycles`] to the executing virtual
//! core, and contended resources (the IOMMU invalidation queue lock, the
//! deferred-invalidation list lock, the wire) are modeled as FIFO resources
//! in virtual time.
//!
//! Crucially, only **time** is virtual. The data structures the costs are
//! charged around — I/O page tables, the IOTLB, the shadow buffer pool,
//! the packet payloads being copied — are real and are really manipulated,
//! so functional properties (data integrity, protection semantics, attack
//! outcomes) are observed, not asserted.
//!
//! ## Main types
//!
//! - [`Cycles`] — virtual time unit (CPU cycles at the modeled clock).
//! - [`CostModel`] — calibrated per-operation costs (see `DESIGN.md`).
//! - [`CoreCtx`] — a virtual core's clock, idle time and per-phase
//!   [`Breakdown`], the one record of where its busy cycles went.
//! - [`SimLock`] — a spinlock contended in virtual time.
//! - [`Wire`] — a serialized link (e.g. 40 Gb/s ethernet) in virtual time.
//! - [`MultiCoreSim`] — earliest-core-first scheduler for multi-core
//!   experiments.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breakdown;
mod clock;
mod cost;
mod cycles;
pub mod fxhash;
mod lock;
mod rng;
mod sched;
pub mod sync;
mod wire;

pub use breakdown::{Breakdown, Phase};
pub use clock::CoreCtx;
pub use cost::{CostModel, MemcpyFlavor};
pub use cycles::{CoreId, Cycles};
pub use fxhash::{FxHashMap, FxHashSet};
pub use lock::{LockStats, SimLock};
pub use rng::SimRng;
pub use sched::{CoreTask, MultiCoreSim, StepOutcome};
pub use wire::Wire;
