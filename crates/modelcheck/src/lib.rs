//! Bounded model checker for the DMA protection invariants.
//!
//! Explores **all interleavings** (within bounds) of N mapper threads and
//! one device thread driving a real `dma-api` engine instance, checking
//! every schedule against the paper's Table 1 invariant: *a device access
//! may affect or observe an OS byte B only while B is inside a currently
//! mapped window for that device*.
//!
//! The moving parts:
//!
//! - [`exec`]: a schedule-controlled executor. Worker threads yield at
//!   explicit operation boundaries and at every instrumented lock site
//!   (`Obs::locked` / `Obs::guarded`, intercepted via the [`obs`] yield
//!   hook), so the explorer decides every context switch.
//! - [`rig`]: the checked configuration — memory, IOMMU, one engine, one
//!   window lifecycle per mapper, a probing device.
//! - [`oracle`]: the sentinel-based invariant checker (pre-fill, page-tail
//!   secret, post-unmap reuse magic).
//! - [`explore`]: stateless DFS over schedules with a preemption bound,
//!   sleep-set (conservative DPOR) pruning, and deterministic caps.
//! - [`counterexample`]: machine-readable violating schedules, committed
//!   as fixtures and replayed by CI.
//!
//! Within its bounds the checker *proves* DMA shadowing (`copy`) safe —
//! zero violations across the exhaustively-explored space — and *finds*
//! the deferred-invalidation vulnerability window (§2.2.1) as a concrete,
//! replayable schedule.
#![forbid(unsafe_code)]

pub mod counterexample;
pub mod exec;
pub mod explore;
pub mod oracle;
pub mod rig;

pub use counterexample::{Counterexample, Step};
pub use exec::{Executor, ThreadView, Tid, YieldInfo};
pub use explore::{explore, replay, Config, Report, RunOutcome, RunSummary};
pub use oracle::{Board, ViolationClass, ViolationReport, WinState};
pub use rig::{Rig, MC_DEV};
