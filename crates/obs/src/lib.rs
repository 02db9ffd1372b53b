//! # obs — unified telemetry for the DMA-shadowing stack
//!
//! The paper's argument is entirely about *where cycles go* (Figures 5, 8
//! and 10 break packet-processing time into copy-mgmt / spinlock / IOTLB
//! invalidation / page-table / memcpy phases). This crate is the single
//! observability layer every subsystem reports into:
//!
//! - [`Registry`] — counters, gauges and log-bucketed histograms keyed by
//!   `(subsystem, name, device)`; see [`MetricKey`] for the
//!   `subsystem.name{device}` naming convention.
//! - [`Tracer`] — a bounded ring buffer of structured [`Event`]s
//!   (`DmaMap`/`DmaUnmap`, `IotlbInvalidate`, `PoolGrow`/`PoolShrink`,
//!   `FallbackAcquire`, `AttackBlocked`, lock-contention spins) with
//!   cause-chain spans.
//! - [`Obs::locked`] / [`Obs::guarded`] / [`Obs::shared_access`] — the one
//!   lock-site primitive: every instrumented lock emits its lockset events
//!   (and reaches the model checker's yield hook) through these.
//! - [`sink`] — a pretty-table text reporter and the JSON-lines reader
//!   that loads saved profiles.
//! - [`breakdown`] — bridges [`simcore::Breakdown`] phase accounting onto
//!   the registry.
//! - [`profile`] — a hierarchical virtual-time profiler: nested scopes
//!   accumulate per-phase cycles into call trees keyed
//!   `engine × core × device`, with flamegraph and Chrome trace-event
//!   (Perfetto) exporters.
//!
//! All timestamps are **simulated cycles** ([`simcore::Cycles`]); `obs`
//! deliberately never reads host wall-clock time, keeping experiments
//! deterministic. The crate has zero external dependencies.
//!
//! ## Threading model
//!
//! An [`Obs`] handle bundles one registry + one tracer and clones cheaply
//! (one `Arc`). A simulation stack creates one `Obs` and hands clones to
//! every component; components created standalone (unit tests) default to
//! [`Obs::isolated`] so their numbers never bleed across tests.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakdown;
pub mod json;
mod lock_site;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod trace;

pub use json::Json;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricKey, Registry, RegistrySnapshot,
};
pub use profile::{ProfileNode, ProfileSnapshot, Profiler, SpanEvent};
pub use trace::{span, Event, EventKind, SpanGuard, TraceStats, Tracer, DEFAULT_TRACE_CAPACITY};

use simcore::sync::RwLock;
use simcore::Cycles;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A schedule-interception hook: called with the lock's name at every
/// instrumented lock site ([`Obs::locked`], [`Obs::guarded`]) reached while
/// detail events are enabled. The `modelcheck` crate installs one to turn
/// those sites into preemption points.
pub type YieldHook = Arc<dyn Fn(&str) + Send + Sync>;

#[derive(Default)]
struct YieldHookCell(RwLock<Option<YieldHook>>);

impl std::fmt::Debug for YieldHookCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("YieldHookCell")
            .field(&self.0.read().is_some())
            .finish()
    }
}

/// A cheaply clonable handle bundling the metric [`Registry`] and the
/// event [`Tracer`] for one simulation stack.
#[derive(Debug, Clone)]
pub struct Obs(Arc<Inner>);

#[derive(Debug)]
struct Inner {
    registry: Registry,
    tracer: Tracer,
    /// Latest virtual time any instrumented OS-side operation reported;
    /// device-side events (which carry no `CoreCtx`) are stamped with it.
    now_hint: AtomicU64,
    /// Gates high-volume detail events (lockset `LockAcquire` /
    /// `LockRelease` / `SharedAccess`); off by default so benchmarks and
    /// ordinary runs never pay for or overflow the ring with them.
    detail: AtomicBool,
    /// The installed schedule-interception hook, if any.
    yield_hook: YieldHookCell,
    /// The hierarchical virtual-time profiler (disabled by default).
    profiler: Arc<Profiler>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::isolated()
    }
}

impl Obs {
    /// A fresh, private registry + tracer (default ring capacity).
    ///
    /// Components constructed without an explicit `Obs` use this so
    /// concurrent tests never share counters.
    pub fn isolated() -> Self {
        Obs::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A fresh handle whose tracer retains at most `capacity` events.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Obs(Arc::new(Inner {
            registry: Registry::new(),
            tracer: Tracer::with_capacity(capacity),
            now_hint: AtomicU64::new(0),
            detail: AtomicBool::new(false),
            yield_hook: YieldHookCell::default(),
            profiler: Arc::new(Profiler::new()),
        }))
    }

    /// Installs (or, with `None`, removes) the schedule-interception hook.
    ///
    /// While a hook is installed and detail events are enabled, every
    /// instrumented lock site invokes it with the lock's name right after
    /// recording `LockAcquire` and *before* taking the lock — the
    /// `modelcheck` executor uses this to hand control to its scheduler at
    /// lock-acquisition points.
    pub fn set_yield_hook(&self, hook: Option<YieldHook>) {
        *self.0.yield_hook.0.write() = hook;
    }

    /// Enables or disables high-volume detail events (lockset
    /// instrumentation). Disabled by default.
    pub fn set_detail_enabled(&self, on: bool) {
        self.0.detail.store(on, Ordering::Relaxed);
    }

    /// True when detail events (lockset instrumentation) are enabled.
    pub fn detail_enabled(&self) -> bool {
        self.0.detail.load(Ordering::Relaxed)
    }

    /// Keeps 1 in `period` trace cause chains (see [`trace`] module docs);
    /// `0`/`1` mean "record everything". Metrics and security events are
    /// never sampled.
    pub fn set_trace_sampling(&self, period: u64) {
        self.0.tracer.set_sample_period(period);
    }

    /// Advances the shared virtual-time hint (monotonic on the one
    /// simulation thread). A load and a conditional store, not
    /// `fetch_max`: that is a CAS loop on x86 and this runs several times
    /// per packet. Host threads racing here can leave the hint briefly
    /// behind the latest report — it is a hint; nothing orders on it.
    pub fn set_now_hint(&self, at: Cycles) {
        if at.0 > self.0.now_hint.load(Ordering::Relaxed) {
            self.0.now_hint.store(at.0, Ordering::Relaxed);
        }
    }

    /// Latest virtual time reported via [`Obs::set_now_hint`].
    pub fn now_hint(&self) -> Cycles {
        Cycles(self.0.now_hint.load(Ordering::Relaxed))
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.0.registry
    }

    /// The event tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.0.tracer
    }

    /// The hierarchical profiler (see [`profile::task_scope`]).
    pub fn profiler(&self) -> &Arc<Profiler> {
        &self.0.profiler
    }

    /// Shorthand: get-or-create a counter.
    pub fn counter(
        &self,
        subsystem: &'static str,
        name: &'static str,
        device: Option<u16>,
    ) -> Counter {
        self.0
            .registry
            .counter(MetricKey::new(subsystem, name, device))
    }

    /// Shorthand: get-or-create a gauge.
    pub fn gauge(&self, subsystem: &'static str, name: &'static str, device: Option<u16>) -> Gauge {
        self.0
            .registry
            .gauge(MetricKey::new(subsystem, name, device))
    }

    /// Shorthand: get-or-create a histogram.
    pub fn histogram(
        &self,
        subsystem: &'static str,
        name: &'static str,
        device: Option<u16>,
    ) -> Histogram {
        self.0
            .registry
            .histogram(MetricKey::new(subsystem, name, device))
    }

    /// Shorthand: record a trace event, returning its sequence number.
    #[inline]
    pub fn trace(&self, at: Cycles, core: u16, device: Option<u16>, kind: EventKind) -> u64 {
        self.0.tracer.record(at, core, device, kind)
    }

    /// Shorthand: record a trace event caused by event `cause`.
    pub fn trace_caused(
        &self,
        at: Cycles,
        core: u16,
        device: Option<u16>,
        cause: u64,
        kind: EventKind,
    ) -> u64 {
        self.0.tracer.record_caused(at, core, device, cause, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = Obs::isolated();
        let b = a.clone();
        a.counter("x", "y", None).inc();
        assert_eq!(b.registry().snapshot().counter("x", "y", None), Some(1));
    }

    #[test]
    fn trace_sampling_is_shared_across_clones() {
        let a = Obs::isolated();
        a.clone().set_trace_sampling(8);
        assert_eq!(a.tracer().sample_period(), 8);
    }
}
