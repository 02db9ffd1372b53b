//! One round: the workload once per engine, each run guarded and checked.

use crate::spans::Spans;
use crate::workloads::{slug, Call, Workload};
use netsim::{
    memcached, tcp_rr, tcp_stream_rx_on, tcp_stream_tx_on, EngineKind, ExpConfig, ExpResult,
    SimStack, NIC_DEV,
};
use obs::Obs;
use simcore::{CoreCtx, CoreId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What a finished stack says about the run, read after teardown. Counts
/// cover the stack's whole life (ring setup, warm-up and measured items).
#[derive(Debug, Clone, Default)]
pub struct Readout {
    /// `san.violation_count()` before the teardown check.
    pub violations: u64,
    /// `san.check_teardown()` after `SimStack::teardown`.
    pub leaks: u64,
    /// IOTLB hits and misses.
    pub iotlb_hits: u64,
    /// See `iotlb_hits`.
    pub iotlb_misses: u64,
    /// Wait descriptors the invalidation queue completed.
    pub invalq_waits: u64,
    /// Cycles cores spun on the invalidation-queue lock.
    pub invalq_spin_cyc: u64,
    /// Cycles cores spun on the engine's IOVA-allocator lock, if it has one.
    pub iova_spin_cyc: Option<u64>,
    /// `dma.maps` (every `dma_map` the engine served).
    pub maps: u64,
    /// `pool.acquires` / `pool.fallback_acquires` / `pool.grows` (copy only).
    pub pool_acquires: u64,
    /// See `pool_acquires`.
    pub pool_fallbacks: u64,
    /// See `pool_acquires`.
    pub pool_grows: u64,
    /// High-water mark of allocated physical frames.
    pub frames_peak: u64,
    /// Empty slab pages kmalloc kept cached at the end.
    pub kmalloc_cached_pages: u64,
    /// `net.tx_frames` and `net.tx_buffers`.
    pub tx_frames: u64,
    /// See `tx_frames`.
    pub tx_buffers: u64,
    /// Trace events still in the ring / skipped by chain sampling.
    pub trace_retained: u64,
    /// See `trace_retained`.
    pub trace_sampled_out: u64,
    /// Mean simulated cycles of one `dma_map` / `dma_unmap` scope in the
    /// measured window (profiler tree; `None` with the profiler off).
    pub sim_cyc_per_map: Option<f64>,
    /// See `sim_cyc_per_map`.
    pub sim_cyc_per_unmap: Option<f64>,
}

impl Readout {
    fn read(stack: &mut SimStack, task_label: &str) -> Readout {
        let mut ctx = CoreCtx::new(CoreId(0), stack.cost.clone());
        ctx.seek(stack.obs.now_hint());
        stack.teardown(&mut ctx);
        let violations = stack.san.violation_count();
        let leaks = stack.san.check_teardown() as u64;

        let snap = stack.obs.registry().snapshot();
        let dev = Some(NIC_DEV.0);
        let counter = |sub: &str, name: &str, d| snap.counter(sub, name, d).unwrap_or(0);
        let iotlb = stack.mmu.iotlb_stats();
        let trace = stack.obs.tracer().stats();
        let tree = stack
            .obs
            .profiler()
            .snapshot()
            .merged(Some(stack.kind.name()));
        let mean_of = |label: &str| {
            let node = tree.child(task_label)?.child(label)?;
            (node.count > 0).then(|| node.total() as f64 / node.count as f64)
        };
        Readout {
            violations,
            leaks,
            iotlb_hits: iotlb.hits,
            iotlb_misses: iotlb.misses,
            invalq_waits: stack.mmu.invalq().stats().waits,
            invalq_spin_cyc: stack.mmu.invalq().lock().stats().total_spin.get(),
            iova_spin_cyc: stack
                .engine
                .iova_lock_stats()
                .map(|(_, s)| s.total_spin.get()),
            maps: counter("dma", "maps", dev),
            pool_acquires: counter("pool", "acquires", dev),
            pool_fallbacks: counter("pool", "fallback_acquires", dev),
            pool_grows: counter("pool", "grows", dev),
            frames_peak: stack.mem.stats().peak_frames,
            kmalloc_cached_pages: stack.kmalloc.stats().cached_pages,
            tx_frames: stack.net.tx_frames.get(),
            tx_buffers: stack.net.tx_buffers.get(),
            trace_retained: trace.retained,
            trace_sampled_out: trace.sampled_out,
            sim_cyc_per_map: mean_of("dma_map"),
            sim_cyc_per_unmap: mean_of("dma_unmap"),
        }
    }
}

/// What one engine's run returned, before the checks.
#[derive(Debug)]
pub struct Ran {
    /// The workload's result.
    pub result: ExpResult,
    /// Host seconds from before stack construction to after the run.
    pub wall_s: f64,
    /// The stack read-out, where the entry point exposes the stack.
    pub readout: Option<Readout>,
}

/// One engine's run after the checks: `Err` carries why it failed.
#[derive(Debug)]
pub struct EngineRun {
    /// Which engine.
    pub kind: EngineKind,
    /// The checked result.
    pub outcome: Result<Ran, String>,
}

impl EngineRun {
    /// The result, if the run passed its checks.
    pub fn ok(&self) -> Option<&Ran> {
        self.outcome.as_ref().ok()
    }
}

/// Runs the workload once on `kind`. `profile` switches the stack's
/// virtual-time profiler on, which only the `_on` entry points allow.
pub fn run_engine(w: &Workload, cfg: &ExpConfig, kind: EngineKind, profile: bool) -> Ran {
    let start = Instant::now();
    match w.call {
        Call::StreamRx | Call::StreamTx => {
            let obs = Obs::isolated();
            obs.profiler().set_enabled(profile);
            let mut stack = SimStack::with_obs(kind, cfg, obs);
            let (result, label) = if w.call == Call::StreamRx {
                (tcp_stream_rx_on(&stack, cfg), "rx")
            } else {
                (tcp_stream_tx_on(&stack, cfg), "tx")
            };
            let wall_s = start.elapsed().as_secs_f64();
            Ran {
                result,
                wall_s,
                readout: Some(Readout::read(&mut stack, label)),
            }
        }
        Call::Rr | Call::Memcached => {
            let result = if w.call == Call::Rr {
                tcp_rr(kind, cfg)
            } else {
                memcached(kind, cfg)
            };
            Ran {
                result,
                wall_s: start.elapsed().as_secs_f64(),
                readout: None,
            }
        }
    }
}

/// Runs `f` (one engine's run) so that a panic, a short item count, a
/// sanitizer violation or a leak at teardown fails that engine alone.
pub fn guarded(kind: EngineKind, expect_items: u64, f: impl FnOnce() -> Ran) -> EngineRun {
    let outcome = match catch_unwind(AssertUnwindSafe(f)) {
        Err(payload) => Err(match payload.downcast_ref::<String>() {
            Some(s) => format!("panicked: {s}"),
            None => match payload.downcast_ref::<&str>() {
                Some(s) => format!("panicked: {s}"),
                None => "panicked".to_string(),
            },
        }),
        Ok(ran) if ran.result.items != expect_items => Err(format!(
            "short count: {} of {expect_items} items",
            ran.result.items
        )),
        Ok(ran) => match &ran.readout {
            Some(r) if r.violations > 0 => Err(format!("{} dmasan violations", r.violations)),
            Some(r) if r.leaks > 0 => Err(format!("{} mappings leaked at teardown", r.leaks)),
            _ => Ok(ran),
        },
    };
    EngineRun { kind, outcome }
}

/// One round: `one` (an engine's run) for every engine of `engines`, each
/// guarded, one span per engine under `parent`.
pub fn run_round(
    engines: &[EngineKind],
    expect_items: u64,
    spans: &mut Spans,
    parent: usize,
    mut one: impl FnMut(EngineKind) -> Ran,
) -> Vec<EngineRun> {
    engines
        .iter()
        .map(|&kind| {
            let id = spans.enter(format!("engine:{}", slug(kind)), Some(parent));
            let run = guarded(kind, expect_items, || one(kind));
            spans.exit(id, expect_items);
            run
        })
        .collect()
}

/// A string equal between two results exactly when they are bit-identical
/// (`{:?}` prints floats with round-trip precision).
pub fn fingerprint(r: &ExpResult) -> String {
    format!("{r:?}")
}
