//! How a run is measured — stated once, for every workload (§6 evaluates
//! all four under one methodology; EXPERIMENTS.md "How a run is measured").
//!
//! A workload is the body of one work item ([`Item`]). Everything else a
//! measured run needs lives here: the per-core task that counts items and
//! opens the window at the warm-up boundary ([`Measured`]), the scheduler
//! run and teardown drain ([`run_tasks`]), and the estimator ([`collect`]).

use crate::report::ExpResult;
use crate::setup::{ExpConfig, SimStack, NIC_DEV};
use simcore::{Breakdown, CoreCtx, CoreId, CoreTask, Cycles, MultiCoreSim, StepOutcome};

/// The §6 workloads: the profiler root frame of each, and which optional
/// [`ExpResult`] fields its figures read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    Rx,
    Tx,
    Rr,
    Kv,
}

impl Workload {
    fn label(self) -> &'static str {
        match self {
            Workload::Rx => "rx",
            Workload::Tx => "tx",
            Workload::Rr => "rr",
            Workload::Kv => "kv",
        }
    }
}

/// The body of one work item (a packet, a TSO buffer, a transaction):
/// called with the item's number (1-based, warm-up included), it runs one
/// scheduler step and returns the item's payload bytes once the item is
/// complete. An item may take several steps, so that other cores' DMA
/// operations interleave with it as they would on real hardware.
pub(crate) trait Item: FnMut(&mut CoreCtx, u64) -> Option<u64> {}
impl<F: FnMut(&mut CoreCtx, u64) -> Option<u64>> Item for F {}

/// One core's measured run of `warmup_per_core + items_per_core` items.
pub(crate) struct Measured<'a, I> {
    workload: Workload,
    stack: &'a SimStack,
    cfg: &'a ExpConfig,
    item: I,
    /// Items completed so far, warm-up included.
    done: u64,
    /// When the item in progress took its first step.
    began: Option<Cycles>,
    /// The window, and what completed inside it.
    start: Cycles,
    end: Cycles,
    items: u64,
    bytes: u64,
    /// Summed first-step-to-completion time of the measured items.
    latency: Cycles,
}

impl<I: Item> CoreTask for Measured<'_, I> {
    fn step(&mut self, ctx: &mut CoreCtx) -> StepOutcome {
        let (stack, warmup) = (self.stack, self.cfg.warmup_per_core);
        let (engine, dev, label) = (stack.kind.name(), Some(NIC_DEV.0), self.workload.label());
        obs::profile::task_scope(&stack.obs, ctx, engine, dev, label, |ctx| {
            // The warm-up boundary: the window opens as the first measured
            // item takes its first step, never inside an item.
            if self.done == warmup && self.began.is_none() {
                ctx.reset_stats();
                obs::profile::note_reset(ctx);
                self.start = ctx.now();
            }
            let began = *self.began.get_or_insert(ctx.now());
            let Some(bytes) = (self.item)(ctx, self.done + 1) else {
                return StepOutcome::Continue;
            };
            self.began = None;
            self.done += 1;
            if self.done > warmup {
                self.items += 1;
                self.bytes += bytes;
                self.latency += ctx.now() - began;
            }
            if self.done < warmup + self.cfg.items_per_core {
                return StepOutcome::Continue;
            }
            self.end = ctx.now();
            StepOutcome::Done
        })
    }
}

/// Runs one task per core to completion, then drains every deferred
/// invalidation on a teardown context placed at the latest core's time —
/// after every window has closed, so no core's figures pay for it.
pub(crate) fn run_tasks<'a, I: Item>(
    workload: Workload,
    stack: &'a SimStack,
    cfg: &'a ExpConfig,
    items: impl IntoIterator<Item = I>,
) -> (MultiCoreSim, Vec<Measured<'a, I>>) {
    let mut tasks: Vec<Measured<I>> = items
        .into_iter()
        .map(|item| Measured {
            workload,
            stack,
            cfg,
            item,
            done: 0,
            began: None,
            start: Cycles::ZERO,
            end: Cycles::ZERO,
            items: 0,
            bytes: 0,
            latency: Cycles::ZERO,
        })
        .collect();
    let mut sim = MultiCoreSim::new(stack.cost.clone(), tasks.len());
    for ctx in sim.ctxs_mut() {
        ctx.seek(Cycles(1));
    }
    let last_stop = {
        let mut boxed: Vec<Box<dyn CoreTask + '_>> = tasks
            .iter_mut()
            .map(|t| Box::new(move |ctx: &mut CoreCtx| t.step(ctx)) as Box<dyn CoreTask + '_>)
            .collect();
        sim.run(&mut boxed, Cycles::MAX)
    };
    let mut tctx = CoreCtx::new(CoreId(0), stack.cost.clone());
    tctx.seek(last_stop);
    stack.engine.flush_deferred(&mut tctx);
    (sim, tasks)
}

/// The estimator: the only place throughput, transaction rate, latency,
/// CPU and the per-item breakdown are computed. Gb/s and transactions/s
/// are sums of per-core rates over each core's own window (which can
/// exceed the wire when windows are unequal — ROADMAP item 2(a)).
pub(crate) fn collect<I>(sim: &MultiCoreSim, tasks: &[Measured<I>]) -> ExpResult {
    let Measured {
        workload,
        stack,
        cfg,
        ..
    } = tasks[0];
    let clock = cfg.cost.clock_ghz;
    let (mut gbps, mut tps) = (0.0, 0.0);
    let (mut bytes, mut items, mut latency) = (0, 0, Cycles::ZERO);
    for t in tasks {
        let window = t.end.saturating_sub(t.start);
        if window > Cycles::ZERO {
            let secs = window.to_secs(clock);
            gbps += t.bytes as f64 * 8.0 / secs / 1e9;
            tps += t.items as f64 / secs;
        }
        bytes += t.bytes;
        items += t.items;
        latency += t.latency;
    }
    let cpu = sim.ctxs().iter().map(|c| c.utilization()).sum::<f64>() / sim.n_cores() as f64;
    // The run reports its own cores' phase breakdown; the registry gets a
    // copy, which accumulates across every run sharing the stack's `Obs`.
    let total: Breakdown = sim.ctxs().iter().map(|c| c.breakdown).sum::<Breakdown>();
    let dev = Some(NIC_DEV.0);
    obs::breakdown::record_breakdown(stack.obs.registry(), dev, &total);
    ExpResult {
        engine: stack.kind.name(),
        cores: sim.n_cores(),
        msg_size: cfg.msg_size,
        gbps,
        cpu,
        items,
        bytes,
        per_item: total.per_item(items),
        clock_ghz: clock,
        latency_us: (workload == Workload::Rr)
            .then(|| latency.to_micros(clock) / items.max(1) as f64),
        transactions_per_sec: (workload == Workload::Kv).then_some(tps),
        // Only the copy engine grows a shadow pool; its peak footprint is
        // the registry's `pool.peak_shadow_bytes` gauge (§6 memory
        // consumption, reported with the stream figures).
        shadow_bytes_peak: match workload {
            Workload::Rx | Workload::Tx => {
                let snap = stack.obs.registry().snapshot();
                snap.gauge("pool", "peak_shadow_bytes", dev)
                    .map(|v| v as u64)
            }
            Workload::Rr | Workload::Kv => None,
        },
    }
}

/// One measured run of `workload`: a task per core over `item(core)`.
pub(crate) fn measure<I: Item>(
    workload: Workload,
    stack: &SimStack,
    cfg: &ExpConfig,
    cores: usize,
    item: impl FnMut(usize) -> I,
) -> ExpResult {
    let (sim, tasks) = run_tasks(workload, stack, cfg, (0..cores).map(item));
    collect(&sim, &tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::EngineKind;
    use simcore::Phase;

    /// Runs a synthetic two-step transaction (100 cycles, then 7 cycles and
    /// 10 payload bytes) on one core; returns the window's start, length,
    /// summed latency and busy cycles beside the result.
    fn run_two_step(warmup: u64, items: u64) -> (Cycles, Cycles, Cycles, Cycles, ExpResult) {
        let cfg = ExpConfig {
            warmup_per_core: warmup,
            items_per_core: items,
            ..ExpConfig::quick()
        };
        let stack = SimStack::new(EngineKind::NoIommu, &cfg);
        let mut half_done = false;
        let item = move |ctx: &mut CoreCtx, _seq: u64| {
            half_done = !half_done;
            ctx.charge(Phase::Other, Cycles(if half_done { 100 } else { 7 }));
            (!half_done).then_some(10)
        };
        let (sim, tasks) = run_tasks(Workload::Kv, &stack, &cfg, [item]);
        let t = &tasks[0];
        let busy = sim.ctxs()[0].busy();
        (
            t.start,
            t.end - t.start,
            t.latency,
            busy,
            collect(&sim, &tasks),
        )
    }

    #[test]
    fn without_warmup_the_window_opens_at_the_first_step() {
        // The four old loops disagreed here: the stream and memcached tasks
        // never opened a window (it started at cycle 0, before the cores
        // were staged), RR opened it before its first transaction.
        let (start, window, _, busy, r) = run_two_step(0, 5);
        assert_eq!(start, Cycles(1), "the instant the cores are staged at");
        assert_eq!((window, busy), (Cycles(5 * 107), Cycles(5 * 107)));
        assert_eq!((r.items, r.bytes, r.cpu), (5, 50, 1.0));
        assert_eq!(r.per_item.get(Phase::Other), Cycles(107));
    }

    #[test]
    fn a_multi_step_item_never_straddles_the_warmup_boundary() {
        // The window opens between the last warm-up item's second step and
        // the first measured item's first step: a boundary one step early
        // would add 7 cycles to it, one step late would drop 100.
        let (start, window, latency, busy, r) = run_two_step(3, 5);
        assert_eq!(start, Cycles(1 + 3 * 107));
        assert_eq!(
            (window, latency, busy),
            (Cycles(535), Cycles(535), Cycles(535))
        );
        assert_eq!((r.items, r.bytes), (5, 50));
        let tps = 5.0 / window.to_secs(r.clock_ghz);
        assert_eq!(r.transactions_per_sec, Some(tps));
    }

    #[test]
    fn a_run_reports_its_own_breakdown_on_a_shared_obs() {
        // The registry's phase counters sum every run published to them;
        // a run's per-item breakdown must not.
        let cfg = &ExpConfig {
            cores: 2,
            msg_size: 1024,
            items_per_core: 100,
            warmup_per_core: 10,
            ..ExpConfig::quick()
        };
        let run = |kind, obs| crate::tcp_stream_rx_on(&SimStack::with_obs(kind, cfg, obs), cfg);
        let shared = obs::Obs::isolated();
        run(EngineKind::Copy, shared.clone());
        let second = run(EngineKind::IdentityPlus, shared);
        let alone = run(EngineKind::IdentityPlus, obs::Obs::isolated());
        assert_eq!(second.per_item, alone.per_item);
        assert_eq!(second.per_item.get(Phase::Memcpy), Cycles::ZERO);
    }

    /// ROADMAP 2(a)'s invariants that hold today (`gbps <= wire_gbps` is
    /// the open one), on one workload.
    fn check_invariants<'a, I: Item>(
        workload: Workload,
        stack: &'a SimStack,
        cfg: &'a ExpConfig,
        cores: usize,
        item: impl FnMut(usize) -> I,
    ) {
        let (sim, tasks) = run_tasks(workload, stack, cfg, (0..cores).map(item));
        let busy: Cycles = sim.ctxs().iter().map(|c| c.busy()).sum();
        let r = collect(&sim, &tasks);
        let what = format!("{} {workload:?} percore={}", stack.kind, cfg.percore);
        assert_eq!(r.items, cores as u64 * cfg.items_per_core, "{what}");
        assert!(r.cpu > 0.0 && r.cpu <= 1.0, "{what}: cpu {}", r.cpu);
        let phases = obs::breakdown::breakdown_view(stack.obs.registry(), Some(NIC_DEV.0));
        assert_eq!(phases.total(), busy, "{what}: phases vs busy cycles");
    }

    #[test]
    fn every_engine_and_workload_keeps_the_run_invariants() {
        use crate::{kv::kv_item, rr::rr_item, stream::rx_item, stream::tx_item};
        for kind in EngineKind::ALL {
            for percore in [false, true] {
                let cfg = &ExpConfig {
                    cores: 4,
                    msg_size: 1024,
                    items_per_core: 200,
                    warmup_per_core: 20,
                    percore,
                    ..ExpConfig::quick()
                };
                let stack = || SimStack::new(kind, cfg);
                let (rx, tx, rr, kv) = (stack(), stack(), stack(), stack());
                check_invariants(Workload::Rx, &rx, cfg, 4, |c| rx_item(&rx, cfg, c));
                check_invariants(Workload::Tx, &tx, cfg, 4, |c| tx_item(&tx, cfg, c));
                check_invariants(Workload::Rr, &rr, cfg, 1, |_| rr_item(&rr, cfg));
                check_invariants(Workload::Kv, &kv, cfg, 4, |c| kv_item(&kv, cfg, c));
            }
        }
    }
}
