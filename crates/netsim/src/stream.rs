//! netperf `TCP_STREAM` receive and transmit throughput experiments
//! (Figures 1, 3, 4, 6, 7; the breakdowns of Figures 5 and 8 come from the
//! same runs).

use crate::driver::{CoreDriver, HEADER_BYTES};
use crate::report::ExpResult;
use crate::setup::{EngineKind, ExpConfig, SimStack};
use devices::MTU;
use simcore::{
    Breakdown, CoreCtx, CoreId, CoreTask, CostModel, Cycles, MultiCoreSim, Phase, StepOutcome,
};

/// Per-core measurement window.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Meas {
    pub(crate) items: u64,
    pub(crate) bytes: u64,
    pub(crate) start: Cycles,
    pub(crate) end: Cycles,
}

/// Modeled cycles the *sender machine* spends producing one MTU's worth of
/// stream bytes when netperf writes messages of `msg` bytes: syscall and
/// user-copy per message plus TCP/TSO preparation, amortized per byte.
/// This is what makes small-message throughput sender-limited (§6,
/// footnote 6).
fn sender_cycles_per_mtu(cost: &CostModel, msg: usize) -> Cycles {
    let per_msg = cost.syscall_per_message + cost.copy_user(msg);
    let buffer = msg.clamp(MTU, 64 * 1024);
    let per_byte = per_msg.get() as f64 / msg as f64
        + cost.tx_other_per_buffer.get() as f64 / buffer as f64
        + cost.tx_per_segment.get() as f64 / MTU as f64;
    Cycles((per_byte * MTU as f64).round() as u64)
}

struct RxTask<'a> {
    stack: &'a SimStack,
    drv: CoreDriver,
    verify: bool,
    warmup: u64,
    total: u64,
    count: u64,
    sender_ready: Cycles,
    sender_gap: Cycles,
    payload: Vec<u8>,
    meas: Meas,
}

impl<'a> RxTask<'a> {
    fn new(stack: &'a SimStack, cfg: &ExpConfig, core: usize) -> Self {
        let wire_len = cfg.rx_wire_payload.unwrap_or(MTU).clamp(16, MTU);
        let mut payload = stack.rng.borrow_mut().bytes(wire_len);
        // A per-core flavor byte after the per-packet stamp.
        payload[10] = core as u8;
        RxTask {
            stack,
            drv: CoreDriver::new(CoreId(core as u16)),
            verify: cfg.verify_data,
            warmup: cfg.warmup_per_core,
            total: cfg.warmup_per_core + cfg.items_per_core,
            count: 0,
            sender_ready: Cycles(1),
            sender_gap: sender_cycles_per_mtu(&cfg.cost, cfg.msg_size),
            payload,
            meas: Meas::default(),
        }
    }
}

impl CoreTask for RxTask<'_> {
    fn step(&mut self, ctx: &mut CoreCtx) -> StepOutcome {
        let dev = Some(crate::setup::NIC_DEV.0);
        let engine = self.stack.kind.name();
        obs::profile::task_scope(&self.stack.obs, ctx, engine, dev, "rx", |ctx| {
            // The paired sender produces the next MTU frame; frames from
            // all senders serialize on the shared wire.
            self.count += 1;
            self.sender_ready += self.sender_gap;
            let arrival = self.stack.wire.transmit(
                self.sender_ready.max(Cycles(1)),
                self.payload.len() + HEADER_BYTES,
            );
            ctx.wait_until(arrival);

            // Stamp the frame so every packet's bytes are distinct.
            self.payload[2..10].copy_from_slice(&self.count.to_le_bytes());
            let n = self.drv.rx_one(self.stack, ctx, &self.payload, self.verify);

            if self.count == self.warmup {
                ctx.reset_stats();
                obs::profile::note_reset(ctx);
                self.meas.start = ctx.now();
            } else if self.count > self.warmup {
                self.meas.items += 1;
                self.meas.bytes += n as u64;
            }
            if self.count >= self.total {
                self.meas.end = ctx.now();
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        })
    }
}

struct TxTask<'a> {
    stack: &'a SimStack,
    drv: CoreDriver,
    verify: bool,
    sg_frags: usize,
    msg_size: usize,
    warmup: u64,
    total: u64,
    count: u64,
    /// Fractional-message accounting for sub-MTU messages coalescing into
    /// MTU buffers.
    msg_credit: usize,
    payload: Vec<u8>,
    meas: Meas,
}

impl<'a> TxTask<'a> {
    fn new(stack: &'a SimStack, cfg: &ExpConfig, core: usize) -> Self {
        let buffer = cfg.msg_size.clamp(MTU, 64 * 1024);
        let mut payload = stack.rng.borrow_mut().bytes(buffer);
        payload[0] = core as u8;
        TxTask {
            stack,
            drv: CoreDriver::new(CoreId(core as u16)),
            verify: cfg.verify_data,
            sg_frags: cfg.tx_sg_frags.max(1),
            msg_size: cfg.msg_size,
            warmup: cfg.warmup_per_core,
            total: cfg.warmup_per_core + cfg.items_per_core,
            count: 0,
            msg_credit: 0,
            payload,
            meas: Meas::default(),
        }
    }
}

impl CoreTask for TxTask<'_> {
    fn step(&mut self, ctx: &mut CoreCtx) -> StepOutcome {
        let dev = Some(crate::setup::NIC_DEV.0);
        let engine = self.stack.kind.name();
        obs::profile::task_scope(&self.stack.obs, ctx, engine, dev, "tx", |ctx| {
            self.count += 1;
            let buffer_len = self.payload.len();

            // netperf keeps writing `msg_size`d messages; charge the
            // syscalls that produced this buffer's bytes.
            self.msg_credit += buffer_len;
            while self.msg_credit >= self.msg_size {
                ctx.charge(Phase::Other, ctx.cost.syscall_per_message);
                self.msg_credit -= self.msg_size;
            }

            self.payload[1..9].copy_from_slice(&self.count.to_le_bytes());
            let (n, _frames) = if self.sg_frags > 1 {
                self.drv
                    .tx_one_sg(self.stack, ctx, &self.payload, self.sg_frags, self.verify)
            } else {
                self.drv.tx_one(self.stack, ctx, &self.payload, self.verify)
            };
            self.drv.wire_out(self.stack, ctx, n);

            if self.count == self.warmup {
                ctx.reset_stats();
                obs::profile::note_reset(ctx);
                self.meas.start = ctx.now();
            } else if self.count > self.warmup {
                self.meas.items += 1;
                self.meas.bytes += n as u64;
            }
            if self.count >= self.total {
                self.meas.end = ctx.now();
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        })
    }
}

pub(crate) fn collect(
    engine: &'static str,
    cfg: &ExpConfig,
    sim: &MultiCoreSim,
    meas: &[Meas],
    stack: &SimStack,
) -> ExpResult {
    let clock = cfg.cost.clock_ghz;
    let mut gbps = 0.0;
    let mut bytes = 0;
    let mut items = 0;
    for m in meas {
        let window = m.end.saturating_sub(m.start);
        if window > Cycles::ZERO {
            gbps += m.bytes as f64 * 8.0 / window.to_secs(clock) / 1e9;
        }
        bytes += m.bytes;
        items += m.items;
    }
    let cpu = sim.ctxs().iter().map(|c| c.utilization()).sum::<f64>() / sim.n_cores() as f64;
    // Publish the cores' accumulated phase breakdown to the registry, then
    // report from the registry — it is the single source of truth.
    let total: Breakdown = sim.ctxs().iter().map(|c| c.breakdown).sum::<Breakdown>();
    let dev = Some(crate::setup::NIC_DEV.0);
    obs::breakdown::record_breakdown(stack.obs.registry(), dev, &total);
    let per_item = obs::breakdown::breakdown_view(stack.obs.registry(), dev);
    ExpResult {
        engine,
        cores: cfg.cores,
        msg_size: cfg.msg_size,
        gbps,
        cpu,
        items,
        bytes,
        per_item: per_item.per_item(items),
        clock_ghz: clock,
        latency_us: None,
        transactions_per_sec: None,
        shadow_bytes_peak: shadow_peak(stack),
    }
}

fn shadow_peak(stack: &SimStack) -> Option<u64> {
    // Only the copy engine grows a shadow pool; its peak footprint lives
    // in the stack-wide registry as the `pool.peak_shadow_bytes` gauge.
    stack
        .obs
        .registry()
        .snapshot()
        .gauge("pool", "peak_shadow_bytes", Some(crate::setup::NIC_DEV.0))
        .map(|v| v as u64)
}

/// Runs the `TCP_STREAM` **receive** experiment: the evaluated machine
/// receives `cfg.items_per_core` MTU packets per core from paired senders
/// writing `cfg.msg_size`-byte messages.
///
/// # Examples
///
/// ```
/// use netsim::{tcp_stream_rx, EngineKind, ExpConfig};
///
/// let cfg = ExpConfig { items_per_core: 500, warmup_per_core: 50, ..ExpConfig::quick() };
/// let copy = tcp_stream_rx(EngineKind::Copy, &cfg);
/// let strict = tcp_stream_rx(EngineKind::IdentityPlus, &cfg);
/// assert!(copy.gbps > strict.gbps, "shadowing beats strict zero-copy on RX");
/// ```
pub fn tcp_stream_rx(kind: EngineKind, cfg: &ExpConfig) -> ExpResult {
    tcp_stream_rx_on(&SimStack::new(kind, cfg), cfg)
}

/// Runs the receive experiment on a caller-built stack — e.g. one created
/// with [`SimStack::with_obs`] so its metrics and trace feed an external
/// registry.
pub fn tcp_stream_rx_on(stack: &SimStack, cfg: &ExpConfig) -> ExpResult {
    let mut tasks: Vec<RxTask> = (0..cfg.cores).map(|c| RxTask::new(stack, cfg, c)).collect();
    let sim = run_tasks(cfg, &mut tasks, stack);
    let meas: Vec<Meas> = tasks.iter().map(|t| t.meas).collect();
    collect(stack.kind.name(), cfg, &sim, &meas, stack)
}

/// Runs the `TCP_STREAM` **transmit** experiment: the evaluated machine
/// sends `cfg.items_per_core` TSO buffers per core.
pub fn tcp_stream_tx(kind: EngineKind, cfg: &ExpConfig) -> ExpResult {
    tcp_stream_tx_on(&SimStack::new(kind, cfg), cfg)
}

/// Runs the transmit experiment on a caller-built stack (see
/// [`tcp_stream_rx_on`]).
pub fn tcp_stream_tx_on(stack: &SimStack, cfg: &ExpConfig) -> ExpResult {
    let mut tasks: Vec<TxTask> = (0..cfg.cores).map(|c| TxTask::new(stack, cfg, c)).collect();
    let sim = run_tasks(cfg, &mut tasks, stack);
    let meas: Vec<Meas> = tasks.iter().map(|t| t.meas).collect();
    collect(stack.kind.name(), cfg, &sim, &meas, stack)
}

/// Runs one task per core to completion, then drains every deferred
/// invalidation on a teardown context placed at the latest core's time.
pub(crate) fn run_tasks<T>(cfg: &ExpConfig, tasks: &mut [T], stack: &SimStack) -> MultiCoreSim
where
    T: CoreTask,
{
    let mut sim = MultiCoreSim::new(stack.cost.clone(), cfg.cores);
    for ctx in sim.ctxs_mut() {
        ctx.seek(Cycles(1));
    }
    {
        let mut boxed: Vec<Box<dyn CoreTask + '_>> = tasks
            .iter_mut()
            .map(|t| Box::new(move |ctx: &mut CoreCtx| t.step(ctx)) as Box<dyn CoreTask + '_>)
            .collect();
        sim.run(&mut boxed, Cycles::MAX);
    }
    let mut tctx = CoreCtx::new(CoreId(0), stack.cost.clone());
    tctx.seek(
        sim.ctxs()
            .iter()
            .map(|c| c.now())
            .max()
            .unwrap_or(Cycles(1)),
    );
    stack.engine.flush_deferred(&mut tctx);
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cores: usize, msg: usize) -> ExpConfig {
        ExpConfig {
            cores,
            msg_size: msg,
            items_per_core: 3_000,
            warmup_per_core: 300,
            ..ExpConfig::quick()
        }
    }

    #[test]
    fn rx_single_core_ranking_matches_paper() {
        // Figure 3 at large messages: no-iommu > copy > identity- >> identity+.
        let cfg = quick(1, 64 * 1024);
        let no = tcp_stream_rx(EngineKind::NoIommu, &cfg);
        let copy = tcp_stream_rx(EngineKind::Copy, &cfg);
        let idm = tcp_stream_rx(EngineKind::IdentityMinus, &cfg);
        let idp = tcp_stream_rx(EngineKind::IdentityPlus, &cfg);
        assert!(no.gbps > copy.gbps, "{} vs {}", no.gbps, copy.gbps);
        assert!(
            copy.gbps > idm.gbps,
            "copy {} vs identity- {}",
            copy.gbps,
            idm.gbps
        );
        assert!(idm.gbps > idp.gbps);
        // copy is within the paper's 0.76x of no-iommu, and ~2x identity+.
        let rel = copy.gbps / no.gbps;
        assert!(rel > 0.65 && rel < 0.95, "copy/noiommu = {rel}");
        let vs_idp = copy.gbps / idp.gbps;
        assert!(vs_idp > 1.5, "copy/identity+ = {vs_idp}");
    }

    #[test]
    fn rx_small_messages_are_sender_limited() {
        // Figure 3 at 64 B: every engine gets the same (low) throughput;
        // overheads show up as CPU differences.
        let cfg = quick(1, 64);
        let no = tcp_stream_rx(EngineKind::NoIommu, &cfg);
        let idp = tcp_stream_rx(EngineKind::IdentityPlus, &cfg);
        let ratio = idp.gbps / no.gbps;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "throughput equal, got {ratio}"
        );
        assert!(no.gbps < 3.0, "64B stream is slow: {}", no.gbps);
        assert!(idp.cpu > no.cpu, "identity+ burns more CPU");
        assert!(no.cpu < 0.9, "receiver is not the bottleneck");
    }

    #[test]
    fn tx_copy_pays_for_64k_copies() {
        // Figure 4: at 64 KB, copy is the only design paying full-buffer
        // copies; it is slower than identity+ and keeps the CPU busier.
        let cfg = quick(1, 64 * 1024);
        let no = tcp_stream_tx(EngineKind::NoIommu, &cfg);
        let copy = tcp_stream_tx(EngineKind::Copy, &cfg);
        let idp = tcp_stream_tx(EngineKind::IdentityPlus, &cfg);
        assert!(
            copy.gbps <= idp.gbps * 1.02,
            "copy {} vs identity+ {}",
            copy.gbps,
            idp.gbps
        );
        let rel = copy.gbps / no.gbps;
        assert!(rel > 0.6 && rel <= 1.0, "copy/noiommu TX = {rel}");
        assert!(copy.cpu > no.cpu);
    }

    #[test]
    fn multicore_identity_plus_collapses() {
        // Figure 6: at 16 cores, identity+ serializes on the invalidation
        // queue and lands ~5x below everyone else.
        let cfg = ExpConfig {
            cores: 16,
            msg_size: 64 * 1024,
            items_per_core: 1_200,
            warmup_per_core: 150,
            ..ExpConfig::quick()
        };
        let no = tcp_stream_rx(EngineKind::NoIommu, &cfg);
        let copy = tcp_stream_rx(EngineKind::Copy, &cfg);
        let idp = tcp_stream_rx(EngineKind::IdentityPlus, &cfg);
        assert!(
            no.gbps > 30.0,
            "no-iommu reaches near line rate: {}",
            no.gbps
        );
        assert!(copy.gbps > 30.0, "copy scales to 16 cores: {}", copy.gbps);
        let collapse = no.gbps / idp.gbps;
        assert!(collapse > 3.0, "identity+ collapse factor {collapse}");
        // identity+ pins the CPU on lock spinning.
        assert!(idp.cpu > 0.9, "identity+ CPU {}", idp.cpu);
        assert!(
            idp.per_item.get(simcore::Phase::Spinlock)
                > copy.per_item.get(simcore::Phase::Spinlock)
        );
    }

    #[test]
    fn percore_reduces_lock_spin_at_16_cores() {
        // The tentpole's acceptance check: at 16 cores, sharding the hot
        // allocation state per core measurably cuts the spin charged to the
        // IOVA-allocator lock (stock Linux strict — its rbtree lock is the
        // first-level bottleneck) and to the invalidation-queue lock
        // (identity+ — no IOVA allocation, so the queue IS its bottleneck,
        // Figure 8), without costing throughput. A fast wire keeps packet
        // arrivals from being staggered by wire serialization, so the
        // locks — not the link — are the contended resource.
        let run = |kind: EngineKind, percore: bool| {
            let cfg = ExpConfig {
                cores: 16,
                msg_size: 64 * 1024,
                items_per_core: 800,
                warmup_per_core: 100,
                wire_gbps: 400.0,
                percore,
                ..ExpConfig::quick()
            };
            let stack = SimStack::new(kind, &cfg);
            let r = tcp_stream_rx_on(&stack, &cfg);
            let iova = stack
                .engine
                .iova_lock_stats()
                .map_or(0, |(_, s)| s.total_spin.get());
            let invalq = stack.mmu.invalq().lock_stats().total_spin.get();
            (r.gbps, iova, invalq)
        };

        let (gbps_global, iova_global, invalq_shadowed) = run(EngineKind::LinuxStrict, false);
        let (gbps_percore, iova_percore, invalq_residual) = run(EngineKind::LinuxStrict, true);
        assert_eq!(invalq_residual, 0, "one queue per core: nobody spins");
        assert!(
            iova_percore * 2 < iova_global,
            "iova lock spin: percore {iova_percore} vs global {iova_global}"
        );
        // Globally the rbtree lock serializes cores so the invalidation
        // queue behind it never contends; percore removes that shadow and
        // total lock spin still drops by an order of magnitude.
        assert!(
            (iova_percore + invalq_residual) * 10 < iova_global + invalq_shadowed,
            "total lock spin: percore {} vs global {}",
            iova_percore + invalq_residual,
            iova_global + invalq_shadowed
        );
        assert!(
            gbps_percore > gbps_global,
            "throughput regressed: {gbps_percore} vs {gbps_global}"
        );

        let (idp_global_gbps, _, invalq_global) = run(EngineKind::IdentityPlus, false);
        let (idp_percore_gbps, _, invalq_percore) = run(EngineKind::IdentityPlus, true);
        assert!(invalq_global > 0, "the one queue is identity+'s bottleneck");
        assert_eq!(invalq_percore, 0, "summed over every per-core queue");
        assert!(
            idp_percore_gbps > idp_global_gbps,
            "identity+ throughput regressed: {idp_percore_gbps} vs {idp_global_gbps}"
        );
    }

    #[test]
    fn results_are_deterministic() {
        let cfg = quick(2, 1024);
        let a = tcp_stream_rx(EngineKind::Copy, &cfg);
        let b = tcp_stream_rx(EngineKind::Copy, &cfg);
        assert_eq!(a.gbps, b.gbps);
        assert_eq!(a.items, b.items);
        assert_eq!(a.per_item, b.per_item);
    }

    #[test]
    fn copy_engine_reports_shadow_footprint() {
        let cfg = quick(1, 1024);
        let r = tcp_stream_rx(EngineKind::Copy, &cfg);
        let peak = r.shadow_bytes_peak.expect("copy reports footprint");
        assert!(peak > 0);
        // Modest: a single in-flight buffer per core needs only a few
        // shadow pages (§6 memory consumption).
        assert!(peak < 4 << 20, "footprint {peak} bytes");
        let r2 = tcp_stream_rx(EngineKind::NoIommu, &cfg);
        assert!(r2.shadow_bytes_peak.is_none());
    }
}
