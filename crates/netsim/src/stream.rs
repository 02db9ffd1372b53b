//! netperf `TCP_STREAM` receive and transmit throughput experiments
//! (Figures 1, 3, 4, 6, 7; the breakdowns of Figures 5 and 8 come from the
//! same runs).

use crate::driver::{CoreDriver, HEADER_BYTES};
use crate::harness::{measure, Item, Workload};
use crate::report::ExpResult;
use crate::setup::{EngineKind, ExpConfig, SimStack};
use devices::MTU;
use simcore::{CoreCtx, CoreId, CostModel, Cycles, Phase};

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

/// The body of one received MTU frame on `core`.
pub(crate) fn rx_item<'a>(stack: &'a SimStack, cfg: &'a ExpConfig, core: usize) -> impl Item + 'a {
    let drv = CoreDriver::new(CoreId(core as u16));
    let wire_len = cfg.rx_wire_payload.unwrap_or(MTU).clamp(16, MTU);
    let mut payload = stack.rng.borrow_mut().bytes(wire_len);
    // A per-core flavor byte after the per-packet stamp.
    payload[10] = core as u8;
    let mut sender_ready = Cycles(1);
    let sender_gap = sender_cycles_per_mtu(&cfg.cost, cfg.msg_size);
    move |ctx: &mut CoreCtx, seq: u64| {
        // The paired sender produces the next MTU frame; frames from all
        // senders serialize on the shared wire.
        sender_ready += sender_gap;
        let arrival = stack
            .wire
            .transmit(sender_ready.max(Cycles(1)), payload.len() + HEADER_BYTES);
        ctx.wait_until(arrival);

        // Stamp the frame so every packet's bytes are distinct.
        payload[2..10].copy_from_slice(&seq.to_le_bytes());
        Some(drv.rx_one(stack, ctx, &payload, cfg.verify_data) as u64)
    }
}

/// The body of one transmitted TSO buffer on `core`.
pub(crate) fn tx_item<'a>(stack: &'a SimStack, cfg: &'a ExpConfig, core: usize) -> impl Item + 'a {
    let drv = CoreDriver::new(CoreId(core as u16));
    let mut payload = stack
        .rng
        .borrow_mut()
        .bytes(cfg.msg_size.clamp(MTU, 64 * 1024));
    payload[0] = core as u8;
    // Fractional-message accounting for sub-MTU messages coalescing into
    // MTU buffers.
    let mut msg_credit = 0;
    move |ctx: &mut CoreCtx, seq: u64| {
        // netperf keeps writing `msg_size`d messages; charge the syscalls
        // that produced this buffer's bytes.
        msg_credit += payload.len();
        while msg_credit >= cfg.msg_size {
            ctx.charge(Phase::Other, ctx.cost.syscall_per_message);
            msg_credit -= cfg.msg_size;
        }

        payload[1..9].copy_from_slice(&seq.to_le_bytes());
        let (n, _frames) = drv.tx_one(stack, ctx, &payload, cfg.verify_data);
        drv.wire_out(stack, ctx, n);
        Some(n as u64)
    }
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
    measure(Workload::Rx, stack, cfg, cfg.cores, |c| {
        rx_item(stack, cfg, c)
    })
}

/// Runs the `TCP_STREAM` **transmit** experiment: the evaluated machine
/// sends `cfg.items_per_core` TSO buffers per core.
pub fn tcp_stream_tx(kind: EngineKind, cfg: &ExpConfig) -> ExpResult {
    tcp_stream_tx_on(&SimStack::new(kind, cfg), cfg)
}

/// Runs the transmit experiment on a caller-built stack (see
/// [`tcp_stream_rx_on`]).
pub fn tcp_stream_tx_on(stack: &SimStack, cfg: &ExpConfig) -> ExpResult {
    measure(Workload::Tx, stack, cfg, cfg.cores, |c| {
        tx_item(stack, cfg, c)
    })
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
    fn a_bottlenecked_sender_never_idles() {
        // Figure 4's sender is limited by its CPU or by the wire, never by
        // waiting for one buffer to leave before preparing the next: every
        // engine either keeps its core busy or fills the wire with payload.
        // The wire arm allows 2 %: *defer*'s 250-unmap drain (~57 us of
        // IOVA frees and a domain flush) outlasts TSQ's two-buffer lead, so
        // its wire runs dry once per batch — 98.8 % of line at 64 KB, 81 %
        // CPU. The sender idled there behind a full budget, not needlessly.
        for msg in [16 * 1024, 64 * 1024] {
            let cfg = quick(1, msg);
            let frames = msg.div_ceil(MTU);
            let line = cfg.wire_gbps * msg as f64 / (msg + frames * HEADER_BYTES) as f64;
            for kind in EngineKind::ALL {
                let r = tcp_stream_tx(kind, &cfg);
                assert!(
                    r.cpu >= 0.99 || r.gbps >= 0.98 * line,
                    "{kind} at {msg} B idles: {:.1} % CPU at {:.2} of {line:.2} Gb/s",
                    r.cpu * 100.0,
                    r.gbps
                );
            }
        }
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
