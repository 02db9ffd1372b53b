//! netperf TCP request/response latency (Figures 9 and 10).

use crate::driver::{CoreDriver, HEADER_BYTES};
use crate::report::ExpResult;
use crate::setup::{EngineKind, ExpConfig, SimStack};
use devices::MTU;
use simcore::{Breakdown, CoreCtx, CoreId, Cycles};

/// Remote peer turnaround (its full network stack plus netperf), modeled as
/// a constant because the remote machine is not under evaluation.
const REMOTE_TURNAROUND_NS: f64 = 8_000.0;

/// Runs the single-core TCP request/response benchmark: send a
/// `cfg.msg_size`-byte message, wait for an equal-sized response, repeat.
/// Reports the mean round-trip latency and the CPU utilization of the
/// evaluated machine (Figures 9–10).
pub fn tcp_rr(kind: EngineKind, cfg: &ExpConfig) -> ExpResult {
    tcp_rr_on(&SimStack::new(kind, cfg), cfg)
}

/// Runs the request/response benchmark on a caller-built stack (see
/// [`crate::tcp_stream_rx_on`]).
pub fn tcp_rr_on(stack: &SimStack, cfg: &ExpConfig) -> ExpResult {
    let drv = CoreDriver::new(CoreId(0));
    let mut ctx = CoreCtx::new(CoreId(0), stack.cost.clone());
    ctx.seek(Cycles(1));
    let clock = cfg.cost.clock_ghz;
    let turnaround = Cycles::from_nanos(REMOTE_TURNAROUND_NS, clock);

    let mut payload = stack.rng.borrow_mut().bytes(cfg.msg_size.max(8));
    let total = cfg.warmup_per_core + cfg.items_per_core;
    let mut latency_sum = Cycles::ZERO;
    let mut measured = 0u64;
    let mut bytes = 0u64;
    let mut meas_start = Cycles::ZERO;

    for i in 0..total {
        if i == cfg.warmup_per_core {
            ctx.reset_stats();
            meas_start = ctx.now();
        }
        payload[0..8].copy_from_slice(&i.to_le_bytes());
        let start = ctx.now();

        // --- request: send msg_size bytes (one or more TSO buffers) ---
        let mut sent = 0usize;
        let mut wire_done = ctx.now();
        while sent < payload.len() {
            let chunk = (payload.len() - sent).min(64 * 1024);
            let (n, _frames) = drv.tx_one(
                stack,
                &mut ctx,
                &payload[sent..sent + chunk],
                cfg.verify_data,
            );
            sent += n;
            // Request frames serialize on the TX direction.
            let mut remaining = n;
            while remaining > 0 {
                let seg = remaining.min(MTU);
                wire_done = stack.wire_back.transmit(ctx.now(), seg + HEADER_BYTES);
                remaining -= seg;
            }
        }

        // --- remote peer turns the message around ---
        let resp_start = wire_done + turnaround;

        // --- response: receive msg_size bytes as MTU frames ---
        let mut received = 0usize;
        let mut arrival = resp_start;
        while received < payload.len() {
            let seg = (payload.len() - received).min(MTU);
            arrival = stack.wire.transmit(arrival, seg + HEADER_BYTES);
            ctx.wait_until(arrival);
            let delivered = drv.rx_one(
                stack,
                &mut ctx,
                &payload[received..received + seg],
                cfg.verify_data,
            );
            received += delivered;
        }

        if i >= cfg.warmup_per_core {
            latency_sum += ctx.now() - start;
            measured += 1;
            bytes += 2 * payload.len() as u64;
        }
    }
    // Teardown drains the deferred invalidations after the window closes,
    // on its own context, as the stream and memcached runs do.
    let mut tctx = CoreCtx::new(CoreId(0), stack.cost.clone());
    tctx.seek(ctx.now());
    stack.engine.flush_deferred(&mut tctx);

    let window = ctx.now().saturating_sub(meas_start);
    let gbps = if window > Cycles::ZERO {
        bytes as f64 * 8.0 / window.to_secs(clock) / 1e9
    } else {
        0.0
    };
    let dev = Some(crate::setup::NIC_DEV.0);
    obs::breakdown::record_breakdown(stack.obs.registry(), dev, &ctx.breakdown);
    let per_item: Breakdown =
        obs::breakdown::breakdown_view(stack.obs.registry(), dev).per_item(measured);
    ExpResult {
        engine: stack.kind.name(),
        cores: 1,
        msg_size: cfg.msg_size,
        gbps,
        cpu: ctx.utilization(),
        items: measured,
        bytes,
        per_item,
        clock_ghz: clock,
        latency_us: Some(latency_sum.to_micros(clock) / measured.max(1) as f64),
        transactions_per_sec: None,
        shadow_bytes_peak: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(msg: usize) -> ExpConfig {
        ExpConfig {
            msg_size: msg,
            items_per_core: 800,
            warmup_per_core: 100,
            ..ExpConfig::quick()
        }
    }

    #[test]
    fn latency_is_comparable_across_engines() {
        // Figure 9: protection overheads are small relative to the RTT, so
        // all engines show comparable latency.
        let cfg = quick(64);
        let no = tcp_rr(EngineKind::NoIommu, &cfg);
        let copy = tcp_rr(EngineKind::Copy, &cfg);
        let idp = tcp_rr(EngineKind::IdentityPlus, &cfg);
        let lat_no = no.latency_us.unwrap();
        let lat_copy = copy.latency_us.unwrap();
        let lat_idp = idp.latency_us.unwrap();
        assert!(lat_copy / lat_no < 1.25, "copy {lat_copy} vs {lat_no}");
        assert!(lat_idp / lat_no < 1.4, "identity+ {lat_idp} vs {lat_no}");
    }

    #[test]
    fn latency_grows_sublinearly_with_size() {
        // Figure 9: 1024x larger messages cost only ~4x the latency because
        // per-byte costs are not dominant.
        let small = tcp_rr(EngineKind::NoIommu, &quick(64)).latency_us.unwrap();
        let large = tcp_rr(EngineKind::NoIommu, &quick(64 * 1024))
            .latency_us
            .unwrap();
        let ratio = large / small;
        assert!(ratio > 2.0 && ratio < 12.0, "latency ratio {ratio}");
    }

    #[test]
    fn identity_plus_spends_cpu_on_iommu_work() {
        // Figure 10: identity+ spends a large share of its busy time on
        // IOMMU management; copy's overhead share is smaller.
        let cfg = quick(64 * 1024);
        let idp = tcp_rr(EngineKind::IdentityPlus, &cfg);
        let copy = tcp_rr(EngineKind::Copy, &cfg);
        let idp_iommu = idp.per_item.fraction(simcore::Phase::InvalidateIotlb)
            + idp.per_item.fraction(simcore::Phase::IommuPageTableMgmt);
        let copy_mgmt = copy.per_item.fraction(simcore::Phase::Memcpy)
            + copy.per_item.fraction(simcore::Phase::CopyMgmt);
        assert!(idp_iommu > 0.1, "identity+ iommu share {idp_iommu}");
        assert!(copy_mgmt > 0.02, "copy share {copy_mgmt}");
        assert!(
            copy.per_item.get(simcore::Phase::InvalidateIotlb) == Cycles::ZERO,
            "copy never invalidates"
        );
    }

    #[test]
    fn rr_is_mostly_idle() {
        // A ping-pong workload leaves the CPU idle while the wire and the
        // remote peer do their part.
        let r = tcp_rr(EngineKind::NoIommu, &quick(1024));
        assert!(r.cpu < 0.6, "cpu = {}", r.cpu);
    }
}
