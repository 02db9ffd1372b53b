//! netperf TCP request/response latency (Figures 9 and 10).

use crate::driver::{CoreDriver, HEADER_BYTES};
use crate::harness::{measure, Item, Workload};
use crate::report::ExpResult;
use crate::setup::{EngineKind, ExpConfig, SimStack};
use devices::MTU;
use simcore::{CoreCtx, CoreId, Cycles};

/// Remote peer turnaround (its full network stack plus netperf), modeled as
/// a constant because the remote machine is not under evaluation.
const REMOTE_TURNAROUND_NS: f64 = 8_000.0;

/// The body of one request/response transaction (on core 0).
pub(crate) fn rr_item<'a>(stack: &'a SimStack, cfg: &'a ExpConfig) -> impl Item + 'a {
    let drv = CoreDriver::new(CoreId(0));
    let turnaround = Cycles::from_nanos(REMOTE_TURNAROUND_NS, cfg.cost.clock_ghz);
    let mut payload = stack.rng.borrow_mut().bytes(cfg.msg_size.max(8));
    move |ctx: &mut CoreCtx, seq: u64| {
        payload[0..8].copy_from_slice(&seq.to_le_bytes());

        // --- request: send msg_size bytes (one or more TSO buffers) ---
        let mut wire_done = ctx.now();
        for chunk in payload.chunks(64 * 1024) {
            let (n, _frames) = drv.tx_one(stack, ctx, chunk, cfg.verify_data);
            // Request frames serialize on the TX direction.
            let mut remaining = n;
            while remaining > 0 {
                let seg = remaining.min(MTU);
                wire_done = stack.wire_back.transmit(ctx.now(), seg + HEADER_BYTES);
                remaining -= seg;
            }
        }

        // --- remote peer turns the message around; the response arrives
        // as MTU frames ---
        let mut arrival = wire_done + turnaround;
        for seg in payload.chunks(MTU) {
            arrival = stack.wire.transmit(arrival, seg.len() + HEADER_BYTES);
            ctx.wait_until(arrival);
            drv.rx_one(stack, ctx, seg, cfg.verify_data);
        }
        Some(2 * payload.len() as u64)
    }
}

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
    measure(Workload::Rr, stack, cfg, 1, |_| rr_item(stack, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Phase;

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
        let share = |r: &ExpResult, a, b| {
            (r.per_item.get(a) + r.per_item.get(b)).get() as f64 / r.per_item.total().get() as f64
        };
        let idp_iommu = share(&idp, Phase::InvalidateIotlb, Phase::IommuPageTableMgmt);
        let copy_mgmt = share(&copy, Phase::Memcpy, Phase::CopyMgmt);
        assert!(idp_iommu > 0.1, "identity+ iommu share {idp_iommu}");
        assert!(copy_mgmt > 0.02, "copy share {copy_mgmt}");
        assert!(
            copy.per_item.get(Phase::InvalidateIotlb) == Cycles::ZERO,
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
