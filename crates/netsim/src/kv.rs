//! The memcached/memslap workload (Figure 11): one memcached instance per
//! core serving 90 %/10 % GET/SET over the NIC, with 64-byte keys and
//! 1 KB values (the memslap defaults, §6).

use crate::driver::{CoreDriver, HEADER_BYTES};
use crate::harness::{measure, Item, Workload};
use crate::report::ExpResult;
use crate::setup::{EngineKind, ExpConfig, SimStack};
use devices::MTU;
use simcore::{CoreCtx, CoreId, Cycles, Phase, SimRng};

/// memslap default key size.
const KEY_BYTES: usize = 64;
/// Protocol framing per request/response.
const PROTO_BYTES: usize = 30;

/// The body of one GET or SET transaction on `core`, in two scheduler
/// steps: receive and execute the request, then send the response.
/// Splitting it lets other cores' DMA operations interleave between this
/// core's two unmaps, as they would on real hardware.
pub(crate) fn kv_item<'a>(stack: &'a SimStack, cfg: &'a ExpConfig, core: usize) -> impl Item + 'a {
    let drv = CoreDriver::new(CoreId(core as u16));
    let mut rng = SimRng::seed(cfg.seed ^ (core as u64).wrapping_mul(0x9e37_79b9));
    let mut get_buf = rng.bytes(KEY_BYTES + PROTO_BYTES);
    let mut set_buf = rng.bytes(KEY_BYTES + PROTO_BYTES + cfg.msg_size);
    let mut resp_buf = rng.bytes(cfg.msg_size + PROTO_BYTES);
    let mut req_ready = Cycles(1);
    // Half-finished transaction: `(request length, response length)`.
    let mut pending = None;
    move |ctx: &mut CoreCtx, seq: u64| {
        if let Some((req_len, resp_len)) = pending.take() {
            resp_buf[0..8].copy_from_slice(&seq.to_le_bytes());
            let (n, _) = drv.tx_one(stack, ctx, &resp_buf[..resp_len], cfg.verify_data);
            stack.wire_back.transmit(ctx.now(), n + HEADER_BYTES);
            return Some((req_len + resp_len) as u64);
        }

        // A GET answers with the value, a SET with a bare acknowledgement.
        let (req, resp_len, execute) = if rng.chance(0.9) {
            (&mut get_buf, resp_buf.len(), ctx.cost.memcached_get)
        } else {
            (&mut set_buf, PROTO_BYTES, ctx.cost.memcached_set)
        };
        // memslap saturates the server: the next request is ready as soon
        // as the wire can carry it.
        req_ready = stack
            .wire
            .transmit(req_ready.max(Cycles(1)), req.len() + HEADER_BYTES);
        ctx.wait_until(req_ready);

        req[0..8].copy_from_slice(&seq.to_le_bytes());
        drv.rx_one(stack, ctx, req, cfg.verify_data);
        ctx.charge(Phase::Other, execute);
        pending = Some((req.len(), resp_len));
        None
    }
}

/// Runs the memcached benchmark: `cfg.cores` instances, memslap-style load,
/// `cfg.msg_size` used as the value size (the paper's default is 1 KB).
/// Reports aggregate transactions/second and CPU utilization.
///
/// # Panics
///
/// As [`memcached_on`].
pub fn memcached(kind: EngineKind, cfg: &ExpConfig) -> ExpResult {
    memcached_on(&SimStack::new(kind, cfg), cfg)
}

/// Runs the memcached benchmark on a caller-built stack (see
/// [`crate::tcp_stream_rx_on`]).
///
/// # Panics
///
/// Panics if a SET request (64 B key + 30 B framing + `cfg.msg_size`
/// value) does not fit one MTU receive buffer: the NIC would truncate the
/// frame while the byte count reported the full request.
pub fn memcached_on(stack: &SimStack, cfg: &ExpConfig) -> ExpResult {
    let set_request = KEY_BYTES + PROTO_BYTES + cfg.msg_size;
    assert!(
        set_request <= MTU,
        "memcached value of {} B makes a {set_request} B SET request, above the {MTU} B MTU",
        cfg.msg_size
    );
    measure(Workload::Kv, stack, cfg, cfg.cores, |c| {
        kv_item(stack, cfg, c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg16() -> ExpConfig {
        ExpConfig {
            cores: 16,
            msg_size: 1024,
            items_per_core: 800,
            warmup_per_core: 100,
            ..ExpConfig::quick()
        }
    }

    #[test]
    fn identity_plus_collapses_others_comparable() {
        // Figure 11: all designs except identity+ obtain comparable
        // transactional throughput; identity+ is several-fold worse.
        let no = memcached(EngineKind::NoIommu, &cfg16());
        let copy = memcached(EngineKind::Copy, &cfg16());
        let idm = memcached(EngineKind::IdentityMinus, &cfg16());
        let idp = memcached(EngineKind::IdentityPlus, &cfg16());
        let t = |r: &ExpResult| r.transactions_per_sec.unwrap();
        assert!(
            t(&copy) / t(&no) > 0.9,
            "copy ~ no-iommu: {} vs {}",
            t(&copy),
            t(&no)
        );
        assert!(t(&idm) / t(&no) > 0.85);
        let collapse = t(&no) / t(&idp);
        assert!(collapse > 3.0, "identity+ collapse {collapse}");
    }

    #[test]
    fn copy_overhead_is_tiny_for_memcached() {
        // §6: "copy provides full DMA attack protection at essentially the
        // same throughput and CPU utilization (< 2% overhead) as no iommu"
        // — allow a little slack in the reproduction.
        let no = memcached(EngineKind::NoIommu, &cfg16());
        let copy = memcached(EngineKind::Copy, &cfg16());
        let ratio = copy.transactions_per_sec.unwrap() / no.transactions_per_sec.unwrap();
        assert!(ratio > 0.93, "copy/no-iommu = {ratio}");
        assert!(copy.cpu / no.cpu < 1.15);
    }

    #[test]
    #[should_panic(expected = "65630 B SET request, above the 1500 B MTU")]
    fn a_value_whose_set_request_exceeds_the_mtu_is_rejected() {
        // 64 KB is also the generic `ExpConfig` default, which used to be
        // replaced with 1 KB without a word.
        memcached(EngineKind::NoIommu, &ExpConfig::quick());
    }

    #[test]
    fn the_largest_value_that_fits_is_delivered_whole() {
        let cfg = ExpConfig {
            msg_size: MTU - KEY_BYTES - PROTO_BYTES,
            items_per_core: 200,
            warmup_per_core: 0,
            ..ExpConfig::quick()
        };
        assert!(cfg.verify_data, "a truncated SET would fail verification");
        let r = memcached(EngineKind::Copy, &cfg);
        // Every GET moves 94 + (value + 30) bytes, every SET (94 + value) + 30.
        assert_eq!(r.bytes, 200 * (MTU + PROTO_BYTES) as u64);
    }

    #[test]
    fn transactions_scale_with_cores() {
        let one = memcached(
            EngineKind::Copy,
            &ExpConfig {
                cores: 1,
                ..cfg16()
            },
        );
        let sixteen = memcached(EngineKind::Copy, &cfg16());
        let ratio = sixteen.transactions_per_sec.unwrap() / one.transactions_per_sec.unwrap();
        assert!(ratio > 8.0, "scaling ratio {ratio}");
    }
}
