//! Cross-crate acceptance tests for the virtual-time profiler's exporter
//! and the event trace: the whole netsim stack runs with the profiler
//! enabled and must yield the expected flamegraph stacks; the trace of a
//! run plus a malicious-device scan must pair every map with its unmap and
//! record every blocked probe. (That the
//! tree's depth-1 cut equals the cores' breakdowns is netsim's harness
//! invariants test.)

use dma_shadowing::devices::MaliciousDevice;
use dma_shadowing::dma_api::Bus;
use dma_shadowing::iommu::DeviceId;
use dma_shadowing::netsim::{tcp_stream_rx_on, EngineKind, ExpConfig, SimStack};
use dma_shadowing::obs::profile::flamegraph;
use dma_shadowing::obs::{EventKind, Obs};
use dma_shadowing::simcore::{CoreCtx, CoreId};
use std::collections::HashMap;

fn quick_cfg() -> ExpConfig {
    ExpConfig {
        cores: 2,
        msg_size: 64 * 1024,
        items_per_core: 300,
        warmup_per_core: 40,
        ..ExpConfig::quick()
    }
}

#[test]
fn exporters_render_the_real_stack() {
    let obs = Obs::with_trace_capacity(1 << 14);
    obs.profiler().set_enabled(true);
    let cfg = quick_cfg();
    let stack = SimStack::with_obs(EngineKind::IdentityPlus, &cfg, obs.clone());
    tcp_stream_rx_on(&stack, &cfg);

    // Flamegraph: strict zero-copy spends its invalidation cycles under
    // rx -> dma_unmap -> invalq_drain, with the phase as the leaf frame.
    let collapsed = flamegraph(&obs.profiler().snapshot());
    assert!(
        collapsed
            .lines()
            .any(|l| l.starts_with("identity+;rx;dma_unmap;invalq_drain;invalidate_iotlb ")),
        "expected the invalidation stack in:\n{collapsed}"
    );
}

#[test]
fn the_trace_balances_maps_and_records_every_blocked_probe() {
    let obs = Obs::isolated();
    let cfg = quick_cfg();
    let mut stack = SimStack::with_obs(EngineKind::Copy, &cfg, obs.clone());
    tcp_stream_rx_on(&stack, &cfg);
    let evil = MaliciousDevice::new(
        DeviceId(13),
        Bus::Iommu {
            mmu: stack.mmu.clone(),
            mem: stack.mem.clone(),
        },
    );
    let scan = evil.scan(0, 8 * 4096, 4096);
    assert!(scan.blocked > 0, "the IOMMU blocked the rogue probes");
    stack.teardown(&mut CoreCtx::new(CoreId(0), stack.cost.clone()));

    assert_eq!(obs.tracer().stats().dropped, 0, "trace ring must not wrap");
    let mut open: HashMap<(Option<u16>, u64), i64> = HashMap::new();
    let mut blocked = 0;
    for e in obs.tracer().events() {
        match e.kind {
            EventKind::DmaMap { iova, .. } => *open.entry((e.device, iova)).or_default() += 1,
            EventKind::DmaUnmap { iova, .. } => *open.entry((e.device, iova)).or_default() -= 1,
            EventKind::AttackBlocked { .. } => blocked += 1,
            _ => {}
        }
    }
    assert!(!open.is_empty(), "the run mapped buffers");
    assert!(
        open.values().all(|&n| n == 0),
        "every DmaMap has its DmaUnmap per (device, iova)"
    );
    assert_eq!(
        blocked, scan.blocked,
        "every blocked probe is an AttackBlocked"
    );
}
