//! Cross-crate acceptance tests for the virtual-time profiler and the
//! event trace: the whole netsim stack runs with the profiler enabled, and
//! the resulting tree must agree cycle-for-cycle with the registry's
//! Figure 5 breakdown; the trace of a run plus a malicious-device scan
//! must pair every map with its unmap and record every blocked probe.

use dma_shadowing::devices::MaliciousDevice;
use dma_shadowing::dma_api::Bus;
use dma_shadowing::iommu::DeviceId;
use dma_shadowing::netsim::{
    memcached_on, tcp_rr_on, tcp_stream_rx_on, tcp_stream_tx_on, EngineKind, ExpConfig, ExpResult,
    SimStack, NIC_DEV,
};
use dma_shadowing::obs::json::Json;
use dma_shadowing::obs::profile::{chrome_trace, flamegraph, validate_chrome_trace};
use dma_shadowing::obs::{breakdown, EventKind, Obs};
use dma_shadowing::simcore::{CoreCtx, CoreId, Phase};
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
fn profile_depth1_cut_is_byte_identical_to_breakdown() {
    // The RX deliver block and the deferred flusher burst-charge
    // (`CoreCtx::charge_batch`), so LinuxDefer here asserts the depth-1
    // cut stays cycle-identical with attribution committed per burst
    // rather than per charge. Every workload runs under the one measured-
    // run harness, so every workload opens a root the cut can see.
    type Run = fn(&SimStack, &ExpConfig) -> ExpResult;
    let workloads: [(&str, Run, usize); 4] = [
        ("rx", tcp_stream_rx_on, 64 * 1024),
        ("tx", tcp_stream_tx_on, 64 * 1024),
        ("rr", tcp_rr_on, 64),
        ("kv", memcached_on, 1024),
    ];
    for (root, run, msg_size) in workloads {
        let obs = Obs::with_trace_capacity(1 << 14);
        obs.profiler().set_enabled(true);
        let cfg = ExpConfig {
            msg_size,
            ..quick_cfg()
        };
        for kind in [
            EngineKind::Copy,
            EngineKind::IdentityPlus,
            EngineKind::LinuxDefer,
        ] {
            let stack = SimStack::with_obs(kind, &cfg, obs.clone());
            run(&stack, &cfg);
        }
        let merged = breakdown::breakdown_view(obs.registry(), Some(NIC_DEV.0));
        let snap = obs.profiler().snapshot();
        let cut = snap.breakdown_cut(Some(NIC_DEV.0));
        assert!(merged.total().get() > 0, "{root}: nothing was measured");
        for p in Phase::ALL {
            assert_eq!(cut.get(p), merged.get(p), "{root}: phase '{}'", p.label());
        }
        // Each engine left a distinct tree, rooted at the workload's frame.
        for engine in ["copy", "identity+", "defer"] {
            let tree = snap.merged(Some(engine));
            assert!(tree.child(root).is_some(), "{root}: no {engine} tree");
        }
    }
}

#[test]
fn exporters_render_the_real_stack() {
    let obs = Obs::with_trace_capacity(1 << 14);
    obs.profiler().set_enabled(true);
    obs.profiler().set_span_log(true);
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

    // Chrome trace: valid JSON, every B matched by an E.
    let trace = chrome_trace(&obs.profiler().spans(), cfg.cost.clock_ghz);
    let reparsed = Json::parse(&trace.encode()).expect("trace encodes to valid JSON");
    let pairs = validate_chrome_trace(&reparsed).expect("B/E events match");
    assert!(pairs > 0, "the span log captured real scopes");
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
