//! Cross-crate acceptance tests for the virtual-time profiler and the
//! flight recorder: the whole netsim stack runs with the profiler
//! enabled, and the resulting tree must agree cycle-for-cycle with the
//! registry's Figure 5 breakdown; a security event must leave a flight
//! dump whose every line re-parses.

// lint: allow(ambient-io) — this test reads back the flight recorder's on-disk dump

use dma_shadowing::netsim::{
    memcached_on, tcp_rr_on, tcp_stream_rx_on, tcp_stream_tx_on, EngineKind, ExpConfig, ExpResult,
    SimStack, NIC_DEV,
};
use dma_shadowing::obs::json::Json;
use dma_shadowing::obs::profile::{chrome_trace, flamegraph, validate_chrome_trace};
use dma_shadowing::obs::sink::{event_from_json, parse_jsonl};
use dma_shadowing::obs::{breakdown, flight, Obs};
use dma_shadowing::simcore::Phase;

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
fn security_event_dump_replays_through_the_parsers() {
    use dma_shadowing::devices::MaliciousDevice;
    use dma_shadowing::dma_api::Bus;
    use dma_shadowing::iommu::DeviceId;

    let obs = Obs::with_trace_capacity(1 << 14);
    obs.profiler().set_enabled(true);
    let cfg = quick_cfg();
    let stack = SimStack::with_obs(EngineKind::Copy, &cfg, obs.clone());
    tcp_stream_rx_on(&stack, &cfg);

    // Arm, then probe from a rogue device: every blocked DMA is a
    // security event, and the first one triggers a dump.
    let dir = std::path::Path::new("target").join("flight-stack-test");
    let _ = std::fs::remove_dir_all(&dir);
    obs.flight().arm(&dir, 64);
    obs.flight().set_max_dumps(1);
    let evil = MaliciousDevice::new(
        DeviceId(13),
        Bus::Iommu {
            mmu: stack.mmu.clone(),
            mem: stack.mem.clone(),
        },
    );
    let scan = evil.scan(0, 8 * 4096, 4096);
    assert!(scan.blocked > 0, "the IOMMU blocked the rogue probes");
    assert_eq!(obs.flight().dumps(), 1, "one dump, budget respected");

    // The dump replays: run header, metrics, profile tree, events.
    let dump = std::fs::read_dir(&dir)
        .expect("dump dir exists")
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().starts_with("flight-"))
        .expect("dump file written");
    let text = std::fs::read_to_string(dump.path()).expect("dump readable");
    let lines = parse_jsonl(&text).expect("every dump line is valid JSON");
    let header = &lines[0];
    assert_eq!(header.get("kind").and_then(Json::as_str), Some("flight"));
    assert_eq!(
        header.get("reason").and_then(Json::as_str),
        Some("AttackBlocked")
    );
    let events: Vec<_> = lines
        .iter()
        .filter(|l| l.get("type").and_then(Json::as_str) == Some("event"))
        .map(|l| event_from_json(l).expect("event decodes"))
        .collect();
    assert!(!events.is_empty(), "the dump carries the last-N events");
    let profile_lines: Vec<Json> = lines
        .iter()
        .filter(|l| l.get("type").and_then(Json::as_str) == Some("profile"))
        .cloned()
        .collect();
    let snap = dma_shadowing::obs::profile::ProfileSnapshot::from_json_lines(&profile_lines)
        .expect("profile decodes");
    assert!(!snap.is_empty(), "the dump carries the profile tree");
    // Same dump content is available without touching disk.
    let s = flight::dump_string(&obs, "manual", 16);
    assert!(parse_jsonl(&s).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}
