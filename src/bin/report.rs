//! The observability report: `cargo run --release --bin report`.
//!
//! Runs the Figure 1 `TCP_STREAM` receive workload once per engine, every
//! stack reporting into one [`Obs`] with the profiler and its span log on
//! and trace sampling off. A malicious device then probes the *copy*
//! stack, and every stack is torn down like a driver `remove()`. The report
//! prints the Figure 5 phase breakdown (the profile tree's depth-1 cut,
//! which netsim's harness tests assert equals the cores' own breakdowns),
//! the metric registry and each engine's call tree (the breakdown refined
//! into per-scope self/total time), and asserts that
//!
//! 1. none of the eight phases is zero;
//! 2. dmasan finds no leaked mapping and no violation on any stack;
//! 3. the trace did not wrap, every `DmaMap` has its `DmaUnmap` per
//!    (device, IOVA), and every blocked probe is one `AttackBlocked`;
//! 4. of the artifacts it writes, `target/profile_fig1.jsonl` (the profile
//!    tree, replayable through `--diff`) round-trips and
//!    `target/profile_fig1.trace.json` (Chrome trace-event JSON, loadable
//!    in Perfetto) closes every `B` with its `E`. The third,
//!    `target/profile_fig1.collapsed`, is flamegraph collapsed-stack text.
//!
//! `report --diff <before.jsonl> <after.jsonl>` loads two saved profiles
//! and prints the per-scope delta instead.

use dma_shadowing::devices::MaliciousDevice;
use dma_shadowing::dma_api::Bus;
use dma_shadowing::iommu::DeviceId;
use dma_shadowing::netsim::{tcp_stream_rx_on, EngineKind, ExpConfig, SimStack, NIC_DEV};
use dma_shadowing::obs::json::Json;
use dma_shadowing::obs::profile::{
    chrome_trace, flamegraph, validate_chrome_trace, ProfileSnapshot,
};
use dma_shadowing::obs::sink::{parse_jsonl, render_table};
use dma_shadowing::obs::{EventKind, Obs};
use dma_shadowing::simcore::{CoreCtx, CoreId};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

/// The rogue peripheral's requester id (distinct from the NIC's).
const EVIL_DEV: DeviceId = DeviceId(13);

fn load_profile(path: &str) -> Result<ProfileSnapshot, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lines = parse_jsonl(&doc).map_err(|e| format!("{path}: {e}"))?;
    ProfileSnapshot::from_json_lines(&lines).map_err(|e| format!("{path}: {e}"))
}

fn diff(before: &str, after: &str) -> Result<(), String> {
    let (a, b) = (load_profile(before)?, load_profile(after)?);
    print!("{}", a.render_diff(&b));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let outcome = match args.get(1).map(String::as_str) {
        Some("--diff") => match (args.get(2), args.get(3)) {
            (Some(before), Some(after)) => diff(before, after),
            _ => Err("usage: report --diff <before.jsonl> <after.jsonl>".into()),
        },
        _ => report(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("report: {e}");
            ExitCode::from(2)
        }
    }
}

fn report() -> Result<(), String> {
    // A ring large enough that the whole run fits without wrapping.
    let obs = Obs::with_trace_capacity(1 << 20);
    obs.profiler().set_enabled(true);
    obs.profiler().set_span_log(true);
    let cfg = ExpConfig {
        cores: 2,
        msg_size: 64 * 1024,
        items_per_core: 400,
        warmup_per_core: 50,
        trace_sample: 1,
        ..ExpConfig::default()
    };
    let clock = cfg.cost.clock_ghz;
    let mut stacks = Vec::new();
    for kind in EngineKind::ALL {
        let stack = SimStack::with_obs(kind, &cfg, obs.clone());
        let r = tcp_stream_rx_on(&stack, &cfg);
        println!(
            "tcp_stream_rx {:<10} ({} cores, {} B messages): {:>6.2} Gb/s at {:>5.1}% cpu",
            kind.name(),
            cfg.cores,
            cfg.msg_size,
            r.gbps,
            r.cpu * 100.0
        );
        stacks.push(stack);
    }

    // A malicious peripheral probes the copy stack's address space through
    // its own (empty) domain; the IOMMU blocks and traces every probe.
    let copy = stacks
        .iter()
        .find(|s| s.kind == EngineKind::Copy)
        .expect("copy is one of EngineKind::ALL");
    let bus = Bus::Iommu {
        mmu: copy.mmu.clone(),
        mem: copy.mem.clone(),
    };
    let scan = MaliciousDevice::new(EVIL_DEV, bus).scan(0, 64 * 4096, 4096);
    assert!(!scan.any_accessible(), "the rogue device reached memory");

    let mut ctx = CoreCtx::new(CoreId(0), copy.cost.clone());
    for stack in &mut stacks {
        stack.teardown(&mut ctx);
        assert_eq!(stack.san.check_teardown(), 0, "{}: leaks", stack.kind);
        let violations = stack.san.violations();
        assert!(violations.is_empty(), "{}: {violations:?}", stack.kind);
    }
    println!("dmasan: every stack tore down clean (0 leaks, 0 violations)");

    // Figure 5: the profile tree's depth-1 cut over every engine.
    let prof = obs.profiler().snapshot();
    let cut = prof.breakdown_cut(Some(NIC_DEV.0));
    println!("\n=== Figure 5 phase breakdown (all engines, cycles) ===");
    for (p, c) in cut.iter() {
        let share = 100.0 * c.get() as f64 / cut.total().get().max(1) as f64;
        println!("  {:<22} {:>14}  {share:>5.1}%", p.label(), c.get());
        assert!(c.get() > 0, "phase '{p}' is missing");
    }

    println!("\n=== registry ===");
    print!(
        "{}",
        render_table(&obs.registry().snapshot(), Some(&obs.tracer().stats()))
    );
    println!("\n{}", prof.render(clock));

    // The trace, in memory: map/unmap balance and the blocked probes.
    assert_eq!(obs.tracer().stats().dropped, 0, "the trace ring wrapped");
    let events = obs.tracer().events();
    let mut open: HashMap<(Option<u16>, u64), i64> = HashMap::new();
    let (mut maps, mut blocked) = (0, 0);
    for e in &events {
        match e.kind {
            EventKind::DmaMap { iova, .. } => {
                maps += 1;
                *open.entry((e.device, iova)).or_default() += 1;
            }
            EventKind::DmaUnmap { iova, .. } => *open.entry((e.device, iova)).or_default() -= 1,
            EventKind::AttackBlocked { .. } => blocked += 1,
            _ => {}
        }
    }
    assert!(
        open.values().all(|&n| n == 0),
        "a DmaMap without its DmaUnmap"
    );
    assert_eq!(
        blocked, scan.blocked,
        "a blocked probe left no AttackBlocked"
    );
    println!(
        "trace: {} events, {maps} DmaMap / DmaUnmap pairs, {blocked} AttackBlocked \
         (all {} probes blocked)",
        events.len(),
        scan.blocked
    );

    // The artifacts, checked as encoded, then written.
    let tree: String = prof
        .to_json_lines()
        .iter()
        .map(|l| l.encode() + "\n")
        .collect();
    let collapsed = flamegraph(&prof);
    let trace = chrome_trace(&obs.profiler().spans(), clock).encode();
    let back = ProfileSnapshot::from_json_lines(&parse_jsonl(&tree)?)?;
    assert_eq!(back, prof, "the profile JSONL does not round-trip");
    let pairs = validate_chrome_trace(&Json::parse(&trace)?)?;
    let target = Path::new("target");
    std::fs::create_dir_all(target).map_err(|e| format!("mkdir target: {e}"))?;
    println!("\nartifacts:");
    for (name, doc, what) in [
        ("profile_fig1.jsonl", &tree, "profile tree".to_string()),
        (
            "profile_fig1.collapsed",
            &collapsed,
            format!("flamegraph, {} stacks", collapsed.lines().count()),
        ),
        (
            "profile_fig1.trace.json",
            &trace,
            format!(
                "chrome trace, {pairs} B/E pairs, {} spans dropped",
                obs.profiler().span_dropped()
            ),
        ),
    ] {
        let path = target.join(name);
        std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("  {:<32} {what}", path.display());
    }
    Ok(())
}
