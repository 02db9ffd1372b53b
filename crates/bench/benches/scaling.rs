//! Scaling sweep beyond the paper's 16 cores: 16/64/128/256 virtual
//! cores, global vs per-core (magazine) allocation state.
//!
//! Extends Figures 6–8 along the core-count axis: per-engine RX
//! throughput plus a per-lock spin breakdown (the IOVA-allocator lock and
//! the invalidation-queue lock) at every point, and — next to the Gb/s it
//! buys — the deferred engines' exposure: the most unmapped-but-still-
//! translatable ranges pending at once. The wire scales with the core
//! count (40 Gb/s per 16 cores, a multi-port NIC) so the locks — not link
//! serialization — are the resource under test.
//!
//! Besides the printed tables, the sweep writes its curves, one row per
//! measured point, to `target/scaling_curves.csv`, the artifact CI
//! uploads next to the lint report.

// lint: allow(ambient-io) — the sweep writes its curve artifacts under target/
// lint: allow(panic) — a bench harness aborts loudly on unwritable output

use netsim::{tcp_stream_rx_on, EngineKind, ExpConfig, SimStack};
use simcore::Phase;
use std::path::PathBuf;

/// The x-axis: the paper's 16 cores plus the extended sweep.
const CORE_COUNTS: [usize; 4] = [16, 64, 128, 256];

/// Engines whose map/unmap paths take the contended locks.
const ENGINES: [EngineKind; 7] = [
    EngineKind::Copy,
    EngineKind::IdentityMinus,
    EngineKind::IdentityPlus,
    EngineKind::LinuxStrict,
    EngineKind::LinuxDefer,
    EngineKind::EiovarDefer,
    EngineKind::EiovarStrict,
];

struct Point {
    engine: &'static str,
    cores: usize,
    percore: bool,
    wire_gbps: f64,
    gbps: f64,
    cpu: f64,
    spin_us_per_item: f64,
    /// The `flush.peak_pending` gauge: the widest the vulnerability window
    /// got, in ranges (0 for engines that defer nothing).
    peak_pending: u64,
    iova_lock: &'static str,
    iova_spin_cycles: u64,
    invalq_spin_cycles: u64,
    invalq_acquisitions: u64,
}

fn measure(kind: EngineKind, cores: usize, percore: bool) -> Point {
    // Item counts shrink with core count so the whole sweep stays in
    // bench-budget host time; every run still simulates >10k packets.
    let items = (12_800 / cores.max(16)) as u64 * 16;
    let cfg = ExpConfig {
        cores,
        msg_size: 64 * 1024,
        items_per_core: items,
        warmup_per_core: items / 8,
        wire_gbps: 40.0 * (cores as f64 / 16.0),
        percore,
        ..ExpConfig::default()
    };
    let stack = SimStack::new(kind, &cfg);
    let r = tcp_stream_rx_on(&stack, &cfg);
    let (iova_lock, iova_spin_cycles) = stack
        .engine
        .iova_lock_stats()
        .map_or(("none", 0), |(name, s)| (name, s.total_spin.get()));
    let invalq = stack.mmu.invalq().lock_stats();
    let peak_pending = stack.obs.gauge("flush", "peak_pending", None).get();
    Point {
        engine: kind.name(),
        cores,
        percore,
        wire_gbps: cfg.wire_gbps,
        gbps: r.gbps,
        cpu: r.cpu,
        spin_us_per_item: r.per_item.get(Phase::Spinlock).to_micros(r.clock_ghz),
        peak_pending: peak_pending as u64,
        iova_lock,
        iova_spin_cycles,
        invalq_spin_cycles: invalq.total_spin.get(),
        invalq_acquisitions: invalq.acquisitions,
    }
}

fn csv(points: &[Point]) -> String {
    let mut out = String::from(
        "engine,cores,config,wire_gbps,gbps,cpu,spin_us_per_item,peak_pending,\
         iova_lock,iova_spin_cycles,invalq_spin_cycles,invalq_acquisitions\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{:.3},{:.4},{:.4},{},{},{},{},{}\n",
            p.engine,
            p.cores,
            if p.percore { "percore" } else { "global" },
            p.wire_gbps,
            p.gbps,
            p.cpu,
            p.spin_us_per_item,
            p.peak_pending,
            p.iova_lock,
            p.iova_spin_cycles,
            p.invalq_spin_cycles,
            p.invalq_acquisitions,
        ));
    }
    out
}

fn target_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target")
}

fn main() {
    println!("==== Scaling sweep: 16/64/128/256 cores, global vs per-core ====");
    let mut points = Vec::new();
    for percore in [false, true] {
        let config = if percore { "percore" } else { "global" };
        for &cores in &CORE_COUNTS {
            println!("\n-- {config}, {cores} cores --");
            println!(
                "{:<10} {:>9} {:>9} {:>6} {:>12} {:>12} {:>14} {:>14}",
                "engine",
                "wire Gb/s",
                "RX Gb/s",
                "cpu%",
                "spin us/pkt",
                "peak pending",
                "iova spin cyc",
                "invalq spin cyc"
            );
            for &kind in &ENGINES {
                let p = measure(kind, cores, percore);
                println!(
                    "{:<10} {:>9.0} {:>9.2} {:>6.1} {:>12.3} {:>12} {:>14} {:>14}",
                    p.engine,
                    p.wire_gbps,
                    p.gbps,
                    p.cpu * 100.0,
                    p.spin_us_per_item,
                    p.peak_pending,
                    p.iova_spin_cycles,
                    p.invalq_spin_cycles
                );
                points.push(p);
            }
        }
    }
    let dir = target_dir();
    std::fs::create_dir_all(&dir).expect("create target dir");
    let csv_path = dir.join("scaling_curves.csv");
    std::fs::write(&csv_path, csv(&points)).expect("write scaling_curves.csv");
    println!("\ncurves written to {}", csv_path.display());
    println!("(percore shards the IOVA allocator and the deferred pending list and gives");
    println!(" every core its own invalidation queue; peak pending is what the deferred");
    println!(" engines pay for it; the global config reproduces Figures 6-8's collapse)");
    check_roadmap_target(&points);
}

/// What the sweep must keep showing, as failing checks.
///
/// - Strict protection that scales: with the queue lock shed, the percore
///   strict engines keep scaling from 64 to 256 cores and stay within 2x
///   of *copy* at 64.
/// - ROADMAP item 2(c): with per-core pending lists and an IOVA cache that
///   takes a batch home, percore *defer* / *eiovar−* keep scaling too,
///   follow *copy* (the wire) at every core count, and do it on an idle
///   CPU with no lock spin — throughput alone would also accept a variant
///   that reads *more* Gb/s while spinning (`collect` over-counts
///   desynchronised cores). Percore *eiovar+* is percore *strict*.
/// - `percore` off substitutes nothing: every global row reads what it
///   read before any engine had a per-core form.
fn check_roadmap_target(points: &[Point]) {
    let point = |kind: EngineKind, cores: usize, percore: bool| {
        points
            .iter()
            .find(|p| p.percore == percore && p.engine == kind.name() && p.cores == cores)
            .expect("swept point")
    };
    let gbps = |kind: EngineKind, cores: usize| point(kind, cores, true).gbps;
    let assert_scales = |kind: EngineKind| {
        let (at64, at128, at256) = (gbps(kind, 64), gbps(kind, 128), gbps(kind, 256));
        assert!(
            at64 <= at128 && at128 <= at256,
            "percore {kind} degrades past 64 cores: {at64:.2} / {at128:.2} / {at256:.2} Gb/s"
        );
    };
    let copy = gbps(EngineKind::Copy, 64);
    for kind in [EngineKind::LinuxStrict, EngineKind::IdentityPlus] {
        assert_scales(kind);
        let at64 = gbps(kind, 64);
        assert!(
            at64 * 2.0 >= copy,
            "percore {kind} at 64 cores is {at64:.2} Gb/s, more than 2x behind copy's {copy:.2}"
        );
    }
    for kind in [EngineKind::LinuxDefer, EngineKind::EiovarDefer] {
        assert_scales(kind);
        for cores in CORE_COUNTS {
            let (got, wire) = (gbps(kind, cores), gbps(EngineKind::Copy, cores));
            assert!(
                (got - wire).abs() <= 0.05 * wire,
                "percore {kind} at {cores} cores is {got:.2} Gb/s, not within 5% of copy's {wire:.2}"
            );
        }
        let p = point(kind, 256, true);
        assert!(
            p.cpu <= 0.25 && p.spin_us_per_item <= 0.5,
            "percore {kind} at 256 cores: {:.1}% CPU, {:.3} us spin/packet",
            p.cpu * 100.0,
            p.spin_us_per_item
        );
    }
    for cores in CORE_COUNTS {
        let (plus, strict) = (
            gbps(EngineKind::EiovarStrict, cores),
            gbps(EngineKind::LinuxStrict, cores),
        );
        assert!(
            (plus - strict).abs() <= 0.01 * strict,
            "percore eiovar+ at {cores} cores is {plus:.2} Gb/s, percore strict {strict:.2}"
        );
    }
    for (kind, expected) in GLOBAL_GBPS {
        for (cores, expected) in CORE_COUNTS.into_iter().zip(expected) {
            let got = format!("{:.3}", point(kind, cores, false).gbps);
            assert_eq!(got, expected, "global {kind} at {cores} cores moved");
        }
    }
}

/// The `global` rows (Gb/s at 16/64/128/256 cores, as the CSV prints
/// them) from before `percore` reached the deferred and EiovaR engines.
const GLOBAL_GBPS: [(EngineKind, [&str; 4]); 7] = [
    (
        EngineKind::Copy,
        ["38.298", "153.193", "306.388", "612.787"],
    ),
    (
        EngineKind::IdentityMinus,
        ["38.300", "153.413", "308.311", "629.496"],
    ),
    (
        EngineKind::IdentityPlus,
        ["7.434", "2.601", "1.393", "0.722"],
    ),
    (
        EngineKind::LinuxStrict,
        ["4.831", "2.188", "1.265", "0.686"],
    ),
    (
        EngineKind::LinuxDefer,
        ["17.039", "17.039", "17.037", "17.038"],
    ),
    (
        EngineKind::EiovarDefer,
        ["38.298", "110.616", "110.602", "110.603"],
    ),
    (
        EngineKind::EiovarStrict,
        ["6.355", "2.455", "1.350", "0.711"],
    ),
];
