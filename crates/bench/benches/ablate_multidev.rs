//! Cross-device interference ablation: the invalidation queue is a
//! *global* resource (§2.1 — one queue per IOMMU, one lock), so a single
//! strictly-protected device degrades every other device on the machine.
//! DMA shadowing never touches the queue, so a shadowed device is immune
//! to — and causes no — interference.
//!
//! Setup: cores 0–7 drive a "victim" NIC under the engine on the row;
//! cores 8–15 drive a second, strictly-protected (identity+) NIC through
//! the same IOMMU. Reported: the victim's map/unmap throughput alone vs
//! with the noisy neighbor.

use dma_api::{DmaBuf, DmaDirection, DmaEngine};
use iommu::{DeviceId, Iommu};
use memsim::{NumaTopology, PhysMemory};
use shadow_core::{build_engine, EngineKind, PoolConfig};
use simcore::{CoreCtx, CoreId, CoreTask, CostModel, Cycles, MultiCoreSim, StepOutcome};
use std::sync::Arc;

const OPS: u64 = 20_000;

/// Runs 8 victim cores (+ optionally 8 noisy identity+ cores on a second
/// device); returns the victim's aggregate map/unmap ops per second.
fn run(victim: EngineKind, with_neighbor: bool) -> f64 {
    let mem = Arc::new(PhysMemory::new(NumaTopology::dual_socket_haswell()));
    let mmu = Arc::new(Iommu::new());
    // Each NIC is driven by 8 cores; neither config shards per core.
    let engine = |kind, dev| {
        build_engine(
            kind,
            mem.clone(),
            mmu.clone(),
            DeviceId(dev),
            8,
            false,
            PoolConfig::default(),
        )
    };
    let v_eng = engine(victim, 0);
    let n_eng = engine(EngineKind::IdentityPlus, 1);
    let cores = if with_neighbor { 16 } else { 8 };
    let cost = Arc::new(CostModel::haswell_2_4ghz());
    let mut sim = MultiCoreSim::new(cost, cores);
    for ctx in sim.ctxs_mut() {
        ctx.seek(Cycles(1));
    }
    let bufs: Vec<DmaBuf> = (0..cores)
        .map(|i| {
            let domain = mem.topology().domain_of_core(CoreId(i as u16));
            DmaBuf::new(mem.alloc_frames(domain, 1).expect("buf").base(), 1500)
        })
        .collect();
    let mut end_times = vec![Cycles::ZERO; 8];
    {
        let v = &v_eng;
        let n = &n_eng;
        let ends = std::cell::RefCell::new(&mut end_times);
        let mut tasks: Vec<Box<dyn CoreTask + '_>> = (0..cores)
            .map(|i| {
                let buf = bufs[i];
                let mut count = 0u64;
                let ends = &ends;
                Box::new(move |ctx: &mut CoreCtx| {
                    let engine: &dyn DmaEngine = if i < 8 { v.as_ref() } else { n.as_ref() };
                    let m = engine.map(ctx, buf, DmaDirection::FromDevice).expect("map");
                    engine.unmap(ctx, m).expect("unmap");
                    count += 1;
                    if count >= OPS {
                        if i < 8 {
                            ends.borrow_mut()[i] = ctx.now();
                        }
                        StepOutcome::Done
                    } else {
                        StepOutcome::Continue
                    }
                }) as Box<dyn CoreTask + '_>
            })
            .collect();
        sim.run(&mut tasks, Cycles::MAX);
    }
    let end = end_times.iter().copied().max().unwrap();
    (8 * OPS) as f64 / end.to_secs(2.4)
}

fn main() {
    println!("==== Ablation: cross-device interference via the shared invalidation queue ====");
    println!(
        "{:<12} {:>16} {:>18} {:>10}",
        "victim", "alone (Mops/s)", "w/ strict NIC B", "slowdown"
    );
    // no-iommu is omitted: its map/unmap are no-ops, so the metric is
    // meaningless (and trivially interference-free).
    for victim in [
        EngineKind::Copy,
        EngineKind::IdentityMinus,
        EngineKind::IdentityPlus,
    ] {
        let alone = run(victim, false) / 1e6;
        let noisy = run(victim, true) / 1e6;
        println!(
            "{:<12} {:>16.2} {:>18.2} {:>9.2}x",
            victim.name(),
            alone,
            noisy,
            alone / noisy
        );
    }
    println!("\n(strict zero-copy protection on ANY device throttles every other");
    println!(" strictly-protected device; shadowed and unprotected devices never");
    println!(" queue invalidations, so they neither suffer nor cause interference)");
}
