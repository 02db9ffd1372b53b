//! §2.2.1 ablation: deferred-invalidation batching scope — stock Linux's
//! single global list+lock vs ATC'15's per-core lists — measured as raw
//! map/unmap throughput on 16 cores.

use dma_api::{
    DeferPolicy, DeferredFlusher, DmaBuf, DmaDirection, DmaEngine, FlushScope, InvalPolicy,
    IovaPolicy, MappedDma,
};
use iommu::{DeviceId, Iommu};
use memsim::{NumaTopology, PhysMemory};
use simcore::{CoreCtx, CoreTask, CostModel, Cycles, MultiCoreSim, Phase, StepOutcome};
use std::sync::Arc;

const DEV: DeviceId = DeviceId(0);
const OPS: u64 = 30_000;
const CORES: usize = 16;

fn run(scope: FlushScope) -> (f64, f64, u64) {
    let mem = Arc::new(PhysMemory::new(NumaTopology::dual_socket_haswell()));
    let mmu = Arc::new(Iommu::new());
    // Not an engine of the figures: identity placement over either
    // batching scope is just another policy pair.
    let flusher = DeferredFlusher::with_obs(
        DeferPolicy::linux_default(),
        scope,
        CORES,
        mmu.obs().clone(),
    );
    let engine = MappedDma::new(
        "identity-",
        mem.clone(),
        mmu.clone(),
        DEV,
        IovaPolicy::identity(),
        InvalPolicy::Deferred(flusher),
    );
    let cost = Arc::new(CostModel::haswell_2_4ghz());
    let mut sim = MultiCoreSim::new(cost.clone(), CORES);
    for ctx in sim.ctxs_mut() {
        ctx.seek(Cycles(1));
    }
    let bufs: Vec<DmaBuf> = (0..CORES)
        .map(|i| {
            let domain = mem.topology().domain_of_core(simcore::CoreId(i as u16));
            let pfn = mem.alloc_frames(domain, 1).expect("buf");
            DmaBuf::new(pfn.base(), 1500)
        })
        .collect();
    let mut counters = [0u64; CORES];
    {
        let engine = &engine;
        let mut tasks: Vec<Box<dyn CoreTask + '_>> = counters
            .iter_mut()
            .enumerate()
            .map(|(i, count)| {
                let buf = bufs[i];
                Box::new(move |ctx: &mut CoreCtx| {
                    let m = engine.map(ctx, buf, DmaDirection::FromDevice).expect("map");
                    engine.unmap(ctx, m).expect("unmap");
                    *count += 1;
                    if *count >= OPS {
                        StepOutcome::Done
                    } else {
                        StepOutcome::Continue
                    }
                }) as Box<dyn CoreTask + '_>
            })
            .collect();
        sim.run(&mut tasks, Cycles::MAX);
    }
    let end = sim.ctxs().iter().map(|c| c.now()).max().unwrap();
    let secs = end.to_secs(2.4);
    let mops = (OPS * CORES as u64) as f64 / secs / 1e6;
    let spin_us: f64 = sim
        .ctxs()
        .iter()
        .map(|c| c.breakdown.get(Phase::Spinlock).to_micros(2.4))
        .sum::<f64>()
        / (OPS * CORES as u64) as f64;
    let deferred = mmu.obs().counter("flush", "deferred_total", None).get();
    (mops, spin_us, deferred)
}

fn main() {
    println!("==== Ablation: deferred batching scope (§2.2.1), 16-core map/unmap ====");
    println!(
        "{:<18} {:>14} {:>18} {:>14}",
        "scope", "M map+unmap/s", "spin us/op", "deferred ops"
    );
    for (name, scope) in [
        ("global (Linux)", FlushScope::Global),
        ("per-core (ATC15)", FlushScope::PerCore),
    ] {
        let (mops, spin, deferred) = run(scope);
        println!("{name:<18} {mops:>14.2} {spin:>18.4} {deferred:>14}");
    }
    println!("\n(the global list's lock serializes unmaps; per-core batching removes");
    println!(" the contention at the price of a longer vulnerability window)");
}
