//! Micro-benchmarks of this implementation's hot paths (host time, not
//! simulated time): shadow pool operations, IOVA codec, IOTLB, page
//! table, and full map/unmap cycles per engine. Self-contained timing
//! harness (the workspace builds offline, so no criterion).

use dma_api::{DmaBuf, DmaDirection};
use iommu::{DeviceId, IoPageTable, Iommu, Iotlb, IovaPage, Perms, PtEntry};
use memsim::{NumaDomain, NumaTopology, Pfn, PhysMemory};
use shadow_core::{build_engine, EngineKind, IovaCodec, PoolConfig, ShadowPool};
use simcore::{CoreCtx, CoreId, CostModel, Cycles};
use std::sync::Arc;
use std::time::Instant;

const DEV: DeviceId = DeviceId(0);

fn ctx() -> CoreCtx {
    let mut c = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
    c.seek(Cycles(1));
    c
}

fn rig() -> (Arc<PhysMemory>, Arc<Iommu>) {
    (
        Arc::new(PhysMemory::new(NumaTopology::dual_socket_haswell())),
        Arc::new(Iommu::new()),
    )
}

/// Times `f` over enough iterations for a stable ns/op estimate and
/// prints one aligned row.
fn bench(name: &str, mut f: impl FnMut()) {
    // Warm up.
    for _ in 0..1_000 {
        f();
    }
    // Scale the iteration count to roughly 50 ms of work.
    let probe = Instant::now();
    for _ in 0..10_000 {
        f();
    }
    let per = probe.elapsed().as_nanos().max(1) as u64 / 10_000;
    let iters = (50_000_000 / per.max(1)).clamp(10_000, 5_000_000);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<32} {ns:>10.1} ns/op   ({iters} iters)");
}

fn bench_pool() {
    let (mem, mmu) = rig();
    let pool = ShadowPool::new(mem.clone(), mmu, DEV, PoolConfig::default());
    let pfn = mem.alloc_frames(NumaDomain(0), 1).unwrap();
    let buf = DmaBuf::new(pfn.base(), 1500);
    let mut cx = ctx();
    // Warm the free list.
    let iova = pool.acquire_shadow(&mut cx, buf, Perms::Write).unwrap();
    pool.release_shadow(&mut cx, iova).unwrap();

    bench("pool_acquire_release_warm", || {
        let iova = pool.acquire_shadow(&mut cx, buf, Perms::Write).unwrap();
        pool.release_shadow(&mut cx, iova).unwrap();
    });
    let iova = pool.acquire_shadow(&mut cx, buf, Perms::Write).unwrap();
    bench("pool_find_shadow", || {
        std::hint::black_box(pool.find_shadow(std::hint::black_box(iova)));
    });
}

fn bench_codec() {
    let codec = IovaCodec::paper_default();
    let iova = codec.encode(CoreId(5), Perms::Write, 1, 1234);
    bench("iova_encode", || {
        std::hint::black_box(codec.encode(CoreId(5), Perms::Write, 1, std::hint::black_box(1234)));
    });
    bench("iova_decode", || {
        std::hint::black_box(codec.decode(std::hint::black_box(iova)));
    });
}

fn bench_iotlb() {
    let mut tlb = Iotlb::new(4096);
    let e = PtEntry {
        pfn: Pfn(7),
        perms: Perms::ReadWrite,
    };
    for i in 0..1024 {
        tlb.insert(DEV, IovaPage(i), e);
    }
    bench("iotlb_lookup_hit", || {
        std::hint::black_box(tlb.lookup(DEV, IovaPage(std::hint::black_box(512))));
    });
    let mut i = 10_000u64;
    bench("iotlb_insert_evict", || {
        i += 1;
        tlb.insert(DEV, IovaPage(i), e);
    });
}

fn bench_pagetable() {
    bench("pagetable_map_unmap", || {
        let mut pt = IoPageTable::new();
        pt.map(IovaPage(0x1234), Pfn(1), Perms::Read).unwrap();
        pt.unmap(IovaPage(0x1234)).unwrap();
    });
    let mut pt = IoPageTable::new();
    pt.map(IovaPage(0x1234), Pfn(1), Perms::Read).unwrap();
    bench("pagetable_translate", || {
        std::hint::black_box(pt.translate(IovaPage(std::hint::black_box(0x1234))));
    });
}

fn bench_engines() {
    for (name, kind) in [
        ("no_iommu", EngineKind::NoIommu),
        ("copy", EngineKind::Copy),
        ("identity_strict", EngineKind::IdentityPlus),
        ("linux_strict", EngineKind::LinuxStrict),
    ] {
        let (mem, mmu) = rig();
        let engine = build_engine(kind, mem.clone(), mmu, DEV, 1, false, PoolConfig::default());
        let pfn = mem.alloc_frames(NumaDomain(0), 1).unwrap();
        let buf = DmaBuf::new(pfn.base(), 1500);
        let mut cx = ctx();
        bench(&format!("map_unmap_1500B/{name}"), || {
            let m = engine.map(&mut cx, buf, DmaDirection::FromDevice).unwrap();
            engine.unmap(&mut cx, m).unwrap();
        });
    }
}

fn main() {
    println!("micro-benchmarks (host time)");
    bench_pool();
    bench_codec();
    bench_iotlb();
    bench_pagetable();
    bench_engines();
}
