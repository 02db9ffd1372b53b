//! Heavier stress tests: the shadow pool's real-thread concurrency
//! contract at scale, engine churn under memory pressure, and determinism
//! of the whole simulation.

use dma_shadowing::dma_api::{DmaBuf, DmaError};
use dma_shadowing::iommu::{DeviceId, Iommu, Perms};
use dma_shadowing::memsim::{NumaDomain, NumaTopology, PhysMemory};
use dma_shadowing::netsim::{tcp_stream_rx, EngineKind, ExpConfig};
use dma_shadowing::shadow_core::{PoolConfig, ShadowPool};
use dma_shadowing::simcore::{CoreCtx, CoreId, CostModel, Cycles};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const DEV: DeviceId = DeviceId(0);

fn zero_ctx(core: u16) -> CoreCtx {
    let mut c = CoreCtx::new(CoreId(core), Arc::new(CostModel::zero()));
    c.seek(Cycles(1));
    c
}

#[test]
fn pool_owner_acquire_remote_release_storm() {
    // 8 threads, each owning one core id: every thread acquires from its
    // own lists and releases buffers acquired by *other* cores, hammering
    // the tail-lock path. Invariant: every acquired IOVA is released
    // exactly once and the pool reconciles.
    let topo = NumaTopology::new(8, 2, 1 << 17);
    let mem = Arc::new(PhysMemory::new(topo));
    let mmu = Arc::new(Iommu::new());
    let pool = Arc::new(ShadowPool::new(
        mem.clone(),
        mmu,
        DEV,
        PoolConfig::default(),
    ));
    let total_released = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..8).map(|_| std::sync::mpsc::channel()).unzip();
        for (core, rx) in (0..8u16).zip(rxs) {
            let pool = pool.clone();
            let mem = mem.clone();
            let next = txs[((core as usize) + 3) % 8].clone();
            let total_released = total_released.clone();
            s.spawn(move || {
                let mut ctx = zero_ctx(core);
                let os = mem
                    .alloc_frames(NumaDomain(core % 2), 1)
                    .expect("os buffer")
                    .base();
                for i in 0..2_000u32 {
                    let len = 100 + (i as usize * 97) % 60_000;
                    let iova = pool
                        .acquire_shadow(&mut ctx, DmaBuf::new(os, len), Perms::Write)
                        .expect("acquire");
                    let sref = pool.find_shadow(iova).expect("live");
                    assert!(sref.size >= len);
                    if next.send(iova).is_err() {
                        pool.release_shadow(&mut ctx, iova).expect("self release");
                        total_released.fetch_add(1, Ordering::Relaxed);
                    }
                    while let Ok(other) = rx.try_recv() {
                        pool.release_shadow(&mut ctx, other)
                            .expect("remote release");
                        total_released.fetch_add(1, Ordering::Relaxed);
                    }
                }
                drop(next);
                while let Ok(other) = rx.recv() {
                    pool.release_shadow(&mut ctx, other).expect("drain release");
                    total_released.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        drop(txs);
    });

    let s = pool.stats();
    assert_eq!(s.acquires, 8 * 2_000);
    assert_eq!(s.releases, total_released.load(Ordering::Relaxed));
    assert_eq!(s.releases, s.acquires, "every buffer recovered");
    assert_eq!(s.in_flight, 0);
}

#[test]
fn metadata_chunks_grow_while_other_threads_read_slots() {
    // 4 threads on the cores of one NUMA domain share its 4 KB metadata
    // array and each holds 300 buffers at once, so the array grows to 5
    // chunks under real contention. Each IOVA goes to the next thread as
    // soon as it is acquired, which resolves it while the others are
    // still creating chunks, and releases it once every thread holds its
    // full share.
    const THREADS: u16 = 4;
    const HELD: usize = 300;
    let mem = Arc::new(PhysMemory::new(NumaTopology::new(THREADS, 1, 1 << 14)));
    let pool = ShadowPool::new(
        mem.clone(),
        Arc::new(Iommu::new()),
        DEV,
        PoolConfig::default(),
    );
    let all_held = std::sync::Barrier::new(THREADS as usize);
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..THREADS).map(|_| std::sync::mpsc::channel()).unzip();
    std::thread::scope(|s| {
        for (core, rx) in (0..THREADS).zip(rxs) {
            let next = txs[usize::from((core + 1) % THREADS)].clone();
            let (pool, mem, all_held) = (&pool, &mem, &all_held);
            s.spawn(move || {
                let mut ctx = zero_ctx(core);
                let os = mem.alloc_frame(NumaDomain(0)).expect("os buffer").base();
                let mut received = Vec::new();
                for i in 0..HELD {
                    let len = 1000 + i;
                    let iova = pool
                        .acquire_shadow(&mut ctx, DmaBuf::new(os, len), Perms::Write)
                        .expect("acquire");
                    next.send((iova, len)).expect("neighbour is alive");
                    while let Ok((other, len)) = rx.try_recv() {
                        let sref = pool.find_shadow(other).expect("a held IOVA resolves");
                        assert_eq!(sref.os_len, len);
                        received.push(other);
                    }
                }
                drop(next);
                received.extend(rx.iter().map(|(other, len)| {
                    assert_eq!(pool.find_shadow(other).expect("held").os_len, len);
                    other
                }));
                assert_eq!(received.len(), HELD);
                all_held.wait();
                for iova in received {
                    pool.release_shadow(&mut ctx, iova).expect("remote release");
                }
            });
        }
        drop(txs);
    });
    let s = pool.stats();
    assert_eq!(s.acquires, u64::from(THREADS) * HELD as u64);
    assert_eq!(s.releases, s.acquires, "every buffer recovered");
    assert_eq!(s.in_flight, 0);
    assert_eq!(s.fallback_acquires, 0, "every buffer had a metadata slot");
}

#[test]
fn pool_reclaim_under_pressure_keeps_working() {
    let mem = Arc::new(PhysMemory::new(NumaTopology::new(2, 1, 1 << 14)));
    let mmu = Arc::new(Iommu::new());
    let pool = ShadowPool::new(mem.clone(), mmu, DEV, PoolConfig::default());
    let mut ctx = zero_ctx(0);
    let os = mem.alloc_frames(NumaDomain(0), 16).unwrap().base();
    // Cycle: grow the pool, release everything, reclaim, repeat.
    for round in 0..20 {
        let iovas: Vec<_> = (0..64)
            .map(|i| {
                let len = if i % 4 == 0 { 40_000 } else { 1500 };
                pool.acquire_shadow(&mut ctx, DmaBuf::new(os, len), Perms::ReadWrite)
                    .unwrap()
            })
            .collect();
        for iova in iovas {
            pool.release_shadow(&mut ctx, iova).unwrap();
        }
        let freed = pool.reclaim(&mut ctx, CoreId(0), 32);
        assert!(freed > 0, "round {round} reclaimed nothing");
    }
    assert_eq!(pool.stats().in_flight, 0);
    // Memory stayed bounded: reclaim kept returning frames.
    assert!(pool.stats().reclaimed >= 20 * 32 / 2);
}

#[test]
fn pool_exhaustion_is_graceful() {
    // Tiny physical memory: acquisition eventually fails with OOM, not a
    // panic, and releasing makes the pool usable again.
    let mem = Arc::new(PhysMemory::new(NumaTopology::new(1, 1, 64)));
    let mmu = Arc::new(Iommu::new());
    let pool = ShadowPool::new(mem.clone(), mmu, DEV, PoolConfig::default());
    let mut ctx = zero_ctx(0);
    let os = mem.alloc_frames(NumaDomain(0), 1).unwrap().base();
    let mut held = Vec::new();
    let err = loop {
        match pool.acquire_shadow(&mut ctx, DmaBuf::new(os, 4096), Perms::Write) {
            Ok(iova) => held.push(iova),
            Err(e) => break e,
        }
        assert!(held.len() < 100, "should exhaust 64 frames well before 100");
    };
    assert!(matches!(err, DmaError::Mem(_)), "graceful OOM: {err}");
    // Free one and try again.
    pool.release_shadow(&mut ctx, held.pop().unwrap()).unwrap();
    assert!(pool
        .acquire_shadow(&mut ctx, DmaBuf::new(os, 4096), Perms::Write)
        .is_ok());
}

#[test]
fn experiments_are_bit_for_bit_deterministic() {
    let cfg = ExpConfig {
        cores: 4,
        msg_size: 4096,
        items_per_core: 800,
        warmup_per_core: 100,
        ..ExpConfig::default()
    };
    let runs: Vec<_> = (0..3)
        .map(|_| tcp_stream_rx(EngineKind::Copy, &cfg))
        .collect();
    for r in &runs[1..] {
        assert_eq!(r.gbps, runs[0].gbps);
        assert_eq!(r.cpu, runs[0].cpu);
        assert_eq!(r.per_item, runs[0].per_item);
        assert_eq!(r.bytes, runs[0].bytes);
    }
}

#[test]
fn different_seeds_same_performance_different_bytes() {
    // Payload contents must not affect virtual-time results.
    let mk = |seed| ExpConfig {
        seed,
        items_per_core: 500,
        warmup_per_core: 50,
        ..ExpConfig::default()
    };
    let a = tcp_stream_rx(EngineKind::Copy, &mk(1));
    let b = tcp_stream_rx(EngineKind::Copy, &mk(2));
    assert_eq!(a.gbps, b.gbps, "timing independent of payload bytes");
}
