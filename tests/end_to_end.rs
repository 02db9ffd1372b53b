//! End-to-end data-integrity tests across the whole stack: every engine,
//! both directions, many sizes, through the real NIC descriptor path.

use dma_shadowing::devices::MTU;
use dma_shadowing::netsim::{CoreDriver, EngineKind, ExpConfig, SimStack};
use dma_shadowing::simcore::{CoreCtx, CoreId, CostModel, Cycles};
use std::sync::Arc;

fn ctx() -> CoreCtx {
    let mut c = CoreCtx::new(CoreId(0), Arc::new(CostModel::haswell_2_4ghz()));
    c.seek(Cycles(1));
    c
}

#[test]
fn rx_payload_sizes_roundtrip_every_engine() {
    for kind in EngineKind::ALL {
        let stack = SimStack::new(kind, &ExpConfig::quick());
        let drv = CoreDriver::new(CoreId(0));
        let mut c = ctx();
        for len in [16usize, 60, 64, 300, 1000, 1499, MTU] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 13 + len) as u8).collect();
            let delivered = drv.rx_one(&stack, &mut c, &payload, true);
            assert_eq!(delivered, len, "{kind} len {len}");
        }
        // Nothing leaked: the slab is empty again.
        assert_eq!(stack.kmalloc.stats().live, 0, "{kind}");
    }
}

#[test]
fn tx_payload_sizes_roundtrip_every_engine() {
    for kind in EngineKind::ALL {
        let stack = SimStack::new(kind, &ExpConfig::quick());
        let drv = CoreDriver::new(CoreId(0));
        let mut c = ctx();
        for len in [16usize, MTU, MTU + 1, 4096, 10_000, 64 * 1024] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let (sent, frames) = drv.tx_one(&stack, &mut c, &payload, true);
            assert_eq!(sent, len, "{kind} len {len}");
            assert_eq!(frames, len.div_ceil(MTU), "{kind} len {len}");
        }
        assert_eq!(stack.kmalloc.stats().live, 0, "{kind}");
    }
}

#[test]
fn many_packets_with_buffer_churn() {
    // Interleave RX and TX with slab reuse for thousands of iterations; any
    // mapping-accounting bug (double release, stale association, IOVA
    // collision) surfaces as corruption or a panic.
    for kind in [
        EngineKind::Copy,
        EngineKind::IdentityMinus,
        EngineKind::LinuxDefer,
    ] {
        let stack = SimStack::new(kind, &ExpConfig::quick());
        let drv = CoreDriver::new(CoreId(0));
        let mut c = ctx();
        for i in 0..3_000u64 {
            let len = 64 + (i as usize * 37) % (MTU - 64);
            let mut payload = vec![0u8; len];
            payload[..8].copy_from_slice(&i.to_le_bytes());
            if i % 3 == 0 {
                drv.tx_one(&stack, &mut c, &payload, true);
            } else {
                drv.rx_one(&stack, &mut c, &payload, true);
            }
        }
        // Deferred engines still owe a final flush; afterwards the
        // IOMMU state is clean.
        stack.engine.flush_deferred(&mut c);
        assert_eq!(stack.kmalloc.stats().live, 0);
    }
}

#[test]
fn multi_core_rings_are_independent() {
    let cfg = ExpConfig {
        cores: 4,
        ..ExpConfig::quick()
    };
    let stack = SimStack::new(EngineKind::Copy, &cfg);
    let mut ctxs: Vec<CoreCtx> = (0..4)
        .map(|i| {
            let mut c = CoreCtx::new(CoreId(i), Arc::new(CostModel::haswell_2_4ghz()));
            c.seek(Cycles(1));
            c
        })
        .collect();
    for round in 0..50u8 {
        for core in 0..4u16 {
            let drv = CoreDriver::new(CoreId(core));
            let payload = vec![core as u8 ^ round; 500];
            let n = drv.rx_one(&stack, &mut ctxs[core as usize], &payload, true);
            assert_eq!(n, 500);
        }
    }
}

#[test]
fn loopback_smoke_for_docs() {
    let mut stack = SimStack::new(EngineKind::Copy, &ExpConfig::quick());
    let payload = vec![0xabu8; 1500];
    assert_eq!(stack.loopback_rx(&payload), payload);
}

#[test]
fn copy_engine_issues_no_datapath_invalidations() {
    let stack = SimStack::new(EngineKind::Copy, &ExpConfig::quick());
    let drv = CoreDriver::new(CoreId(0));
    let mut c = ctx();
    for i in 0..500u64 {
        let mut p = vec![0u8; 1200];
        p[..8].copy_from_slice(&i.to_le_bytes());
        drv.rx_one(&stack, &mut c, &p, true);
        drv.tx_one(&stack, &mut c, &p, true);
    }
    let stats = stack.mmu.invalq().stats();
    assert_eq!(
        stats.page_commands, 0,
        "no page invalidations on the data path"
    );
    assert_eq!(stats.flush_commands, 0, "no flushes either");
}

#[test]
fn strict_engines_invalidate_per_unmap() {
    for kind in [EngineKind::IdentityPlus, EngineKind::LinuxStrict] {
        let stack = SimStack::new(kind, &ExpConfig::quick());
        let drv = CoreDriver::new(CoreId(0));
        let mut c = ctx();
        for i in 0..100u64 {
            let mut p = vec![0u8; 1200];
            p[..8].copy_from_slice(&i.to_le_bytes());
            drv.rx_one(&stack, &mut c, &p, true);
        }
        assert!(
            stack.mmu.invalq().stats().page_commands >= 100,
            "{kind}: strict = one invalidation per unmap"
        );
    }
}

#[test]
fn scatter_gather_tx_roundtrip_every_engine() {
    // §5.2: SG elements are mapped/copied independently; the NIC gathers
    // the descriptor chain back into one wire payload.
    for kind in EngineKind::ALL {
        let stack = SimStack::new(kind, &ExpConfig::quick());
        let drv = CoreDriver::new(CoreId(0));
        let mut c = ctx();
        for (len, frags) in [(1500usize, 3usize), (9000, 4), (64 * 1024, 16), (100, 7)] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 11 + frags) as u8).collect();
            let (sent, frames) = drv.tx_one_sg(&stack, &mut c, &payload, frags, true);
            assert_eq!(sent, len, "{kind} len {len} frags {frags}");
            assert_eq!(frames, len.div_ceil(MTU), "{kind}");
        }
        assert_eq!(stack.kmalloc.stats().live, 0, "{kind}");
    }
}

#[test]
fn scatter_gather_stream_matches_contiguous_bytes() {
    // A stream of 16 KB buffers sent as 4 fragments each moves the same
    // bytes and frames as the contiguous stream (the per-fragment mapping
    // costs differ, the data does not).
    let send = |frags: usize| {
        let stack = SimStack::new(EngineKind::Copy, &ExpConfig::quick());
        let drv = CoreDriver::new(CoreId(0));
        let mut c = ctx();
        let (mut bytes, mut frames) = (0, 0);
        for seq in 0..500usize {
            let payload: Vec<u8> = (0..16 * 1024).map(|i| (i * 5 + seq) as u8).collect();
            let (n, f) = drv.tx_one_sg(&stack, &mut c, &payload, frags, true);
            drv.wire_out(&stack, &mut c, n);
            (bytes, frames) = (bytes + n, frames + f);
        }
        assert_eq!(stack.kmalloc.stats().live, 0, "{frags} fragments");
        (bytes, frames, c.busy())
    };
    let (a, b) = (send(1), send(4));
    assert_eq!((a.0, a.1), (b.0, b.1));
    // Fragmented mapping costs at least as much management work.
    assert!(b.2.get() as f64 >= a.2.get() as f64 * 0.99, "{a:?} {b:?}");
}

#[test]
fn unmap_sg_unmaps_every_element_after_a_failure() {
    // A middle element whose copy-back fails must not strand the mappings
    // after it: every element is unmapped, and the first error is still
    // reported.
    use dma_shadowing::dma_api::{
        DmaBuf, DmaDirection, DmaEngine, DmaError, DmaObserver, TracedDma,
    };
    use dma_shadowing::dmasan::DmaSan;
    use dma_shadowing::iommu::{DeviceId, Iommu};
    use dma_shadowing::memsim::{MemError, NumaDomain, NumaTopology, PhysMemory};
    use dma_shadowing::obs::Obs;
    use dma_shadowing::shadow_core::{PoolConfig, ShadowDma};

    let obs = Obs::isolated();
    let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(64)));
    let mmu = Arc::new(Iommu::with_queues(obs.clone(), 1));
    let inner = ShadowDma::new(mem.clone(), mmu, DeviceId(0), PoolConfig::default());
    let pool = inner.pool().clone();
    let san = Arc::new(DmaSan::new(obs.clone()));
    let engine = TracedDma::new(
        Box::new(inner),
        obs,
        Some(san.clone() as Arc<dyn DmaObserver>),
    );

    let mut c = ctx();
    let bufs: Vec<DmaBuf> = (0..3)
        .map(|_| DmaBuf::new(mem.alloc_frame(NumaDomain(0)).unwrap().base(), 2048))
        .collect();
    let list = engine
        .map_sg(&mut c, &bufs, DmaDirection::FromDevice)
        .unwrap();
    // The middle OS buffer's frame goes away: its copy-back fails.
    mem.free_frames(bufs[1].pa.pfn(), 1).unwrap();
    assert!(matches!(
        engine.unmap_sg(&mut c, list),
        Err(DmaError::Mem(MemError::Unallocated(_)))
    ));
    assert_eq!(pool.stats().in_flight, 0, "every shadow slot released");
    assert_eq!(san.check_teardown(), 0, "no mapping leaked");
}
