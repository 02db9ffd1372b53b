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
    // The SG TX workload moves the same bytes as the contiguous one (the
    // per-fragment mapping costs differ, the data does not).
    use dma_shadowing::netsim::tcp_stream_tx;
    let base = ExpConfig {
        msg_size: 16 * 1024,
        items_per_core: 500,
        warmup_per_core: 50,
        ..ExpConfig::quick()
    };
    let sg = ExpConfig {
        tx_sg_frags: 4,
        ..base.clone()
    };
    let a = tcp_stream_tx(EngineKind::Copy, &base);
    let b = tcp_stream_tx(EngineKind::Copy, &sg);
    assert_eq!(a.bytes, b.bytes);
    assert_eq!(a.items, b.items);
    // Fragmented mapping costs at least as much management work.
    assert!(b.us_per_item() >= a.us_per_item() * 0.99);
}

#[test]
fn unmap_sg_unmaps_every_element_after_a_failure() {
    // A bogus middle element must not strand the mappings after it: every
    // element is unmapped, and the first error is still reported.
    use dma_shadowing::dma_api::{
        DmaBuf, DmaDirection, DmaEngine, DmaError, DmaMapping, DmaObserver, TracedDma,
    };
    use dma_shadowing::dmasan::DmaSan;
    use dma_shadowing::iommu::{DeviceId, Iommu, Iova};
    use dma_shadowing::memsim::{NumaDomain, NumaTopology, PhysMemory};
    use dma_shadowing::obs::Obs;
    use dma_shadowing::shadow_core::{build_engine, PoolConfig};

    let dev = DeviceId(0);
    let obs = Obs::isolated();
    let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(64)));
    let mmu = Arc::new(Iommu::with_obs(obs.clone()));
    let inner = build_engine(
        EngineKind::LinuxStrict,
        mem.clone(),
        mmu.clone(),
        dev,
        1,
        false,
        PoolConfig::default(),
    );
    // Lenient: the bogus unmap is a (recorded) violation by design.
    let san = Arc::new(DmaSan::lenient(obs.clone()));
    let engine = TracedDma::new(inner, obs, Some(san.clone() as Arc<dyn DmaObserver>));

    let mut c = ctx();
    let bufs: Vec<DmaBuf> = (0..3)
        .map(|_| DmaBuf::new(mem.alloc_frame(NumaDomain(0)).unwrap().base(), 2048))
        .collect();
    let good = engine
        .map_sg(&mut c, &bufs, DmaDirection::FromDevice)
        .unwrap();
    let iovas: Vec<Iova> = good.iter().map(|m| m.iova).collect();
    // A handle the engine never issued has to be forged field by field.
    let bogus_iova = Iova(0x7fff_0000);
    let bogus = DmaMapping {
        iova: bogus_iova,
        len: good[1].len,
        dir: good[1].dir,
        os_pa: good[1].os_pa,
        wrote: good[1].wrote,
    };
    let mut list = good;
    list.insert(1, bogus);
    assert_eq!(
        engine.unmap_sg(&mut c, list),
        Err(DmaError::BadUnmap(bogus_iova))
    );
    for iova in iovas {
        assert!(!mmu.is_mapped(dev, iova.page()), "{iova:?} still mapped");
    }
    assert_eq!(san.check_teardown(), 0, "no mapping leaked");
}
