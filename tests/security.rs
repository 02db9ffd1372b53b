//! Security integration tests: the paper's Table 1, validated by mounting
//! the actual attacks, plus targeted checks of the DMA-shadowing security
//! argument (§5.2).

use dma_shadowing::attacks::{self, run_matrix};
use dma_shadowing::dma_api::{Bus, DmaBuf, DmaDirection};
use dma_shadowing::netsim::{EngineKind, ExpConfig, SimStack, NIC_DEV};
use dma_shadowing::simcore::{CoreCtx, CoreId, CostModel, Cycles};
use std::sync::Arc;

#[test]
fn observed_security_matches_table1() {
    let rows = run_matrix();
    for (engine, iommu, subpage, window) in attacks::expected_table1() {
        let row = rows.iter().find(|r| r.engine == engine).unwrap();
        assert_eq!(
            (
                row.iommu_protection,
                row.sub_page_protect,
                row.no_vulnerability_window
            ),
            (iommu, subpage, window),
            "Table 1 row for {engine}"
        );
    }
}

#[test]
fn shadowing_is_secure_even_though_shadows_stay_mapped() {
    // §5.2's security argument, tested directly:
    // 1. bytes the device READS can only come from data copied from a
    //    buffer mapped to-device;
    // 2. bytes the device WRITES after release are never observed by the
    //    OS (overwritten by a later copy or never copied out).
    let stack = SimStack::new(EngineKind::Copy, &ExpConfig::quick());
    let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
    ctx.seek(Cycles(1));
    let bus = Bus::Iommu {
        mmu: stack.mmu.clone(),
        mem: stack.mem.clone(),
    };
    let domain = stack.mem.topology().domain_of_core(CoreId(0));

    // Round 1: a to-device buffer with a known value.
    let a = stack.kmalloc.alloc(1000, domain).unwrap();
    stack.mem.fill(a, 0xaa, 1000).unwrap();
    let ma = stack
        .engine
        .map(&mut ctx, DmaBuf::new(a, 1000), DmaDirection::ToDevice)
        .unwrap();
    let mut seen = vec![0u8; 1000];
    bus.read(NIC_DEV, ma.iova.get(), &mut seen).unwrap();
    assert_eq!(seen, vec![0xaa; 1000], "device reads the copied data");
    // What a device keeps after the OS revokes the handle: the raw IOVA.
    let stale_a = ma.iova;
    stack.engine.unmap(&mut ctx, ma).unwrap();

    // Round 2: the *same* shadow buffer is recycled for a from-device
    // mapping of a DIFFERENT OS buffer. The paper's pool guarantees pages
    // hold same-rights shadows only, so the recycled read-buffer cannot
    // serve a write mapping... acquire a write mapping and observe it uses
    // other memory:
    let b = stack.kmalloc.alloc(1000, domain).unwrap();
    let mb = stack
        .engine
        .map(&mut ctx, DmaBuf::new(b, 1000), DmaDirection::FromDevice)
        .unwrap();
    assert_ne!(
        mb.iova.page(),
        stale_a.page(),
        "write shadow != read shadow page"
    );

    // A malicious late read of the OLD read-mapping's IOVA sees stale
    // shadow data (0xaa) — data the device was already given. Never fresh
    // OS data.
    let mut stale = vec![0u8; 1000];
    bus.read(NIC_DEV, stale_a.get(), &mut stale).unwrap();
    assert_eq!(stale, vec![0xaa; 1000], "only previously-authorized bytes");

    // The device writes the live write-shadow; after unmap the OS gets it.
    let stale_b = mb.iova;
    bus.write(NIC_DEV, stale_b.get(), &vec![0xbb; 1000])
        .unwrap();
    stack.engine.unmap(&mut ctx, mb).unwrap();
    assert_eq!(stack.mem.read_vec(b, 1000).unwrap(), vec![0xbb; 1000]);

    // A write AFTER release mutates only the shadow; remap the same OS
    // buffer and verify the late write is overwritten by the fresh copy
    // and never observed.
    let _ = bus.write(NIC_DEV, stale_b.get(), &vec![0xcc; 1000]);
    assert_eq!(
        stack.mem.read_vec(b, 1000).unwrap(),
        vec![0xbb; 1000],
        "late device write never reaches the OS buffer"
    );
}

#[test]
fn device_cannot_reach_os_buffer_even_while_mapped() {
    // Byte granularity, strongest form: with a live copy-engine mapping,
    // the OS buffer's own physical page is never device-visible. (Its raw
    // address may coincide with some unrelated low IOVA — a coherent ring,
    // say — so the check is that no IOVA resolves to the OS buffer's
    // *content*, not merely that the access faults.)
    let stack = SimStack::new(EngineKind::Copy, &ExpConfig::quick());
    let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
    ctx.seek(Cycles(1));
    let domain = stack.mem.topology().domain_of_core(CoreId(0));
    let buf = stack.kmalloc.alloc(1500, domain).unwrap();
    let sentinel = b"OS-PRIVATE-SENTINEL-0123456789AB";
    stack.mem.write(buf, sentinel).unwrap();
    let m = stack
        .engine
        .map(&mut ctx, DmaBuf::new(buf, 1500), DmaDirection::FromDevice)
        .unwrap();
    let bus = Bus::Iommu {
        mmu: stack.mmu.clone(),
        mem: stack.mem.clone(),
    };
    // Probing the OS buffer's physical address as an IOVA either faults or
    // lands in some other (shadow/coherent) memory — never in the buffer.
    let mut probe = vec![0u8; sentinel.len()];
    match bus.read(NIC_DEV, buf.get(), &mut probe) {
        Err(_) => {}
        Ok(()) => assert_ne!(probe, sentinel, "device must not see OS bytes"),
    }
    // And the mapped IOVA shows the shadow (zeroed for FromDevice), not
    // the sentinel.
    let mut via_iova = vec![0u8; sentinel.len()];
    assert!(
        bus.read(NIC_DEV, m.iova.get(), &mut via_iova).is_err(),
        "write-only shadow is not readable at all"
    );
    stack.engine.unmap(&mut ctx, m).unwrap();
}

#[test]
fn vulnerability_window_bounded_by_batch() {
    // Under identity-, the window closes after 250 unmaps at the latest.
    let stack = SimStack::new(EngineKind::IdentityMinus, &ExpConfig::quick());
    let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
    ctx.seek(Cycles(1));
    let domain = stack.mem.topology().domain_of_core(CoreId(0));
    let victim = stack.kmalloc.alloc(4096, domain).unwrap();
    let m = stack
        .engine
        .map(
            &mut ctx,
            DmaBuf::new(victim, 4096),
            DmaDirection::FromDevice,
        )
        .unwrap();
    let bus = Bus::Iommu {
        mmu: stack.mmu.clone(),
        mem: stack.mem.clone(),
    };
    let stale = m.iova;
    bus.write(NIC_DEV, stale.get(), b"warm").unwrap();
    stack.engine.unmap(&mut ctx, m).unwrap();
    // Window open now.
    assert!(bus.write(NIC_DEV, stale.get(), b"attack").is_ok());
    // Drive 250 more map/unmap cycles through the engine: the batch drains.
    let other = stack.kmalloc.alloc(4096, domain).unwrap();
    for _ in 0..250 {
        let mi = stack
            .engine
            .map(&mut ctx, DmaBuf::new(other, 4096), DmaDirection::FromDevice)
            .unwrap();
        stack.engine.unmap(&mut ctx, mi).unwrap();
    }
    assert!(
        bus.write(NIC_DEV, stale.get(), b"late").is_err(),
        "window closed by the 250-unmap batch drain"
    );
}

#[test]
fn fault_log_records_blocked_attacks() {
    let stack = SimStack::new(EngineKind::Copy, &ExpConfig::quick());
    let bus = Bus::Iommu {
        mmu: stack.mmu.clone(),
        mem: stack.mem.clone(),
    };
    for i in 0..10u64 {
        let _ = bus.write(NIC_DEV, 0x100_0000 + i * 4096, b"probe");
    }
    assert_eq!(stack.mmu.fault_count(), 10);
    for f in stack.mmu.faults() {
        assert_eq!(f.device, NIC_DEV);
    }
}
