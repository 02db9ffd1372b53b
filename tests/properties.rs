//! Randomized property tests of the core data structures and of the DMA
//! engines' end-to-end contract, driven by the in-tree deterministic
//! [`SimRng`] (the workspace builds offline, so no proptest).

use dma_shadowing::dma_api::{DmaBuf, DmaDirection};
use dma_shadowing::iommu::{DeviceId, IoPageTable, Iommu, IovaPage, Perms};
use dma_shadowing::memsim::{Kmalloc, NumaDomain, NumaTopology, Pfn, PhysMemory, PAGE_SIZE};
use dma_shadowing::netsim::{EngineKind, ExpConfig, SimStack, NIC_DEV};
use dma_shadowing::shadow_core::IovaCodec;
use dma_shadowing::simcore::{CoreCtx, CoreId, CostModel, Cycles, SimRng};
use std::collections::HashMap;
use std::sync::Arc;

fn perms(rng: &mut SimRng) -> Perms {
    match rng.below(3) {
        0 => Perms::Read,
        1 => Perms::Write,
        _ => Perms::ReadWrite,
    }
}

/// The Figure 2 encoding is a bijection on its domain.
#[test]
fn codec_roundtrip() {
    let codec = IovaCodec::paper_default();
    let mut rng = SimRng::seed(0xc0dec);
    for _ in 0..256 {
        let core = rng.below(128) as u16;
        let rights = perms(&mut rng);
        let class = rng.below(2) as usize;
        let index = rng.below(10_000);
        let offset = rng.below(4096);
        let base = codec.encode(CoreId(core), rights, class, index);
        let d = codec.decode(base.add(offset)).expect("decodes");
        assert_eq!(d.core, CoreId(core));
        assert_eq!(d.rights, rights);
        assert_eq!(d.class, class);
        assert_eq!(d.index, index);
        assert_eq!(d.offset, offset);
    }
}

/// Distinct (core, rights, class, index) tuples never collide.
#[test]
fn codec_injective() {
    let codec = IovaCodec::paper_default();
    let mut rng = SimRng::seed(0x171e);
    for _ in 0..512 {
        let a = (
            rng.below(128) as u16,
            rng.below(2) as usize,
            rng.below(5_000),
        );
        let b = (
            rng.below(128) as u16,
            rng.below(2) as usize,
            rng.below(5_000),
        );
        let ia = codec.encode(CoreId(a.0), Perms::Read, a.1, a.2);
        let ib = codec.encode(CoreId(b.0), Perms::Read, b.1, b.2);
        assert_eq!(ia == ib, a == b, "{a:?} vs {b:?}");
    }
}

/// The I/O page table behaves exactly like a flat map.
#[test]
fn pagetable_matches_reference_model() {
    let mut rng = SimRng::seed(0x9a9e);
    for _ in 0..64 {
        let mut pt = IoPageTable::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let ops = 1 + rng.below(200) as usize;
        for _ in 0..ops {
            let page = rng.below(2_000);
            let pfn = rng.below(1_000);
            let page_k = IovaPage(page);
            if rng.chance(0.5) {
                let r = pt.map(page_k, Pfn(pfn), Perms::ReadWrite);
                if let std::collections::hash_map::Entry::Vacant(e) = model.entry(page) {
                    assert!(r.is_ok());
                    e.insert(pfn);
                } else {
                    assert!(r.is_err(), "double map must fail");
                }
            } else {
                let r = pt.unmap(page_k);
                match model.remove(&page) {
                    Some(expect) => assert_eq!(r.unwrap().pfn, Pfn(expect)),
                    None => assert!(r.is_err(), "unmap of unmapped must fail"),
                }
            }
            assert_eq!(pt.mapped_pages(), model.len() as u64);
        }
        for (&page, &pfn) in &model {
            assert_eq!(pt.translate(IovaPage(page)).unwrap().pfn, Pfn(pfn));
        }
    }
}

/// kmalloc never hands out overlapping live objects, across any
/// alloc/free interleaving.
#[test]
fn kmalloc_objects_never_overlap() {
    let mut rng = SimRng::seed(0x6a110c);
    for _ in 0..48 {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(4096)));
        let km = Kmalloc::new(mem);
        let mut live: Vec<(u64, usize)> = Vec::new();
        let ops = 1 + rng.below(150) as usize;
        for _ in 0..ops {
            let size = 1 + rng.below(5999) as usize;
            if rng.chance(0.5) && !live.is_empty() {
                let (pa, _) = live.swap_remove(0);
                km.free(dma_shadowing::memsim::PhysAddr(pa)).unwrap();
            } else {
                let pa = km.alloc(size, NumaDomain(0)).unwrap();
                live.push((pa.get(), size));
            }
            let mut sorted = live.clone();
            sorted.sort();
            for w in sorted.windows(2) {
                assert!(
                    w[0].0 + w[0].1 as u64 <= w[1].0,
                    "overlap: {:?} {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }
}

/// Every engine preserves arbitrary payloads at arbitrary buffer
/// offsets/sizes, both directions.
#[test]
fn engines_preserve_arbitrary_payloads() {
    let mut rng = SimRng::seed(0xe2e);
    for _ in 0..24 {
        let len = 1 + rng.below(8999) as usize;
        let offset = rng.below(4096) as usize;
        let to_device = rng.chance(0.5);
        let seed = rng.below(256) as u8;
        for kind in [
            EngineKind::Copy,
            EngineKind::IdentityPlus,
            EngineKind::LinuxDefer,
        ] {
            let stack = SimStack::new(kind, &ExpConfig::quick());
            let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
            ctx.seek(Cycles(1));
            let domain = stack.mem.topology().domain_of_core(CoreId(0));
            let frames = ((offset + len) as u64).div_ceil(PAGE_SIZE as u64);
            let base = stack.mem.alloc_frames(domain, frames).unwrap().base();
            let pa = base.add(offset as u64);
            let payload: Vec<u8> = (0..len).map(|i| (i as u8) ^ seed).collect();
            let bus = dma_shadowing::dma_api::Bus::Iommu {
                mmu: stack.mmu.clone(),
                mem: stack.mem.clone(),
            };
            if to_device {
                stack.mem.write(pa, &payload).unwrap();
                let m = stack
                    .engine
                    .map(&mut ctx, DmaBuf::new(pa, len), DmaDirection::ToDevice)
                    .unwrap();
                let mut out = vec![0u8; len];
                bus.read(NIC_DEV, m.iova.get(), &mut out).unwrap();
                stack.engine.unmap(&mut ctx, m).unwrap();
                assert_eq!(out, payload, "{kind} read");
            } else {
                let m = stack
                    .engine
                    .map(&mut ctx, DmaBuf::new(pa, len), DmaDirection::FromDevice)
                    .unwrap();
                bus.write(NIC_DEV, m.iova.get(), &payload).unwrap();
                stack.engine.unmap(&mut ctx, m).unwrap();
                assert_eq!(
                    stack.mem.read_vec(pa, len).unwrap(),
                    payload,
                    "{kind} write"
                );
            }
            stack.engine.flush_deferred(&mut ctx);
        }
    }
}

/// Frame allocator: allocations are disjoint, frees coalesce, and the
/// same memory can always be re-allocated.
#[test]
fn frame_allocator_invariants() {
    let mut rng = SimRng::seed(0xf4a3e);
    for _ in 0..64 {
        let mem = PhysMemory::new(NumaTopology::tiny(1024));
        let mut held: Vec<(Pfn, u64)> = Vec::new();
        let count = 1 + rng.below(40) as usize;
        for i in 0..count {
            let n = rng.range(1, 16);
            let pfn = mem.alloc_frames(NumaDomain(0), n).unwrap();
            // Disjointness against everything held.
            for &(other, on) in &held {
                assert!(pfn.get() + n <= other.get() || other.get() + on <= pfn.get());
            }
            held.push((pfn, n));
            if i % 3 == 2 {
                let (p, n) = held.swap_remove(0);
                mem.free_frames(p, n).unwrap();
            }
        }
        let total_held: u64 = held.iter().map(|&(_, n)| n).sum();
        assert_eq!(mem.stats().allocated_frames, total_held);
        for (p, n) in held {
            mem.free_frames(p, n).unwrap();
        }
        assert_eq!(mem.stats().allocated_frames, 0);
        // After everything is freed the full range is one run again.
        assert!(mem.alloc_frames(NumaDomain(0), 1024).is_ok());
    }
}

/// The shadow pool under random acquire/release sequences: no
/// double-handout, correct associations, in-flight accounting exact.
#[test]
fn pool_random_acquire_release() {
    use dma_shadowing::shadow_core::{PoolConfig, ShadowPool};
    let mut rng = SimRng::seed(0x9001);
    for _ in 0..16 {
        let mem = Arc::new(PhysMemory::new(NumaTopology::new(4, 2, 65_536)));
        let mmu = Arc::new(Iommu::new());
        let pool = ShadowPool::new(mem.clone(), mmu, DeviceId(0), PoolConfig::default());
        let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
        ctx.seek(Cycles(1));
        let os = mem.alloc_frames(NumaDomain(0), 32).unwrap().base();
        let mut live: Vec<(dma_shadowing::iommu::Iova, usize)> = Vec::new();
        let ops = 1 + rng.below(120) as usize;
        for _ in 0..ops {
            let len = 1 + rng.below(69_999) as usize;
            let rights = perms(&mut rng);
            if rng.chance(0.5) && !live.is_empty() {
                let (iova, _) = live.swap_remove(0);
                pool.release_shadow(&mut ctx, iova).unwrap();
            } else {
                let iova = pool
                    .acquire_shadow(&mut ctx, DmaBuf::new(os, len), rights)
                    .unwrap();
                // No double-handout: IOVA not already live.
                assert!(live.iter().all(|&(i, _)| i != iova));
                let sref = pool.find_shadow(iova).unwrap();
                assert!(sref.size >= len);
                assert_eq!(sref.os_len, len);
                live.push((iova, len));
            }
            assert_eq!(pool.stats().in_flight, live.len() as u64);
        }
        // All shadow buffers resolvable until released.
        for (iova, len) in &live {
            assert_eq!(pool.find_shadow(*iova).unwrap().os_len, *len);
        }
        for (iova, _) in live {
            pool.release_shadow(&mut ctx, iova).unwrap();
        }
        assert_eq!(pool.stats().in_flight, 0);
    }
}
