//! The engine table: every protection scheme the paper compares, by name,
//! and the one function that builds it.
//!
//! This crate is the lowest one that can see every engine (`NoIommu` and
//! the policy pairs of `dma_api::MappedDma` below it, [`ShadowDma`] in it),
//! so the name → construction mapping lives here and nowhere else: the
//! workload stack, the model-checking rig and the ablation benches all
//! call [`build_engine`], and pick the device's bus with [`engine_bus`].

use crate::{MagazineConfig, PoolConfig, ShadowDma};
use dma_api::{
    Bus, DeferPolicy, DeferredFlusher, DmaEngine, FlushScope, GlobalTreeIovaAllocator, InvalPolicy,
    IovaPolicy, MappedDma, NoIommu, PerCoreIovaAllocator,
};
use iommu::{DeviceId, Iommu};
use memsim::PhysMemory;
use obs::Obs;
use std::fmt;
use std::sync::Arc;

/// The DMA protection engines the paper compares (Table 1), plus the
/// self-invalidating-hardware ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// IOMMU disabled (*no iommu*).
    NoIommu,
    /// DMA shadowing (*copy*) — the paper's contribution.
    Copy,
    /// Strict identity mappings (*identity+*, ATC'15 \[42\]).
    IdentityPlus,
    /// Deferred identity mappings (*identity−*, ATC'15 \[42\]).
    IdentityMinus,
    /// Stock Linux, strict protection (*strict*).
    LinuxStrict,
    /// Stock Linux, deferred protection (*defer*).
    LinuxDefer,
    /// EiovaR (FAST'15 \[38\]): stock Linux + IOVA-range caching, strict.
    EiovarStrict,
    /// EiovaR (FAST'15 \[38\]), deferred.
    EiovarDefer,
    /// Self-invalidating IOMMU hardware (Basu et al. \[10\], §7) — an
    /// ablation engine, not part of the paper's comparison set.
    SelfInvalHw,
}

impl EngineKind {
    /// All engines of the paper's Table 1, in legend order.
    pub const ALL: [EngineKind; 8] = [
        EngineKind::NoIommu,
        EngineKind::Copy,
        EngineKind::IdentityMinus,
        EngineKind::IdentityPlus,
        EngineKind::EiovarDefer,
        EngineKind::EiovarStrict,
        EngineKind::LinuxDefer,
        EngineKind::LinuxStrict,
    ];

    /// The four engines shown in Figures 3–11.
    pub const FIGURE_SET: [EngineKind; 4] = [
        EngineKind::NoIommu,
        EngineKind::Copy,
        EngineKind::IdentityMinus,
        EngineKind::IdentityPlus,
    ];

    /// The engine's name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::NoIommu => "no iommu",
            EngineKind::Copy => "copy",
            EngineKind::IdentityPlus => "identity+",
            EngineKind::IdentityMinus => "identity-",
            EngineKind::LinuxStrict => "strict",
            EngineKind::LinuxDefer => "defer",
            EngineKind::EiovarStrict => "eiovar+",
            EngineKind::EiovarDefer => "eiovar-",
            EngineKind::SelfInvalHw => "self-inval hw",
        }
    }

    /// Parses [`EngineKind::name`] back (fixtures and command lines).
    pub fn from_name(s: &str) -> Option<EngineKind> {
        let mut every = EngineKind::ALL.into_iter().chain([EngineKind::SelfInvalHw]);
        every.find(|k| k.name() == s)
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds the engine the paper's figures call `kind.name()` for `dev`,
/// driven by `cores` cores.
///
/// The zero-copy engines are each one (IOVA policy, invalidation policy)
/// pair, and `percore` is one more column of the same table: it changes
/// where a pair keeps its allocation state, never which pair an engine is.
///
/// | engine | IOVA policy | invalidation policy | under `percore` |
/// |---|---|---|---|
/// | *identity+* | identity | strict | unchanged (no allocator, no list) |
/// | *identity−* | identity | deferred, one list per core | unchanged |
/// | *strict* | global tree | strict | per-core magazines for the tree |
/// | *defer* | global tree | deferred, one global list | per-core magazines, one list per core |
/// | *eiovar+* | cached global tree | strict | per-core magazines for the tree |
/// | *eiovar−* | cached global tree | deferred, one global list | per-core magazines, one list per core |
/// | *self-inval hw* | identity | hardware | unchanged |
///
/// `percore` shards hot allocation state per core (Peleg et al. \[42\],
/// the two serialisation points §2.2.1 names): every tree-backed engine
/// gets [`PerCoreIovaAllocator`] — EiovaR's free-range cache held per core
/// *is* the magazine design, so *eiovar±* take the same allocator and
/// differ from *strict*/*defer* only when `percore` is off — every
/// deferred engine one pending list per core, and *copy*'s shadow pool
/// per-core slot magazines (unless `pool_cfg` already configures them). The
/// caller pairs it with one invalidation queue per core in `mmu`
/// (`Iommu::with_queues`), which changes where a strict unmap waits, not
/// what it guarantees. What a deferred engine pays
/// for its per-core lists is exposure, not protection class: the window
/// it already declares grows from one batch to one batch per core
/// (`flush.peak_pending`). `pool_cfg` is used by *copy* only; its IOVA
/// core field is widened when `cores` exceeds the paper's 7-bit layout (a
/// no-op at ≤128 cores, so default runs keep byte-identical IOVAs).
pub fn build_engine(
    kind: EngineKind,
    mem: Arc<PhysMemory>,
    mmu: Arc<Iommu>,
    dev: DeviceId,
    cores: usize,
    percore: bool,
    mut pool_cfg: PoolConfig,
) -> Box<dyn DmaEngine> {
    let obs = mmu.obs().clone();
    let tree = |global: fn(Obs) -> GlobalTreeIovaAllocator| {
        if percore {
            IovaPolicy::allocated(PerCoreIovaAllocator::with_obs(cores, obs.clone()))
        } else {
            IovaPolicy::allocated(global(obs.clone()))
        }
    };
    let stock_tree = GlobalTreeIovaAllocator::with_obs;
    let cached_tree = GlobalTreeIovaAllocator::cached_with_obs;
    let deferred = |scope| {
        InvalPolicy::Deferred(DeferredFlusher::with_obs(
            DeferPolicy::linux_default(),
            scope,
            cores,
            obs.clone(),
        ))
    };
    let list_scope = if percore {
        FlushScope::PerCore
    } else {
        FlushScope::Global
    };
    let (iova, inval) = match kind {
        EngineKind::NoIommu => return Box::new(NoIommu::new(mem, dev)),
        EngineKind::Copy => {
            pool_cfg.codec = pool_cfg.codec.with_min_cores(cores);
            if percore && pool_cfg.magazines.is_none() {
                pool_cfg.magazines = Some(MagazineConfig::default());
            }
            return Box::new(ShadowDma::new(mem, mmu, dev, pool_cfg));
        }
        EngineKind::IdentityPlus => (IovaPolicy::identity(), InvalPolicy::Strict),
        EngineKind::IdentityMinus => (IovaPolicy::identity(), deferred(FlushScope::PerCore)),
        EngineKind::LinuxStrict => (tree(stock_tree), InvalPolicy::Strict),
        EngineKind::LinuxDefer => (tree(stock_tree), deferred(list_scope)),
        EngineKind::EiovarStrict => (tree(cached_tree), InvalPolicy::Strict),
        EngineKind::EiovarDefer => (tree(cached_tree), deferred(list_scope)),
        EngineKind::SelfInvalHw => (IovaPolicy::identity(), InvalPolicy::Hardware),
    };
    Box::new(MappedDma::new(kind.name(), mem, mmu, dev, iova, inval))
}

/// The bus a device reaches memory through when `kind` drives it: straight
/// to memory with the IOMMU off (*no iommu*), through `mmu` for every other
/// engine.
pub fn engine_bus(kind: EngineKind, mem: Arc<PhysMemory>, mmu: Arc<Iommu>) -> Bus {
    match kind {
        EngineKind::NoIommu => Bus::Direct(mem),
        _ => Bus::Iommu { mmu, mem },
    }
}

/// One table-driven suite over the zero-copy policy pairs. Each row states
/// what the paper says about an engine — independently of [`build_engine`],
/// which is what is under test — and every case runs on every row it
/// applies to.
#[cfg(test)]
mod tests {
    use super::*;
    use dma_api::{Bus, DmaBuf, DmaDirection, DmaError, DmaMapping};
    use iommu::{IommuError, IovaPage, Perms, PtError};
    use memsim::{NumaDomain, NumaTopology, Pfn};
    use obs::EventKind;
    use simcore::{CoreCtx, CoreId, CostModel, Cycles, Phase};

    const DEV: DeviceId = DeviceId(0);

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Inval {
        Strict,
        Deferred,
        Hardware,
    }

    #[derive(Debug, Clone, Copy)]
    struct Row {
        kind: EngineKind,
        /// IOVA = PA (refcounted read-write PTEs) vs allocator-placed.
        identity: bool,
        inval: Inval,
    }

    const fn row(kind: EngineKind, identity: bool, inval: Inval) -> Row {
        Row {
            kind,
            identity,
            inval,
        }
    }

    const ROWS: [Row; 7] = [
        row(EngineKind::IdentityPlus, true, Inval::Strict),
        row(EngineKind::IdentityMinus, true, Inval::Deferred),
        row(EngineKind::LinuxStrict, false, Inval::Strict),
        row(EngineKind::LinuxDefer, false, Inval::Deferred),
        row(EngineKind::EiovarStrict, false, Inval::Strict),
        row(EngineKind::EiovarDefer, false, Inval::Deferred),
        row(EngineKind::SelfInvalHw, true, Inval::Hardware),
    ];

    struct Rig {
        mem: Arc<PhysMemory>,
        mmu: Arc<Iommu>,
        bus: Bus,
        ctx: CoreCtx,
        eng: Box<dyn DmaEngine>,
    }

    impl Rig {
        fn on(
            mmu: Iommu,
            make: impl FnOnce(Arc<PhysMemory>, Arc<Iommu>) -> Box<dyn DmaEngine>,
        ) -> Rig {
            let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(64)));
            let mmu = Arc::new(mmu);
            Rig {
                bus: Bus::Iommu {
                    mmu: mmu.clone(),
                    mem: mem.clone(),
                },
                ctx: CoreCtx::new(CoreId(0), Arc::new(CostModel::haswell_2_4ghz())),
                eng: make(mem.clone(), mmu.clone()),
                mem,
                mmu,
            }
        }

        fn frames(&self, n: u64) -> Pfn {
            self.mem.alloc_frames(NumaDomain(0), n).unwrap()
        }

        fn map(&mut self, buf: DmaBuf, dir: DmaDirection) -> DmaMapping {
            self.eng.map(&mut self.ctx, buf, dir).unwrap()
        }

        fn unmap(&mut self, m: DmaMapping) {
            self.eng.unmap(&mut self.ctx, m).unwrap();
        }

        fn flush(&mut self) {
            self.eng.flush_deferred(&mut self.ctx);
        }

        fn pending(&self) -> i64 {
            self.mmu.obs().gauge("flush", "pending", None).get()
        }

        fn drains(&self) -> u64 {
            self.mmu.obs().counter("flush", "drains", None).get()
        }
    }

    /// A one-core, unsharded machine running `kind`.
    fn rig(kind: EngineKind) -> Rig {
        Rig::on(Iommu::new(), |mem, mmu| {
            build_engine(kind, mem, mmu, DEV, 1, false, PoolConfig::default())
        })
    }

    #[test]
    fn engine_kinds_have_paper_names() {
        let names: Vec<&str> = EngineKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "no iommu",
                "copy",
                "identity-",
                "identity+",
                "eiovar-",
                "eiovar+",
                "defer",
                "strict"
            ]
        );
    }

    #[test]
    fn names_and_profiles_follow_the_pair() {
        for r in ROWS {
            let eng = rig(r.kind).eng;
            assert_eq!(eng.name(), r.kind.name());
            let p = eng.profile();
            assert_eq!(p.name, r.kind.name());
            assert!(p.uses_iommu && !p.sub_page, "{}", r.kind);
            assert_eq!(
                p.no_vulnerability_window,
                r.inval != Inval::Deferred,
                "{}",
                r.kind
            );
        }
    }

    #[test]
    fn strict_over_per_core_queues_declares_and_leaves_no_window() {
        // Per-core queues change where a strict unmap waits, not when the
        // IOTLB entry dies: the declaration is the unsharded one, and a
        // warmed translation is dead the moment unmap returns.
        for row in ROWS {
            let mut r = Rig::on(Iommu::with_queues(Obs::isolated(), 4), |mem, mmu| {
                build_engine(row.kind, mem, mmu, DEV, 4, true, PoolConfig::default())
            });
            assert_eq!(
                r.eng.profile().no_vulnerability_window,
                row.inval != Inval::Deferred,
                "{}",
                row.kind
            );
            if row.inval == Inval::Strict {
                r.ctx = CoreCtx::new(CoreId(3), r.ctx.cost.clone());
                let buf = DmaBuf::new(r.frames(1).base(), 100);
                let m = r.map(buf, DmaDirection::FromDevice);
                let stale = m.iova;
                r.bus.write(DEV, stale.get(), b"warm").unwrap();
                r.unmap(m);
                assert!(
                    r.bus.write(DEV, stale.get(), b"late").is_err(),
                    "{}",
                    row.kind
                );
            }
        }
    }

    /// Where an engine keeps its pending unmaps, read off its behaviour:
    /// one batch of unmaps split over two cores fills one global list (and
    /// drains it) but leaves two per-core lists half full.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Lists {
        NoList,
        Global,
        PerCore,
    }

    #[test]
    fn allocation_scope_is_a_column_of_the_table() {
        use Lists::{Global, NoList, PerCore};
        const RBTREE: Option<&str> = Some("linux-iova-rbtree");
        const CACHE: Option<&str> = Some("eiovar-iova-cache");
        const SHARED: Option<&str> = Some("scalable-iova-shared");
        // (engine, (IOVA lock, pending lists) globally, the same under percore)
        let table = [
            (EngineKind::IdentityPlus, (None, NoList), (None, NoList)),
            (EngineKind::IdentityMinus, (None, PerCore), (None, PerCore)),
            (EngineKind::LinuxStrict, (RBTREE, NoList), (SHARED, NoList)),
            (EngineKind::LinuxDefer, (RBTREE, Global), (SHARED, PerCore)),
            (EngineKind::EiovarStrict, (CACHE, NoList), (SHARED, NoList)),
            (EngineKind::EiovarDefer, (CACHE, Global), (SHARED, PerCore)),
            (EngineKind::SelfInvalHw, (None, NoList), (None, NoList)),
        ];
        assert_eq!(table.map(|row| row.0), ROWS.map(|row| row.kind));
        let batch = DeferPolicy::linux_default().batch;
        for (kind, global, sharded) in table {
            for (percore, expected) in [(false, global), (true, sharded)] {
                let queues = if percore { 2 } else { 1 };
                let r = Rig::on(Iommu::with_queues(Obs::isolated(), queues), |mem, mmu| {
                    build_engine(kind, mem, mmu, DEV, 2, percore, PoolConfig::default())
                });
                let lock = r.eng.iova_lock_stats().map(|(name, _)| name);
                let buf = DmaBuf::new(r.frames(1).base(), 64);
                let mut ctxs = [0, 1].map(|c| CoreCtx::new(CoreId(c), r.ctx.cost.clone()));
                for i in 0..batch {
                    let ctx = &mut ctxs[i % 2];
                    let m = r.eng.map(ctx, buf, DmaDirection::ToDevice).unwrap();
                    r.eng.unmap(ctx, m).unwrap();
                }
                let deferred = r.mmu.obs().counter("flush", "deferred_total", None).get();
                let lists = match (deferred, r.drains()) {
                    (0, _) => NoList,
                    (_, 0) => PerCore,
                    _ => Global,
                };
                assert_eq!((lock, lists), expected, "{kind} percore={percore}");
            }
        }
    }

    #[test]
    fn percore_deferred_ranges_stay_out_of_circulation_until_their_drain() {
        // The reuse-before-invalidate shape (what corrupted *eiovar+*
        // payloads before PR 18): a per-core cache hands a freed range
        // straight back, so a range must not reach any cache while its
        // IOTLB entries can still be live — that is, before the drain of
        // the list it was deferred on. And the per-core lists must really
        // be lock-free: the global list's lock is never taken.
        const CORES: usize = 4;
        let batch = DeferPolicy::linux_default().batch;
        for kind in [EngineKind::LinuxDefer, EngineKind::EiovarDefer] {
            let obs = Obs::isolated();
            // A hook makes every lock site record its `LockAcquire`.
            obs.set_yield_hook(Some(Arc::new(|_: &str| {})));
            let r = Rig::on(Iommu::with_queues(obs.clone(), CORES), |mem, mmu| {
                build_engine(kind, mem, mmu, DEV, CORES, true, PoolConfig::default())
            });
            let buf = DmaBuf::new(r.frames(1).base(), 64);
            let mut ctxs: Vec<CoreCtx> = (0..CORES as u16)
                .map(|c| CoreCtx::new(CoreId(c), r.ctx.cost.clone()))
                .collect();
            // Unmapped on core c, not yet flushed.
            let mut in_window: Vec<Vec<IovaPage>> = vec![Vec::new(); CORES];
            // A few unmaps to put the cores out of step, then two full
            // batches each, round-robin.
            let head_start = (0..CORES).flat_map(|c| std::iter::repeat_n(c, 5 * c));
            let round_robin = (0..CORES * 2 * batch).map(|i| i % CORES);
            for c in head_start.chain(round_robin) {
                let m = r
                    .eng
                    .map(&mut ctxs[c], buf, DmaDirection::ToDevice)
                    .unwrap();
                let page = m.iova.page();
                assert!(
                    !in_window.iter().flatten().any(|&p| p == page),
                    "{kind}: {page} handed to core {c} before the drain that flushes it"
                );
                let drains = r.drains();
                r.eng.unmap(&mut ctxs[c], m).unwrap();
                in_window[c].push(page);
                if r.drains() > drains {
                    in_window[c].clear();
                }
            }
            assert_eq!(r.drains(), 2 * CORES as u64, "{kind}: every list drained");
            assert_eq!(
                obs.tracer().stats().dropped,
                0,
                "{kind}: the trace is complete"
            );
            let acquired = |name: &str| {
                obs.tracer().events().iter().any(
                    |e| matches!(&e.kind, EventKind::LockAcquire { lock } if lock.as_ref() == name),
                )
            };
            assert!(
                acquired("scalable-iova-shared"),
                "{kind}: lock sites traced"
            );
            assert!(!acquired(dma_api::FLUSH_LOCK), "{kind}: global list lock");
        }
    }

    #[test]
    fn roundtrip_places_the_iova_and_closes_the_window_per_pair() {
        for row in ROWS {
            let mut r = rig(row.kind);
            let buf = DmaBuf::new(r.frames(1).base().add(128), 1500);
            let m = r.map(buf, DmaDirection::FromDevice);
            // Every placement keeps the sub-page offset; only identity
            // keeps the frame number.
            assert_eq!(m.iova.page_offset(), 128, "{}", row.kind);
            assert_eq!(m.iova.get() == buf.pa.get(), row.identity, "{}", row.kind);

            let stale = m.iova;
            r.bus.write(DEV, stale.get(), &vec![0xabu8; 1500]).unwrap();
            r.unmap(m);
            assert_eq!(r.mem.read_vec(buf.pa, 1500).unwrap(), vec![0xab; 1500]);

            if row.inval == Inval::Deferred {
                // VULNERABILITY WINDOW: the stale IOTLB entry still works
                // until the deferred flush.
                assert!(
                    r.bus.write(DEV, stale.get(), b"attack").is_ok(),
                    "{}",
                    row.kind
                );
                assert_eq!(r.pending(), 1, "{}", row.kind);
                r.flush();
                assert_eq!(r.pending(), 0, "{}", row.kind);
            }
            assert!(
                r.bus.write(DEV, stale.get(), b"late").is_err(),
                "{}",
                row.kind
            );
        }
    }

    #[test]
    fn unmap_cost_follows_the_invalidation_policy() {
        for row in ROWS {
            let mut r = rig(row.kind);
            let buf = DmaBuf::new(r.frames(1).base(), 100);
            let m = r.map(buf, DmaDirection::ToDevice);
            let mut warm = [0u8; 8];
            r.bus.read(DEV, m.iova.get(), &mut warm).unwrap();
            r.unmap(m);
            let waited = r.ctx.breakdown().get(Phase::InvalidateIotlb);
            let posted = r.mmu.invalq().stats().page_commands;
            match row.inval {
                Inval::Strict => {
                    assert!(waited >= r.ctx.cost.iotlb_inval_wait, "{}", row.kind);
                    assert!(posted > 0, "{}", row.kind);
                }
                // Deferred pays at the batch drain; self-destructing
                // hardware never posts a queue command at all.
                Inval::Deferred | Inval::Hardware => {
                    assert_eq!(waited, Cycles::ZERO, "{}", row.kind);
                    assert_eq!(posted, 0, "{}", row.kind);
                }
            }
        }
    }

    #[test]
    fn permissions_follow_the_iova_policy() {
        for row in ROWS {
            let mut r = rig(row.kind);
            let buf = DmaBuf::new(r.frames(1).base(), 256);
            let m = r.map(buf, DmaDirection::ToDevice);
            // ToDevice = device may read. An allocated range carries that
            // direction; an identity page is shared read-write.
            let mut b = [0u8; 8];
            assert!(
                r.bus.read(DEV, m.iova.get(), &mut b).is_ok(),
                "{}",
                row.kind
            );
            assert_eq!(
                r.bus.write(DEV, m.iova.get(), b"x").is_ok(),
                row.identity,
                "{}",
                row.kind
            );
            r.unmap(m);
        }
    }

    #[test]
    fn page_granularity_exposes_the_page_tail_under_every_pair() {
        // The sub-page weakness (§4): mapping a small buffer exposes the
        // WHOLE page, including a neighbor's secret — whatever the pair.
        for row in ROWS {
            let mut r = rig(row.kind);
            let pfn = r.frames(1);
            r.mem.write(pfn.base().add(3000), b"SECRET").unwrap();
            let m = r.map(DmaBuf::new(pfn.base(), 512), DmaDirection::ToDevice);
            let mut stolen = [0u8; 6];
            r.bus
                .read(DEV, m.iova.page().base().add(3000).get(), &mut stolen)
                .unwrap();
            assert_eq!(&stolen, b"SECRET", "{}", row.kind);
            r.unmap(m);
        }
    }

    #[test]
    fn colocated_buffers_share_a_refcounted_pte_under_identity() {
        for row in ROWS {
            let mut r = rig(row.kind);
            let pfn = r.frames(1);
            // Two kmalloc-style buffers on the same page, opposite
            // directions.
            let a = r.map(DmaBuf::new(pfn.base(), 512), DmaDirection::ToDevice);
            let b = r.map(
                DmaBuf::new(pfn.base().add(2048), 512),
                DmaDirection::FromDevice,
            );
            let shared = if row.identity { 1 } else { 2 };
            assert_eq!(r.mmu.mapped_pages(DEV), shared, "{}", row.kind);
            r.unmap(a);
            // The page must stay mapped while b lives.
            assert_eq!(r.mmu.mapped_pages(DEV), 1, "{}", row.kind);
            assert!(
                r.bus.write(DEV, b.iova.get(), b"ok").is_ok(),
                "{}",
                row.kind
            );
            r.unmap(b);
            assert_eq!(r.mmu.mapped_pages(DEV), 0, "{}", row.kind);
        }
    }

    #[test]
    fn multipage_and_scatter_gather_map_every_page() {
        for row in ROWS {
            let mut r = rig(row.kind);
            let pfn = r.frames(16);
            let m = r.map(DmaBuf::new(pfn.base(), 16 * 4096), DmaDirection::ToDevice);
            assert_eq!(r.mmu.mapped_pages(DEV), 16, "{}", row.kind);
            let mut out = vec![0u8; 16 * 4096];
            r.bus.read(DEV, m.iova.get(), &mut out).unwrap();
            r.unmap(m);
            assert_eq!(r.mmu.mapped_pages(DEV), 0, "{}", row.kind);

            let bufs: Vec<DmaBuf> = (0..3)
                .map(|i| DmaBuf::new(pfn.add(i).base(), 512))
                .collect();
            let ms = r
                .eng
                .map_sg(&mut r.ctx, &bufs, DmaDirection::FromDevice)
                .unwrap();
            assert_eq!(ms.len(), 3);
            for (i, m) in ms.iter().enumerate() {
                r.bus.write(DEV, m.iova.get(), &[i as u8; 16]).unwrap();
            }
            r.eng.unmap_sg(&mut r.ctx, ms).unwrap();
            for i in 0..3u64 {
                assert_eq!(
                    r.mem.read_vec(pfn.add(i).base(), 16).unwrap(),
                    vec![i as u8; 16],
                    "{}",
                    row.kind
                );
            }
        }
    }

    #[test]
    fn deferred_allocated_iova_is_recycled_only_after_the_flush() {
        for row in ROWS {
            if row.identity || row.inval != Inval::Deferred {
                continue;
            }
            let mut r = rig(row.kind);
            let pfn = r.frames(2);
            let m1 = r.map(DmaBuf::new(pfn.base(), 64), DmaDirection::ToDevice);
            let page1 = m1.iova.page();
            r.unmap(m1);
            // The next map must NOT reuse the pending IOVA.
            let m2 = r.map(DmaBuf::new(pfn.add(1).base(), 64), DmaDirection::ToDevice);
            let page2 = m2.iova.page();
            assert_ne!(page2, page1, "{}", row.kind);
            r.unmap(m2);
            r.flush();
            // After the flush both ranges are reusable.
            let m3 = r.map(DmaBuf::new(pfn.base(), 64), DmaDirection::ToDevice);
            assert!(
                [page1, page2].contains(&m3.iova.page()),
                "{}: IOVA recycled only after flush",
                row.kind
            );
            r.unmap(m3);
            r.flush();
        }
    }

    #[test]
    fn deferred_drains_at_the_250_entry_batch_limit() {
        for row in ROWS {
            if row.inval != Inval::Deferred {
                continue;
            }
            let mut r = rig(row.kind);
            let buf = DmaBuf::new(r.frames(1).base(), 64);
            // Each unmap defers one entry; the 250th triggers the drain.
            for i in 0..250 {
                let m = r.map(buf, DmaDirection::ToDevice);
                r.unmap(m);
                assert_eq!(r.drains(), u64::from(i == 249), "{} after {i}", row.kind);
            }
            assert_eq!(r.mmu.invalq().stats().flush_commands, 1, "{}", row.kind);
        }
    }

    #[test]
    fn coherent_is_placed_by_the_iova_policy_and_freed_strictly() {
        for row in ROWS {
            let mut r = rig(row.kind);
            let c = r.eng.alloc_coherent(&mut r.ctx, 16384).unwrap();
            assert_eq!(c.pages(), 4);
            assert_eq!(c.iova.get() == c.pa.get(), row.identity, "{}", row.kind);
            let stale = c.iova;
            r.bus.write(DEV, stale.get(), b"ring entry").unwrap();
            r.eng.free_coherent(&mut r.ctx, c).unwrap();
            // Even under a deferred engine, coherent free is strict.
            assert!(r.bus.write(DEV, stale.get(), b"x").is_err(), "{}", row.kind);
        }
    }

    #[test]
    fn stock_map_pays_tree_alloc_and_pagetable() {
        let mut r = rig(EngineKind::LinuxStrict);
        let buf = DmaBuf::new(r.frames(1).base(), 64);
        let m = r.map(buf, DmaDirection::ToDevice);
        let pt = r.ctx.breakdown().get(Phase::IommuPageTableMgmt);
        assert!(pt >= r.ctx.cost.iova_tree_alloc + r.ctx.cost.pagetable_map_page);
        assert!(r.ctx.breakdown().get(Phase::Spinlock) >= r.ctx.cost.spinlock_uncontended);
        r.unmap(m);
    }

    #[test]
    fn eiovar_cache_makes_steady_state_allocation_cheap() {
        // The FAST'15 result: the ring-buffer alloc/free pattern hits the
        // cache after the first allocation, skipping the tree walk.
        let steady_state_pt_cost = |kind| {
            let mut r = rig(kind);
            let buf = DmaBuf::new(r.frames(1).base(), 1500);
            let warm = r.map(buf, DmaDirection::FromDevice);
            r.unmap(warm);
            r.ctx.reset_stats();
            for _ in 0..50 {
                let m = r.map(buf, DmaDirection::FromDevice);
                r.unmap(m);
            }
            r.ctx.breakdown().get(Phase::IommuPageTableMgmt)
        };
        let eiovar = steady_state_pt_cost(EngineKind::EiovarStrict);
        let stock = steady_state_pt_cost(EngineKind::LinuxStrict);
        assert!(eiovar * 2 < stock, "eiovar {eiovar} vs stock {stock}");
    }

    /// Attempts an `n`-page map whose page `k` collides with a PTE someone
    /// else owns, and checks the error left nothing behind: the planted PTE
    /// is the only one, and — once it is gone — the same map succeeds at
    /// the same IOVA with all `n` PTEs its own.
    fn failed_map_rolls_back(kind: EngineKind) {
        const N: u64 = 4;
        const K: u64 = 2;
        let mut r = rig(kind);
        let buf = DmaBuf::new(r.frames(N).base(), (N * 4096) as usize);
        // Learn where the engine places this buffer (a strict engine hands
        // the same range out again after unmap).
        let probe = r.map(buf, DmaDirection::FromDevice);
        let placed = probe.iova;
        r.unmap(probe);
        assert_eq!(r.mmu.mapped_pages(DEV), 0);

        let taken = placed.page().add(K);
        let elsewhere = r.frames(1);
        r.mmu
            .map_page(&mut r.ctx, DEV, taken, elsewhere, Perms::ReadWrite)
            .unwrap();
        let err = r.eng.map(&mut r.ctx, buf, DmaDirection::FromDevice);
        assert_eq!(
            err,
            Err(DmaError::Iommu(IommuError::PageTable(
                PtError::AlreadyMapped(taken)
            ))),
            "{kind}"
        );
        assert_eq!(r.mmu.mapped_pages(DEV), 1, "{kind}: only the planted PTE");

        r.mmu.unmap_page_nosync(&mut r.ctx, DEV, taken).unwrap();
        let m = r.map(buf, DmaDirection::FromDevice);
        // A leaked IOVA range would move the mapping; a leaked refcount
        // would leave page K without a PTE.
        assert_eq!(m.iova, placed, "{kind}: allocator state as before");
        assert_eq!(r.mmu.mapped_pages(DEV), N, "{kind}: refcounts as before");
        r.bus
            .write(DEV, m.iova.get(), &vec![7u8; (N * 4096) as usize])
            .unwrap();
        r.unmap(m);
        assert_eq!(r.mmu.mapped_pages(DEV), 0, "{kind}");
    }

    #[test]
    fn failed_identity_map_drops_its_refcounts_and_ptes() {
        failed_map_rolls_back(EngineKind::IdentityPlus);
    }

    #[test]
    fn failed_allocated_map_frees_its_ptes_and_iova_range() {
        failed_map_rolls_back(EngineKind::LinuxStrict);
    }

    /// Attempts an `N`-page coherent allocation whose page `K` collides
    /// with a PTE someone else owns, and checks the error left nothing
    /// behind: the frames are free again, the planted PTE is the only one,
    /// and — once it is gone — the next allocation gets the same IOVA.
    fn failed_coherent_alloc_rolls_back(kind: EngineKind) {
        const N: usize = 3;
        const K: u64 = 1;
        let mut r = rig(kind);
        let elsewhere = r.frames(1);
        // Learn where the engine places this buffer: first-fit frames and
        // a strict range allocator hand the same place out again.
        let probe = r.eng.alloc_coherent(&mut r.ctx, N * 4096).unwrap();
        let placed = probe.iova;
        r.eng.free_coherent(&mut r.ctx, probe).unwrap();

        let taken = placed.page().add(K);
        r.mmu
            .map_page(&mut r.ctx, DEV, taken, elsewhere, Perms::ReadWrite)
            .unwrap();
        let frames = r.mem.stats().allocated_frames;
        let err = r.eng.alloc_coherent(&mut r.ctx, N * 4096).map(|c| c.iova);
        assert_eq!(
            err,
            Err(DmaError::Iommu(IommuError::PageTable(
                PtError::AlreadyMapped(taken)
            ))),
            "{kind}"
        );
        assert_eq!(r.mem.stats().allocated_frames, frames, "{kind}: frames");
        assert_eq!(r.mmu.mapped_pages(DEV), 1, "{kind}: only the planted PTE");
        assert!(r.mmu.is_mapped(DEV, taken), "{kind}");

        r.mmu.unmap_page_nosync(&mut r.ctx, DEV, taken).unwrap();
        let c = r.eng.alloc_coherent(&mut r.ctx, N * 4096).unwrap();
        assert_eq!(c.iova, placed, "{kind}: IOVA placement as before");
        r.eng.free_coherent(&mut r.ctx, c).unwrap();
        assert_eq!(r.mmu.mapped_pages(DEV), 0, "{kind}");
    }

    #[test]
    fn failed_identity_coherent_alloc_frees_its_frames() {
        failed_coherent_alloc_rolls_back(EngineKind::IdentityPlus);
    }

    #[test]
    fn failed_allocated_coherent_alloc_frees_its_frames_and_iova_range() {
        failed_coherent_alloc_rolls_back(EngineKind::LinuxStrict);
    }

    #[test]
    fn an_unmap_missing_a_middle_page_still_revokes_the_rest() {
        // A PTE removed behind the engine's back must not stop the unmap
        // half-way: the pages around it lose their PTE and their IOTLB
        // entry, and the missing page is the error.
        let mut r = rig(EngineKind::LinuxStrict);
        let buf = DmaBuf::new(r.frames(3).base(), 3 * 4096);
        let m = r.map(buf, DmaDirection::ToDevice);
        let first = m.iova.page();
        let mut sink = vec![0u8; buf.len];
        r.bus.read(DEV, m.iova.get(), &mut sink).unwrap();
        let middle = first.add(1);
        r.mmu.unmap_page_nosync(&mut r.ctx, DEV, middle).unwrap();

        assert_eq!(
            r.eng.unmap(&mut r.ctx, m),
            Err(DmaError::Iommu(IommuError::PageTable(PtError::NotMapped(
                middle
            ))))
        );
        for page in (0..3).map(|i| first.add(i)) {
            assert!(!r.mmu.is_mapped(DEV, page), "{page} left mapped");
            assert!(!r.mmu.iotlb_contains(DEV, page), "{page} left cached");
        }
    }

    #[test]
    fn identity_pages_another_mapping_claims_split_a_map_and_its_unmap() {
        // A 3-page buffer around a small one on its middle page: the big
        // map installs, and its unmap removes and invalidates, only the
        // two outer pages.
        for row in ROWS.iter().filter(|r| r.identity) {
            let mut r = rig(row.kind);
            let base = r.frames(3).base();
            let small = r.map(DmaBuf::new(base.add(4096 + 64), 64), DmaDirection::ToDevice);
            let big = r.map(DmaBuf::new(base, 3 * 4096), DmaDirection::FromDevice);
            let first = big.iova.page();
            assert_eq!(r.mmu.mapped_pages(DEV), 3, "{}", row.kind);
            r.bus
                .write(DEV, first.base().get(), &[1; 3 * 4096])
                .unwrap();
            r.unmap(big);
            r.flush();
            assert_eq!(r.mmu.mapped_pages(DEV), 1, "{}", row.kind);
            assert!(r.mmu.is_mapped(DEV, first.add(1)), "{}", row.kind);
            for page in [first, first.add(2)] {
                assert!(
                    r.bus.write(DEV, page.base().get(), b"x").is_err(),
                    "{}",
                    row.kind
                );
            }
            r.unmap(small);
            r.flush();
            assert_eq!(r.mmu.mapped_pages(DEV), 0, "{}", row.kind);
        }
    }

    #[test]
    fn streaming_map_inside_an_identity_coherent_buffer_fails_cleanly() {
        // The reachable case: the coherent buffer owns its pages' identity
        // PTEs, so a streaming map of one of them collides.
        let mut r = rig(EngineKind::IdentityPlus);
        let c = r.eng.alloc_coherent(&mut r.ctx, 8192).unwrap();
        let inside = DmaBuf::new(c.pa.add(4096), 256);
        for _ in 0..2 {
            // Twice: a leaked refcount would make the second attempt
            // "succeed" without owning a PTE.
            assert!(r
                .eng
                .map(&mut r.ctx, inside, DmaDirection::ToDevice)
                .is_err());
        }
        assert_eq!(r.mmu.mapped_pages(DEV), 2);
        r.eng.free_coherent(&mut r.ctx, c).unwrap();
        assert_eq!(r.mmu.mapped_pages(DEV), 0);
    }

    #[test]
    fn pairs_outside_the_table_compose() {
        // The seam: any IOVA policy runs under any invalidation policy.
        // Allocator-placed IOVAs under self-destructing hardware is no
        // engine of the paper, yet behaves as the product of its parts.
        let mut r = Rig::on(Iommu::new(), |mem, mmu| {
            Box::new(MappedDma::new(
                "tree + hw",
                mem,
                mmu,
                DEV,
                IovaPolicy::allocated(GlobalTreeIovaAllocator::new()),
                InvalPolicy::Hardware,
            ))
        });
        let buf = DmaBuf::new(r.frames(1).base().add(64), 1500);
        let m = r.map(buf, DmaDirection::FromDevice);
        assert_eq!(m.iova.page_offset(), 64);
        assert_ne!(m.iova.get(), buf.pa.get());
        let stale = m.iova;
        r.bus.write(DEV, stale.get(), b"warm").unwrap();
        r.unmap(m);
        assert!(r.bus.write(DEV, stale.get(), b"late").is_err());
        assert_eq!(r.mmu.invalq().stats().page_commands, 0);
        assert!(r.eng.profile().no_vulnerability_window);
        let again = r.map(buf, DmaDirection::FromDevice);
        assert_eq!(again.iova, stale, "range freed at unmap");
        r.unmap(again);
    }
}
