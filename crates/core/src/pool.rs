//! The shadow DMA buffer pool (§5.3, Table 2).

// lint: allow(panic) — slot bookkeeping invariants are bugs if violated, not runtime errors

use crate::{FreeList, IovaCodec, MetadataArray};
use dma_api::{DmaBuf, DmaError};
use iommu::{DeviceId, Iommu, Iova, IovaPage, Perms};
use memsim::{PhysAddr, PhysMemory, PAGE_SIZE};
use obs::{Counter, EventKind, Gauge, Obs};
use simcore::sync::Mutex;
use simcore::FxHashMap;
use simcore::{CoreCtx, CoreId, Phase};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// The IOVA encoding (field widths and size classes).
    pub codec: IovaCodec,
    /// Practical bound on metadata slots per (NUMA domain, class) —
    /// the paper uses 16 K ("a more practical bound", §6 *Memory
    /// consumption*). Beyond it the fallback path takes over.
    pub max_buffers_per_class: u64,
    /// Opt-in per-core slot magazines in front of the free lists
    /// (`None` keeps the original depot-only behavior, bit for bit).
    pub magazines: Option<MagazineConfig>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            codec: IovaCodec::paper_default(),
            max_buffers_per_class: 16 * 1024,
            magazines: None,
        }
    }
}

/// Per-core slot-magazine configuration (slab-magazine / iova-rcache
/// style): each (core, class, rights) keeps a small stack of free slot
/// indices so the steady-state acquire/release cycle never touches the
/// shared free list. Misses refill in batches from the depot; owner-core
/// releases land in the magazine until `capacity`, then overflow to the
/// depot. Cross-core releases always go straight to the owner's depot
/// list (the magazine stays single-core).
#[derive(Debug, Clone, Copy)]
pub struct MagazineConfig {
    /// Slots cached per (core, class, rights) before overflowing.
    pub capacity: usize,
    /// Slots pulled from the depot on a magazine miss (1 is used, the
    /// rest are cached).
    pub refill: usize,
}

impl Default for MagazineConfig {
    fn default() -> Self {
        MagazineConfig {
            capacity: 64,
            refill: 16,
        }
    }
}

/// Pool statistics.
///
/// A thin view over the unified metric registry (`pool.*{dev}` keys):
/// [`ShadowPool::stats`] reads the registry counters/gauges, never a
/// private side-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Successful `acquire_shadow` calls.
    pub acquires: u64,
    /// `release_shadow` calls.
    pub releases: u64,
    /// Slow-path allocations of fresh shadow buffers.
    pub grows: u64,
    /// Acquires served by the fallback (hash-table) path.
    pub fallback_acquires: u64,
    /// Shadow buffers currently acquired by live mappings.
    pub in_flight: u64,
    /// High-water mark of `in_flight`.
    pub peak_in_flight: u64,
    /// Bytes of physical memory currently backing shadow buffers.
    pub shadow_bytes: u64,
    /// High-water mark of `shadow_bytes`.
    pub peak_shadow_bytes: u64,
    /// Buffers retired by memory-pressure reclaim.
    pub reclaimed: u64,
}

/// What `find_shadow` returns: everything the DMA layer needs to copy
/// to/from the shadow buffer and to hand the OS buffer back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowRef {
    /// The associated OS buffer.
    pub os_pa: PhysAddr,
    /// The associated OS buffer's length.
    pub os_len: usize,
    /// Physical base of the shadow buffer.
    pub shadow_pa: PhysAddr,
    /// Shadow buffer capacity in bytes.
    pub size: usize,
    /// Device access rights to the shadow buffer.
    pub rights: Perms,
}

#[derive(Debug, Clone, Copy)]
struct FallbackEntry {
    shadow_pa: PhysAddr,
    pages: u64,
    os_pa: PhysAddr,
    os_len: usize,
    rights: Perms,
    size: usize,
}

/// First IOVA page of the fallback region: the upper quarter of the
/// MSB-clear half, disjoint from the `dma-api` allocators' range.
const FALLBACK_PAGE_BASE: u64 = 1 << 34;

/// Lock name reported in lockset events for the sub-page fragment caches.
pub const POOL_CACHE_LOCK: &str = "pool-cache";
/// Lock name reported in lockset events for the fallback table.
pub const POOL_FALLBACK_LOCK: &str = "pool-fallback";
/// Lock name reported in lockset events for the per-core slot magazines.
pub const POOL_MAGAZINE_LOCK: &str = "pool-magazine";

fn rights_idx(p: Perms) -> usize {
    match p {
        Perms::Read => 0,
        Perms::Write => 1,
        Perms::ReadWrite => 2,
    }
}

/// The per-device shadow buffer pool.
///
/// A fast, scalable, multi-threaded segregated free-list allocator of
/// permanently IOMMU-mapped buffers. See the crate docs for the design;
/// the API is the paper's Table 2 (`acquire_shadow` / `find_shadow` /
/// `release_shadow`).
///
/// Thread safety: the pool is `Sync`. `acquire_shadow` must be called with
/// a `ctx` whose core id the caller "owns" (one thread per core id at a
/// time — the single-consumer contract of §5.3); `release_shadow` and
/// `find_shadow` may be called from any core.
///
/// # Examples
///
/// ```
/// use dma_api::DmaBuf;
/// use iommu::{DeviceId, Iommu, Perms};
/// use memsim::{NumaDomain, NumaTopology, PhysMemory};
/// use shadow_core::{PoolConfig, ShadowPool};
/// use simcore::{CoreCtx, CoreId, CostModel};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mem = Arc::new(PhysMemory::new(NumaTopology::dual_socket_haswell()));
/// let mmu = Arc::new(Iommu::new());
/// let pool = ShadowPool::new(mem.clone(), mmu, DeviceId(0), PoolConfig::default());
/// let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::haswell_2_4ghz()));
///
/// let os_buf = DmaBuf::new(mem.alloc_frame(NumaDomain(0))?.base(), 1500);
/// let iova = pool.acquire_shadow(&mut ctx, os_buf, Perms::Write)?;
/// let sref = pool.find_shadow(iova).expect("O(1) reverse lookup");
/// assert_eq!(sref.os_pa, os_buf.pa);
/// pool.release_shadow(&mut ctx, iova)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShadowPool {
    mem: Arc<PhysMemory>,
    mmu: Arc<Iommu>,
    dev: DeviceId,
    codec: IovaCodec,
    cores: u16,
    nclasses: usize,
    /// `[domain * nclasses + class]`
    arrays: Vec<MetadataArray>,
    /// `[(core * nclasses + class) * 3 + rights]`
    lists: Vec<FreeList>,
    /// Private caches of page fragments, same indexing as `lists`.
    /// Populated only for sub-page size classes (§5.3: the remainder of a
    /// split page goes to a private cache, not the free list, to avoid
    /// synchronizing with releases).
    caches: Vec<Mutex<Vec<u64>>>,
    /// Per-core slot magazines, same indexing as `lists`; used only when
    /// `mag` is `Some`.
    magazines: Vec<Mutex<Vec<u64>>>,
    mag: Option<MagazineConfig>,
    fallback: Mutex<FxHashMap<u64, FallbackEntry>>,
    fallback_pages: Mutex<FallbackIovaSpace>,
    // Telemetry: registry-backed handles (single source of truth).
    obs: Obs,
    acquires: Counter,
    releases: Counter,
    grows: Counter,
    fallback_acquires: Counter,
    in_flight: Gauge,
    peak_in_flight: Gauge,
    shadow_bytes: Gauge,
    peak_shadow_bytes: Gauge,
    reclaimed: Counter,
    magazine_hits: Counter,
    magazine_refills: Counter,
    magazine_drained: Counter,
}

/// Bump-with-reuse IOVA page allocator for the fallback region, standing in
/// for the "external scalable IOVA allocator \[42\]" (its *cost* is charged
/// as the magazine allocator's by the acquire path).
#[derive(Debug)]
struct FallbackIovaSpace {
    next: u64,
    free: FxHashMap<u64, Vec<u64>>, // run length -> starts
}

impl FallbackIovaSpace {
    fn alloc(&mut self, n: u64) -> IovaPage {
        if let Some(start) = self.free.get_mut(&n).and_then(|v| v.pop()) {
            return IovaPage(start);
        }
        let start = self.next;
        self.next += n;
        assert!(self.next < 1 << 35, "fallback IOVA region exhausted");
        IovaPage(start)
    }

    fn free(&mut self, page: IovaPage, n: u64) {
        self.free.entry(n).or_default().push(page.get());
    }
}

impl ShadowPool {
    /// Creates a pool for device `dev` with a private telemetry handle.
    pub fn new(mem: Arc<PhysMemory>, mmu: Arc<Iommu>, dev: DeviceId, cfg: PoolConfig) -> Self {
        Self::with_obs(mem, mmu, dev, cfg, Obs::isolated())
    }

    /// Creates a pool reporting into `obs` (metric keys `pool.*{dev}`).
    pub fn with_obs(
        mem: Arc<PhysMemory>,
        mmu: Arc<Iommu>,
        dev: DeviceId,
        cfg: PoolConfig,
        obs: Obs,
    ) -> Self {
        let topo = mem.topology().clone();
        let cores = topo.cores();
        assert!(
            cores <= cfg.codec.max_cores(),
            "topology has more cores than the IOVA encoding can name"
        );
        let nclasses = cfg.codec.class_sizes().len();
        let cap_per = |class: usize| cfg.max_buffers_per_class.min(cfg.codec.max_index(class));
        let arrays = (0..topo.domains() as usize * nclasses)
            .map(|i| MetadataArray::new(cap_per(i % nclasses)))
            .collect();
        let nlists = cores as usize * nclasses * 3;
        let d = Some(dev.0);
        // Magazine metrics are registered only when magazines are on, so
        // the default configuration's registry stays byte-identical.
        let (magazine_hits, magazine_refills, magazine_drained) = match cfg.magazines {
            Some(_) => (
                obs.counter("pool", "magazine_hits", d),
                obs.counter("pool", "magazine_refills", d),
                obs.counter("pool", "magazine_drained", d),
            ),
            None => Default::default(),
        };
        ShadowPool {
            mem,
            mmu,
            dev,
            codec: cfg.codec,
            cores,
            nclasses,
            arrays,
            lists: (0..nlists).map(|_| FreeList::new()).collect(),
            caches: (0..nlists).map(|_| Mutex::new(Vec::new())).collect(),
            magazines: (0..nlists).map(|_| Mutex::new(Vec::new())).collect(),
            mag: cfg.magazines,
            fallback: Mutex::new(FxHashMap::default()),
            fallback_pages: Mutex::new(FallbackIovaSpace {
                next: FALLBACK_PAGE_BASE,
                free: FxHashMap::default(),
            }),
            acquires: obs.counter("pool", "acquires", d),
            releases: obs.counter("pool", "releases", d),
            grows: obs.counter("pool", "grows", d),
            fallback_acquires: obs.counter("pool", "fallback_acquires", d),
            in_flight: obs.gauge("pool", "in_flight", d),
            peak_in_flight: obs.gauge("pool", "peak_in_flight", d),
            shadow_bytes: obs.gauge("pool", "shadow_bytes", d),
            peak_shadow_bytes: obs.gauge("pool", "peak_shadow_bytes", d),
            reclaimed: obs.counter("pool", "reclaimed", d),
            magazine_hits,
            magazine_refills,
            magazine_drained,
            obs,
        }
    }

    /// The telemetry handle this pool reports into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The IOVA codec in use.
    pub fn codec(&self) -> &IovaCodec {
        &self.codec
    }

    /// The device this pool shadows for.
    pub fn device(&self) -> DeviceId {
        self.dev
    }

    fn list_idx(&self, core: CoreId, class: usize, rights: Perms) -> usize {
        let core = core.index() % self.cores as usize;
        (core * self.nclasses + class) * 3 + rights_idx(rights)
    }

    fn array_idx(&self, core: CoreId, class: usize) -> usize {
        let domain = self.mem.topology().domain_of_core(core);
        domain.index() * self.nclasses + class
    }

    /// Acquires a shadow buffer of at least `os_buf.len` bytes with the
    /// given device access rights, associates it with `os_buf`, and
    /// returns its IOVA (Table 2 `acquire_shadow`).
    ///
    /// The buffer comes from the calling core's free list (lockless), its
    /// private fragment cache, or — on miss — a freshly allocated,
    /// permanently mapped buffer on the core's NUMA domain. If the
    /// buffer's size exceeds the largest size class, or the metadata array
    /// is exhausted, the fallback hash-table path serves the request.
    pub fn acquire_shadow(
        &self,
        ctx: &mut CoreCtx,
        os_buf: DmaBuf,
        rights: Perms,
    ) -> Result<Iova, DmaError> {
        ctx.charge(Phase::CopyMgmt, ctx.cost.shadow_pool_op);
        let iova = match self.codec.class_for(os_buf.len) {
            Some(class) => self.acquire_classed(ctx, os_buf, rights, class)?,
            None => self.acquire_fallback(ctx, os_buf, rights)?,
        };
        self.acquires.inc();
        self.peak_in_flight.set_max(self.in_flight.add(1));
        Ok(iova)
    }

    fn acquire_classed(
        &self,
        ctx: &mut CoreCtx,
        os_buf: DmaBuf,
        rights: Perms,
        class: usize,
    ) -> Result<Iova, DmaError> {
        let core = CoreId((ctx.core.0) % self.cores);
        let li = self.list_idx(core, class, rights);
        let ai = self.array_idx(core, class);
        let array = &self.arrays[ai];
        let index = if let Some(i) = self.magazine_pop(ctx, li) {
            i
        } else {
            // NOTE: bind the cache pop to a statement so its lock guard
            // drops here — `grow` re-locks the same cache when splitting a
            // page.
            self.obs
                .guarded(ctx, POOL_CACHE_LOCK, format_args!("pool.cache[{li}]"));
            let cached = self.caches[li].lock().pop();
            if let Some(i) = cached {
                i
            } else if let Some(i) = self.pop_free(ctx, li, array) {
                i
            } else {
                match self.grow(ctx, core, class, rights, li, ai)? {
                    Some(i) => i,
                    // Metadata exhausted: fall back.
                    None => return self.acquire_fallback(ctx, os_buf, rights),
                }
            }
        };
        let slot = array.slot(index);
        slot.associate(os_buf.pa, os_buf.len);
        Ok(self.codec.encode(core, rights, class, index))
    }

    /// Pops a slot from the calling core's magazine (`None` with
    /// magazines disabled, or on a miss).
    fn magazine_pop(&self, ctx: &mut CoreCtx, li: usize) -> Option<u64> {
        self.mag?;
        self.obs
            .guarded(ctx, POOL_MAGAZINE_LOCK, format_args!("pool.magazine[{li}]"));
        let i = self.magazines[li].lock().pop();
        if i.is_some() {
            self.magazine_hits.inc();
        }
        i
    }

    /// Pops a slot from the depot free list. With magazines enabled this
    /// pulls a batch: one slot is returned, the rest refill the magazine,
    /// so the next `refill - 1` acquires never touch the shared list.
    fn pop_free(&self, ctx: &mut CoreCtx, li: usize, array: &MetadataArray) -> Option<u64> {
        let Some(mc) = self.mag else {
            return self.lists[li].pop(array);
        };
        let got = self.lists[li].drain(array, mc.refill.max(1));
        let (&first, rest) = got.split_first()?;
        if !rest.is_empty() {
            self.magazine_refills.inc();
            self.obs
                .guarded(ctx, POOL_MAGAZINE_LOCK, format_args!("pool.magazine[{li}]"));
            self.magazines[li].lock().extend_from_slice(rest);
        }
        Some(first)
    }

    /// Pushes a released slot into the calling core's magazine. Returns
    /// `false` (caller sends the slot to the depot) when magazines are
    /// off or the magazine is at capacity.
    fn magazine_push(&self, ctx: &mut CoreCtx, li: usize, index: u64) -> bool {
        let Some(mc) = self.mag else {
            return false;
        };
        self.obs
            .guarded(ctx, POOL_MAGAZINE_LOCK, format_args!("pool.magazine[{li}]"));
        let mut mag = self.magazines[li].lock();
        if mag.len() >= mc.capacity.max(1) {
            return false;
        }
        mag.push(index);
        true
    }

    /// Returns every slot cached in one magazine to its depot list;
    /// returns how many moved.
    fn drain_magazine_into_list(
        &self,
        ctx: &mut CoreCtx,
        li: usize,
        array: &MetadataArray,
    ) -> usize {
        if self.mag.is_none() || self.magazines[li].lock().is_empty() {
            return 0;
        }
        self.obs
            .guarded(ctx, POOL_MAGAZINE_LOCK, format_args!("pool.magazine[{li}]"));
        let slots = std::mem::take(&mut *self.magazines[li].lock());
        for &index in &slots {
            self.lists[li].push(array, index);
        }
        self.magazine_drained.add(slots.len() as u64);
        slots.len()
    }

    /// Drains every per-core magazine back into the depot free lists (the
    /// teardown path, also run before reclaim scans a core). After this no
    /// slot is checked out into a magazine, so teardown accounting and
    /// memory-pressure reclaim see the whole pool. Returns the number of
    /// slots returned.
    pub fn drain_magazines(&self, ctx: &mut CoreCtx) -> usize {
        if self.mag.is_none() {
            return 0;
        }
        let mut drained = 0;
        for core in 0..self.cores {
            for class in 0..self.nclasses {
                let ai = self.array_idx(CoreId(core), class);
                let array = &self.arrays[ai];
                for rights in Perms::ALL {
                    let li = self.list_idx(CoreId(core), class, rights);
                    drained += self.drain_magazine_into_list(ctx, li, array);
                }
            }
        }
        drained
    }

    /// Slots currently cached across all magazines (observability).
    pub fn magazine_len(&self) -> usize {
        self.magazines.iter().map(|m| m.lock().len()).sum()
    }

    /// Allocates and permanently maps fresh shadow buffer(s); returns
    /// `None` if the metadata array is exhausted.
    fn grow(
        &self,
        ctx: &mut CoreCtx,
        core: CoreId,
        class: usize,
        rights: Perms,
        li: usize,
        ai: usize,
    ) -> Result<Option<u64>, DmaError> {
        obs::profile::scope(ctx, "pool_grow", |ctx| {
            self.grow_inner(ctx, core, class, rights, li, ai)
        })
    }

    fn grow_inner(
        &self,
        ctx: &mut CoreCtx,
        core: CoreId,
        class: usize,
        rights: Perms,
        li: usize,
        ai: usize,
    ) -> Result<Option<u64>, DmaError> {
        let size = self.codec.class_size(class);
        let domain = self.mem.topology().domain_of_core(core);
        let array = &self.arrays[ai];
        ctx.charge(Phase::CopyMgmt, ctx.cost.shadow_pool_grow);
        self.grows.inc();
        if size >= PAGE_SIZE {
            let Some(index) = array.reserve() else {
                return Ok(None);
            };
            let pages = (size / PAGE_SIZE) as u64;
            let pfn = self.mem.alloc_frames(domain, pages)?;
            array
                .slot(index)
                .shadow_pa
                .store(pfn.base().get(), Ordering::Release);
            let iova_page = self.codec.encode(core, rights, class, index).page();
            self.mmu
                .map_range(ctx, self.dev, iova_page, pfn, pages, rights)?;
            self.add_shadow_bytes(size as u64);
            self.trace_grow(ctx, class, size as u64);
            Ok(Some(index))
        } else {
            // Sub-page class: split one page into `k` buffers sharing one
            // IOVA page (all same rights — the byte-protection guarantee),
            // return one and cache the rest privately.
            let k = (PAGE_SIZE / size) as u64;
            let Some(start) = array.reserve_aligned_run(k) else {
                return Ok(None);
            };
            let pfn = self.mem.alloc_frame(domain)?;
            for j in 0..k {
                array
                    .slot(start + j)
                    .shadow_pa
                    .store(pfn.base().add(j * size as u64).get(), Ordering::Release);
            }
            let iova_page = self.codec.encode(core, rights, class, start).page();
            debug_assert_eq!(
                self.codec.encode(core, rights, class, start).page_offset(),
                0,
                "aligned run must start an IOVA page"
            );
            self.mmu.map_page(ctx, self.dev, iova_page, pfn, rights)?;
            self.obs
                .guarded(ctx, POOL_CACHE_LOCK, format_args!("pool.cache[{li}]"));
            self.caches[li].lock().extend((start + 1..start + k).rev());
            self.add_shadow_bytes(PAGE_SIZE as u64);
            self.trace_grow(ctx, class, PAGE_SIZE as u64);
            Ok(Some(start))
        }
    }

    fn acquire_fallback(
        &self,
        ctx: &mut CoreCtx,
        os_buf: DmaBuf,
        rights: Perms,
    ) -> Result<Iova, DmaError> {
        // Cost model: the external scalable IOVA allocator of [42].
        ctx.charge(Phase::CopyMgmt, ctx.cost.iova_magazine_alloc);
        let size = os_buf.len.next_multiple_of(PAGE_SIZE);
        let pages = (size / PAGE_SIZE) as u64;
        let domain = self.mem.topology().domain_of_core(ctx.core);
        let pfn = self.mem.alloc_frames(domain, pages)?;
        let iova_page = self.fallback_pages.lock().alloc(pages);
        self.mmu
            .map_range(ctx, self.dev, iova_page, pfn, pages, rights)?;
        let iova = iova_page.base();
        self.obs
            .guarded(ctx, POOL_FALLBACK_LOCK, format_args!("pool.fallback_table"));
        self.fallback.lock().insert(
            iova.get(),
            FallbackEntry {
                shadow_pa: pfn.base(),
                pages,
                os_pa: os_buf.pa,
                os_len: os_buf.len,
                rights,
                size,
            },
        );
        self.fallback_acquires.inc();
        self.add_shadow_bytes(size as u64);
        self.obs.set_now_hint(ctx.now());
        self.obs.trace(
            ctx.now(),
            ctx.core.0,
            Some(self.dev.0),
            EventKind::FallbackAcquire {
                iova: iova.get(),
                len: os_buf.len as u64,
            },
        );
        Ok(iova)
    }

    /// Looks up the shadow buffer whose IOVA is `iova` and returns its
    /// association (Table 2 `find_shadow`). O(1): the metadata index is
    /// decoded straight out of the IOVA.
    ///
    /// `iova` may point anywhere inside the shadow buffer; the lookup
    /// resolves to the containing buffer. Takes no `CoreCtx`, so unlike
    /// the pool's other accessors it is deliberately not a lockset site.
    pub fn find_shadow(&self, iova: Iova) -> Option<ShadowRef> {
        match self.codec.decode(iova) {
            Some(d) => {
                let ai = self.array_idx(d.core, d.class);
                let slot = self.arrays[ai].slot(d.index);
                let (os_pa, os_len) = slot.association()?;
                Some(ShadowRef {
                    os_pa,
                    os_len,
                    shadow_pa: slot.shadow_base(),
                    size: self.codec.class_size(d.class),
                    rights: d.rights,
                })
            }
            None => {
                let fb = self.fallback.lock();
                let base = Iova::new(iova.get() & !(PAGE_SIZE as u64 - 1));
                // Fallback buffers are page-aligned and multi-page; walk
                // back to the entry base.
                let mut probe = base;
                // Fallback buffers are bounded; cap the back-walk.
                let mut steps = 0u32;
                loop {
                    steps += 1;
                    if steps > 4096 {
                        return None;
                    }
                    if let Some(e) = fb.get(&probe.get()) {
                        if iova.get() < probe.get() + e.size as u64 {
                            return Some(ShadowRef {
                                os_pa: e.os_pa,
                                os_len: e.os_len,
                                shadow_pa: e.shadow_pa,
                                size: e.size,
                                rights: e.rights,
                            });
                        }
                        return None;
                    }
                    if probe.get() < PAGE_SIZE as u64
                        || probe.get() < (FALLBACK_PAGE_BASE << memsim::PAGE_SHIFT)
                    {
                        return None;
                    }
                    probe = Iova::new(probe.get() - PAGE_SIZE as u64);
                }
            }
        }
    }

    /// Releases the shadow buffer at `iova` back to the pool (Table 2
    /// `release_shadow`), disassociating it from its OS buffer. Shadow
    /// buffers are *sticky*: the buffer returns to the free list encoded
    /// in its IOVA — its owner core's — keeping it NUMA-local and its
    /// IOMMU mapping unchanged, no matter which core releases it.
    pub fn release_shadow(&self, ctx: &mut CoreCtx, iova: Iova) -> Result<(), DmaError> {
        ctx.charge(Phase::CopyMgmt, ctx.cost.shadow_pool_op);
        match self.codec.decode(iova) {
            Some(d) => {
                let ai = self.array_idx(d.core, d.class);
                let array = &self.arrays[ai];
                let slot = array.slot(d.index);
                if slot.association().is_none() {
                    return Err(DmaError::BadUnmap(iova));
                }
                slot.disassociate();
                let li = self.list_idx(d.core, d.class, d.rights);
                // Owner-core releases land in the magazine (until full);
                // cross-core releases go straight to the owner's depot
                // list — the magazine stays single-core.
                let owner_release = d.core == CoreId(ctx.core.0 % self.cores);
                if !(owner_release && self.magazine_push(ctx, li, d.index)) {
                    self.lists[li].push(array, d.index);
                }
            }
            None => {
                self.obs
                    .guarded(ctx, POOL_FALLBACK_LOCK, format_args!("pool.fallback_table"));
                let entry = self
                    .fallback
                    .lock()
                    .remove(&iova.get())
                    .ok_or(DmaError::BadUnmap(iova))?;
                // Fallback buffers are transient: strictly unmap,
                // invalidate, and free.
                let first = iova.page();
                let pages: Vec<IovaPage> = (0..entry.pages).map(|i| first.add(i)).collect();
                for &p in &pages {
                    self.mmu.unmap_page_nosync(ctx, self.dev, p)?;
                }
                self.mmu.invalidate_pages_sync(ctx, self.dev, &pages);
                self.mem.free_frames(entry.shadow_pa.pfn(), entry.pages)?;
                self.fallback_pages.lock().free(first, entry.pages);
                self.sub_shadow_bytes(entry.size as u64);
            }
        }
        self.releases.inc();
        self.in_flight.sub(1);
        Ok(())
    }

    /// Memory-pressure reclaim (§5.3 *Memory consumption*): retires up to
    /// `max_buffers` free shadow buffers owned by `core`, unmapping them
    /// (with strict invalidation) and returning their frames. Only
    /// page-multiple classes are reclaimed; sub-page fragments stay.
    ///
    /// Returns the number of bytes freed.
    pub fn reclaim(&self, ctx: &mut CoreCtx, core: CoreId, max_buffers: usize) -> u64 {
        let mut freed = 0u64;
        let mut budget = max_buffers;
        for class in 0..self.nclasses {
            let size = self.codec.class_size(class);
            if size < PAGE_SIZE {
                continue;
            }
            let pages = (size / PAGE_SIZE) as u64;
            let ai = self.array_idx(core, class);
            let array = &self.arrays[ai];
            for rights in Perms::ALL {
                if budget == 0 {
                    break;
                }
                let li = self.list_idx(core, class, rights);
                // Slots parked in the magazine are free too: return them
                // to the list so reclaim can retire them.
                self.drain_magazine_into_list(ctx, li, array);
                let drained = self.lists[li].drain(array, budget);
                budget -= drained.len();
                let mut to_inval = Vec::new();
                for index in drained {
                    let slot = array.slot(index);
                    let base = slot.shadow_base();
                    let iova_page = self.codec.encode(core, rights, class, index).page();
                    for i in 0..pages {
                        self.mmu
                            .unmap_page_nosync(ctx, self.dev, iova_page.add(i))
                            .expect("pool buffer must be mapped");
                        to_inval.push(iova_page.add(i));
                    }
                    self.mem
                        .free_frames(base.pfn(), pages)
                        .expect("pool buffer frames must be allocated");
                    array.retire(index);
                    freed += size as u64;
                    self.reclaimed.inc();
                }
                if !to_inval.is_empty() {
                    self.mmu.invalidate_pages_sync(ctx, self.dev, &to_inval);
                }
            }
        }
        self.sub_shadow_bytes(freed);
        if freed > 0 {
            self.obs.set_now_hint(ctx.now());
            self.obs.trace(
                ctx.now(),
                ctx.core.0,
                Some(self.dev.0),
                EventKind::PoolShrink { bytes: freed },
            );
        }
        freed
    }

    /// Statistics snapshot, consistent under concurrent acquire/release.
    ///
    /// `in_flight` is *derived* as `acquires - releases` from a stable
    /// pair of reads (both counters are re-read until neither moved), so
    /// the snapshot can never show a release without its acquire — the
    /// torn view that independent per-field loads allowed.
    pub fn stats(&self) -> PoolStats {
        loop {
            let acquires = self.acquires.get();
            let releases = self.releases.get();
            let s = PoolStats {
                acquires,
                releases,
                grows: self.grows.get(),
                fallback_acquires: self.fallback_acquires.get(),
                in_flight: acquires.saturating_sub(releases),
                peak_in_flight: self.peak_in_flight.get() as u64,
                shadow_bytes: self.shadow_bytes.get() as u64,
                peak_shadow_bytes: self.peak_shadow_bytes.get() as u64,
                reclaimed: self.reclaimed.get(),
            };
            if self.acquires.get() == acquires && self.releases.get() == releases {
                return s;
            }
        }
    }

    fn trace_grow(&self, ctx: &CoreCtx, class: usize, bytes: u64) {
        self.obs.set_now_hint(ctx.now());
        self.obs.trace(
            ctx.now(),
            ctx.core.0,
            Some(self.dev.0),
            EventKind::PoolGrow {
                class: class as u64,
                bytes,
            },
        );
    }

    fn add_shadow_bytes(&self, n: u64) {
        self.peak_shadow_bytes
            .set_max(self.shadow_bytes.add(n as i64));
    }

    fn sub_shadow_bytes(&self, n: u64) {
        self.shadow_bytes.sub(n as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{NumaDomain, NumaTopology};
    use simcore::CostModel;

    const DEV: DeviceId = DeviceId(0);

    struct Rig {
        mem: Arc<PhysMemory>,
        mmu: Arc<Iommu>,
        pool: ShadowPool,
    }

    fn rig_with(cfg: PoolConfig, topo: NumaTopology) -> Rig {
        let mem = Arc::new(PhysMemory::new(topo));
        let mmu = Arc::new(Iommu::new());
        let pool = ShadowPool::new(mem.clone(), mmu.clone(), DEV, cfg);
        Rig { mem, mmu, pool }
    }

    fn rig() -> Rig {
        rig_with(PoolConfig::default(), NumaTopology::new(4, 2, 4096))
    }

    fn ctx(core: u16) -> CoreCtx {
        CoreCtx::new(CoreId(core), Arc::new(CostModel::haswell_2_4ghz()))
    }

    fn os_buf(r: &Rig, len: usize) -> DmaBuf {
        let pages = (len as u64).div_ceil(PAGE_SIZE as u64);
        let pfn = r.mem.alloc_frames(NumaDomain(0), pages).unwrap();
        DmaBuf::new(pfn.base(), len)
    }

    #[test]
    fn acquire_find_release_roundtrip() {
        let r = rig();
        let mut c = ctx(0);
        let buf = os_buf(&r, 1500);
        let iova = r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap();
        let sref = r.pool.find_shadow(iova).expect("associated");
        assert_eq!(sref.os_pa, buf.pa);
        assert_eq!(sref.os_len, 1500);
        assert_eq!(sref.size, 4096, "smallest class that fits");
        assert_eq!(sref.rights, Perms::Write);
        r.pool.release_shadow(&mut c, iova).unwrap();
        assert!(r.pool.find_shadow(iova).is_none(), "disassociated");
        let s = r.pool.stats();
        assert_eq!((s.acquires, s.releases, s.in_flight), (1, 1, 0));
    }

    #[test]
    fn shadow_buffer_is_permanently_mapped_with_rights() {
        let r = rig();
        let mut c = ctx(0);
        let buf = os_buf(&r, 1000);
        let iova = r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap();
        // Device can write the shadow buffer...
        r.mmu
            .dma_write(&r.mem, DEV, iova, b"device writes here")
            .unwrap();
        // ...but not read it (rights = Write only).
        let mut b = [0u8; 4];
        assert!(r.mmu.dma_read(&r.mem, DEV, iova, &mut b).is_err());
        // Release does NOT unmap: the mapping is permanent (that's the
        // whole point — no IOTLB invalidation ever).
        let before = r.mmu.invalq().stats();
        r.pool.release_shadow(&mut c, iova).unwrap();
        assert_eq!(r.mmu.invalq().stats(), before);
        assert!(r.mmu.is_mapped(DEV, iova.page()));
    }

    #[test]
    fn reuse_is_sticky_same_buffer_same_list() {
        let r = rig();
        let mut c = ctx(0);
        let buf = os_buf(&r, 512);
        let iova1 = r.pool.acquire_shadow(&mut c, buf, Perms::Read).unwrap();
        let pa1 = r.pool.find_shadow(iova1).unwrap().shadow_pa;
        r.pool.release_shadow(&mut c, iova1).unwrap();
        let iova2 = r.pool.acquire_shadow(&mut c, buf, Perms::Read).unwrap();
        assert_eq!(iova1, iova2, "same slot, same IOVA");
        assert_eq!(r.pool.find_shadow(iova2).unwrap().shadow_pa, pa1);
        assert_eq!(r.pool.stats().grows, 1, "no second allocation");
    }

    #[test]
    fn cross_core_release_returns_to_owner() {
        let r = rig();
        let mut c0 = ctx(0);
        let mut c3 = ctx(3);
        let buf = os_buf(&r, 256);
        let iova = r.pool.acquire_shadow(&mut c0, buf, Perms::Read).unwrap();
        // A different core releases it (e.g. unmap ran on another core).
        r.pool.release_shadow(&mut c3, iova).unwrap();
        // Owner core 0 gets the same buffer back; core 3 does not.
        let iova2 = r.pool.acquire_shadow(&mut c0, buf, Perms::Read).unwrap();
        assert_eq!(iova2, iova, "sticky: back on core 0's list");
    }

    #[test]
    fn distinct_rights_use_distinct_buffers_and_pages() {
        let r = rig();
        let mut c = ctx(0);
        let buf = os_buf(&r, 100);
        let ir = r.pool.acquire_shadow(&mut c, buf, Perms::Read).unwrap();
        let iw = r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap();
        let (pr, pw) = (
            r.pool.find_shadow(ir).unwrap().shadow_pa,
            r.pool.find_shadow(iw).unwrap().shadow_pa,
        );
        assert_ne!(
            pr.pfn(),
            pw.pfn(),
            "read and write shadows never share a page"
        );
    }

    #[test]
    fn numa_placement_follows_core() {
        let r = rig(); // 4 cores, 2 domains: cores 0-1 -> dom0, 2-3 -> dom1
        let mut c0 = ctx(0);
        let mut c2 = ctx(2);
        let buf = os_buf(&r, 100);
        let i0 = r.pool.acquire_shadow(&mut c0, buf, Perms::Read).unwrap();
        let i2 = r.pool.acquire_shadow(&mut c2, buf, Perms::Read).unwrap();
        let topo = r.mem.topology();
        let d0 = topo.domain_of_pfn(r.pool.find_shadow(i0).unwrap().shadow_pa.pfn());
        let d2 = topo.domain_of_pfn(r.pool.find_shadow(i2).unwrap().shadow_pa.pfn());
        assert_eq!(d0, NumaDomain(0));
        assert_eq!(d2, NumaDomain(1));
    }

    #[test]
    fn large_class_uses_contiguous_64k() {
        let r = rig();
        let mut c = ctx(0);
        let buf = os_buf(&r, 40_000);
        let iova = r
            .pool
            .acquire_shadow(&mut c, buf, Perms::ReadWrite)
            .unwrap();
        let sref = r.pool.find_shadow(iova).unwrap();
        assert_eq!(sref.size, 65536);
        // Whole 64 KB range is device-accessible.
        let data = vec![0x3c; 65536];
        r.mmu.dma_write(&r.mem, DEV, iova, &data).unwrap();
        r.pool.release_shadow(&mut c, iova).unwrap();
    }

    #[test]
    fn subpage_class_splits_page_and_caches_fragments() {
        let cfg = PoolConfig {
            codec: IovaCodec::new(6, 2, vec![1024, 4096, 65536]),
            max_buffers_per_class: 1024,
            magazines: None,
        };
        let r = rig_with(cfg, NumaTopology::new(4, 2, 4096));
        let mut c = ctx(0);
        let buf = os_buf(&r, 800);
        let frames_before = r.mem.stats().allocated_frames;
        // Four 1 KB buffers fit one page: 4 acquires, 1 frame, 1 grow.
        let iovas: Vec<Iova> = (0..4)
            .map(|_| r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap())
            .collect();
        assert_eq!(r.pool.stats().grows, 1, "one page split four ways");
        assert_eq!(r.mem.stats().allocated_frames, frames_before + 1);
        // All four shadows live on the same physical page and IOVA page
        // (same rights — the byte-granularity guarantee holds trivially).
        let pfns: std::collections::HashSet<_> = iovas
            .iter()
            .map(|&i| r.pool.find_shadow(i).unwrap().shadow_pa.pfn())
            .collect();
        assert_eq!(pfns.len(), 1);
        let pages: std::collections::HashSet<_> = iovas.iter().map(|i| i.page()).collect();
        assert_eq!(pages.len(), 1);
        // And they do not overlap.
        let mut bases: Vec<u64> = iovas
            .iter()
            .map(|&i| r.pool.find_shadow(i).unwrap().shadow_pa.get())
            .collect();
        bases.sort();
        for w in bases.windows(2) {
            assert!(w[0] + 1024 <= w[1]);
        }
        // A fifth acquire grows again.
        let _i5 = r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap();
        assert_eq!(r.pool.stats().grows, 2);
    }

    #[test]
    fn find_shadow_resolves_interior_offsets() {
        let r = rig();
        let mut c = ctx(1);
        let buf = os_buf(&r, 3000);
        let iova = r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap();
        let interior = iova.add(1234);
        let sref = r.pool.find_shadow(interior).unwrap();
        assert_eq!(sref.os_pa, buf.pa);
        r.pool.release_shadow(&mut c, iova).unwrap();
    }

    #[test]
    fn oversized_buffer_takes_fallback_path() {
        let r = rig_with(PoolConfig::default(), NumaTopology::new(4, 2, 8192));
        let mut c = ctx(0);
        let buf = os_buf(&r, 100_000); // > 64 KB largest class
        let iova = r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap();
        assert!(
            r.pool.codec().decode(iova).is_none(),
            "MSB-clear fallback IOVA"
        );
        assert_eq!(r.pool.stats().fallback_acquires, 1);
        let sref = r.pool.find_shadow(iova).unwrap();
        assert_eq!(sref.os_len, 100_000);
        // Device can use the whole range.
        let data = vec![9u8; 100_000];
        r.mmu.dma_write(&r.mem, DEV, iova, &data).unwrap();
        // Fallback release is strict: unmap + invalidate + frames freed.
        let frames = r.mem.stats().allocated_frames;
        r.pool.release_shadow(&mut c, iova).unwrap();
        assert!(r.mem.stats().allocated_frames < frames);
        assert!(r.mmu.invalq().stats().page_commands > 0);
        assert!(r.mmu.dma_write(&r.mem, DEV, iova, b"x").is_err());
    }

    #[test]
    fn metadata_exhaustion_falls_back() {
        let cfg = PoolConfig {
            codec: IovaCodec::paper_default(),
            max_buffers_per_class: 2,
            magazines: None,
        };
        let r = rig_with(cfg, NumaTopology::new(2, 1, 4096));
        let mut c = ctx(0);
        let buf = os_buf(&r, 1000);
        let mut iovas = Vec::new();
        for _ in 0..4 {
            iovas.push(r.pool.acquire_shadow(&mut c, buf, Perms::Read).unwrap());
        }
        let s = r.pool.stats();
        assert_eq!(s.fallback_acquires, 2, "third+fourth overflow to fallback");
        assert!(r.pool.codec().decode(iovas[3]).is_none());
        // All still resolvable and releasable.
        for iova in iovas {
            assert!(r.pool.find_shadow(iova).is_some());
            r.pool.release_shadow(&mut c, iova).unwrap();
        }
        assert_eq!(r.pool.stats().in_flight, 0);
    }

    #[test]
    fn release_of_unacquired_fails() {
        let r = rig();
        let mut c = ctx(0);
        let bogus = r.pool.codec().encode(CoreId(0), Perms::Read, 0, 7);
        assert!(matches!(
            r.pool.release_shadow(&mut c, bogus),
            Err(DmaError::BadUnmap(_))
        ));
    }

    #[test]
    fn reclaim_frees_memory_and_unmaps() {
        let r = rig();
        let mut c = ctx(0);
        let buf = os_buf(&r, 4000);
        let iovas: Vec<Iova> = (0..8)
            .map(|_| r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap())
            .collect();
        for &i in &iovas {
            r.pool.release_shadow(&mut c, i).unwrap();
        }
        let bytes_before = r.pool.stats().shadow_bytes;
        assert_eq!(bytes_before, 8 * 4096);
        let freed = r.pool.reclaim(&mut c, CoreId(0), 5);
        assert_eq!(freed, 5 * 4096);
        assert_eq!(r.pool.stats().shadow_bytes, 3 * 4096);
        assert_eq!(r.pool.stats().reclaimed, 5);
        // Reclaimed buffers are unmapped; the IOVA of a reclaimed buffer
        // faults.
        assert!(r.mmu.dma_write(&r.mem, DEV, iovas[0], b"x").is_err());
        // The pool still works: new acquires re-grow.
        let iova = r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap();
        assert!(r.pool.find_shadow(iova).is_some());
        r.mmu.dma_write(&r.mem, DEV, iova, b"fresh").unwrap();
    }

    #[test]
    fn shadow_bytes_tracks_footprint() {
        let r = rig();
        let mut c = ctx(0);
        let small = os_buf(&r, 100);
        let large = os_buf(&r, 65536);
        let i1 = r.pool.acquire_shadow(&mut c, small, Perms::Read).unwrap();
        let i2 = r.pool.acquire_shadow(&mut c, large, Perms::Read).unwrap();
        assert_eq!(r.pool.stats().shadow_bytes, 4096 + 65536);
        assert_eq!(r.pool.stats().peak_shadow_bytes, 4096 + 65536);
        r.pool.release_shadow(&mut c, i1).unwrap();
        r.pool.release_shadow(&mut c, i2).unwrap();
        // Releases keep memory (pool retains buffers); only reclaim frees.
        assert_eq!(r.pool.stats().shadow_bytes, 4096 + 65536);
    }

    #[test]
    fn charges_pool_op_costs() {
        let r = rig();
        let mut c = ctx(0);
        let buf = os_buf(&r, 1500);
        // Warm up so the steady-state path is measured.
        let i = r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap();
        r.pool.release_shadow(&mut c, i).unwrap();
        c.reset_stats();
        let i = r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap();
        r.pool.release_shadow(&mut c, i).unwrap();
        let mgmt = c.breakdown.get(Phase::CopyMgmt);
        assert_eq!(mgmt, c.cost.shadow_pool_op * 2);
        // ≈0.02 µs per the paper's Figure 5a.
        let us = mgmt.to_micros(c.cost.clock_ghz);
        assert!((us - 0.02).abs() < 0.005, "{us}");
    }

    #[test]
    fn concurrent_acquire_release_across_real_threads() {
        // Real-thread stress: each thread owns one core id and acquires
        // from its own lists while releasing buffers acquired by others.
        use std::sync::mpsc;
        let r = Arc::new(rig_with(
            PoolConfig::default(),
            NumaTopology::new(4, 2, 16384),
        ));
        let mem = r.mem.clone();
        let mut senders = Vec::new();
        let mut handles = Vec::new();
        let mut receivers = Vec::new();
        for _ in 0..4u16 {
            let (tx, rx) = mpsc::channel::<Iova>();
            senders.push(tx);
            receivers.push(rx);
        }
        for (core, rx) in (0..4u16).zip(receivers) {
            let r = r.clone();
            let mem = mem.clone();
            let next = senders[((core as usize) + 1) % 4].clone();
            handles.push(std::thread::spawn(move || {
                let mut c = CoreCtx::new(CoreId(core), Arc::new(CostModel::zero()));
                let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
                let buf = DmaBuf::new(pfn.base(), 1500);
                for _ in 0..500 {
                    let iova = r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap();
                    assert!(r.pool.find_shadow(iova).is_some());
                    // Hand it to the neighbor core for release; if the
                    // neighbor already exited, release locally.
                    if let Err(e) = next.send(iova) {
                        r.pool.release_shadow(&mut c, e.0).unwrap();
                    }
                    if let Ok(other) = rx.try_recv() {
                        r.pool.release_shadow(&mut c, other).unwrap();
                    }
                }
                // Drain remaining.
                while let Ok(other) = rx.try_recv() {
                    r.pool.release_shadow(&mut c, other).unwrap();
                }
            }));
        }
        drop(senders);
        for h in handles {
            h.join().unwrap();
        }
        // A thread may exit before its neighbor's last sends arrive, so a
        // few buffers can remain in flight; the counts must reconcile.
        let s = r.pool.stats();
        assert_eq!(s.acquires, 2000);
        assert_eq!(s.in_flight, s.acquires - s.releases);
        assert!(s.releases >= 1500, "most buffers released cross-core");
    }

    fn mag_cfg(capacity: usize, refill: usize) -> PoolConfig {
        PoolConfig {
            magazines: Some(MagazineConfig { capacity, refill }),
            ..PoolConfig::default()
        }
    }

    #[test]
    fn magazine_serves_owner_core_reuse_without_the_depot() {
        let r = rig_with(mag_cfg(8, 4), NumaTopology::new(4, 2, 4096));
        let mut c = ctx(0);
        let buf = os_buf(&r, 1500);
        let i1 = r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap();
        r.pool.release_shadow(&mut c, i1).unwrap();
        assert_eq!(r.pool.magazine_len(), 1, "release parked in the magazine");
        let i2 = r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap();
        assert_eq!(i2, i1, "same slot back from the magazine");
        assert_eq!(r.pool.magazine_len(), 0);
        assert_eq!(r.pool.stats().grows, 1, "no second allocation");
        let snap = r.pool.obs().registry().snapshot();
        assert_eq!(snap.counter("pool", "magazine_hits", Some(0)), Some(1));
    }

    #[test]
    fn magazine_overflow_spills_to_the_depot() {
        let r = rig_with(mag_cfg(2, 2), NumaTopology::new(2, 1, 16384));
        let mut c = ctx(0);
        let buf = os_buf(&r, 4000);
        let iovas: Vec<Iova> = (0..4)
            .map(|_| r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap())
            .collect();
        for &i in &iovas {
            r.pool.release_shadow(&mut c, i).unwrap();
        }
        assert_eq!(r.pool.magazine_len(), 2, "capacity bounds the magazine");
        // All four slots still reacquirable (2 magazine, 2 depot) with no
        // new growth.
        let grows = r.pool.stats().grows;
        let again: Vec<Iova> = (0..4)
            .map(|_| r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap())
            .collect();
        assert_eq!(r.pool.stats().grows, grows, "served from cached slots");
        let mut a: Vec<u64> = iovas.iter().map(|i| i.get()).collect();
        let mut b: Vec<u64> = again.iter().map(|i| i.get()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "same four slots recycled");
    }

    #[test]
    fn depot_exhaustion_under_refill_grows_then_falls_back() {
        // Empty depot: the batched refill finds nothing and the grow path
        // runs; once metadata is exhausted the fallback table serves the
        // request — exactly as without magazines.
        let cfg = PoolConfig {
            codec: IovaCodec::paper_default(),
            max_buffers_per_class: 2,
            magazines: Some(MagazineConfig {
                capacity: 8,
                refill: 4,
            }),
        };
        let r = rig_with(cfg, NumaTopology::new(2, 1, 4096));
        let mut c = ctx(0);
        let buf = os_buf(&r, 1000);
        let mut iovas = Vec::new();
        for _ in 0..4 {
            iovas.push(r.pool.acquire_shadow(&mut c, buf, Perms::Read).unwrap());
        }
        let s = r.pool.stats();
        assert_eq!(s.grows, 4, "every empty-magazine miss attempts growth");
        assert_eq!(s.fallback_acquires, 2, "metadata exhaustion falls back");
        for iova in iovas {
            r.pool.release_shadow(&mut c, iova).unwrap();
        }
        assert_eq!(r.pool.stats().in_flight, 0);
    }

    #[test]
    fn cross_core_free_bypasses_the_releasers_magazine() {
        let r = rig_with(mag_cfg(8, 4), NumaTopology::new(4, 2, 4096));
        let mut c0 = ctx(0);
        let mut c3 = ctx(3);
        let buf = os_buf(&r, 256);
        let iova = r.pool.acquire_shadow(&mut c0, buf, Perms::Read).unwrap();
        r.pool.release_shadow(&mut c3, iova).unwrap();
        assert_eq!(
            r.pool.magazine_len(),
            0,
            "cross-core release goes to the owner's depot, not core 3's magazine"
        );
        // Sticky reuse still holds: owner core 0 gets the slot back.
        let iova2 = r.pool.acquire_shadow(&mut c0, buf, Perms::Read).unwrap();
        assert_eq!(iova2, iova);
    }

    #[test]
    fn drain_magazines_returns_every_cached_slot() {
        let r = rig_with(mag_cfg(16, 4), NumaTopology::new(4, 2, 16384));
        let buf = os_buf(&r, 1500);
        for core in 0..4u16 {
            let mut c = ctx(core);
            let ivs: Vec<Iova> = (0..3)
                .map(|_| r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap())
                .collect();
            for &i in &ivs {
                r.pool.release_shadow(&mut c, i).unwrap();
            }
        }
        assert_eq!(r.pool.magazine_len(), 12);
        let mut c = ctx(0);
        assert_eq!(r.pool.drain_magazines(&mut c), 12);
        assert_eq!(r.pool.magazine_len(), 0);
        assert_eq!(r.pool.drain_magazines(&mut c), 0, "idempotent");
        // Every slot is back in its depot list: reclaim can retire all 12.
        let mut freed = 0;
        for core in 0..4u16 {
            freed += r.pool.reclaim(&mut c, CoreId(core), 16);
        }
        assert_eq!(freed, 12 * 4096);
    }

    #[test]
    fn reclaim_reaches_slots_parked_in_magazines() {
        let r = rig_with(mag_cfg(16, 4), NumaTopology::new(2, 1, 16384));
        let mut c = ctx(0);
        let buf = os_buf(&r, 4000);
        let ivs: Vec<Iova> = (0..4)
            .map(|_| r.pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap())
            .collect();
        for &i in &ivs {
            r.pool.release_shadow(&mut c, i).unwrap();
        }
        assert_eq!(r.pool.magazine_len(), 4, "all parked in the magazine");
        // Reclaim drains the magazine into the list before retiring.
        let freed = r.pool.reclaim(&mut c, CoreId(0), 16);
        assert_eq!(freed, 4 * 4096);
        assert_eq!(r.pool.magazine_len(), 0);
    }

    #[test]
    fn stats_are_a_view_over_the_registry() {
        let obs = Obs::isolated();
        let mem = Arc::new(PhysMemory::new(NumaTopology::new(4, 2, 4096)));
        let mmu = Arc::new(Iommu::with_obs(obs.clone()));
        let pool = ShadowPool::with_obs(mem.clone(), mmu, DEV, PoolConfig::default(), obs.clone());
        let mut c = ctx(0);
        let pages = 1u64;
        let pfn = mem.alloc_frames(NumaDomain(0), pages).unwrap();
        let buf = DmaBuf::new(pfn.base(), 1500);
        let iova = pool.acquire_shadow(&mut c, buf, Perms::Write).unwrap();
        let snap = obs.registry().snapshot();
        let s = pool.stats();
        assert_eq!(snap.counter("pool", "acquires", Some(0)), Some(s.acquires));
        assert_eq!(snap.counter("pool", "grows", Some(0)), Some(s.grows));
        assert_eq!(
            snap.gauge("pool", "in_flight", Some(0)),
            Some(s.in_flight as i64)
        );
        assert_eq!(
            snap.gauge("pool", "shadow_bytes", Some(0)),
            Some(s.shadow_bytes as i64)
        );
        pool.release_shadow(&mut c, iova).unwrap();
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("pool", "releases", Some(0)), Some(1));
        assert_eq!(snap.gauge("pool", "in_flight", Some(0)), Some(0));
    }

    #[test]
    fn pool_lifecycle_events_are_traced() {
        let obs = Obs::isolated();
        let mem = Arc::new(PhysMemory::new(NumaTopology::new(4, 2, 8192)));
        let mmu = Arc::new(Iommu::with_obs(obs.clone()));
        let pool = ShadowPool::with_obs(mem.clone(), mmu, DEV, PoolConfig::default(), obs.clone());
        let mut c = ctx(0);
        let mk_buf = |len: usize| {
            let pages = (len as u64).div_ceil(PAGE_SIZE as u64);
            let pfn = mem.alloc_frames(NumaDomain(0), pages).unwrap();
            DmaBuf::new(pfn.base(), len)
        };
        // Grow (classed), fallback (oversized), reclaim (shrink).
        let i1 = pool
            .acquire_shadow(&mut c, mk_buf(1500), Perms::Write)
            .unwrap();
        let i2 = pool
            .acquire_shadow(&mut c, mk_buf(100_000), Perms::Write)
            .unwrap();
        pool.release_shadow(&mut c, i1).unwrap();
        pool.release_shadow(&mut c, i2).unwrap();
        pool.reclaim(&mut c, CoreId(0), 8);
        let names: Vec<&str> = obs
            .tracer()
            .events()
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert!(names.contains(&"PoolGrow"), "{names:?}");
        assert!(names.contains(&"FallbackAcquire"), "{names:?}");
        assert!(names.contains(&"PoolShrink"), "{names:?}");
        // Fallback release + reclaim both strictly invalidate.
        assert!(names.contains(&"IotlbInvalidate"), "{names:?}");
    }
}
