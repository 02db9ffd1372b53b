//! IOVA (I/O virtual address) allocators for the zero-copy engines.
//!
//! Stock Linux allocates IOVAs from a global red-black tree protected by a
//! single lock; the long tree walks and the lock are the bottleneck EiovaR
//! (FAST'15 \[38\]) identified. Peleg et al. (ATC'15 \[42\]) replaced it with
//! per-core magazine caches. All three are modeled here, sharing the
//! run-based interval bookkeeping.

use crate::DmaError;
use iommu::IovaPage;
use obs::{Counter, Obs};
use simcore::sync::Mutex;
use simcore::{CoreCtx, Phase, SimLock};
use std::collections::BTreeMap;

/// The page range allocators hand out from: `[1, 2^35)` IOVA pages — the
/// half of the 48-bit IOVA space with the MSB clear. The MSB-set half is
/// reserved for shadow-buffer metadata encodings (§5.3, Figure 2), so
/// zero-copy mappings and shadow mappings can coexist on one device. Page 0
/// is never allocated so that IOVA 0 can serve as a null value.
const IOVA_PAGE_LO: u64 = 1;
const IOVA_PAGE_HI: u64 = 1 << 35;

/// An IOVA range allocator.
pub trait IovaAllocator {
    /// Allocates `n` consecutive IOVA pages, charging allocation costs to
    /// `ctx`.
    fn alloc(&self, ctx: &mut CoreCtx, n: u64) -> Result<IovaPage, DmaError>;
    /// Returns `n` consecutive IOVA pages starting at `page`.
    fn free(&self, ctx: &mut CoreCtx, page: IovaPage, n: u64);
    /// The allocator's contention-visible lock, if it has one: its name
    /// and a statistics snapshot. The scaling sweep uses this to break
    /// `Phase::Spinlock` down by lock.
    fn lock_stats(&self) -> Option<(&'static str, simcore::LockStats)> {
        None
    }
    /// Returns any ranges cached outside the shared structure (per-core
    /// magazines) to it; the teardown/idle path. Returns the number of
    /// ranges drained; allocators without caches drain nothing.
    fn drain(&self, _ctx: &mut CoreCtx) -> usize {
        0
    }
}

#[derive(Debug)]
struct Runs {
    /// start page -> run length, coalesced.
    map: BTreeMap<u64, u64>,
}

impl Runs {
    fn full() -> Self {
        let mut map = BTreeMap::new();
        map.insert(IOVA_PAGE_LO, IOVA_PAGE_HI - IOVA_PAGE_LO);
        Runs { map }
    }

    fn alloc(&mut self, n: u64) -> Option<u64> {
        let (&start, &len) = self.map.iter().find(|(_, &len)| len >= n)?;
        self.map.remove(&start);
        if len > n {
            self.map.insert(start + n, len - n);
        }
        Some(start)
    }

    fn free(&mut self, start: u64, n: u64) {
        let end = start + n;
        let mut new_start = start;
        let mut new_len = n;
        if let Some((&ps, &pl)) = self.map.range(..=start).next_back() {
            assert!(ps + pl <= start, "double free of IOVA range");
            if ps + pl == start {
                self.map.remove(&ps);
                new_start = ps;
                new_len += pl;
            }
        }
        if let Some((&ss, &sl)) = self.map.range(start..).next() {
            assert!(ss >= end, "freed IOVA range overlaps a free run");
            if ss == end {
                self.map.remove(&ss);
                new_len += sl;
            }
        }
        self.map.insert(new_start, new_len);
    }
}

/// The global-lock IOVA allocator: one interval tree, one lock — stock
/// Linux, or EiovaR (FAST'15 \[38\]) when built with the free-range cache.
///
/// Every `alloc_iova`/`free_iova` takes the lock; at 16 cores it
/// serializes and throughput collapses (Figure 1's *strict*/*defer*
/// curves). Stock Linux also pays a long tree walk under it each time.
/// EiovaR's cache exploits the ring-buffer allocation pattern of NIC
/// drivers — repeated same-size alloc/free cycles hit the cache and skip
/// the walk — but the single lock remains, so multi-core contention
/// persists (which is why \[42\] went per-core).
#[derive(Debug)]
pub struct GlobalTreeIovaAllocator {
    lock: SimLock,
    runs: Mutex<Runs>,
    /// EiovaR only: size (pages) -> cached range starts, shared by all
    /// cores.
    cache: Option<Mutex<BTreeMap<u64, Vec<u64>>>>,
    obs: Obs,
    allocs: Counter,
    frees: Counter,
}

impl GlobalTreeIovaAllocator {
    /// Creates the stock allocator over the full zero-copy IOVA range.
    pub fn new() -> Self {
        Self::with_obs(Obs::isolated())
    }

    /// Creates the stock allocator reporting into `obs` (`iova.tree_*`
    /// metrics, `LockContention` events on contended lock acquisitions).
    pub fn with_obs(obs: Obs) -> Self {
        // `let lock = SimLock::new("…")`: the shape the lint's static lock
        // inventory reads a lock's name and binder from.
        let lock = SimLock::new("linux-iova-rbtree");
        Self::build(lock, None, ["tree_allocs", "tree_frees"], obs)
    }

    /// Creates EiovaR's allocator — the same tree behind a free-range
    /// cache — reporting into `obs` (`iova.cached_*`).
    pub fn cached_with_obs(obs: Obs) -> Self {
        let lock = SimLock::new("eiovar-iova-cache");
        let cache = Some(Mutex::default());
        Self::build(lock, cache, ["cached_allocs", "cached_frees"], obs)
    }

    fn build(
        lock: SimLock,
        cache: Option<Mutex<BTreeMap<u64, Vec<u64>>>>,
        [allocs, frees]: [&'static str; 2],
        obs: Obs,
    ) -> Self {
        GlobalTreeIovaAllocator {
            lock,
            runs: Mutex::new(Runs::full()),
            cache,
            allocs: obs.counter("iova", allocs, None),
            frees: obs.counter("iova", frees, None),
            obs,
        }
    }
}

impl Default for GlobalTreeIovaAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl IovaAllocator for GlobalTreeIovaAllocator {
    fn alloc(&self, ctx: &mut CoreCtx, n: u64) -> Result<IovaPage, DmaError> {
        assert!(n > 0);
        let (r, spin) = self.lock.with_spin(ctx, |ctx| {
            let hit = self
                .cache
                .as_ref()
                .and_then(|c| c.lock().get_mut(&n).and_then(|v| v.pop()));
            if let Some(start) = hit {
                // Cache hit: cheap, like a magazine op.
                ctx.charge(Phase::IommuPageTableMgmt, ctx.cost.iova_magazine_alloc);
                return Ok(IovaPage(start));
            }
            ctx.charge(Phase::IommuPageTableMgmt, ctx.cost.iova_tree_alloc);
            self.runs
                .lock()
                .alloc(n)
                .map(IovaPage)
                .ok_or(DmaError::IovaExhausted)
        });
        self.allocs.inc();
        self.obs.trace_contention(ctx, None, &self.lock, spin);
        r
    }

    fn free(&self, ctx: &mut CoreCtx, page: IovaPage, n: u64) {
        let ((), spin) = self.lock.with_spin(ctx, |ctx| match &self.cache {
            // Frees go to the cache, matching EiovaR's observation that the
            // ring pattern re-allocates the same sizes immediately.
            Some(cache) => {
                ctx.charge(Phase::IommuPageTableMgmt, ctx.cost.iova_magazine_free);
                cache.lock().entry(n).or_default().push(page.0);
            }
            None => {
                ctx.charge(Phase::IommuPageTableMgmt, ctx.cost.iova_tree_free);
                self.runs.lock().free(page.0, n);
            }
        });
        self.frees.inc();
        self.obs.trace_contention(ctx, None, &self.lock, spin);
    }

    fn lock_stats(&self) -> Option<(&'static str, simcore::LockStats)> {
        Some((self.lock.name(), self.lock.stats()))
    }
}

/// How many freed ranges a per-core magazine holds per size before spilling
/// to the shared tree, and how many it grabs on refill.
///
/// The capacity must take a whole deferred batch home: a per-core pending
/// list retires `DeferPolicy::linux_default().batch` = 250 ranges in one
/// drain, all freed to the draining core, which allocated them through
/// ⌈250 / 32⌉ = 8 refills (256 ranges). At 256 the drain fits and the next
/// 250 maps are served from it, so the steady state never touches the
/// shared lock; at 128 every drain spills and every batch refills again,
/// all cores in lock-step on `scalable-iova-shared` (`--bench scaling`,
/// percore *defer* at 256 cores: 1.25 G spin cycles, 2.25 µs spin per
/// packet and 66 % CPU at 128, against 0.21 G, 0.05 µs and 20 % at 256).
/// Linux sizes the same pair the same way: two 128-entry rcache magazines
/// per CPU behind a 256-entry flush queue.
const MAGAZINE_CAP: usize = 256;
const MAGAZINE_REFILL: usize = 32;

/// Lockset label of the shared tree the magazines refill from.
const SHARED_POOL: &str = "iova.shared_pool";

/// The scalable per-core ("magazine") IOVA allocator of ATC'15 \[42\]:
/// each core caches freed ranges locally and only touches the shared tree
/// (under its lock) to refill or spill. EiovaR's free-range cache held per
/// core is this same structure, so per-core configurations hand it to
/// *eiovar±* as well as to *strict*/*defer*.
#[derive(Debug)]
pub struct PerCoreIovaAllocator {
    shared_lock: SimLock,
    shared: Mutex<Runs>,
    /// magazines[core] maps range-size -> cached range starts.
    magazines: Vec<Mutex<BTreeMap<u64, Vec<u64>>>>,
    obs: Obs,
    allocs: Counter,
    frees: Counter,
    refills: Counter,
    spills: Counter,
}

impl PerCoreIovaAllocator {
    /// Creates the allocator with one magazine per core.
    pub fn new(cores: usize) -> Self {
        Self::with_obs(cores, Obs::isolated())
    }

    /// Creates the allocator reporting into `obs` (`iova.magazine_*`
    /// metrics, dmasan lockset events on the shared pool, `LockContention`
    /// events on contended shared-lock acquisitions).
    pub fn with_obs(cores: usize, obs: Obs) -> Self {
        assert!(cores > 0);
        PerCoreIovaAllocator {
            shared_lock: SimLock::new("scalable-iova-shared"),
            shared: Mutex::new(Runs::full()),
            magazines: (0..cores).map(|_| Mutex::new(BTreeMap::new())).collect(),
            allocs: obs.counter("iova", "magazine_allocs", None),
            frees: obs.counter("iova", "magazine_frees", None),
            refills: obs.counter("iova", "magazine_refills", None),
            spills: obs.counter("iova", "magazine_spills", None),
            obs,
        }
    }

    fn magazine(&self, ctx: &CoreCtx) -> &Mutex<BTreeMap<u64, Vec<u64>>> {
        &self.magazines[ctx.core.index() % self.magazines.len()]
    }
}

impl IovaAllocator for PerCoreIovaAllocator {
    fn alloc(&self, ctx: &mut CoreCtx, n: u64) -> Result<IovaPage, DmaError> {
        assert!(n > 0);
        ctx.charge(Phase::IommuPageTableMgmt, ctx.cost.iova_magazine_alloc);
        self.allocs.inc();
        if let Some(start) = self.magazine(ctx).lock().get_mut(&n).and_then(|v| v.pop()) {
            return Ok(IovaPage(start));
        }
        self.refills.inc();
        // Refill from the shared tree.
        let (refill, spin) = self.obs.locked(ctx, &self.shared_lock, SHARED_POOL, |ctx| {
            ctx.charge(Phase::IommuPageTableMgmt, ctx.cost.iova_tree_alloc);
            let mut shared = self.shared.lock();
            let mut got = Vec::with_capacity(MAGAZINE_REFILL);
            for _ in 0..MAGAZINE_REFILL {
                match shared.alloc(n) {
                    Some(s) => got.push(s),
                    None => break,
                }
            }
            got
        });
        self.obs
            .trace_contention(ctx, None, &self.shared_lock, spin);
        if refill.is_empty() {
            return Err(DmaError::IovaExhausted);
        }
        let mut mag = self.magazine(ctx).lock();
        let slot = mag.entry(n).or_default();
        slot.extend(&refill[1..]);
        Ok(IovaPage(refill[0]))
    }

    fn free(&self, ctx: &mut CoreCtx, page: IovaPage, n: u64) {
        ctx.charge(Phase::IommuPageTableMgmt, ctx.cost.iova_magazine_free);
        self.frees.inc();
        let spill: Option<Vec<u64>> = {
            let mut mag = self.magazine(ctx).lock();
            let slot = mag.entry(n).or_default();
            slot.push(page.0);
            if slot.len() > MAGAZINE_CAP {
                Some(slot.split_off(MAGAZINE_CAP / 2))
            } else {
                None
            }
        };
        if let Some(spill) = spill {
            self.spills.inc();
            let ((), spin) = self.obs.locked(ctx, &self.shared_lock, SHARED_POOL, |ctx| {
                ctx.charge(Phase::IommuPageTableMgmt, ctx.cost.iova_tree_free);
                let mut shared = self.shared.lock();
                for s in spill {
                    shared.free(s, n);
                }
            });
            self.obs
                .trace_contention(ctx, None, &self.shared_lock, spin);
        }
    }

    fn lock_stats(&self) -> Option<(&'static str, simcore::LockStats)> {
        Some((self.shared_lock.name(), self.shared_lock.stats()))
    }

    /// Returns every range cached in **every** core's magazine to the
    /// shared pool under one shared-lock hold. Teardown runs once, on one
    /// core: ranges left in the other cores' magazines would stay checked
    /// out of the global structure after the allocator's owner is dropped.
    fn drain(&self, ctx: &mut CoreCtx) -> usize {
        let cached: Vec<(u64, Vec<u64>)> = self
            .magazines
            .iter()
            .flat_map(|mag| std::mem::take(&mut *mag.lock()))
            .collect();
        let drained: usize = cached.iter().map(|(_, v)| v.len()).sum();
        if drained == 0 {
            return 0;
        }
        let ((), spin) = self.obs.locked(ctx, &self.shared_lock, SHARED_POOL, |ctx| {
            ctx.charge(Phase::IommuPageTableMgmt, ctx.cost.iova_tree_free);
            let mut shared = self.shared.lock();
            for (n, starts) in cached {
                for s in starts {
                    shared.free(s, n);
                }
            }
        });
        self.obs
            .trace_contention(ctx, None, &self.shared_lock, spin);
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::EventKind;
    use simcore::{CoreId, CostModel, Cycles};
    use std::sync::Arc;

    fn ctx(core: u16) -> CoreCtx {
        CoreCtx::new(CoreId(core), Arc::new(CostModel::haswell_2_4ghz()))
    }

    #[test]
    fn tree_alloc_unique_and_reusable() {
        let a = GlobalTreeIovaAllocator::new();
        let mut c = ctx(0);
        let p1 = a.alloc(&mut c, 1).unwrap();
        let p2 = a.alloc(&mut c, 1).unwrap();
        assert_ne!(p1, p2);
        a.free(&mut c, p1, 1);
        let p3 = a.alloc(&mut c, 1).unwrap();
        assert_eq!(p3, p1, "freed range is reused");
    }

    #[test]
    fn tree_alloc_ranges_do_not_overlap() {
        let a = GlobalTreeIovaAllocator::new();
        let mut c = ctx(0);
        let mut got: Vec<(u64, u64)> = Vec::new();
        for n in [1u64, 16, 2, 7, 16, 1] {
            let p = a.alloc(&mut c, n).unwrap();
            got.push((p.0, n));
        }
        got.sort();
        for w in got.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0);
        }
    }

    #[test]
    fn tree_never_hands_out_page_zero_or_msb_half() {
        let a = GlobalTreeIovaAllocator::new();
        let mut c = ctx(0);
        for _ in 0..100 {
            let p = a.alloc(&mut c, 3).unwrap();
            assert!(p.0 >= 1);
            assert!(p.0 + 3 <= IOVA_PAGE_HI);
        }
    }

    #[test]
    fn tree_charges_cost_under_lock() {
        let a = GlobalTreeIovaAllocator::new();
        let mut c = ctx(0);
        a.alloc(&mut c, 1).unwrap();
        assert!(c.breakdown.get(Phase::IommuPageTableMgmt) >= c.cost.iova_tree_alloc);
        assert_eq!(a.lock.stats().acquisitions, 1);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn tree_double_free_panics() {
        let a = GlobalTreeIovaAllocator::new();
        let mut c = ctx(0);
        let p = a.alloc(&mut c, 4).unwrap();
        a.free(&mut c, p, 4);
        a.free(&mut c, p, 4);
    }

    #[test]
    fn magazine_hits_avoid_shared_lock() {
        let a = PerCoreIovaAllocator::new(2);
        let mut c = ctx(0);
        // First alloc refills the magazine (1 shared-lock hit)...
        let p = a.alloc(&mut c, 1).unwrap();
        let before = a.shared_lock.stats().acquisitions;
        // ...then free/alloc cycles run entirely core-locally.
        for _ in 0..100 {
            a.free(&mut c, p, 1);
            let q = a.alloc(&mut c, 1).unwrap();
            assert_eq!(q, p);
        }
        assert_eq!(a.shared_lock.stats().acquisitions, before);
    }

    #[test]
    fn magazine_ranges_unique_across_cores() {
        let a = PerCoreIovaAllocator::new(4);
        let mut seen = std::collections::HashSet::new();
        for core in 0..4u16 {
            let mut c = ctx(core);
            for _ in 0..200 {
                let p = a.alloc(&mut c, 1).unwrap();
                assert!(seen.insert(p.0), "duplicate IOVA {p}");
            }
        }
    }

    #[test]
    fn magazine_spills_when_overfull() {
        let a = PerCoreIovaAllocator::new(1);
        let mut c = ctx(0);
        let pages: Vec<_> = (0..(MAGAZINE_CAP + 8))
            .map(|_| a.alloc(&mut c, 1).unwrap())
            .collect();
        for p in pages {
            a.free(&mut c, p, 1);
        }
        // The spill path returned excess ranges to the shared pool and the
        // allocator still works.
        assert!(a.alloc(&mut c, 1).is_ok());
    }

    #[test]
    fn magazine_takes_a_whole_deferred_batch_home() {
        // The shape a per-core pending list gives the allocator: a batch
        // of maps, then one drain freeing the whole batch to this core.
        // Once the first cycle has pulled the ranges in, neither half may
        // touch the shared lock — no spill on the drain, no refill after.
        let batch = crate::DeferPolicy::linux_default().batch;
        let a = PerCoreIovaAllocator::new(2);
        let mut c = ctx(0);
        let mut cycle = || {
            let pages: Vec<_> = (0..batch).map(|_| a.alloc(&mut c, 1).unwrap()).collect();
            for p in pages {
                a.free(&mut c, p, 1);
            }
            a.shared_lock.stats().acquisitions
        };
        let warm = cycle();
        for _ in 0..3 {
            assert_eq!(cycle(), warm, "a steady-state batch took the shared lock");
        }
    }

    #[test]
    fn magazine_is_cheaper_than_tree_in_steady_state() {
        let tree = GlobalTreeIovaAllocator::new();
        let mag = PerCoreIovaAllocator::new(1);
        let mut ct = ctx(0);
        let mut cm = ctx(0);
        // Warm the magazine.
        let p = mag.alloc(&mut cm, 1).unwrap();
        mag.free(&mut cm, p, 1);
        cm.reset_stats();
        ct.reset_stats();
        for _ in 0..100 {
            let p = tree.alloc(&mut ct, 1).unwrap();
            tree.free(&mut ct, p, 1);
            let q = mag.alloc(&mut cm, 1).unwrap();
            mag.free(&mut cm, q, 1);
        }
        assert!(
            cm.busy() * 3 < ct.busy(),
            "magazine {} vs tree {}",
            cm.busy(),
            ct.busy()
        );
    }

    fn zero_ctx(core: u16) -> CoreCtx {
        CoreCtx::new(CoreId(core), Arc::new(CostModel::zero()))
    }

    #[test]
    fn contention_event_attributed_to_the_spinning_acquisition_only() {
        // Two-thread attribution regression: core 1 spins behind core 0's
        // critical section, core 2 then acquires uncontended. Exactly one
        // LockContention event must appear — core 1's, carrying its own
        // spin — even though the lock's global total_spin counter is
        // nonzero when core 2 reads it (the old code diffed that counter
        // and could blame core 2).
        let obs = Obs::isolated();
        let a = GlobalTreeIovaAllocator::with_obs(obs.clone());

        // Core 0 holds the allocator lock for cycles [0, 10_000).
        let mut c0 = zero_ctx(0);
        a.lock.lock(&mut c0);
        c0.charge(Phase::Other, Cycles(10_000));
        a.lock.unlock(&mut c0);

        // Core 1 arrives at t=0 and spins the full 10_000 cycles.
        let mut c1 = zero_ctx(1);
        a.alloc(&mut c1, 1).unwrap();

        // Core 2 arrives long after the lock is free: no spin, no event.
        let mut c2 = zero_ctx(2);
        c2.seek(Cycles(50_000));
        a.alloc(&mut c2, 1).unwrap();

        let spins: Vec<(u16, u64)> = obs
            .tracer()
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::LockContention { spin_cycles, .. } => Some((e.core, *spin_cycles)),
                _ => None,
            })
            .collect();
        assert_eq!(spins, vec![(1, 10_000)], "one event, core 1's own spin");
    }

    #[test]
    fn magazine_drain_returns_every_cores_cached_ranges_to_shared_pool() {
        // Teardown calls `drain` once, on core 0; ranges parked on the
        // other cores must go home with it.
        let a = PerCoreIovaAllocator::new(4);
        for core in 1..4u16 {
            // Populate the magazine: the refill pulls MAGAZINE_REFILL ranges.
            let mut c = ctx(core);
            let p = a.alloc(&mut c, 1).unwrap();
            a.free(&mut c, p, 1);
        }
        let mut c0 = ctx(0);
        let before = a.shared_lock.stats().acquisitions;
        assert_eq!(
            a.drain(&mut c0),
            3 * MAGAZINE_REFILL,
            "refill batches went home"
        );
        let after = a.shared_lock.stats().acquisitions;
        assert_eq!(after, before + 1, "one shared-lock hold for all magazines");
        // Empty magazines drain to nothing (and take no shared lock).
        assert_eq!(a.drain(&mut c0), 0);
        assert_eq!(a.shared_lock.stats().acquisitions, after);
        // After a full drain the shared pool is whole again: a fresh
        // same-size alloc starts from the lowest page, as on a new
        // allocator.
        let fresh = PerCoreIovaAllocator::new(4);
        assert_eq!(
            a.alloc(&mut c0, 1).unwrap(),
            fresh.alloc(&mut ctx(0), 1).unwrap()
        );
    }
}
