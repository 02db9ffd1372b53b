//! The invalidation queue: how the OS invalidates the IOTLB.
//!
//! The OS posts invalidation descriptors into a cyclic buffer and busy-waits
//! on a wait descriptor until the hardware completes them (§2.1). Two costs
//! make this the bottleneck of strict zero-copy protection:
//!
//! 1. The hardware is slow: ≈2000 cycles per invalidation \[37\], growing
//!    under multi-core load (Figure 8 shows ≈2.7 µs at 16 cores).
//! 2. The queue is protected by a single lock, so concurrent invalidations
//!    serialize (§2.2.1) — modeled with a [`SimLock`].
//!
//! The second cost is the OS's, not the hardware's: scalable-mode VT-d and
//! the SMMU give each core its own command queue with an independent tail
//! and wait descriptor. [`InvalQueue::with_queues`] models that — a strict
//! unmap then waits only on its own queue, and still returns with the
//! IOTLB entry gone. The first cost stays: every command pays the full
//! hardware wait.

use crate::{DeviceId, Iotlb, IovaPage};
use obs::{Counter, EventKind, Obs};
use simcore::sync::Mutex;
use simcore::{CoreCtx, Cycles, LockStats, Phase, SimLock};

/// Invalidation-queue statistics.
///
/// A thin view over the unified metric registry: the authoritative
/// counts live in `obs` as `invalq.page_commands` / `invalq.flush_commands`
/// / `invalq.waits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InvalQueueStats {
    /// Page-selective invalidation commands posted.
    pub page_commands: u64,
    /// Domain/global flush commands posted.
    pub flush_commands: u64,
    /// Wait descriptors completed (one per synchronous operation).
    pub waits: u64,
}

/// The name every invalidation queue's lock carries (in `LockContention`
/// events and at model-checker yield points).
pub const INVALQ_LOCK: &str = "iommu-invalidation-queue";

/// The IOMMU's invalidation queues: one (the paper's §2.2.1 machine) or
/// one per core.
#[derive(Debug)]
pub struct InvalQueue {
    /// One lock per hardware queue. Page invalidations post to the calling
    /// core's queue (`core % N`); domain-selective flushes post to queue 0.
    queues: Vec<SimLock>,
    obs: Obs,
    page_commands: Counter,
    flush_commands: Counter,
    waits: Counter,
}

impl Default for InvalQueue {
    fn default() -> Self {
        InvalQueue::new()
    }
}

impl InvalQueue {
    /// Creates the single queue with a private, isolated telemetry handle.
    pub fn new() -> Self {
        InvalQueue::with_obs(Obs::isolated())
    }

    /// Creates the single queue reporting into a shared telemetry handle.
    pub fn with_obs(obs: Obs) -> Self {
        InvalQueue::with_queues(obs, 1)
    }

    /// Creates `n` (at least one) hardware queues, each behind its own
    /// lock, reporting into a shared telemetry handle. Core `c` posts its
    /// page invalidations to queue `c % n`, so with one queue per core a
    /// strict unmap never waits on another core's invalidation.
    pub fn with_queues(obs: Obs, n: usize) -> Self {
        InvalQueue {
            queues: (0..n.max(1)).map(|_| SimLock::new(INVALQ_LOCK)).collect(),
            page_commands: obs.counter("invalq", "page_commands", None),
            flush_commands: obs.counter("invalq", "flush_commands", None),
            waits: obs.counter("invalq", "waits", None),
            obs,
        }
    }

    /// Queue 0's lock — the only one on the default machine, and the one
    /// every domain-selective flush takes (exposed for contention
    /// statistics; [`InvalQueue::lock_stats`] sums all queues).
    pub fn lock(&self) -> &SimLock {
        &self.queues[0]
    }

    /// Contention statistics summed over every queue's lock.
    pub fn lock_stats(&self) -> LockStats {
        let mut sum = LockStats::default();
        for s in self.queues.iter().map(SimLock::stats) {
            sum.acquisitions += s.acquisitions;
            sum.contended += s.contended;
            sum.total_spin += s.total_spin;
            sum.total_held += s.total_held;
        }
        sum
    }

    /// Synchronously invalidates one IOVA page: takes the queue lock, posts
    /// a page-selective invalidation plus a wait descriptor, and busy-waits
    /// for completion. This is what strict protection pays on **every**
    /// `dma_unmap`.
    pub fn invalidate_page_sync(
        &self,
        ctx: &mut CoreCtx,
        iotlb: &Mutex<Iotlb>,
        dev: DeviceId,
        page: IovaPage,
    ) {
        self.invalidate_pages_sync(ctx, iotlb, dev, std::slice::from_ref(&page));
    }

    /// Synchronously invalidates several IOVA pages under one acquisition
    /// of the calling core's queue lock (e.g. a multi-page buffer or a
    /// scatter/gather unmap). When this returns, no IOTLB entry for
    /// `pages` remains.
    ///
    /// Like real VT-d page-selective invalidation descriptors, one command
    /// covers a *contiguous* page range (via the address-mask field), so a
    /// 16-page TSO buffer costs one posted command and one completion wait,
    /// while scattered pages cost one each.
    ///
    /// Takes the IOTLB *by its host lock*, acquired only inside the queue's
    /// critical section — the instrumented `LockAcquire` (a model-checker
    /// preemption point) therefore fires while no host lock is held.
    pub fn invalidate_pages_sync(
        &self,
        ctx: &mut CoreCtx,
        iotlb: &Mutex<Iotlb>,
        dev: DeviceId,
        pages: &[IovaPage],
    ) {
        let mut rest = pages;
        let runs = std::iter::from_fn(move || {
            let (&first, _) = rest.split_first()?;
            // Extend over the contiguous run starting at `first`.
            let len = 1 + rest
                .windows(2)
                .take_while(|w| w[1].get() == w[0].get() + 1)
                .count();
            rest = &rest[len..];
            Some((first, len as u64))
        });
        self.invalidate_runs_sync(ctx, iotlb, dev, pages.len() as u64, runs);
    }

    /// Synchronously invalidates the `n` consecutive pages from `page`:
    /// [`InvalQueue::invalidate_pages_sync`] on one contiguous run, with
    /// no list of its pages.
    pub fn invalidate_range_sync(
        &self,
        ctx: &mut CoreCtx,
        iotlb: &Mutex<Iotlb>,
        dev: DeviceId,
        page: IovaPage,
        n: u64,
    ) {
        self.invalidate_runs_sync(ctx, iotlb, dev, n, std::iter::once((page, n)));
    }

    /// Posts one page-selective command per contiguous `(first, len)` run
    /// of `runs` (`pages` in all) and one wait descriptor, under one
    /// acquisition of the calling core's queue lock.
    fn invalidate_runs_sync(
        &self,
        ctx: &mut CoreCtx,
        iotlb: &Mutex<Iotlb>,
        dev: DeviceId,
        pages: u64,
        runs: impl Iterator<Item = (IovaPage, u64)>,
    ) {
        if pages == 0 {
            return;
        }
        let lock = &self.queues[ctx.core.0 as usize % self.queues.len()];
        obs::profile::scope(ctx, "invalq_drain", |ctx| {
            let active = ctx.active_cores;
            let wait_start = ctx.breakdown().get(Phase::InvalidateIotlb);
            let ((), spin) = self.obs.locked(ctx, lock, |ctx| {
                let mut iotlb = iotlb.lock();
                for (first, len) in runs {
                    ctx.charge(Phase::InvalidateIotlb, ctx.cost.inval_queue_post);
                    for i in 0..len {
                        iotlb.invalidate_page(dev, first.add(i));
                    }
                    self.page_commands.inc();
                    ctx.charge(Phase::InvalidateIotlb, ctx.cost.inval_wait(active));
                }
                // Exactly one wait descriptor completes per synchronous
                // operation, regardless of how many range commands it posted.
                self.waits.inc();
            });
            self.trace_op(ctx, dev, lock, pages, wait_start, spin);
        });
    }

    /// Emits the `IotlbInvalidate` (and, if `lock` — the queue the op
    /// posted to — spun, the `LockContention`) trace events for one
    /// completed sync op.
    fn trace_op(
        &self,
        ctx: &mut CoreCtx,
        dev: DeviceId,
        lock: &SimLock,
        pages: u64,
        wait_start: Cycles,
        spin: Cycles,
    ) {
        self.obs.set_now_hint(ctx.now());
        let wait_cycles = ctx
            .breakdown()
            .get(Phase::InvalidateIotlb)
            .saturating_sub(wait_start);
        self.obs.trace(
            ctx.now(),
            ctx.core.0,
            Some(dev.0),
            EventKind::IotlbInvalidate {
                pages,
                wait_cycles: wait_cycles.0,
            },
        );
        self.obs.trace_contention(ctx, Some(dev.0), lock, spin);
    }

    /// Synchronously flushes every cached translation of `dev` with a
    /// single domain-selective flush command. This is what deferred
    /// protection pays once per drained batch (§2.2.1: every 250 unmaps or
    /// 10 ms). Whichever core calls, the command posts to queue 0: the
    /// deferred engines keep their one flush lock.
    pub fn flush_device_sync(&self, ctx: &mut CoreCtx, iotlb: &Mutex<Iotlb>, dev: DeviceId) {
        let lock = self.lock();
        obs::profile::scope(ctx, "invalq_flush", |ctx| {
            let wait_start = ctx.breakdown().get(Phase::InvalidateIotlb);
            let ((), spin) = self.obs.locked(ctx, lock, |ctx| {
                ctx.charge(Phase::InvalidateIotlb, ctx.cost.inval_queue_post);
                iotlb.lock().invalidate_device(dev);
                self.flush_commands.inc();
                ctx.charge(Phase::InvalidateIotlb, ctx.cost.global_iotlb_flush);
                self.waits.inc();
            });
            // pages = 0 marks a full device flush.
            self.trace_op(ctx, dev, lock, 0, wait_start, spin);
        });
    }

    /// Statistics snapshot (thin view over the registry counters).
    pub fn stats(&self) -> InvalQueueStats {
        InvalQueueStats {
            page_commands: self.page_commands.get(),
            flush_commands: self.flush_commands.get(),
            waits: self.waits.get(),
        }
    }

    /// Clears statistics (every queue's lock contention stats included).
    pub fn reset_stats(&self) {
        self.page_commands.reset();
        self.flush_commands.reset();
        self.waits.reset();
        for lock in &self.queues {
            lock.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Perms, PtEntry};
    use memsim::Pfn;
    use simcore::{CoreId, CostModel, Cycles};
    use std::sync::Arc;

    const DEV: DeviceId = DeviceId(0);

    fn ctx() -> CoreCtx {
        ctx_on(0)
    }

    fn ctx_on(core: u16) -> CoreCtx {
        CoreCtx::new(CoreId(core), Arc::new(CostModel::haswell_2_4ghz()))
    }

    fn entry() -> PtEntry {
        PtEntry {
            pfn: Pfn(1),
            perms: Perms::ReadWrite,
        }
    }

    #[test]
    fn sync_invalidation_removes_entry_and_charges_wait() {
        let q = InvalQueue::new();
        let tlb = Mutex::new(Iotlb::new(8));
        let mut c = ctx();
        tlb.lock().insert(DEV, IovaPage(3), entry());
        q.invalidate_page_sync(&mut c, &tlb, DEV, IovaPage(3));
        assert!(!tlb.lock().contains(DEV, IovaPage(3)));
        // Cost at least the hardware wait (plus post + lock).
        assert!(c.breakdown().get(Phase::InvalidateIotlb) >= c.cost.iotlb_inval_wait);
        assert_eq!(q.stats().page_commands, 1);
        assert_eq!(q.stats().waits, 1);
    }

    #[test]
    fn wait_scales_with_active_cores() {
        let run = |cores: usize| {
            let q = InvalQueue::new();
            let tlb = Mutex::new(Iotlb::new(8));
            let mut c = ctx();
            c.active_cores = cores;
            q.invalidate_page_sync(&mut c, &tlb, DEV, IovaPage(1));
            c.breakdown().get(Phase::InvalidateIotlb)
        };
        assert!(run(16) > run(1) * 2);
    }

    #[test]
    fn contiguous_batch_is_one_command() {
        let q = InvalQueue::new();
        let tlb = Mutex::new(Iotlb::new(64));
        let mut c = ctx();
        // A 16-page TSO buffer: one range command, one wait.
        let pages: Vec<IovaPage> = (0..16).map(IovaPage).collect();
        for &p in &pages {
            tlb.lock().insert(DEV, p, entry());
        }
        q.invalidate_pages_sync(&mut c, &tlb, DEV, &pages);
        for &p in &pages {
            assert!(!tlb.lock().contains(DEV, p));
        }
        assert_eq!(q.stats().page_commands, 1);
        assert!(c.breakdown().get(Phase::InvalidateIotlb) < c.cost.iotlb_inval_wait * 2);
    }

    #[test]
    fn scattered_batch_charges_per_run() {
        let q = InvalQueue::new();
        let tlb = Mutex::new(Iotlb::new(64));
        let mut c = ctx();
        let pages: Vec<IovaPage> = [0u64, 1, 5, 9, 10].into_iter().map(IovaPage).collect();
        for &p in &pages {
            tlb.lock().insert(DEV, p, entry());
        }
        q.invalidate_pages_sync(&mut c, &tlb, DEV, &pages);
        for &p in &pages {
            assert!(!tlb.lock().contains(DEV, p));
        }
        assert_eq!(q.stats().page_commands, 3, "runs: [0,1] [5] [9,10]");
        assert_eq!(q.stats().waits, 1, "one lock hold / wait descriptor");
        assert!(c.breakdown().get(Phase::InvalidateIotlb) >= c.cost.iotlb_inval_wait * 3);
    }

    #[test]
    fn empty_batch_is_free() {
        let q = InvalQueue::new();
        let tlb = Mutex::new(Iotlb::new(8));
        let mut c = ctx();
        q.invalidate_pages_sync(&mut c, &tlb, DEV, &[]);
        assert_eq!(c.now(), Cycles::ZERO);
        assert_eq!(q.stats().waits, 0);
    }

    #[test]
    fn device_flush_is_one_command() {
        let q = InvalQueue::new();
        let tlb = Mutex::new(Iotlb::new(1024));
        let mut c = ctx();
        for i in 0..250 {
            tlb.lock().insert(DEV, IovaPage(i), entry());
        }
        q.flush_device_sync(&mut c, &tlb, DEV);
        assert!(tlb.lock().is_empty());
        assert_eq!(q.stats().flush_commands, 1);
        // A single flush is far cheaper than 250 selective invalidations.
        let flush_cost = c.breakdown().get(Phase::InvalidateIotlb);
        assert!(flush_cost < c.cost.iotlb_inval_wait * 10);
    }

    #[test]
    fn waits_counted_exactly_once_per_sync_op() {
        // Regression: a scattered batch posts several range commands but
        // completes exactly ONE wait descriptor; mixing page ops and
        // device flushes never double-counts.
        let q = InvalQueue::new();
        let tlb = Mutex::new(Iotlb::new(64));
        let mut c = ctx();
        let scattered: Vec<IovaPage> = [0u64, 2, 4, 6].into_iter().map(IovaPage).collect();
        q.invalidate_pages_sync(&mut c, &tlb, DEV, &scattered);
        assert_eq!(q.stats().waits, 1);
        q.invalidate_page_sync(&mut c, &tlb, DEV, IovaPage(100));
        assert_eq!(q.stats().waits, 2);
        q.flush_device_sync(&mut c, &tlb, DEV);
        assert_eq!(q.stats().waits, 3);
        q.invalidate_pages_sync(&mut c, &tlb, DEV, &[]);
        assert_eq!(q.stats().waits, 3, "empty batch posts no wait descriptor");
        assert_eq!(q.stats().page_commands, 4 + 1);
        assert_eq!(q.stats().flush_commands, 1);
    }

    #[test]
    fn sync_ops_emit_iotlb_invalidate_events() {
        let shared = obs::Obs::isolated();
        let q = InvalQueue::with_obs(shared.clone());
        let tlb = Mutex::new(Iotlb::new(8));
        let mut c = ctx();
        q.invalidate_pages_sync(&mut c, &tlb, DEV, &[IovaPage(1), IovaPage(2)]);
        q.flush_device_sync(&mut c, &tlb, DEV);
        let events = shared.tracer().events();
        let invs: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                obs::EventKind::IotlbInvalidate { pages, wait_cycles } => {
                    Some((pages, wait_cycles))
                }
                _ => None,
            })
            .collect();
        assert_eq!(invs.len(), 2);
        assert_eq!(invs[0].0, 2, "page count recorded");
        assert!(invs[0].1 > 0, "wait cycles recorded");
        assert_eq!(invs[1].0, 0, "device flush marked with pages=0");
        // Stats view and registry agree — single source of truth.
        let snap = shared.registry().snapshot();
        assert_eq!(snap.counter("invalq", "waits", None), Some(q.stats().waits));
        assert_eq!(
            snap.counter("invalq", "page_commands", None),
            Some(q.stats().page_commands)
        );
    }

    #[test]
    fn contention_event_is_named_after_the_lock_and_carries_its_own_spin() {
        let shared = Obs::isolated();
        let q = InvalQueue::with_obs(shared.clone());
        let tlb = Mutex::new(Iotlb::new(8));
        // Core 0 holds the queue from t=0; core 1 arrives at t=0 too and
        // spins for exactly core 0's hold time.
        let mut c0 = ctx();
        q.invalidate_page_sync(&mut c0, &tlb, DEV, IovaPage(1));
        let mut c1 = ctx_on(1);
        q.invalidate_page_sync(&mut c1, &tlb, DEV, IovaPage(2));
        let contention: Vec<_> = shared
            .tracer()
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::LockContention { lock, spin_cycles } => {
                    Some((e.core, lock.into_owned(), spin_cycles))
                }
                _ => None,
            })
            .collect();
        let spin = q.lock().stats().total_spin.get();
        assert!(spin > 0);
        assert_eq!(contention, [(1, q.lock().name().to_string(), spin)]);
    }

    #[test]
    fn per_core_queues_do_not_serialise_where_one_queue_does() {
        // Two cores invalidate at the same virtual instant (t = 0);
        // returns when the first finished and the summed lock statistics.
        let run = |queues: usize| {
            let q = InvalQueue::with_queues(Obs::isolated(), queues);
            let tlb = Mutex::new(Iotlb::new(8));
            let (mut c0, mut c1) = (ctx_on(0), ctx_on(1));
            q.invalidate_page_sync(&mut c0, &tlb, DEV, IovaPage(1));
            q.invalidate_page_sync(&mut c1, &tlb, DEV, IovaPage(2));
            (c0.now(), c1.now(), q.lock_stats())
        };
        let (first_done, second_done, stats) = run(2);
        assert_eq!((stats.acquisitions, stats.contended), (2, 0));
        assert_eq!(stats.total_spin, Cycles::ZERO, "own queue, nobody ahead");
        assert_eq!(second_done, first_done, "the two ran side by side");
        // One queue: the second core spins until the first releases.
        let (first_done, second_done, stats) = run(1);
        assert_eq!((stats.acquisitions, stats.contended), (2, 1));
        assert_eq!(stats.total_spin, first_done);
        assert_eq!(second_done, first_done * 2, "serialised");
    }

    #[test]
    fn domain_flush_posts_to_queue_zero_from_any_core() {
        let q = InvalQueue::with_queues(Obs::isolated(), 4);
        let tlb = Mutex::new(Iotlb::new(8));
        let mut c3 = ctx_on(3);
        q.invalidate_page_sync(&mut c3, &tlb, DEV, IovaPage(1));
        assert_eq!(q.lock().stats().acquisitions, 0, "page op: queue 3");
        assert_eq!(q.lock_stats().acquisitions, 1);
        q.flush_device_sync(&mut c3, &tlb, DEV);
        assert_eq!(q.lock().stats().acquisitions, 1, "flush: queue 0");
        assert_eq!(q.lock_stats().acquisitions, 2);
    }

    #[test]
    fn per_core_invalidation_is_complete_on_return() {
        // The strictness property: no parked state, no deferred window —
        // when the call returns the IOTLB entry is gone, on every queue.
        let q = InvalQueue::with_queues(Obs::isolated(), 4);
        let tlb = Mutex::new(Iotlb::new(64));
        for core in 0..8u16 {
            let page = IovaPage(10 + u64::from(core));
            tlb.lock().insert(DEV, page, entry());
            q.invalidate_page_sync(&mut ctx_on(core), &tlb, DEV, page);
            assert!(!tlb.lock().contains(DEV, page), "core {core}");
        }
        assert_eq!(q.stats().page_commands, 8);
        assert_eq!(q.stats().waits, 8);
    }

    #[test]
    fn one_queue_charges_exactly_what_the_default_queue_charges() {
        let run = |q: InvalQueue| {
            let tlb = Mutex::new(Iotlb::new(64));
            let mut c = ctx_on(5);
            c.active_cores = 16;
            let scattered: Vec<IovaPage> = [0u64, 1, 5, 9, 10].into_iter().map(IovaPage).collect();
            q.invalidate_pages_sync(&mut c, &tlb, DEV, &scattered);
            q.flush_device_sync(&mut c, &tlb, DEV);
            q.invalidate_page_sync(&mut c, &tlb, DEV, IovaPage(7));
            (c.now(), *c.breakdown(), q.stats(), q.lock().stats())
        };
        assert_eq!(
            run(InvalQueue::with_queues(Obs::isolated(), 1)),
            run(InvalQueue::new())
        );
    }

    #[test]
    fn reset_stats_clears_everything() {
        let q = InvalQueue::new();
        let tlb = Mutex::new(Iotlb::new(8));
        let mut c = ctx();
        q.invalidate_page_sync(&mut c, &tlb, DEV, IovaPage(1));
        q.reset_stats();
        assert_eq!(q.stats(), InvalQueueStats::default());
        assert_eq!(q.lock().stats().acquisitions, 0);
        // Every queue is cleared, not just queue 0.
        let q = InvalQueue::with_queues(Obs::isolated(), 2);
        q.invalidate_page_sync(&mut ctx_on(1), &tlb, DEV, IovaPage(1));
        assert_eq!(q.lock_stats().acquisitions, 1);
        q.reset_stats();
        assert_eq!(q.lock_stats(), LockStats::default());
    }
}
