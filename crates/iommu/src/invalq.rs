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

use crate::{DeviceId, Iotlb, IovaPage, PendingRing};
use obs::{Counter, EventKind, Obs};
use simcore::sync::Mutex;
use simcore::{CoreCtx, Cycles, Phase, SimLock};

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

/// Lock name reported in lockset events for the invalidation queue.
pub const INVALQ_LOCK: &str = "iommu-invalidation-queue";

/// The (single, global) IOMMU invalidation queue.
#[derive(Debug)]
pub struct InvalQueue {
    lock: SimLock,
    obs: Obs,
    page_commands: Counter,
    flush_commands: Counter,
    waits: Counter,
    batch: Option<Batch>,
}

/// Opt-in per-core batching state (see [`InvalQueue::with_obs_batched`]).
#[derive(Debug)]
struct Batch {
    rings: Vec<PendingRing>,
    threshold: usize,
    pending_appended: Counter,
    drains: Counter,
}

impl Batch {
    fn ring(&self, ctx: &CoreCtx) -> &PendingRing {
        &self.rings[ctx.core.0 as usize % self.rings.len()]
    }
}

impl Default for InvalQueue {
    fn default() -> Self {
        InvalQueue::new()
    }
}

impl InvalQueue {
    /// Creates the queue with a private, isolated telemetry handle.
    pub fn new() -> Self {
        InvalQueue::with_obs(Obs::isolated())
    }

    /// Creates the queue reporting into a shared telemetry handle.
    pub fn with_obs(obs: Obs) -> Self {
        InvalQueue {
            lock: SimLock::new(INVALQ_LOCK),
            page_commands: obs.counter("invalq", "page_commands", None),
            flush_commands: obs.counter("invalq", "flush_commands", None),
            waits: obs.counter("invalq", "waits", None),
            obs,
            batch: None,
        }
    }

    /// Creates the queue with per-core pending rings in front of the
    /// global lock: page invalidations append to the calling core's ring
    /// and drain into the queue every `threshold` entries (or on device
    /// flush / explicit drain). The drain boundary is the §2.2.1 deferred
    /// window, bounded per core by `threshold`.
    pub fn with_obs_batched(obs: Obs, cores: usize, threshold: usize) -> Self {
        let mut q = InvalQueue::with_obs(obs);
        q.batch = Some(Batch {
            rings: (0..cores.max(1)).map(|_| PendingRing::new()).collect(),
            threshold: threshold.max(1),
            pending_appended: q.obs.counter("invalq", "pending_appended", None),
            drains: q.obs.counter("invalq", "batch_drains", None),
        });
        q
    }

    /// Whether per-core batching is enabled.
    pub fn batching(&self) -> bool {
        self.batch.is_some()
    }

    /// Total entries currently pending across every core's ring.
    pub fn pending_len(&self) -> usize {
        self.batch
            .as_ref()
            .map_or(0, |b| b.rings.iter().map(PendingRing::len).sum())
    }

    /// The queue's lock (exposed for contention statistics).
    pub fn lock(&self) -> &SimLock {
        &self.lock
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

    /// Synchronously invalidates several IOVA pages under one lock
    /// acquisition (e.g. a multi-page buffer or a scatter/gather unmap).
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
        if pages.is_empty() {
            return;
        }
        if let Some(b) = &self.batch {
            let len = b.ring(ctx).append(ctx, &self.obs, dev, pages);
            b.pending_appended.add(pages.len() as u64);
            if len >= b.threshold {
                self.drain_pending_local(ctx, iotlb);
            }
            return;
        }
        obs::profile::scope(ctx, "invalq_drain", |ctx| {
            self.invalidate_pages_inner(ctx, iotlb, dev, pages, false)
        });
    }

    /// Drains the calling core's pending ring into the global queue:
    /// entries post in append order, grouped into one sync op per
    /// consecutive same-device run. No-op when batching is off or the
    /// ring is empty.
    pub fn drain_pending_local(&self, ctx: &mut CoreCtx, iotlb: &Mutex<Iotlb>) {
        if let Some(b) = &self.batch {
            self.drain_ring(ctx, iotlb, b.ring(ctx));
        }
    }

    /// Drains every core's pending ring (the teardown path — cross-core,
    /// under each ring's lock). After this no invalidation is pending and
    /// every deferred window opened by batching is closed.
    pub fn drain_pending_all(&self, ctx: &mut CoreCtx, iotlb: &Mutex<Iotlb>) {
        if let Some(b) = &self.batch {
            for ring in &b.rings {
                self.drain_ring(ctx, iotlb, ring);
            }
        }
    }

    fn drain_ring(&self, ctx: &mut CoreCtx, iotlb: &Mutex<Iotlb>, ring: &PendingRing) {
        let entries = ring.take(ctx, &self.obs);
        if entries.is_empty() {
            return;
        }
        if let Some(b) = &self.batch {
            b.drains.inc();
        }
        let mut i = 0;
        while i < entries.len() {
            let dev = entries[i].0;
            let mut j = i + 1;
            while j < entries.len() && entries[j].0 == dev {
                j += 1;
            }
            let pages: Vec<IovaPage> = entries[i..j].iter().map(|&(_, p)| p).collect();
            obs::profile::scope(ctx, "invalq_drain", |ctx| {
                self.invalidate_pages_inner(ctx, iotlb, dev, &pages, true)
            });
            i = j;
        }
    }

    /// Posts `pages` as range commands under the queue lock. With
    /// `amortized_wait` (the batched-drain path) the busy-wait on the wait
    /// descriptor is charged once for the whole batch — the §2.2.1
    /// amortization that makes batching worth a lock hold; the per-unmap
    /// path charges it per range command, unchanged.
    fn invalidate_pages_inner(
        &self,
        ctx: &mut CoreCtx,
        iotlb: &Mutex<Iotlb>,
        dev: DeviceId,
        pages: &[IovaPage],
        amortized_wait: bool,
    ) {
        let active = ctx.active_cores;
        let wait_start = ctx.breakdown.get(Phase::InvalidateIotlb);
        let ((), spin) = self.obs.locked(ctx, &self.lock, "invalq.queue", |ctx| {
            let mut iotlb = iotlb.lock();
            let mut i = 0;
            while i < pages.len() {
                // Extend over the contiguous run starting at pages[i].
                let mut j = i + 1;
                while j < pages.len() && pages[j].get() == pages[j - 1].get() + 1 {
                    j += 1;
                }
                ctx.charge(Phase::InvalidateIotlb, ctx.cost.inval_queue_post);
                for &page in &pages[i..j] {
                    iotlb.invalidate_page(dev, page);
                }
                self.page_commands.inc();
                if !amortized_wait {
                    ctx.charge(Phase::InvalidateIotlb, ctx.cost.inval_wait(active));
                }
                i = j;
            }
            if amortized_wait {
                ctx.charge(Phase::InvalidateIotlb, ctx.cost.inval_wait(active));
            }
            // Exactly one wait descriptor completes per synchronous
            // operation, regardless of how many range commands it posted.
            self.waits.inc();
        });
        self.trace_op(ctx, dev, pages.len() as u64, wait_start, spin);
    }

    /// Emits the `IotlbInvalidate` (and, if the queue lock spun, the
    /// `LockContention`) trace events for one completed sync op.
    fn trace_op(
        &self,
        ctx: &mut CoreCtx,
        dev: DeviceId,
        pages: u64,
        wait_start: Cycles,
        spin: Cycles,
    ) {
        self.obs.set_now_hint(ctx.now());
        let wait_cycles = ctx
            .breakdown
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
        self.obs
            .trace_contention(ctx, Some(dev.0), &self.lock, spin);
    }

    /// Synchronously flushes every cached translation of `dev` with a
    /// single domain-selective flush command. This is what deferred
    /// protection pays once per drained batch (§2.2.1: every 250 unmaps or
    /// 10 ms).
    pub fn flush_device_sync(&self, ctx: &mut CoreCtx, iotlb: &Mutex<Iotlb>, dev: DeviceId) {
        // A domain-selective flush supersedes any pending page
        // invalidations for this device: purge them from every core's
        // ring so they are not re-posted after the flush.
        if let Some(b) = &self.batch {
            for ring in &b.rings {
                ring.purge_device(ctx, &self.obs, dev);
            }
        }
        obs::profile::scope(ctx, "invalq_flush", |ctx| {
            let wait_start = ctx.breakdown.get(Phase::InvalidateIotlb);
            let ((), spin) = self.obs.locked(ctx, &self.lock, "invalq.queue", |ctx| {
                ctx.charge(Phase::InvalidateIotlb, ctx.cost.inval_queue_post);
                iotlb.lock().invalidate_device(dev);
                self.flush_commands.inc();
                ctx.charge(Phase::InvalidateIotlb, ctx.cost.global_iotlb_flush);
                self.waits.inc();
            });
            // pages = 0 marks a full device flush.
            self.trace_op(ctx, dev, 0, wait_start, spin);
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

    /// Clears statistics (lock contention stats included).
    pub fn reset_stats(&self) {
        self.page_commands.reset();
        self.flush_commands.reset();
        self.waits.reset();
        self.lock.reset_stats();
        if let Some(b) = &self.batch {
            b.pending_appended.reset();
            b.drains.reset();
            for ring in &b.rings {
                ring.lock().reset_stats();
            }
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
        CoreCtx::new(CoreId(0), Arc::new(CostModel::haswell_2_4ghz()))
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
        assert!(c.breakdown.get(Phase::InvalidateIotlb) >= c.cost.iotlb_inval_wait);
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
            c.breakdown.get(Phase::InvalidateIotlb)
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
        assert!(c.breakdown.get(Phase::InvalidateIotlb) < c.cost.iotlb_inval_wait * 2);
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
        assert!(c.breakdown.get(Phase::InvalidateIotlb) >= c.cost.iotlb_inval_wait * 3);
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
        let flush_cost = c.breakdown.get(Phase::InvalidateIotlb);
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
        let mut c1 = CoreCtx::new(CoreId(1), Arc::new(CostModel::haswell_2_4ghz()));
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
    fn batched_invalidations_defer_until_threshold() {
        let q = InvalQueue::with_obs_batched(Obs::isolated(), 4, 4);
        let tlb = Mutex::new(Iotlb::new(64));
        let mut c = ctx();
        for i in 0..4 {
            tlb.lock().insert(DEV, IovaPage(10 + i), entry());
        }
        // Three unmap invalidations: all pending, window still open.
        for i in 0..3 {
            q.invalidate_page_sync(&mut c, &tlb, DEV, IovaPage(10 + i));
            assert!(tlb.lock().contains(DEV, IovaPage(10 + i)), "still cached");
        }
        assert_eq!(q.pending_len(), 3);
        assert_eq!(q.stats().page_commands, 0, "nothing posted yet");
        // The fourth append reaches the threshold and drains the ring:
        // one contiguous run, one command, one wait, window closed.
        q.invalidate_page_sync(&mut c, &tlb, DEV, IovaPage(13));
        assert_eq!(q.pending_len(), 0);
        for i in 0..4 {
            assert!(!tlb.lock().contains(DEV, IovaPage(10 + i)));
        }
        assert_eq!(q.stats().page_commands, 1);
        assert_eq!(q.stats().waits, 1);
    }

    #[test]
    fn batch_drain_posts_per_device_runs_in_append_order() {
        // Concurrent unmaps interleaving two devices on one core: the
        // drain must preserve append order, splitting into one sync op
        // per consecutive same-device run.
        let shared = Obs::isolated();
        let q = InvalQueue::with_obs_batched(shared.clone(), 1, 3);
        let tlb = Mutex::new(Iotlb::new(64));
        let mut c = ctx();
        let d2 = DeviceId(2);
        q.invalidate_page_sync(&mut c, &tlb, DEV, IovaPage(1));
        q.invalidate_page_sync(&mut c, &tlb, d2, IovaPage(2));
        q.invalidate_page_sync(&mut c, &tlb, DEV, IovaPage(3));
        let devs: Vec<u16> = shared
            .tracer()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                obs::EventKind::IotlbInvalidate { .. } => e.device,
                _ => None,
            })
            .collect();
        assert_eq!(devs, vec![DEV.0, d2.0, DEV.0], "append order preserved");
        assert_eq!(q.stats().waits, 3, "one wait per device run");
    }

    #[test]
    fn rings_drain_independently_per_core() {
        let q = InvalQueue::with_obs_batched(Obs::isolated(), 2, 2);
        let tlb = Mutex::new(Iotlb::new(64));
        let mut c0 = ctx();
        let mut c1 = CoreCtx::new(CoreId(1), Arc::new(CostModel::haswell_2_4ghz()));
        q.invalidate_page_sync(&mut c0, &tlb, DEV, IovaPage(1));
        q.invalidate_page_sync(&mut c1, &tlb, DEV, IovaPage(2));
        assert_eq!(q.pending_len(), 2, "each core one entry, no drain");
        // Core 0 reaches its threshold; core 1's ring must stay pending.
        q.invalidate_page_sync(&mut c0, &tlb, DEV, IovaPage(3));
        assert_eq!(q.pending_len(), 1);
        assert_eq!(q.stats().page_commands, 2, "runs [1] and [3]");
        // Teardown closes every remaining window, cross-core.
        q.drain_pending_all(&mut c0, &tlb);
        assert_eq!(q.pending_len(), 0);
        assert_eq!(q.stats().waits, 2);
    }

    #[test]
    fn device_flush_supersedes_pending_invalidations() {
        let q = InvalQueue::with_obs_batched(Obs::isolated(), 1, 100);
        let tlb = Mutex::new(Iotlb::new(64));
        let mut c = ctx();
        let d2 = DeviceId(2);
        tlb.lock().insert(DEV, IovaPage(1), entry());
        q.invalidate_page_sync(&mut c, &tlb, DEV, IovaPage(1));
        q.invalidate_page_sync(&mut c, &tlb, d2, IovaPage(2));
        assert_eq!(q.pending_len(), 2);
        q.flush_device_sync(&mut c, &tlb, DEV);
        assert!(!tlb.lock().contains(DEV, IovaPage(1)), "flush closes it");
        assert_eq!(q.pending_len(), 1, "other device's entry survives");
        q.drain_pending_all(&mut c, &tlb);
        assert_eq!(
            q.stats().page_commands,
            1,
            "the flushed device's pending page is never re-posted"
        );
    }

    #[test]
    fn unbatched_queue_has_no_pending_state() {
        let q = InvalQueue::new();
        let tlb = Mutex::new(Iotlb::new(8));
        let mut c = ctx();
        assert!(!q.batching());
        assert_eq!(q.pending_len(), 0);
        // Drains are no-ops, not panics.
        q.drain_pending_local(&mut c, &tlb);
        q.drain_pending_all(&mut c, &tlb);
        assert_eq!(q.stats(), InvalQueueStats::default());
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
    }
}
