//! Deferred IOTLB-invalidation batching (§2.2.1).
//!
//! Under deferred protection `dma_unmap` does not invalidate; it appends
//! the unmapped range to a pending list. The list is drained — one
//! domain-selective flush plus IOVA recycling — by the unmap that brings
//! it to 250 entries, or by the first unmap to reach it once its oldest
//! entry is 10 ms old. Linux also arms a 10 ms timer; this model has none,
//! so the age is checked only when the next unmap reaches that list, and a
//! list no unmap reaches stays pending until [`DeferredFlusher::force_flush`]
//! (teardown). The modelled window is therefore never shorter than Linux's
//! and can be longer on an idle list.
//!
//! Stock Linux keeps **one global list under one lock**, which itself
//! becomes a bottleneck at 16 cores; ATC'15 \[42\] batches **per core**
//! instead, trading a longer vulnerability window for scalability. Both
//! variants are modeled ([`FlushScope`]).

use iommu::IovaPage;
use obs::{Counter, Gauge, Obs};
use simcore::sync::Mutex;
use simcore::{CoreCtx, Cycles, Phase, SimLock};

/// One deferred unmap: an IOVA range whose IOTLB entries are still live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingUnmap {
    /// First IOVA page of the range.
    pub page: IovaPage,
    /// Number of pages.
    pub pages: u64,
}

/// Where the pending list lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushScope {
    /// One global lock-protected list (stock Linux).
    Global,
    /// One list per core, no cross-core synchronization (ATC'15 \[42\]).
    PerCore,
}

/// Drain a pending list once it holds this many unmaps (Linux: 250).
pub const DEFER_BATCH: usize = 250;

/// Drain a pending list when an unmap reaches it and its oldest unmap is
/// this old (Linux: 10 ms, at 2.4 GHz). Nothing checks the age between
/// unmaps: there is no timer.
pub const DEFER_TIMEOUT: Cycles = Cycles(24_000_000);

#[derive(Debug, Default)]
struct PendingList {
    entries: Vec<PendingUnmap>,
    oldest: Option<Cycles>,
}

/// The deferred-flush machinery shared by the deferred engines.
///
/// The engine supplies a `drain` callback that performs the actual IOTLB
/// flush and recycles the IOVAs; the flusher owns batching, the (optional)
/// global lock, and the vulnerability-window bookkeeping.
#[derive(Debug)]
pub struct DeferredFlusher {
    scope: FlushScope,
    global_lock: SimLock,
    lists: Vec<Mutex<PendingList>>,
    obs: Obs,
    drains: Counter,
    deferred_total: Counter,
    /// Live vulnerability-window size, mirrored to the registry.
    pending_gauge: Gauge,
    peak_pending: Gauge,
}

/// The name of the global pending list's lock.
pub const FLUSH_LOCK: &str = "deferred-flush-list";

impl DeferredFlusher {
    /// Creates a flusher reporting into `obs` (`flush.*` metrics);
    /// `cores` sizes the per-core lists (ignored for
    /// [`FlushScope::Global`], which uses a single list).
    pub fn new(scope: FlushScope, cores: usize, obs: Obs) -> Self {
        let n = match scope {
            FlushScope::Global => 1,
            FlushScope::PerCore => cores.max(1),
        };
        DeferredFlusher {
            scope,
            global_lock: SimLock::new(FLUSH_LOCK),
            lists: (0..n).map(|_| Mutex::new(PendingList::default())).collect(),
            drains: obs.counter("flush", "drains", None),
            deferred_total: obs.counter("flush", "deferred_total", None),
            pending_gauge: obs.gauge("flush", "pending", None),
            peak_pending: obs.gauge("flush", "peak_pending", None),
            obs,
        }
    }

    /// The global list's lock (contended only in [`FlushScope::Global`]).
    pub fn global_lock(&self) -> &SimLock {
        &self.global_lock
    }

    /// Number of drains performed (a view over `flush.drains`).
    pub fn drains(&self) -> u64 {
        self.drains.get()
    }

    /// Total unmaps that went through the deferred path (a view over
    /// `flush.deferred_total`).
    pub fn deferred_total(&self) -> u64 {
        self.deferred_total.get()
    }

    /// Number of currently pending (unmapped but not yet invalidated)
    /// ranges — the size of the open vulnerability window.
    pub fn pending(&self) -> usize {
        self.lists.iter().map(|l| l.lock().entries.len()).sum()
    }

    /// The calling core's list: the one global list, or the core's own.
    ///
    /// # Panics
    ///
    /// Panics under [`FlushScope::PerCore`] if the core has no list of its
    /// own: a per-core list is lock-free only while one core owns it.
    fn list_index(&self, ctx: &CoreCtx) -> usize {
        match self.scope {
            FlushScope::Global => 0,
            FlushScope::PerCore => {
                let idx = ctx.core.index();
                assert!(
                    idx < self.lists.len(),
                    "core {idx} has no pending list of its own (per-core flusher sized for {})",
                    self.lists.len()
                );
                idx
            }
        }
    }

    /// Defers one unmapped range; drains the batch through `drain` once
    /// the list holds [`DEFER_BATCH`] entries or its oldest is
    /// [`DEFER_TIMEOUT`] old. `drain` receives the entries being retired
    /// and runs *outside* the list lock (matching Linux, which drops the
    /// list lock around the flush itself... the flush serializes on the
    /// invalidation queue lock anyway).
    pub fn defer(
        &self,
        ctx: &mut CoreCtx,
        entry: PendingUnmap,
        drain: impl FnOnce(&mut CoreCtx, &[PendingUnmap]),
    ) {
        self.deferred_total.inc();
        self.peak_pending.set_max(self.pending_gauge.add(1));
        let idx = self.list_index(ctx);
        let append = |ctx: &mut CoreCtx, lists: &Mutex<PendingList>| -> Option<Vec<PendingUnmap>> {
            ctx.charge(Phase::IommuPageTableMgmt, ctx.cost.defer_list_append);
            let mut list = lists.lock();
            list.entries.push(entry);
            if list.oldest.is_none() {
                list.oldest = Some(ctx.now());
            }
            let over_batch = list.entries.len() >= DEFER_BATCH;
            let over_time = list
                .oldest
                .is_some_and(|t| ctx.now().saturating_sub(t) >= DEFER_TIMEOUT);
            if over_batch || over_time {
                list.oldest = None;
                Some(std::mem::take(&mut list.entries))
            } else {
                None
            }
        };
        let batch = match self.scope {
            FlushScope::Global => self.obs.locked(ctx, None, &self.global_lock, |ctx| {
                append(ctx, &self.lists[0])
            }),
            // Deliberately lock-free: `list_index` gives each core its own.
            FlushScope::PerCore => append(ctx, &self.lists[idx]),
        };
        if let Some(batch) = batch {
            self.drains.inc();
            self.pending_gauge.sub(batch.len() as i64);
            drain(ctx, &batch);
        }
    }

    /// Forces a drain of every pending entry (all cores' lists), e.g.
    /// under memory pressure or at experiment teardown.
    pub fn force_flush(
        &self,
        ctx: &mut CoreCtx,
        mut drain: impl FnMut(&mut CoreCtx, &[PendingUnmap]),
    ) {
        for list in &self.lists {
            let take = |_: &mut CoreCtx| {
                let mut l = list.lock();
                l.oldest = None;
                std::mem::take(&mut l.entries)
            };
            let batch = match self.scope {
                FlushScope::Global => self.obs.locked(ctx, None, &self.global_lock, take),
                FlushScope::PerCore => take(ctx),
            };
            if !batch.is_empty() {
                self.drains.inc();
                self.pending_gauge.sub(batch.len() as i64);
                drain(ctx, &batch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::EventKind;
    use simcore::{CoreId, CostModel};
    use std::cell::RefCell;
    use std::sync::Arc;

    fn ctx(core: u16) -> CoreCtx {
        CoreCtx::new(CoreId(core), Arc::new(CostModel::haswell_2_4ghz()))
    }

    fn entry(p: u64) -> PendingUnmap {
        PendingUnmap {
            page: IovaPage(p),
            pages: 1,
        }
    }

    #[test]
    fn drains_at_batch_limit() {
        let f = DeferredFlusher::new(FlushScope::Global, 1, Obs::isolated());
        let mut c = ctx(0);
        let drained = RefCell::new(Vec::new());
        for i in 0..2 * DEFER_BATCH as u64 + 1 {
            f.defer(&mut c, entry(i), |_, batch| {
                drained.borrow_mut().push(batch.to_vec());
            });
        }
        let drained = drained.into_inner();
        assert_eq!(drained.len(), 2, "two full batches");
        assert_eq!(drained[0].len(), DEFER_BATCH);
        assert_eq!(drained[1].len(), DEFER_BATCH);
        assert_eq!(f.pending(), 1, "the last entry is still pending");
        assert_eq!(f.drains(), 2);
        assert_eq!(f.deferred_total(), 2 * DEFER_BATCH as u64 + 1);
    }

    #[test]
    fn drains_on_timeout() {
        let f = DeferredFlusher::new(FlushScope::Global, 1, Obs::isolated());
        let mut c = ctx(0);
        let mut drained = 0usize;
        f.defer(&mut c, entry(0), |_, _| drained += 1);
        let first = c.now();
        c.seek(first + Cycles(DEFER_TIMEOUT.get() / 2));
        f.defer(&mut c, entry(1), |_, _| drained += 1);
        assert_eq!(drained, 0, "half the timeout drains nothing");
        c.seek(first + DEFER_TIMEOUT);
        f.defer(&mut c, entry(2), |_, b| {
            drained += 1;
            assert_eq!(b.len(), 3);
        });
        assert_eq!(drained, 1);
    }

    #[test]
    fn per_core_lists_are_independent() {
        let f = DeferredFlusher::new(FlushScope::PerCore, 2, Obs::isolated());
        let mut c0 = ctx(0);
        let mut c1 = ctx(1);
        let mut drains = 0usize;
        for i in 0..DEFER_BATCH as u64 - 1 {
            f.defer(&mut c0, entry(i), |_, _| drains += 1);
        }
        f.defer(&mut c1, entry(1_000), |_, _| drains += 1);
        assert_eq!(drains, 0, "neither core's list is full");
        f.defer(&mut c0, entry(2_000), |_, b| {
            drains += 1;
            assert_eq!(b.len(), DEFER_BATCH);
        });
        assert_eq!(drains, 1);
        assert_eq!(f.pending(), 1, "core 1's entry still pending");
    }

    #[test]
    fn a_per_core_list_shared_by_two_cores_panics() {
        // Per-core scope sized for one core, driven from cores 0 and 1,
        // would put both cores on one lock-free list; sized for two, each
        // core owns its own.
        for (sized_for, races) in [(1, true), (2, false)] {
            let drive = move || {
                let f = DeferredFlusher::new(FlushScope::PerCore, sized_for, Obs::isolated());
                let (mut c0, mut c1) = (ctx(0), ctx(1));
                for i in 0..4 {
                    f.defer(&mut c0, entry(i), |_, _| {});
                    f.defer(&mut c1, entry(100 + i), |_, _| {});
                }
                f.pending()
            };
            match std::panic::catch_unwind(drive) {
                Err(e) => {
                    assert!(races, "sized for {sized_for}: {e:?}");
                    let msg = e.downcast_ref::<String>().map_or("", String::as_str);
                    assert!(msg.contains("core 1 has no pending list"), "{msg}");
                }
                Ok(pending) => assert!(!races && pending == 8, "sized for {sized_for}"),
            }
        }
    }

    #[test]
    fn global_scope_takes_lock_per_core_does_not() {
        let fg = DeferredFlusher::new(FlushScope::Global, 4, Obs::isolated());
        let fp = DeferredFlusher::new(FlushScope::PerCore, 4, Obs::isolated());
        let mut c = ctx(0);
        fg.defer(&mut c, entry(0), |_, _| {});
        fp.defer(&mut c, entry(0), |_, _| {});
        assert_eq!(fg.global_lock().stats().acquisitions, 1);
        assert_eq!(fp.global_lock().stats().acquisitions, 0);
    }

    #[test]
    fn force_flush_drains_everything() {
        let f = DeferredFlusher::new(FlushScope::PerCore, 3, Obs::isolated());
        let mut drained = Vec::new();
        for core in 0..3u16 {
            let mut c = ctx(core);
            f.defer(&mut c, entry(core as u64), |_, _| {});
        }
        assert_eq!(f.pending(), 3);
        let mut c = ctx(0);
        f.force_flush(&mut c, |_, b| drained.extend_from_slice(b));
        assert_eq!(drained.len(), 3);
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn global_list_contention_is_traced_with_the_spinners_own_spin() {
        let obs = Obs::isolated();
        let f = DeferredFlusher::new(FlushScope::Global, 2, obs.clone());
        let (mut c0, mut c1) = (ctx(0), ctx(1));
        f.defer(&mut c0, entry(0), |_, _| {});
        f.defer(&mut c1, entry(1), |_, _| {});
        // Core 1 arrived at t=0 and waited out core 0's whole hold.
        let spin = f.global_lock().stats().total_spin;
        assert!(spin > Cycles::ZERO);
        assert_eq!(spin, c0.now());
        let traced: Vec<_> = obs
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
        assert_eq!(traced, [(1, FLUSH_LOCK.to_string(), spin.get())]);
    }

    #[test]
    fn force_flush_on_empty_is_quiet() {
        let f = DeferredFlusher::new(FlushScope::Global, 1, Obs::isolated());
        let mut c = ctx(0);
        let mut called = false;
        f.force_flush(&mut c, |_, _| called = true);
        assert!(!called);
        assert_eq!(f.drains(), 0);
    }
}
