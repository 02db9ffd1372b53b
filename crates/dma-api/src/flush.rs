//! Deferred IOTLB-invalidation batching (§2.2.1).
//!
//! Under deferred protection `dma_unmap` does not invalidate; it appends
//! the unmapped range to a pending list. The list is drained — one
//! domain-selective flush plus IOVA recycling — after 250 entries or 10 ms,
//! whichever comes first. Stock Linux keeps **one global list under one
//! lock**, which itself becomes a bottleneck at 16 cores; ATC'15 \[42\]
//! batches **per core** instead, trading a longer vulnerability window for
//! scalability. Both variants are modeled ([`FlushScope`]).

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

/// When to drain the pending list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeferPolicy {
    /// Drain after this many pending unmaps (Linux: 250).
    pub batch: usize,
    /// Drain when the oldest pending unmap is this old (Linux: 10 ms).
    pub timeout: Cycles,
}

impl DeferPolicy {
    /// The Linux defaults: 250 unmaps or 10 ms at 2.4 GHz.
    pub fn linux_default() -> Self {
        DeferPolicy {
            batch: 250,
            timeout: Cycles(24_000_000), // 10 ms at 2.4 GHz
        }
    }
}

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
    policy: DeferPolicy,
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

/// Lock name reported in lockset events for the global pending list.
pub const FLUSH_LOCK: &str = "deferred-flush-list";

/// Lockset label of the one list [`FlushScope::Global`] keeps; per-core
/// lists are labelled by index the same way, so the detector sees each as
/// its own variable.
const GLOBAL_LIST: &str = "flush.pending_list[0]";

impl DeferredFlusher {
    /// Creates a flusher; `cores` sizes the per-core lists (ignored for
    /// [`FlushScope::Global`], which uses a single list).
    pub fn new(policy: DeferPolicy, scope: FlushScope, cores: usize) -> Self {
        Self::with_obs(policy, scope, cores, Obs::isolated())
    }

    /// Creates a flusher reporting into `obs` (`flush.*` metrics).
    pub fn with_obs(policy: DeferPolicy, scope: FlushScope, cores: usize, obs: Obs) -> Self {
        let n = match scope {
            FlushScope::Global => 1,
            FlushScope::PerCore => cores.max(1),
        };
        DeferredFlusher {
            policy,
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

    /// Runs `f` under the global list's lock, tracing this acquisition's
    /// own spin as `LockContention` like every other contended lock.
    fn locked<R>(&self, ctx: &mut CoreCtx, f: impl FnOnce(&mut CoreCtx) -> R) -> R {
        let (r, spin) = self.obs.locked(ctx, &self.global_lock, GLOBAL_LIST, f);
        self.obs
            .trace_contention(ctx, None, &self.global_lock, spin);
        r
    }

    fn list_index(&self, ctx: &CoreCtx) -> usize {
        match self.scope {
            FlushScope::Global => 0,
            FlushScope::PerCore => ctx.core.index() % self.lists.len(),
        }
    }

    /// Defers one unmapped range; drains the batch through `drain` if the
    /// policy triggers. `drain` receives the entries being retired and runs
    /// *outside* the list lock (matching Linux, which drops the list lock
    /// around the flush itself... the flush serializes on the invalidation
    /// queue lock anyway).
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
            let over_batch = list.entries.len() >= self.policy.batch;
            let over_time = list
                .oldest
                .is_some_and(|t| ctx.now().saturating_sub(t) >= self.policy.timeout);
            if over_batch || over_time {
                list.oldest = None;
                Some(std::mem::take(&mut list.entries))
            } else {
                None
            }
        };
        let batch = match self.scope {
            FlushScope::Global => self.locked(ctx, |ctx| append(ctx, &self.lists[0])),
            FlushScope::PerCore => {
                // Deliberately lock-free: each core owns its own list, so
                // the lockset detector must see per-index variable names.
                self.obs
                    .shared_access(ctx, format_args!("flush.pending_list[{idx}]"));
                append(ctx, &self.lists[idx])
            }
        };
        if let Some(batch) = batch {
            self.drains.inc();
            self.pending_gauge.sub(batch.len() as i64);
            drain(ctx, &batch);
        }
    }

    /// Forces a drain of every pending entry (all cores' lists), e.g. at
    /// the 10 ms timer, under memory pressure, or at experiment teardown.
    pub fn force_flush(
        &self,
        ctx: &mut CoreCtx,
        mut drain: impl FnMut(&mut CoreCtx, &[PendingUnmap]),
    ) {
        for (idx, list) in self.lists.iter().enumerate() {
            let batch = match self.scope {
                FlushScope::Global => self.locked(ctx, |_| {
                    let mut l = list.lock();
                    l.oldest = None;
                    std::mem::take(&mut l.entries)
                }),
                FlushScope::PerCore => {
                    self.obs
                        .shared_access(ctx, format_args!("flush.pending_list[{idx}]"));
                    let mut l = list.lock();
                    l.oldest = None;
                    std::mem::take(&mut l.entries)
                }
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
        let f = DeferredFlusher::new(
            DeferPolicy {
                batch: 3,
                timeout: Cycles::MAX,
            },
            FlushScope::Global,
            1,
        );
        let mut c = ctx(0);
        let drained = RefCell::new(Vec::new());
        for i in 0..7 {
            f.defer(&mut c, entry(i), |_, batch| {
                drained.borrow_mut().push(batch.to_vec());
            });
        }
        let drained = drained.into_inner();
        assert_eq!(drained.len(), 2, "two full batches of 3");
        assert_eq!(drained[0].len(), 3);
        assert_eq!(drained[1].len(), 3);
        assert_eq!(f.pending(), 1, "seventh entry still pending");
        assert_eq!(f.drains(), 2);
        assert_eq!(f.deferred_total(), 7);
    }

    #[test]
    fn drains_on_timeout() {
        let f = DeferredFlusher::new(
            DeferPolicy {
                batch: 1000,
                timeout: Cycles(1_000),
            },
            FlushScope::Global,
            1,
        );
        let mut c = ctx(0);
        let mut drained = 0usize;
        f.defer(&mut c, entry(0), |_, _| drained += 1);
        assert_eq!(drained, 0);
        c.seek(Cycles(5_000)); // 10 ms timer fires much later
        f.defer(&mut c, entry(1), |_, b| {
            drained += 1;
            assert_eq!(b.len(), 2);
        });
        assert_eq!(drained, 1);
    }

    #[test]
    fn per_core_lists_are_independent() {
        let f = DeferredFlusher::new(
            DeferPolicy {
                batch: 2,
                timeout: Cycles::MAX,
            },
            FlushScope::PerCore,
            2,
        );
        let mut c0 = ctx(0);
        let mut c1 = ctx(1);
        let mut drains = 0usize;
        f.defer(&mut c0, entry(0), |_, _| drains += 1);
        f.defer(&mut c1, entry(1), |_, _| drains += 1);
        assert_eq!(drains, 0, "each core's list holds one entry");
        f.defer(&mut c0, entry(2), |_, b| {
            drains += 1;
            assert_eq!(b.len(), 2);
        });
        assert_eq!(drains, 1);
        assert_eq!(f.pending(), 1, "core 1's entry still pending");
    }

    #[test]
    fn global_scope_takes_lock_per_core_does_not() {
        let fg = DeferredFlusher::new(DeferPolicy::linux_default(), FlushScope::Global, 4);
        let fp = DeferredFlusher::new(DeferPolicy::linux_default(), FlushScope::PerCore, 4);
        let mut c = ctx(0);
        fg.defer(&mut c, entry(0), |_, _| {});
        fp.defer(&mut c, entry(0), |_, _| {});
        assert_eq!(fg.global_lock().stats().acquisitions, 1);
        assert_eq!(fp.global_lock().stats().acquisitions, 0);
    }

    #[test]
    fn force_flush_drains_everything() {
        let f = DeferredFlusher::new(DeferPolicy::linux_default(), FlushScope::PerCore, 3);
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
        let f = DeferredFlusher::with_obs(
            DeferPolicy::linux_default(),
            FlushScope::Global,
            2,
            obs.clone(),
        );
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
        let f = DeferredFlusher::new(DeferPolicy::linux_default(), FlushScope::Global, 1);
        let mut c = ctx(0);
        let mut called = false;
        f.force_flush(&mut c, |_, _| called = true);
        assert!(!called);
        assert_eq!(f.drains(), 0);
    }
}
