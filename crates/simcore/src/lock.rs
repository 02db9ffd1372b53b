//! Spinlocks contended in virtual time.

// lint: allow(relaxed-atomic) — contention counters, the held flag and
// virtual-time stamps; the scheduler serializes simulated cores, so the
// atomics carry statistics, not synchronization, and are updated with
// plain loads and stores

use crate::{CoreCtx, Cycles, Phase};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Contention statistics of a [`SimLock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockStats {
    /// Total acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that had to spin.
    pub contended: u64,
    /// Total cycles spent spinning across all cores.
    pub total_spin: Cycles,
    /// Total cycles the lock was held.
    pub total_held: Cycles,
}

/// A spinlock whose contention is modeled in virtual time.
///
/// This is the mechanism behind the paper's central scalability result: the
/// IOMMU invalidation queue is protected by a single such lock, and under
/// strict protection at 16 cores the cores serialize on it (Figure 8 shows
/// ≈70 µs/packet of spinning).
///
/// The lock is *not* a host-level synchronization primitive — the simulation
/// is single-threaded — it simply tracks the virtual instant at which it
/// will next be free and charges arriving cores the spin time. Because the
/// multi-core scheduler steps the earliest core first, acquisition order is
/// FIFO in virtual time.
///
/// Locks never nest: a core holds at most one ([`CoreCtx::holding`]), and
/// [`SimLock::lock`] panics on a second.
#[derive(Debug, Default)]
pub struct SimLock {
    name: &'static str,
    free_at: AtomicU64,
    held: AtomicBool,
    held_since: AtomicU64,
    acquisitions: AtomicU64,
    contended: AtomicU64,
    total_spin: AtomicU64,
    total_held: AtomicU64,
}

impl SimLock {
    /// Creates a named lock (the name appears in diagnostics).
    pub fn new(name: &'static str) -> Self {
        SimLock {
            name,
            ..Default::default()
        }
    }

    /// The lock's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquires the lock on the calling core, spinning in virtual time if
    /// it is held. The spin (if any) plus the uncontended acquire cost are
    /// charged to [`Phase::Spinlock`].
    ///
    /// Returns the cycles *this* acquisition spent spinning
    /// ([`Cycles::ZERO`] when uncontended). Callers attributing contention
    /// to an acquisition site must use this value — not a diff of the
    /// global [`LockStats::total_spin`] counter, which also accumulates
    /// other cores' concurrent spins.
    ///
    /// # Panics
    ///
    /// Panics if the lock is already held (no recursion: the code under
    /// simulation never self-deadlocks, so this indicates a harness bug),
    /// or if the calling core already holds another `SimLock`: locks never
    /// nest, so no acquisition order exists to get wrong.
    #[inline]
    pub fn lock(&self, ctx: &mut CoreCtx) -> Cycles {
        assert!(
            !self.held.load(Ordering::Relaxed),
            "SimLock {:?} acquired while held (missing unlock?)",
            self.name
        );
        if let Some(outer) = ctx.holding {
            panic!(
                "SimLock {:?} acquired on core {} while it holds {outer:?} (locks never nest)",
                self.name, ctx.core.0
            );
        }
        ctx.holding = Some(self.name);
        bump(&self.acquisitions, 1);
        let free_at = Cycles(self.free_at.load(Ordering::Relaxed));
        let mut spin = Cycles::ZERO;
        if free_at > ctx.now() {
            bump(&self.contended, 1);
            spin = free_at - ctx.now();
            bump(&self.total_spin, spin.get());
            ctx.spin_until(free_at, Phase::Spinlock);
        }
        ctx.charge(Phase::Spinlock, ctx.cost.spinlock_uncontended);
        self.held.store(true, Ordering::Relaxed);
        self.held_since.store(ctx.now().get(), Ordering::Relaxed);
        spin
    }

    /// Releases the lock at the calling core's current time.
    ///
    /// # Panics
    ///
    /// Panics if the lock is not held.
    #[inline]
    pub fn unlock(&self, ctx: &mut CoreCtx) {
        assert!(
            self.held.load(Ordering::Relaxed),
            "SimLock {:?} released while free",
            self.name
        );
        self.held.store(false, Ordering::Relaxed);
        ctx.holding = None;
        let since = self.held_since.load(Ordering::Relaxed);
        let now = ctx.now().get();
        debug_assert!(now >= since);
        bump(&self.total_held, now - since);
        self.free_at.store(now, Ordering::Relaxed);
    }

    /// Runs `f` with the lock held, releasing it afterwards.
    #[inline]
    pub fn with<R>(&self, ctx: &mut CoreCtx, f: impl FnOnce(&mut CoreCtx) -> R) -> R {
        self.lock(ctx);
        let r = f(ctx);
        self.unlock(ctx);
        r
    }

    /// Whether the lock is currently held.
    pub fn is_held(&self) -> bool {
        self.held.load(Ordering::Relaxed)
    }

    /// Snapshot of contention statistics.
    pub fn stats(&self) -> LockStats {
        LockStats {
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            total_spin: Cycles(self.total_spin.load(Ordering::Relaxed)),
            total_held: Cycles(self.total_held.load(Ordering::Relaxed)),
        }
    }

    /// Clears statistics (e.g. after experiment warm-up).
    pub fn reset_stats(&self) {
        self.acquisitions.store(0, Ordering::Relaxed);
        self.contended.store(0, Ordering::Relaxed);
        self.total_spin.store(0, Ordering::Relaxed);
        self.total_held.store(0, Ordering::Relaxed);
    }
}

/// Adds `n` to a statistics counter with a load and a store: the
/// scheduler runs one core at a time against a lock, so there is no
/// concurrent update to lose, and a read-modify-write would only pay for
/// an atomicity nothing needs.
#[inline]
fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreId, CostModel};
    use std::sync::Arc;

    fn ctx_at(core: u16, t: u64) -> CoreCtx {
        let mut c = CoreCtx::new(CoreId(core), Arc::new(CostModel::zero()));
        c.seek(Cycles(t));
        c
    }

    #[test]
    fn uncontended_acquire_is_cheap() {
        let l = SimLock::new("test");
        let mut c = ctx_at(0, 100);
        l.lock(&mut c);
        assert_eq!(c.now(), Cycles(100)); // zero cost model
        l.unlock(&mut c);
        let s = l.stats();
        assert_eq!(s.acquisitions, 1);
        assert_eq!(s.contended, 0);
    }

    #[test]
    fn contended_acquire_spins_until_free() {
        let l = SimLock::new("test");
        // Core 0 holds the lock from t=0 to t=500.
        let mut c0 = ctx_at(0, 0);
        l.lock(&mut c0);
        c0.charge(Phase::Other, Cycles(500));
        l.unlock(&mut c0);

        // Core 1 arrives at t=100 and must spin until t=500.
        let mut c1 = ctx_at(1, 100);
        assert_eq!(l.lock(&mut c1), Cycles(400));
        assert_eq!(c1.now(), Cycles(500));
        assert_eq!(c1.breakdown().get(Phase::Spinlock), Cycles(400));
        l.unlock(&mut c1);

        let s = l.stats();
        assert_eq!(s.acquisitions, 2);
        assert_eq!(s.contended, 1);
        assert_eq!(s.total_spin, Cycles(400));
        assert_eq!(s.total_held, Cycles(500));
    }

    #[test]
    fn with_releases() {
        let l = SimLock::new("test");
        let mut c = ctx_at(0, 0);
        let v = l.with(&mut c, |ctx| {
            ctx.charge(Phase::Other, Cycles(10));
            42
        });
        assert_eq!(v, 42);
        assert!(!l.is_held());
        assert_eq!(l.stats().total_held, Cycles(10));
    }

    #[test]
    fn uncontended_cost_is_charged() {
        let cost = Arc::new(CostModel::haswell_2_4ghz());
        let mut c = CoreCtx::new(CoreId(0), cost.clone());
        let l = SimLock::new("test");
        l.with(&mut c, |_| {});
        assert_eq!(
            c.breakdown().get(Phase::Spinlock),
            cost.spinlock_uncontended
        );
    }

    #[test]
    #[should_panic(expected = "released while free")]
    fn double_unlock_panics() {
        let l = SimLock::new("test");
        let mut c = ctx_at(0, 0);
        l.lock(&mut c);
        l.unlock(&mut c);
        l.unlock(&mut c);
    }

    #[test]
    #[should_panic(expected = "while held")]
    fn recursive_lock_panics() {
        let l = SimLock::new("test");
        let mut c = ctx_at(0, 0);
        l.lock(&mut c);
        l.lock(&mut c);
    }

    #[test]
    #[should_panic(expected = "SimLock \"inner\" acquired on core 3 while it holds \"outer\"")]
    fn nested_locks_on_one_core_panic() {
        let (outer, inner) = (SimLock::new("outer"), SimLock::new("inner"));
        let mut c = ctx_at(3, 0);
        outer.with(&mut c, |ctx| inner.with(ctx, |_| ()));
    }

    #[test]
    fn cores_holding_different_locks_at_one_instant_do_not_nest() {
        let (a, b) = (SimLock::new("a"), SimLock::new("b"));
        let (mut c0, mut c1) = (ctx_at(0, 100), ctx_at(1, 100));
        a.lock(&mut c0);
        b.lock(&mut c1);
        assert_eq!((c0.holding(), c1.holding()), (Some("a"), Some("b")));
        a.unlock(&mut c0);
        b.unlock(&mut c1);
        assert_eq!((c0.holding(), c1.holding()), (None, None));
        // A released lock leaves the core free to take the other one.
        b.with(&mut c0, |_| ());
    }

    #[test]
    fn per_acquisition_spin_is_not_the_global_counter() {
        // Two simulated threads: core 1 spins behind core 0's critical
        // section, then core 2 acquires the (by now free) lock. The old
        // accounting diffed `total_spin` around an acquisition, so a
        // concurrent thread's spin (core 1's 400 cycles here) landed in
        // whichever acquisition read the counter next; the per-acquisition
        // return value pins the correct attribution.
        let l = SimLock::new("test");
        let mut c0 = ctx_at(0, 0);
        l.lock(&mut c0);
        c0.charge(Phase::Other, Cycles(500));
        l.unlock(&mut c0);

        // A global-counter snapshot taken before core 1's spin (as the old
        // trace_contention callers did at operation entry)...
        let spin_before = l.stats().total_spin;

        let mut c1 = ctx_at(1, 100);
        assert_eq!(l.lock(&mut c1), Cycles(400), "core 1 owns this spin");
        l.unlock(&mut c1);

        // ...now makes an uncontended acquisition by core 2 look like it
        // spun 400 cycles. The return value says zero, correctly.
        let mut c2 = ctx_at(2, 600);
        let spin2 = l.lock(&mut c2);
        l.unlock(&mut c2);
        let global_diff = l.stats().total_spin - spin_before;
        assert_eq!(global_diff, Cycles(400), "global counter mixes cores");
        assert_eq!(spin2, Cycles::ZERO, "core 2 never spun");
    }

    #[test]
    fn lock_returns_the_acquisitions_own_spin() {
        let l = SimLock::new("test");
        let mut c0 = ctx_at(0, 0);
        l.lock(&mut c0);
        c0.charge(Phase::Other, Cycles(300));
        l.unlock(&mut c0);

        let mut c1 = ctx_at(1, 0);
        assert_eq!(l.lock(&mut c1), Cycles(300));
        l.unlock(&mut c1);

        let mut c2 = ctx_at(2, 1000);
        assert_eq!(l.lock(&mut c2), Cycles::ZERO);
        l.unlock(&mut c2);
    }

    #[test]
    fn reset_stats_clears() {
        let l = SimLock::new("test");
        let mut c = ctx_at(0, 0);
        l.with(&mut c, |_| {});
        l.reset_stats();
        assert_eq!(l.stats(), LockStats::default());
    }
}
