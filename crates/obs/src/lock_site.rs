//! The lock-site primitive: the one place a lock site reaches the model
//! checker.
//!
//! Every contention-visible lock in the stack is taken through one of the
//! two forms below. While a yield hook is installed (the bounded model
//! checker's, `modelcheck`), a site records `LockAcquire` and fires the
//! hook *before* the lock is taken, so a worker parked in the hook never
//! holds a lock another worker needs; with no hook a site costs one
//! relaxed load. Locks never nest: `SimLock::lock` panics when the core
//! already holds one, and [`Obs::guarded`] when a host-mutex site is
//! reached under a held `SimLock`.

use crate::{EventKind, Obs};
use simcore::{CoreCtx, Cycles, SimLock};
use std::sync::atomic::Ordering;

impl Obs {
    /// Runs `f` under `lock` as an instrumented lock site; returns `f`'s
    /// result and the cycles this acquisition spent spinning (see
    /// [`SimLock::with_spin`]).
    pub fn locked<R>(
        &self,
        ctx: &mut CoreCtx,
        lock: &SimLock,
        f: impl FnOnce(&mut CoreCtx) -> R,
    ) -> (R, Cycles) {
        self.lock_site(ctx, lock.name());
        lock.with_spin(ctx, f)
    }

    /// The name-only form, for a region guarded by a host mutex rather than
    /// a [`SimLock`]. Host mutexes are instantaneous in virtual time, so
    /// the site is only a preemption point.
    ///
    /// # Panics
    ///
    /// Panics if the calling core holds a `SimLock`: no lock is taken
    /// inside another.
    pub fn guarded(&self, ctx: &CoreCtx, lock: &'static str) {
        if let Some(outer) = ctx.holding() {
            panic!(
                "lock site {lock:?} reached on core {} while it holds SimLock {outer:?} \
                 (locks never nest)",
                ctx.core.0
            );
        }
        self.lock_site(ctx, lock);
    }

    /// Emits `LockContention` for an acquisition of `lock` that spun.
    ///
    /// `spin` must be the acquisition's *own* spin, as returned by
    /// [`Obs::locked`] / [`SimLock::with_spin`] — not a diff of the lock's
    /// global `total_spin`, which also accumulates other cores' spins.
    pub fn trace_contention(
        &self,
        ctx: &CoreCtx,
        device: Option<u16>,
        lock: &SimLock,
        spin: Cycles,
    ) {
        if spin > Cycles::ZERO {
            self.set_now_hint(ctx.now());
            self.trace(
                ctx.now(),
                ctx.core.0,
                device,
                EventKind::LockContention {
                    lock: lock.name().into(),
                    spin_cycles: spin.get(),
                },
            );
        }
    }

    /// With a yield hook installed, records `LockAcquire`, then hands
    /// control to the hook — the caller takes the lock only after this
    /// returns.
    fn lock_site(&self, ctx: &CoreCtx, lock: &'static str) {
        if !self.0.hooked.load(Ordering::Relaxed) {
            return;
        }
        let kind = EventKind::LockAcquire { lock: lock.into() };
        self.trace(ctx.now(), ctx.core.0, None, kind);
        // Cloned out so the hook never runs under the cell's lock.
        let hook = self.0.yield_hook.0.read().clone();
        if let Some(hook) = hook {
            hook(lock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::sync::Mutex;
    use simcore::{CoreId, CostModel, Phase};
    use std::sync::Arc;

    fn ctx_at(core: u16, t: u64) -> CoreCtx {
        let mut c = CoreCtx::new(CoreId(core), Arc::new(CostModel::zero()));
        c.seek(Cycles(t));
        c
    }

    fn acquires(obs: &Obs) -> Vec<String> {
        obs.tracer()
            .events()
            .iter()
            .map(|e| match &e.kind {
                EventKind::LockAcquire { lock } => format!("acq:{lock}@{}", e.core),
                other => other.name().to_string(),
            })
            .collect()
    }

    #[test]
    fn without_a_hook_sites_record_nothing() {
        let obs = Obs::isolated();
        let l = SimLock::new("site-lock");
        let mut c = ctx_at(0, 0);
        let (v, _) = obs.locked(&mut c, &l, |_| 7);
        obs.guarded(&c, "host-lock");
        assert_eq!(v, 7);
        assert_eq!(l.stats().acquisitions, 1, "the lock is still taken");
        assert!(obs.tracer().events().is_empty());
    }

    #[test]
    fn yield_hook_runs_after_acquire_is_recorded_and_before_the_lock_is_taken() {
        let obs = Obs::isolated();
        let l = Arc::new(SimLock::new("site-lock"));
        let seen: Arc<Mutex<Vec<String>>> = Arc::default();
        let (o, l2, s) = (obs.clone(), l.clone(), seen.clone());
        obs.set_yield_hook(Some(Arc::new(move |name: &str| {
            let recorded = acquires(&o).join(",");
            s.lock()
                .push(format!("{name} after [{recorded}] held={}", l2.is_held()));
        })));
        let mut c = ctx_at(2, 0);
        obs.locked(&mut c, &l, |_| assert!(l.is_held()));
        obs.guarded(&c, "host-lock");
        obs.set_yield_hook(None); // break the obs -> hook -> obs cycle
        obs.guarded(&c, "unhooked");
        assert_eq!(
            *seen.lock(),
            [
                "site-lock after [acq:site-lock@2] held=false",
                "host-lock after [acq:site-lock@2,acq:host-lock@2] held=false",
            ]
        );
        assert_eq!(acquires(&obs).len(), 2, "removing the hook stops recording");
    }

    #[test]
    #[should_panic(
        expected = "lock site \"pool-cache\" reached on core 1 while it holds SimLock \"site-lock\""
    )]
    fn a_guarded_site_under_a_held_simlock_panics() {
        let obs = Obs::isolated();
        let l = SimLock::new("site-lock");
        let mut c = ctx_at(1, 0);
        obs.locked(&mut c, &l, |ctx| obs.guarded(ctx, "pool-cache"));
    }

    #[test]
    fn returned_spin_is_the_acquisitions_own() {
        let obs = Obs::isolated();
        // Core 0 holds the lock over t=0..500; core 1 arrives at t=100.
        let l = SimLock::new("site-lock");
        let mut c0 = ctx_at(0, 0);
        l.lock(&mut c0);
        c0.charge(Phase::Other, Cycles(500));
        l.unlock(&mut c0);
        let mut c1 = ctx_at(1, 100);
        let ((), spin) = obs.locked(&mut c1, &l, |_| ());
        assert_eq!(spin, Cycles(400));
        assert_eq!(c1.now(), Cycles(500));
        let mut c2 = ctx_at(2, 600);
        let ((), spin) = obs.locked(&mut c2, &l, |_| ());
        assert_eq!(spin, Cycles::ZERO);
    }
}
