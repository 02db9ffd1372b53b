//! The lock-site primitive: the one place a lock is taken.
//!
//! Every contention-visible lock in the stack is taken through one of the
//! two calls below, and nowhere else: [`Obs::locked`] for a [`SimLock`],
//! [`Obs::guarded`] for a region behind a host mutex. While a yield hook
//! is installed (the bounded model checker's, `modelcheck`), a site
//! records `LockAcquire` and fires the hook *before* the lock is taken, so
//! a worker parked in the hook never holds a lock another worker needs;
//! with no hook a site costs one relaxed load. `locked` also traces the
//! acquisition's own spin as `LockContention`, so no caller handles a spin
//! figure. Locks never nest: `SimLock::lock` panics when the core already
//! holds one, and [`Obs::guarded`] when a host-mutex site is reached under
//! a held `SimLock`.

use crate::{EventKind, Obs};
use simcore::{CoreCtx, Cycles, SimLock};
use std::sync::atomic::Ordering;

impl Obs {
    /// Runs `f` under `lock` as an instrumented lock site and returns its
    /// result: fires the yield hook, takes the lock, runs `f`, releases
    /// the lock, and — when this acquisition spun — emits
    /// `LockContention` with its own spin, attributed to `device`.
    pub fn locked<R>(
        &self,
        ctx: &mut CoreCtx,
        device: Option<u16>,
        lock: &SimLock,
        f: impl FnOnce(&mut CoreCtx) -> R,
    ) -> R {
        self.lock_site(ctx, lock.name());
        let spin = lock.lock(ctx);
        let r = f(ctx);
        lock.unlock(ctx);
        self.trace_contention(ctx, device, lock, spin);
        r
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
    /// `spin` is the acquisition's *own* spin, as `SimLock::lock` returns
    /// it — not a diff of the lock's global `total_spin`, which also
    /// accumulates other cores' spins.
    fn trace_contention(&self, ctx: &CoreCtx, device: Option<u16>, lock: &SimLock, spin: Cycles) {
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
        let v = obs.locked(&mut c, None, &l, |_| 7);
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
        obs.locked(&mut c, None, &l, |_| assert!(l.is_held()));
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
        obs.locked(&mut c, None, &l, |ctx| obs.guarded(ctx, "pool-cache"));
    }

    #[test]
    fn contention_is_traced_with_the_acquisitions_own_spin() {
        let obs = Obs::isolated();
        // Core 0 holds the lock over t=0..500; core 1 arrives at t=100.
        let l = SimLock::new("site-lock");
        let mut c0 = ctx_at(0, 0);
        l.lock(&mut c0);
        c0.charge(Phase::Other, Cycles(500));
        l.unlock(&mut c0);
        let mut c1 = ctx_at(1, 100);
        obs.locked(&mut c1, Some(3), &l, |_| ());
        assert_eq!(c1.now(), Cycles(500));
        // Core 2 arrives after the release: no spin, no event.
        let mut c2 = ctx_at(2, 600);
        obs.locked(&mut c2, None, &l, |_| ());
        let traced: Vec<_> = obs
            .tracer()
            .events()
            .into_iter()
            .map(|e| (e.at, e.core, e.device, e.kind))
            .collect();
        let spun = EventKind::LockContention {
            lock: "site-lock".into(),
            spin_cycles: 400,
        };
        assert_eq!(traced, [(Cycles(500), 1, Some(3), spun)]);
    }
}
