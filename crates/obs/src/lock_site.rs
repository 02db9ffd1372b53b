//! The lock-site primitive: the one place lockset events are built.
//!
//! Every contention-visible lock in the stack feeds two consumers from the
//! same three detail-gated events: the Eraser-style lockset detector
//! (`dmasan`) intersects the locks held across `SharedAccess` events, and
//! the bounded model checker (`modelcheck`) preempts at `LockAcquire`. Both
//! depend on one ordering rule — `LockAcquire` is recorded, and the yield
//! hook fired, *before* the lock is taken, so a worker parked in the hook
//! never holds a lock another worker needs. The three forms below are the
//! only code that knows that rule. A `SimLock` guards one named structure,
//! so [`Obs::locked`] takes a literal label; the other two forms label
//! per-index state and take `format_args!(…)`, so with detail events off
//! every site costs one relaxed load and never formats its label.

use crate::{EventKind, Obs};
use simcore::{CoreCtx, Cycles, SimLock};
use std::borrow::Cow;
use std::fmt;

impl Obs {
    /// Runs `f` under `lock` as an instrumented lock site guarding the
    /// shared variable `var`; returns `f`'s result and the cycles this
    /// acquisition spent spinning (see [`SimLock::with_spin`]).
    pub fn locked<R>(
        &self,
        ctx: &mut CoreCtx,
        lock: &SimLock,
        var: &'static str,
        f: impl FnOnce(&mut CoreCtx) -> R,
    ) -> (R, Cycles) {
        if !self.detail_enabled() {
            return lock.with_spin(ctx, f);
        }
        self.lock_acquire(ctx, lock.name());
        let out = lock.with_spin(ctx, |ctx| {
            self.lockset_event(ctx, access(var.into()));
            f(ctx)
        });
        self.lockset_event(ctx, release(lock.name()));
        out
    }

    /// The name-only form, for a region guarded by a host mutex rather than
    /// a [`SimLock`]: records that `var` was touched under `lock`. Host
    /// mutexes are instantaneous in virtual time, so the three events
    /// share one timestamp and bracket the access exactly.
    pub fn guarded(&self, ctx: &CoreCtx, lock: &'static str, var: fmt::Arguments<'_>) {
        if !self.detail_enabled() {
            return;
        }
        self.lock_acquire(ctx, lock);
        self.lockset_event(ctx, access(var.to_string().into()));
        self.lockset_event(ctx, release(lock));
    }

    /// The bare form, for deliberately lock-free state (per-core lists):
    /// records that `var` was touched with whatever locks are held.
    pub fn shared_access(&self, ctx: &CoreCtx, var: fmt::Arguments<'_>) {
        if self.detail_enabled() {
            self.lockset_event(ctx, access(var.to_string().into()));
        }
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

    fn lockset_event(&self, ctx: &CoreCtx, kind: EventKind) {
        self.trace(ctx.now(), ctx.core.0, None, kind);
    }

    /// Records `LockAcquire`, then hands control to the yield hook — the
    /// caller takes the lock only after this returns.
    fn lock_acquire(&self, ctx: &CoreCtx, lock: &'static str) {
        self.lockset_event(ctx, EventKind::LockAcquire { lock: lock.into() });
        // Cloned out so the hook never runs under the cell's lock.
        let hook = self.0.yield_hook.0.read().clone();
        if let Some(hook) = hook {
            hook(lock);
        }
    }
}

fn access(var: Cow<'static, str>) -> EventKind {
    EventKind::SharedAccess { var, write: true }
}

fn release(lock: &'static str) -> EventKind {
    EventKind::LockRelease { lock: lock.into() }
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

    fn kinds(obs: &Obs) -> Vec<String> {
        obs.tracer()
            .events()
            .iter()
            .map(|e| match &e.kind {
                EventKind::LockAcquire { lock } => format!("acq:{lock}"),
                EventKind::SharedAccess { var, write } => format!("acc:{var}:{write}"),
                EventKind::LockRelease { lock } => format!("rel:{lock}"),
                other => other.name().to_string(),
            })
            .collect()
    }

    struct Never;

    impl fmt::Display for Never {
        fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
            panic!("label built with detail off")
        }
    }

    #[test]
    fn detail_off_emits_nothing_and_never_builds_the_label() {
        let obs = Obs::isolated();
        let l = SimLock::new("site-lock");
        let mut c = ctx_at(0, 0);
        let (v, _) = obs.locked(&mut c, &l, "site.var", |_| 7);
        obs.guarded(&c, "host-lock", format_args!("{Never}"));
        obs.shared_access(&c, format_args!("{Never}"));
        assert_eq!(v, 7);
        assert_eq!(l.stats().acquisitions, 1, "the lock is still taken");
        assert!(obs.tracer().events().is_empty());
    }

    #[test]
    fn detail_on_emits_acquire_access_release_with_the_locks_name() {
        let obs = Obs::isolated();
        obs.set_detail_enabled(true);
        let l = SimLock::new("site-lock");
        let mut c = ctx_at(2, 10);
        obs.locked(&mut c, &l, "site.var", |_| ());
        obs.guarded(&c, "host-lock", format_args!("host.var[{}]", c.core.0 + 1));
        obs.shared_access(&c, format_args!("free.var"));
        assert_eq!(
            kinds(&obs),
            [
                "acq:site-lock",
                "acc:site.var:true",
                "rel:site-lock",
                "acq:host-lock",
                "acc:host.var[3]:true",
                "rel:host-lock",
                "acc:free.var:true",
            ]
        );
        assert!(obs.tracer().events().iter().all(|e| e.core == 2));
    }

    #[test]
    fn yield_hook_runs_after_acquire_is_recorded_and_before_the_lock_is_taken() {
        let obs = Obs::isolated();
        obs.set_detail_enabled(true);
        let l = Arc::new(SimLock::new("site-lock"));
        let seen: Arc<Mutex<Vec<String>>> = Arc::default();
        let (o, l2, s) = (obs.clone(), l.clone(), seen.clone());
        obs.set_yield_hook(Some(Arc::new(move |name: &str| {
            let recorded = kinds(&o).join(",");
            s.lock()
                .push(format!("{name} after [{recorded}] held={}", l2.is_held()));
        })));
        let mut c = ctx_at(0, 0);
        obs.locked(&mut c, &l, "site.var", |_| assert!(l.is_held()));
        obs.guarded(&c, "host-lock", format_args!("host.var"));
        obs.shared_access(&c, format_args!("free.var"));
        obs.set_yield_hook(None); // break the obs -> hook -> obs cycle
        let seen = seen.lock();
        assert_eq!(seen.len(), 2, "one yield per acquisition, none per access");
        assert_eq!(seen[0], "site-lock after [acq:site-lock] held=false");
        assert!(seen[1].starts_with("host-lock after ["), "{}", seen[1]);
        assert!(seen[1].contains(",acq:host-lock] "), "{}", seen[1]);
    }

    #[test]
    fn returned_spin_is_the_acquisitions_own_in_both_modes() {
        for detail in [false, true] {
            let obs = Obs::isolated();
            obs.set_detail_enabled(detail);
            // Core 0 holds the lock over t=0..500; core 1 arrives at t=100.
            let l = SimLock::new("site-lock");
            let mut c0 = ctx_at(0, 0);
            l.lock(&mut c0);
            c0.charge(Phase::Other, Cycles(500));
            l.unlock(&mut c0);
            let mut c1 = ctx_at(1, 100);
            let ((), spin) = obs.locked(&mut c1, &l, "site.var", |_| ());
            assert_eq!(spin, Cycles(400), "detail={detail}");
            assert_eq!(c1.now(), Cycles(500));
            let mut c2 = ctx_at(2, 600);
            let ((), spin) = obs.locked(&mut c2, &l, "site.var", |_| ());
            assert_eq!(spin, Cycles::ZERO, "detail={detail}");
        }
    }
}
