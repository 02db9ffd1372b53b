//! Per-core virtual clock and accounting context.

use crate::{Breakdown, CoreId, CostModel, Cycles, Phase};
use std::sync::Arc;

/// The execution context of one virtual core.
///
/// Everything that runs "on a CPU" in the simulation — the DMA API, the
/// network stack, lock spinning — charges its cost here. The context tracks
/// the core's current virtual time, how much of it was spent busy vs idle
/// (for the CPU-utilization columns of the paper's figures), and a per-phase
/// [`Breakdown`] (for the Figure 5/8/10 bars).
#[derive(Debug, Clone)]
pub struct CoreCtx {
    /// This core's identifier.
    pub core: CoreId,
    /// The shared cost model.
    pub cost: Arc<CostModel>,
    /// Number of cores actively driving DMA in the current experiment;
    /// used by the IOMMU model to scale invalidation latency (Figure 8).
    pub active_cores: usize,
    /// Per-phase busy time: the one record of where this core's cycles
    /// went, written only by [`CoreCtx::charge`].
    breakdown: Breakdown,
    now: Cycles,
    idle: Cycles,
    /// The [`crate::SimLock`] this core holds, if any: written only by
    /// `SimLock::lock` / `unlock`, which keep locks from nesting.
    pub(crate) holding: Option<&'static str>,
}

impl CoreCtx {
    /// Creates a context for `core` starting at time zero.
    pub fn new(core: CoreId, cost: Arc<CostModel>) -> Self {
        CoreCtx {
            core,
            cost,
            active_cores: 1,
            breakdown: Breakdown::new(),
            now: Cycles::ZERO,
            idle: Cycles::ZERO,
            holding: None,
        }
    }

    /// Current virtual time of this core.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Busy cycles per [`Phase`] since creation or the last
    /// [`CoreCtx::reset_stats`] (the Figure 5/8/10 bars).
    pub fn breakdown(&self) -> &Breakdown {
        &self.breakdown
    }

    /// The name of the [`crate::SimLock`] this core holds, if any. Locks
    /// never nest, so there is at most one.
    pub fn holding(&self) -> Option<&'static str> {
        self.holding
    }

    /// Cycles this core spent doing work (including lock spinning, which is
    /// busy-waiting and burns CPU).
    pub fn busy(&self) -> Cycles {
        self.breakdown.total()
    }

    /// Cycles this core spent idle (waiting for packets/work).
    pub fn idle(&self) -> Cycles {
        self.idle
    }

    /// CPU utilization over the core's lifetime so far, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let busy = self.busy();
        let total = busy + self.idle;
        if total == Cycles::ZERO {
            return 0.0;
        }
        busy.get() as f64 / total.get() as f64
    }

    /// Performs `cycles` of busy work attributed to `phase`.
    pub fn charge(&mut self, phase: Phase, cycles: Cycles) {
        self.now += cycles;
        self.breakdown.record(phase, cycles);
    }

    /// Blocks (idle) until instant `t`. No-op if `t` is in the past.
    pub fn wait_until(&mut self, t: Cycles) {
        if t > self.now {
            self.idle += t - self.now;
            self.now = t;
        }
    }

    /// Busy-waits (spinning) until instant `t`, attributed to `phase`
    /// (normally [`Phase::Spinlock`] or [`Phase::InvalidateIotlb`]).
    pub fn spin_until(&mut self, t: Cycles, phase: Phase) {
        if t > self.now {
            let d = t - self.now;
            self.charge(phase, d);
        }
    }

    /// Resets busy/idle/breakdown accounting without touching the clock.
    ///
    /// Experiments call this after warm-up so steady-state numbers are not
    /// skewed by pool growth and cold caches.
    pub fn reset_stats(&mut self) {
        self.idle = Cycles::ZERO;
        self.breakdown = Breakdown::new();
    }

    /// Forces the clock to instant `t` without accounting (used by
    /// schedulers when staging cores at experiment start).
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time.
    pub fn seek(&mut self, t: Cycles) {
        assert!(t >= self.now, "cannot seek backwards");
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CoreCtx {
        CoreCtx::new(CoreId(0), Arc::new(CostModel::haswell_2_4ghz()))
    }

    #[test]
    fn charge_advances_time_and_busy() {
        let mut c = ctx();
        c.charge(Phase::Memcpy, Cycles(100));
        assert_eq!(c.now(), Cycles(100));
        assert_eq!(c.busy(), Cycles(100));
        assert_eq!(c.idle(), Cycles::ZERO);
        assert_eq!(c.breakdown().get(Phase::Memcpy), Cycles(100));
    }

    #[test]
    fn wait_until_is_idle() {
        let mut c = ctx();
        c.charge(Phase::Other, Cycles(10));
        c.wait_until(Cycles(50));
        assert_eq!(c.now(), Cycles(50));
        assert_eq!(c.idle(), Cycles(40));
        // Waiting for the past is a no-op.
        c.wait_until(Cycles(20));
        assert_eq!(c.now(), Cycles(50));
    }

    #[test]
    fn spin_until_is_busy() {
        let mut c = ctx();
        c.spin_until(Cycles(30), Phase::Spinlock);
        assert_eq!(c.busy(), Cycles(30));
        assert_eq!(c.breakdown().get(Phase::Spinlock), Cycles(30));
    }

    #[test]
    fn utilization() {
        let mut c = ctx();
        assert_eq!(c.utilization(), 0.0);
        c.charge(Phase::Other, Cycles(75));
        c.wait_until(Cycles(100));
        assert!((c.utilization() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn reset_stats_keeps_clock() {
        let mut c = ctx();
        c.charge(Phase::Other, Cycles(100));
        c.wait_until(Cycles(150));
        c.reset_stats();
        assert_eq!(c.now(), Cycles(150));
        assert_eq!(c.busy(), Cycles::ZERO);
        assert_eq!(c.idle(), Cycles::ZERO);
        assert_eq!(c.breakdown().total(), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "seek backwards")]
    fn seek_backwards_panics() {
        let mut c = ctx();
        c.charge(Phase::Other, Cycles(10));
        c.seek(Cycles(5));
    }
}
