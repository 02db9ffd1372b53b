//! Earliest-core-first multi-core scheduler.
//!
//! The ready queue is a `BinaryHeap` of `(time, core id)` keys: the
//! scheduler always steps the core with the earliest clock, ties broken by
//! the lowest core id.

use crate::{CoreCtx, CoreId, CostModel, Cycles};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Result of one scheduling step of a [`CoreTask`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The task has more work; reschedule at the core's new time.
    Continue,
    /// The task is finished; the core leaves the simulation.
    Done,
}

/// A unit of per-core work driven by [`MultiCoreSim`].
///
/// One `step` should simulate one work item (a packet, a transaction);
/// shared virtual-time resources ([`crate::SimLock`], [`crate::Wire`]) are
/// touched inside `step`. The scheduler always steps the core with the
/// earliest clock, so resource acquisition order approximates global FIFO
/// order with an error bounded by one step length.
pub trait CoreTask {
    /// Simulates one work item on the given core, advancing `ctx`.
    fn step(&mut self, ctx: &mut CoreCtx) -> StepOutcome;
}

impl<F: FnMut(&mut CoreCtx) -> StepOutcome> CoreTask for F {
    fn step(&mut self, ctx: &mut CoreCtx) -> StepOutcome {
        self(ctx)
    }
}

/// Deterministic multi-core simulation driver.
///
/// Owns one [`CoreCtx`] per core and repeatedly steps the earliest core
/// (ties broken by core id) until every task completes or the horizon is
/// reached.
#[derive(Debug)]
pub struct MultiCoreSim {
    ctxs: Vec<CoreCtx>,
}

impl MultiCoreSim {
    /// Creates a simulation with `n_cores` cores sharing `cost`.
    ///
    /// Every context's `active_cores` is set to `n_cores`.
    pub fn new(cost: Arc<CostModel>, n_cores: usize) -> Self {
        assert!(n_cores > 0, "need at least one core");
        let ctxs = (0..n_cores)
            .map(|i| {
                let mut c = CoreCtx::new(CoreId(i as u16), cost.clone());
                c.active_cores = n_cores;
                c
            })
            .collect();
        MultiCoreSim { ctxs }
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.ctxs.len()
    }

    /// Access to the per-core contexts (for stats extraction).
    pub fn ctxs(&self) -> &[CoreCtx] {
        &self.ctxs
    }

    /// Mutable access to the per-core contexts (e.g. to reset stats after
    /// warm-up).
    pub fn ctxs_mut(&mut self) -> &mut [CoreCtx] {
        &mut self.ctxs
    }

    /// Runs one task per core until all tasks are done or every remaining
    /// core's clock passes `horizon`.
    ///
    /// Returns the virtual instant at which the last core stopped.
    ///
    /// # Panics
    ///
    /// Panics if `tasks.len()` differs from the core count, or if a task
    /// fails to advance its core's clock for a large number of consecutive
    /// steps (which would indicate a stuck simulation).
    pub fn run(&mut self, tasks: &mut [Box<dyn CoreTask + '_>], horizon: Cycles) -> Cycles {
        assert_eq!(
            tasks.len(),
            self.ctxs.len(),
            "one task per core is required"
        );
        let mut ready: BinaryHeap<Reverse<(Cycles, usize)>> = self
            .ctxs
            .iter()
            .enumerate()
            .map(|(i, c)| Reverse((c.now(), i)))
            .collect();
        let mut stalls = vec![0u32; self.ctxs.len()];
        let mut last_time = Cycles::ZERO;
        while let Some(Reverse((t, i))) = ready.pop() {
            last_time = last_time.max(t);
            if t >= horizon {
                continue;
            }
            let ctx = &mut self.ctxs[i];
            let before = ctx.now();
            let outcome = tasks[i].step(ctx);
            let after = ctx.now();
            last_time = last_time.max(after);
            if outcome == StepOutcome::Done {
                continue;
            }
            if after == before {
                stalls[i] += 1;
                assert!(
                    stalls[i] < 1_000_000,
                    "task on core {i} made no progress for 1e6 steps"
                );
            } else {
                stalls[i] = 0;
            }
            ready.push(Reverse((after, i)));
        }
        last_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Phase, SimLock};

    #[test]
    fn steps_earliest_core_first() {
        let cost = Arc::new(CostModel::zero());
        let mut sim = MultiCoreSim::new(cost, 2);
        let order = std::cell::RefCell::new(Vec::new());
        {
            let mut tasks: Vec<Box<dyn CoreTask + '_>> = vec![
                Box::new(|ctx: &mut CoreCtx| {
                    order.borrow_mut().push((ctx.core, ctx.now()));
                    ctx.charge(Phase::Other, Cycles(100));
                    if ctx.now() >= Cycles(300) {
                        StepOutcome::Done
                    } else {
                        StepOutcome::Continue
                    }
                }),
                Box::new(|ctx: &mut CoreCtx| {
                    order.borrow_mut().push((ctx.core, ctx.now()));
                    ctx.charge(Phase::Other, Cycles(150));
                    if ctx.now() >= Cycles(300) {
                        StepOutcome::Done
                    } else {
                        StepOutcome::Continue
                    }
                }),
            ];
            sim.run(&mut tasks, Cycles::MAX);
        }
        let order = order.into_inner();
        // Times must be non-decreasing because the earliest core runs first.
        for w in order.windows(2) {
            assert!(
                w[1].1 >= w[0].1,
                "step at {:?} ran after a step at {:?}",
                w[1].1,
                w[0].1
            );
        }
        // Both cores ran to >= 300.
        assert!(sim.ctxs()[0].now() >= Cycles(300));
        assert!(sim.ctxs()[1].now() >= Cycles(300));
    }

    #[test]
    fn horizon_stops_tasks() {
        let cost = Arc::new(CostModel::zero());
        let mut sim = MultiCoreSim::new(cost, 1);
        let mut steps = 0u32;
        {
            let mut tasks: Vec<Box<dyn CoreTask + '_>> = vec![Box::new(|ctx: &mut CoreCtx| {
                steps += 1;
                ctx.charge(Phase::Other, Cycles(10));
                StepOutcome::Continue
            })];
            sim.run(&mut tasks, Cycles(100));
        }
        assert_eq!(steps, 10);
    }

    #[test]
    fn lock_contention_is_fifo_in_virtual_time() {
        // Two cores each take the same lock per step and hold it for 100
        // cycles; total throughput should be one critical section per 100
        // cycles, i.e. the cores perfectly interleave.
        let cost = Arc::new(CostModel::zero());
        let lock = SimLock::new("shared");
        let mut sim = MultiCoreSim::new(cost, 2);
        {
            let l = &lock;
            let mk = || {
                move |ctx: &mut CoreCtx| {
                    l.with(ctx, |ctx| ctx.charge(Phase::Other, Cycles(100)));
                    StepOutcome::Continue
                }
            };
            let mut tasks: Vec<Box<dyn CoreTask + '_>> = vec![Box::new(mk()), Box::new(mk())];
            sim.run(&mut tasks, Cycles(10_000));
        }
        let s = lock.stats();
        // ~100 acquisitions fit in 10k cycles at 100 cycles each.
        assert!((95..=105).contains(&s.acquisitions), "{}", s.acquisitions);
        // Every acquisition after the first pair should have spun ~100 cyc.
        assert!(
            s.total_spin >= Cycles(4000),
            "spin = {}",
            s.total_spin.get()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let cost = Arc::new(CostModel::haswell_2_4ghz());
            let lock = SimLock::new("l");
            let mut sim = MultiCoreSim::new(cost, 4);
            {
                let l = &lock;
                let mut tasks: Vec<Box<dyn CoreTask + '_>> = (0..4)
                    .map(|i: u64| {
                        Box::new(move |ctx: &mut CoreCtx| {
                            ctx.charge(Phase::Other, Cycles(50 + i * 13));
                            l.with(ctx, |ctx| ctx.charge(Phase::Memcpy, Cycles(30)));
                            StepOutcome::Continue
                        }) as Box<dyn CoreTask + '_>
                    })
                    .collect();
                sim.run(&mut tasks, Cycles(100_000));
            }
            (
                lock.stats(),
                sim.ctxs().iter().map(|c| c.now()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "one task per core")]
    fn task_count_mismatch_panics() {
        let mut sim = MultiCoreSim::new(Arc::new(CostModel::zero()), 2);
        let mut tasks: Vec<Box<dyn CoreTask + '_>> = vec![];
        sim.run(&mut tasks, Cycles(1));
    }

    /// Charge deltas from zero (same-instant ties) to far-future jumps.
    fn random_delta(rng: &mut crate::SimRng) -> u64 {
        match rng.below(10) {
            0 => 0,
            1..=4 => rng.below(64),
            5 | 6 => rng.below(4096),
            7 => rng.below(1 << 18),
            8 => rng.below(1 << 24),
            _ => rng.below(1 << 34),
        }
    }

    /// The bare `(time, core)` min-heap loop, the oracle for
    /// [`MultiCoreSim::run`]'s step order.
    fn run_heap_oracle(
        ctxs: &mut [CoreCtx],
        tasks: &mut [Box<dyn CoreTask + '_>],
        horizon: Cycles,
    ) -> Cycles {
        let mut heap: BinaryHeap<Reverse<(Cycles, usize)>> = ctxs
            .iter()
            .enumerate()
            .map(|(i, c)| Reverse((c.now(), i)))
            .collect();
        let mut last_time = Cycles::ZERO;
        while let Some(Reverse((t, i))) = heap.pop() {
            last_time = last_time.max(t);
            if t >= horizon {
                continue;
            }
            let ctx = &mut ctxs[i];
            let outcome = tasks[i].step(ctx);
            let after = ctx.now();
            last_time = last_time.max(after);
            if outcome == StepOutcome::Done {
                continue;
            }
            heap.push(Reverse((after, i)));
        }
        last_time
    }

    #[test]
    fn run_matches_heap_oracle_step_order() {
        // Same random-charge tasks through run() and the bare heap loop:
        // identical step sequence, end times, and result.
        for seed in [7u64, 99, 4242] {
            let record = |use_oracle: bool| {
                let cost = Arc::new(CostModel::zero());
                let cores = 6;
                let mut sim = MultiCoreSim::new(cost, cores);
                let steps = std::cell::RefCell::new(Vec::new());
                let rngs: Vec<_> = (0..cores)
                    .map(|i| std::cell::RefCell::new(crate::SimRng::seed(seed ^ i as u64)))
                    .collect();
                let last = {
                    let mut tasks: Vec<Box<dyn CoreTask + '_>> = (0..cores)
                        .map(|i| {
                            let steps = &steps;
                            let rngs = &rngs;
                            Box::new(move |ctx: &mut CoreCtx| {
                                steps.borrow_mut().push((ctx.core, ctx.now()));
                                let d = random_delta(&mut rngs[i].borrow_mut());
                                ctx.charge(Phase::Other, Cycles(d));
                                if steps.borrow().len() > 400 {
                                    StepOutcome::Done
                                } else {
                                    StepOutcome::Continue
                                }
                            }) as Box<dyn CoreTask + '_>
                        })
                        .collect();
                    if use_oracle {
                        run_heap_oracle(sim.ctxs_mut(), &mut tasks, Cycles(1 << 40))
                    } else {
                        sim.run(&mut tasks, Cycles(1 << 40))
                    }
                };
                (steps.into_inner(), last)
            };
            assert_eq!(record(false), record(true), "seed {seed}");
        }
    }
}
