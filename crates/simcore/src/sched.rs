//! Earliest-core-first multi-core scheduler.
//!
//! The ready queue is a hierarchical timing wheel ([`TimingWheel`]) rather
//! than a binary heap: the per-step reschedule — pop the earliest core,
//! advance it, push it back a packet-length ahead — is the hottest
//! scheduler operation in every figure run, and on the wheel both ends are
//! O(1) bitmap-and-push work for the common near-future case. Pop order is
//! exactly the old heap's lexicographic `(time, core id)` order, which the
//! property tests below pin against a `BinaryHeap` oracle.

// lint: allow(panic) — wheel occupancy-bitmap/len invariants are scheduler
// bugs, not runtime errors; the oracle property tests exercise them

use crate::{CoreCtx, CoreId, CostModel, Cycles};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Slots per wheel level; one occupancy bit per slot fills a `u64`.
const WHEEL_SLOTS: usize = 64;
/// Bits of the time key consumed per level (`64 = 1 << 6` slots).
const WHEEL_BITS: u32 = 6;
/// Wheel levels. An event whose time differs from the cursor in a 6-bit
/// digit at or above this level is parked in the overflow heap instead
/// (far-future waits: wire backpressure stalls, idle cores at horizon).
const WHEEL_LEVELS: usize = 4;

/// The 6-bit digit position where `t` and `base` first differ, scanning
/// from the top — the wheel level an event at `t` belongs to while the
/// cursor sits at `base`.
#[inline]
fn wheel_level(base: u64, t: u64) -> usize {
    let x = base ^ t;
    if x == 0 {
        0
    } else {
        ((63 - x.leading_zeros()) / WHEEL_BITS) as usize
    }
}

/// Hierarchical timing wheel over `(Cycles, core index)` keys, popping in
/// exactly the lexicographic order a min-heap of `(time, core)` would.
///
/// Level `k` buckets events by the `k`-th 6-bit digit of their time, but
/// only events whose digits *above* `k` all match the cursor `base` live
/// there. That invariant (maintained by choosing the level from
/// `base ^ t`) means a level's occupied slots always sit at or after the
/// cursor's slot — the lowest set occupancy bit is always the earliest
/// slot, with no ring-wrap case. Events past the top level's span go to a
/// `BinaryHeap` overflow; they are provably later than every wheel entry
/// (they differ from `base` in a digit the whole wheel agrees on), so the
/// heap only needs consulting when the wheel is empty.
///
/// Pushing a time earlier than the last popped time is not supported
/// (debug-asserted): the simulation only ever reschedules a core at or
/// after the instant it was stepped.
#[derive(Debug)]
pub struct TimingWheel {
    /// Cursor: the last popped time (no event precedes it).
    base: u64,
    /// Per-level slot occupancy bitmaps.
    occupied: [u64; WHEEL_LEVELS],
    /// `WHEEL_LEVELS * WHEEL_SLOTS` buckets of `(time, core)` entries.
    slots: Vec<Vec<(u64, usize)>>,
    /// Far-future events, beyond the top level's span from `base`.
    overflow: BinaryHeap<Reverse<(u64, usize)>>,
    /// An empty bucket swapped in for the one a cascade drains, so the
    /// drained bucket keeps its capacity and a cascade allocates nothing.
    scratch: Vec<(u64, usize)>,
    len: usize,
}

impl Default for TimingWheel {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl TimingWheel {
    /// An empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        TimingWheel {
            base: 0,
            occupied: [0; WHEEL_LEVELS],
            slots: vec![Vec::new(); WHEEL_LEVELS * WHEEL_SLOTS],
            overflow: BinaryHeap::new(),
            scratch: Vec::new(),
            len: 0,
        }
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `core` to run at `t`. `t` must not precede the last popped
    /// time.
    pub fn push(&mut self, t: Cycles, core: usize) {
        debug_assert!(t.get() >= self.base, "push into the past");
        self.insert(t.get(), core);
        self.len += 1;
    }

    fn insert(&mut self, t: u64, core: usize) {
        let lvl = wheel_level(self.base, t);
        if lvl >= WHEEL_LEVELS {
            self.overflow.push(Reverse((t, core)));
        } else {
            let slot = ((t >> (WHEEL_BITS * lvl as u32)) & (WHEEL_SLOTS as u64 - 1)) as usize;
            self.occupied[lvl] |= 1 << slot;
            self.slots[lvl * WHEEL_SLOTS + slot].push((t, core));
        }
    }

    /// Removes and returns the earliest event, ties broken by lowest core
    /// index — the exact order of a min-heap over `(time, core)`.
    pub fn pop(&mut self) -> Option<(Cycles, usize)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        loop {
            let Some(lvl) = (0..WHEEL_LEVELS).find(|&k| self.occupied[k] != 0) else {
                // Wheel empty: jump the cursor to the overflow's earliest
                // event and pull newly-in-range events back into the wheel.
                let Reverse((t, core)) = self.overflow.pop().expect("len tracked");
                self.base = t;
                while let Some(&Reverse((ot, _))) = self.overflow.peek() {
                    if wheel_level(self.base, ot) >= WHEEL_LEVELS {
                        break;
                    }
                    let Reverse((ot, oc)) = self.overflow.pop().expect("peeked");
                    self.insert(ot, oc);
                }
                return Some((Cycles(t), core));
            };
            let slot = self.occupied[lvl].trailing_zeros() as usize;
            let bucket = lvl * WHEEL_SLOTS + slot;
            if lvl == 0 {
                // A level-0 bucket holds exactly one distinct time; take
                // the lowest core index.
                let min = self.slots[bucket]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &e)| e)
                    .map(|(i, _)| i)
                    .expect("occupied bit set");
                let (t, core) = self.slots[bucket].swap_remove(min);
                if self.slots[bucket].is_empty() {
                    self.occupied[0] &= !(1 << slot);
                }
                self.base = t;
                return Some((Cycles(t), core));
            }
            // Cascade: advance the cursor to the bucket's earliest time and
            // re-bucket its events, which now all land on lower levels.
            let empty = std::mem::take(&mut self.scratch);
            let mut drained = std::mem::replace(&mut self.slots[bucket], empty);
            self.occupied[lvl] &= !(1 << slot);
            self.base = drained.iter().map(|&(t, _)| t).min().expect("bit set");
            for (t, core) in drained.drain(..) {
                self.insert(t, core);
            }
            self.scratch = drained;
        }
    }
}

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
        let mut wheel = TimingWheel::new();
        for (i, c) in self.ctxs.iter().enumerate() {
            wheel.push(c.now(), i);
        }
        let mut stalls = vec![0u32; self.ctxs.len()];
        let mut last_time = Cycles::ZERO;
        while let Some((t, i)) = wheel.pop() {
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
            wheel.push(after, i);
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

    /// Charge deltas that exercise every wheel regime: same-slot
    /// rescheduling (0 and tiny), digit-boundary crossings at each level,
    /// and far-future jumps that overflow into the fallback heap.
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

    #[test]
    fn wheel_matches_heap_oracle_pop_order() {
        // Drive the wheel and a BinaryHeap through identical random
        // push/pop sequences and require identical pop order, including
        // same-time entries (ties must come out lowest-core-first).
        for seed in 0..20u64 {
            let mut rng = crate::SimRng::seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5);
            let mut wheel = TimingWheel::new();
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
            let cores = 1 + rng.below(24) as usize;
            for i in 0..cores {
                let t = random_delta(&mut rng);
                wheel.push(Cycles(t), i);
                heap.push(Reverse((t, i)));
            }
            // Deliberate tie pile-up: several cores at one instant.
            for _ in 0..1500 {
                let got = wheel.pop();
                let want = heap.pop().map(|Reverse((t, i))| (Cycles(t), i));
                assert_eq!(got, want, "pop order diverged");
                let Some((t, i)) = got else { break };
                if rng.chance(0.9) {
                    let nt = t.get() + random_delta(&mut rng);
                    wheel.push(Cycles(nt), i);
                    heap.push(Reverse((nt, i)));
                    if rng.chance(0.2) {
                        // Pile a second entry onto the same instant so the
                        // lowest-core-first tie break is actually exercised.
                        let j = cores + rng.below(cores as u64) as usize;
                        wheel.push(Cycles(nt), j);
                        heap.push(Reverse((nt, j)));
                    }
                }
            }
            assert_eq!(wheel.len(), heap.len());
            while let Some(got) = wheel.pop() {
                let want = heap.pop().map(|Reverse((t, i))| (Cycles(t), i));
                assert_eq!(Some(got), want, "drain order diverged");
            }
            assert!(heap.pop().is_none());
        }
    }

    /// The old `BinaryHeap` scheduler loop, kept verbatim as the oracle
    /// for [`MultiCoreSim::run`]'s step-order equivalence.
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
        // Same random-charge tasks through the wheel-based run() and the
        // old heap loop: identical step sequence, end times, and result.
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
