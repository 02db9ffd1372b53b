//! The schedule-controlled executor: one logical thread runs at a time.
//!
//! Worker threads (mappers, the device) hand control back to the explorer
//! at *yield points*: explicit operation boundaries in their scripts, and
//! every instrumented lock site (delivered through the [`obs`] yield
//! hook). Because the lock-site primitive fires the hook *before* taking
//! the underlying lock — and nothing in the stack yields while holding a
//! host lock — a parked worker never blocks another worker, so the handoff
//! can never deadlock.
//!
//! The executor is rebuilt for every run: bounded model checking here is
//! *stateless* (loom/Shuttle style) — each schedule is replayed against a
//! fresh stack, so no state snapshotting is needed.

use obs::Obs;
use std::cell::RefCell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Logical thread id: `0..mappers` are mapper threads, `mappers` is the
/// device thread.
pub type Tid = usize;

/// What a parked worker is about to do next — the information the
/// explorer's sleep-set pruning reasons about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum YieldInfo {
    /// An explicit operation boundary in a harness script.
    Op(String),
    /// An instrumented lock-acquisition site (the lock's registered name),
    /// reached through the `obs` yield hook.
    Lock(String),
}

impl YieldInfo {
    /// Compact label used in schedules and counterexample fixtures.
    pub fn label(&self) -> String {
        match self {
            YieldInfo::Op(l) => format!("op:{l}"),
            YieldInfo::Lock(l) => format!("lock:{l}"),
        }
    }
}

/// A worker's scheduling state, as seen by the explorer at quiescence.
#[derive(Debug, Clone)]
pub enum ThreadView {
    /// Parked at a yield point, waiting for a grant.
    Parked(YieldInfo),
    /// Script ran to completion.
    Finished,
    /// Script panicked (message captured).
    Panicked(String),
}

#[derive(Debug, Clone)]
enum Status {
    Running,
    Parked(YieldInfo),
    Finished,
    Panicked(String),
}

#[derive(Debug)]
struct ExecState {
    granted: Option<Tid>,
    status: Vec<Status>,
}

/// The condvar-handoff scheduler shared by the explorer and its workers.
#[derive(Debug)]
pub struct Executor {
    state: Mutex<ExecState>,
    worker_cv: Condvar,
    explorer_cv: Condvar,
}

thread_local! {
    /// The executor + tid of the worker running on this host thread, if
    /// any. The `obs` yield hook consults this so lock events on
    /// non-worker threads (rig setup, other tests) are ignored.
    static CURRENT: RefCell<Option<(Arc<Executor>, Tid)>> = const { RefCell::new(None) };
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Executor {
    /// Creates an executor for `threads` workers, all initially unparked.
    pub fn new(threads: usize) -> Arc<Self> {
        Arc::new(Executor {
            state: Mutex::new(ExecState {
                granted: None,
                status: vec![Status::Running; threads],
            }),
            worker_cv: Condvar::new(),
            explorer_cv: Condvar::new(),
        })
    }

    /// Installs the schedule-interception hook on `obs`: every instrumented
    /// lock site reached from a registered worker thread becomes a
    /// preemption point. Also enables detail events, which gate the lockset
    /// instrumentation the hook feeds on.
    pub fn install_hook(obs: &Obs) {
        obs.set_detail_enabled(true);
        obs.set_yield_hook(Some(Arc::new(|lock: &str| {
            Self::yield_current(YieldInfo::Lock(lock.to_string()));
        })));
    }

    /// Runs `body` as worker `tid`: registers the thread, parks at the
    /// initial `op:start` yield point, and reports completion or panic.
    pub fn run_worker(self: &Arc<Self>, tid: Tid, body: impl FnOnce()) {
        CURRENT.with(|c| *c.borrow_mut() = Some((self.clone(), tid)));
        self.yield_now(tid, YieldInfo::Op("start".into()));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        CURRENT.with(|c| *c.borrow_mut() = None);
        match result {
            Ok(()) => self.finish(tid),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "worker panicked".into());
                self.panicked(tid, msg);
            }
        }
    }

    /// Worker-side explicit operation-boundary yield (between script ops).
    /// A no-op when called from a thread that is not a registered worker.
    pub fn op_yield(label: &str) {
        Self::yield_current(YieldInfo::Op(label.to_string()));
    }

    /// Parks the calling thread at `info` if it is a registered worker.
    fn yield_current(info: YieldInfo) {
        let cur = CURRENT.with(|c| c.borrow().clone());
        if let Some((exec, tid)) = cur {
            exec.yield_now(tid, info);
        }
    }

    /// Parks the calling worker at a yield point until granted.
    fn yield_now(&self, tid: Tid, info: YieldInfo) {
        let mut st = lock_ignore_poison(&self.state);
        st.status[tid] = Status::Parked(info);
        if st.granted == Some(tid) {
            st.granted = None;
        }
        self.explorer_cv.notify_all();
        while st.granted != Some(tid) {
            st = self.worker_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.status[tid] = Status::Running;
    }

    fn finish(&self, tid: Tid) {
        let mut st = lock_ignore_poison(&self.state);
        st.status[tid] = Status::Finished;
        if st.granted == Some(tid) {
            st.granted = None;
        }
        self.explorer_cv.notify_all();
    }

    fn panicked(&self, tid: Tid, msg: String) {
        let mut st = lock_ignore_poison(&self.state);
        st.status[tid] = Status::Panicked(msg);
        if st.granted == Some(tid) {
            st.granted = None;
        }
        self.explorer_cv.notify_all();
    }

    /// Explorer-side: waits until no worker is running and none holds a
    /// grant, then returns every worker's state.
    pub fn wait_quiescent(&self) -> Vec<ThreadView> {
        let mut st = lock_ignore_poison(&self.state);
        loop {
            let quiet =
                st.granted.is_none() && !st.status.iter().any(|s| matches!(s, Status::Running));
            if quiet {
                return st
                    .status
                    .iter()
                    .map(|s| match s {
                        Status::Parked(i) => ThreadView::Parked(i.clone()),
                        Status::Finished => ThreadView::Finished,
                        Status::Panicked(m) => ThreadView::Panicked(m.clone()),
                        Status::Running => unreachable!("running at quiescence"),
                    })
                    .collect();
            }
            st = self.explorer_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Explorer-side: grants the next step to `tid` (which must be parked)
    /// and waits for the system to go quiescent again.
    pub fn step(&self, tid: Tid) -> Vec<ThreadView> {
        {
            let mut st = lock_ignore_poison(&self.state);
            assert!(
                matches!(st.status[tid], Status::Parked(_)),
                "granted thread {tid} is not parked"
            );
            st.granted = Some(tid);
            self.worker_cv.notify_all();
        }
        self.wait_quiescent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn handoff_serializes_two_workers() {
        let exec = Executor::new(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for tid in 0..2usize {
            let exec = exec.clone();
            let log = log.clone();
            handles.push(thread::spawn(move || {
                exec.run_worker(tid, || {
                    log.lock().unwrap().push((tid, 0));
                    Executor::op_yield("mid");
                    log.lock().unwrap().push((tid, 1));
                });
            }));
        }
        let view = exec.wait_quiescent();
        assert!(matches!(view[0], ThreadView::Parked(YieldInfo::Op(ref l)) if l == "start"));
        // Run thread 1 fully, then thread 0 fully.
        exec.step(1);
        exec.step(1);
        exec.step(0);
        let view = exec.step(0);
        assert!(matches!(view[0], ThreadView::Finished));
        assert!(matches!(view[1], ThreadView::Finished));
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*log.lock().unwrap(), vec![(1, 0), (1, 1), (0, 0), (0, 1)]);
    }

    #[test]
    fn worker_panic_is_captured() {
        let exec = Executor::new(1);
        let exec2 = exec.clone();
        let h = thread::spawn(move || {
            exec2.run_worker(0, || panic!("boom"));
        });
        exec.wait_quiescent();
        let view = exec.step(0);
        assert!(matches!(view[0], ThreadView::Panicked(ref m) if m.contains("boom")));
        h.join().unwrap();
    }
}
