//! Host-side synchronization primitives.
//!
//! Thin wrappers over [`std::sync`] with the `parking_lot`-style API the
//! rest of the workspace uses: `lock()` / `read()` / `write()` return
//! guards directly instead of `Result`s, ignoring lock poisoning. These
//! protect *host* data structures (page-table maps, free lists, slab
//! metadata); contention in **virtual time** is modeled separately by
//! [`crate::SimLock`].
//!
//! Poisoning is deliberately ignored: a panicking test thread must not
//! cascade opaque `PoisonError` panics through unrelated threads — the
//! original panic is the signal we want.
//!
//! Every hold is counted per host thread ([`holds`]): a plain thread-local
//! counter, not an atomic, so the dev and release profiles read the same
//! number and counting costs no bus traffic. The work goldens pin it per
//! workload and engine, which is how "one hold per device burst" stays
//! true.

use std::cell::Cell;
use std::sync::{self, MutexGuard, RwLockReadGuard, RwLockWriteGuard};

thread_local! {
    static HOLDS: Cell<u64> = const { Cell::new(0) };
}

/// Host lock holds taken on the calling thread so far: every
/// [`Mutex::lock`], successful [`Mutex::try_lock`], [`RwLock::read`] and
/// [`RwLock::write`].
pub fn holds() -> u64 {
    HOLDS.with(Cell::get)
}

#[inline]
fn count_hold() {
    HOLDS.with(|h| h.set(h.get() + 1));
}

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available. Poisoning is ignored.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        count_hold();
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let g = match self.inner.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        count_hold();
        Some(g)
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

/// A reader-writer lock whose `read()`/`write()` return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access. Poisoning is ignored.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        count_hold();
        match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Acquires exclusive write access. Poisoning is ignored.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        count_hold();
        match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn every_hold_is_counted_on_its_own_thread() {
        let (m, l) = (Mutex::new(0), RwLock::new(0));
        let before = holds();
        drop(m.lock());
        drop(m.try_lock());
        drop(l.read());
        drop(l.write());
        assert_eq!(holds() - before, 4);
        let _held = m.lock();
        assert!(m.try_lock().is_none(), "a failed try_lock holds nothing");
        assert_eq!(holds() - before, 5);
        let other = std::thread::scope(|s| s.spawn(|| (holds(), *l.read())).join().unwrap());
        assert_eq!(other, (0, 0), "another thread starts from zero");
        assert_eq!(holds() - before, 5);
    }

    #[test]
    fn mutex_survives_poison() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // A poisoned std mutex would panic here; ours hands back the guard.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
