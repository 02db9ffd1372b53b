//! Per-core pending-invalidation rings — the batching layer in front of
//! the global invalidation queue.
//!
//! With batching enabled (see [`InvalQueue::with_obs_batched`]), an unmap's
//! page invalidation is appended to the *calling core's* ring instead of
//! serializing on the single queue lock; the ring drains into the global
//! queue (one lock hold per device run) when it reaches the batch
//! threshold, when the device is domain-flushed, or at teardown. Until the
//! drain, the IOTLB entry stays usable — exactly the §2.2.1
//! deferred-protection window, now bounded per core by the batch size.
//!
//! [`InvalQueue::with_obs_batched`]: crate::InvalQueue::with_obs_batched

use crate::{DeviceId, IovaPage};
use obs::Obs;
use simcore::sync::Mutex;
use simcore::{CoreCtx, SimLock};

/// Lock name reported in lockset events for every per-core pending ring.
///
/// All rings share one name on purpose: the owner core's appends and the
/// cross-core teardown/flush drains then hold a common candidate lock, so
/// the Eraser-style detector keeps a non-empty lockset intersection for
/// the shared ring storage.
pub const INVALQ_PENDING_LOCK: &str = "invalq-pending-ring";

/// One core's ring of pending (not yet posted) page invalidations.
///
/// The ring itself is tiny — a bounded `Vec` of `(device, page)` pairs in
/// append order — and is normally touched only by its owner core. The
/// cross-core paths (device flush purge, teardown drain) take the same
/// named [`SimLock`], so contention and locksets stay honest.
#[derive(Debug, Default)]
pub struct PendingRing {
    lock: SimLock,
    entries: Mutex<Vec<(DeviceId, IovaPage)>>,
}

impl PendingRing {
    /// Creates an empty ring.
    pub fn new() -> Self {
        PendingRing {
            lock: SimLock::new(INVALQ_PENDING_LOCK),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Appends `pages` for `dev` in order; returns the ring length after
    /// the append (the caller drains at the batch threshold).
    pub fn append(&self, ctx: &mut CoreCtx, obs: &Obs, dev: DeviceId, pages: &[IovaPage]) -> usize {
        let (len, _) = obs.locked(ctx, &self.lock, "invalq.pending", |_| {
            let mut e = self.entries.lock();
            e.extend(pages.iter().map(|&p| (dev, p)));
            e.len()
        });
        len
    }

    /// Takes every pending entry out, in append order. Empty rings return
    /// without touching the lock (no spurious preemption points).
    pub fn take(&self, ctx: &mut CoreCtx, obs: &Obs) -> Vec<(DeviceId, IovaPage)> {
        if self.entries.lock().is_empty() {
            return Vec::new();
        }
        obs.locked(ctx, &self.lock, "invalq.pending", |_| {
            std::mem::take(&mut *self.entries.lock())
        })
        .0
    }

    /// Removes `dev`'s entries (superseded by a domain-selective flush);
    /// returns how many were purged.
    pub fn purge_device(&self, ctx: &mut CoreCtx, obs: &Obs, dev: DeviceId) -> usize {
        if self.entries.lock().iter().all(|&(d, _)| d != dev) {
            return 0;
        }
        let (purged, _) = obs.locked(ctx, &self.lock, "invalq.pending", |_| {
            let mut e = self.entries.lock();
            let before = e.len();
            e.retain(|&(d, _)| d != dev);
            before - e.len()
        });
        purged
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// The ring's lock (exposed for contention statistics).
    pub fn lock(&self) -> &SimLock {
        &self.lock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::EventKind;
    use simcore::{CoreId, CostModel};
    use std::sync::Arc;

    fn ctx(core: u16) -> CoreCtx {
        CoreCtx::new(CoreId(core), Arc::new(CostModel::zero()))
    }

    #[test]
    fn append_take_preserves_order() {
        let r = PendingRing::new();
        let obs = Obs::isolated();
        let mut c = ctx(0);
        r.append(&mut c, &obs, DeviceId(1), &[IovaPage(3), IovaPage(4)]);
        r.append(&mut c, &obs, DeviceId(2), &[IovaPage(9)]);
        assert_eq!(r.len(), 3);
        let taken = r.take(&mut c, &obs);
        assert_eq!(
            taken,
            vec![
                (DeviceId(1), IovaPage(3)),
                (DeviceId(1), IovaPage(4)),
                (DeviceId(2), IovaPage(9)),
            ]
        );
        assert!(r.is_empty());
    }

    #[test]
    fn empty_take_skips_the_lock() {
        let r = PendingRing::new();
        let obs = Obs::isolated();
        let mut c = ctx(0);
        assert!(r.take(&mut c, &obs).is_empty());
        assert_eq!(r.lock().stats().acquisitions, 0);
    }

    #[test]
    fn purge_removes_only_the_flushed_device() {
        let r = PendingRing::new();
        let obs = Obs::isolated();
        let mut c = ctx(0);
        r.append(&mut c, &obs, DeviceId(1), &[IovaPage(1), IovaPage(2)]);
        r.append(&mut c, &obs, DeviceId(2), &[IovaPage(5)]);
        assert_eq!(r.purge_device(&mut c, &obs, DeviceId(1)), 2);
        assert_eq!(r.purge_device(&mut c, &obs, DeviceId(1)), 0, "idempotent");
        assert_eq!(r.take(&mut c, &obs), vec![(DeviceId(2), IovaPage(5))]);
    }

    #[test]
    fn lockset_events_bracket_the_ring_access() {
        let obs = Obs::isolated();
        obs.set_detail_enabled(true);
        let r = PendingRing::new();
        let mut c = ctx(3);
        r.append(&mut c, &obs, DeviceId(0), &[IovaPage(1)]);
        let kinds: Vec<String> = obs
            .tracer()
            .events()
            .iter()
            .map(|e| match &e.kind {
                EventKind::LockAcquire { lock } => format!("acq:{lock}"),
                EventKind::SharedAccess { var, write } => format!("acc:{var}:{write}"),
                EventKind::LockRelease { lock } => format!("rel:{lock}"),
                other => format!("{other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "acq:invalq-pending-ring",
                "acc:invalq.pending:true",
                "rel:invalq-pending-ring",
            ]
        );
    }
}
