//! Bounded ring-buffer event tracer.
//!
//! Every structurally interesting action in the stack — a DMA map, an
//! IOTLB invalidation, a pool grow, a blocked malicious access — is
//! recorded as a timestamped [`Event`]. Which operation an event happened
//! under is the profiler's business (its scope tree says an unmap's
//! cycles went to its invalidation wait); the ring is the record of what
//! happened, in order.
//!
//! The buffer is bounded: when full, the oldest events are dropped and
//! counted in [`TraceStats::dropped`], so tracing never grows without bound
//! during long experiments.
//!
//! # Sampling
//!
//! At one trace event per packet-side action, the ring's `Mutex` sits on
//! the per-packet hot path. [`Tracer::set_sample_period`] keeps 1 event
//! in N: the one whose `seq` is a multiple of N. Sampled-out events still
//! consume a sequence number (counted in [`Tracer::sampled_out`],
//! separate from ring-overflow drops) but skip the lock entirely.
//! Security events ([`EventKind::AttackBlocked`],
//! [`EventKind::SanitizerViolation`]) always bypass sampling.

use simcore::sync::Mutex;
use simcore::Cycles;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Structured payload of a trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A buffer was mapped for DMA.
    DmaMap {
        /// Device-visible address of the mapping.
        iova: u64,
        /// Mapping length in bytes.
        len: u64,
        /// Transfer direction (`to_device`, `from_device`, `bidirectional`).
        dir: Cow<'static, str>,
    },
    /// A DMA mapping was destroyed.
    DmaUnmap {
        /// Device-visible address of the mapping.
        iova: u64,
        /// Mapping length in bytes.
        len: u64,
    },
    /// The IOMMU invalidation queue completed a synchronous invalidation.
    IotlbInvalidate {
        /// Pages invalidated (0 for a full device flush).
        pages: u64,
        /// Cycles spent waiting on the wait descriptor.
        wait_cycles: u64,
    },
    /// The shadow pool grew a size class.
    PoolGrow {
        /// Size class index.
        class: u64,
        /// Bytes of shadow memory added.
        bytes: u64,
    },
    /// The shadow pool released memory back (reclaim).
    PoolShrink {
        /// Bytes of shadow memory returned.
        bytes: u64,
    },
    /// The shadow pool fell back to a transient strict mapping.
    FallbackAcquire {
        /// Device-visible address of the fallback mapping.
        iova: u64,
        /// Mapping length in bytes.
        len: u64,
    },
    /// The IOMMU blocked a device access — a (potential) DMA attack.
    AttackBlocked {
        /// Address the device attempted to touch.
        iova: u64,
        /// Attempted access (`read` / `write`).
        access: Cow<'static, str>,
        /// Why it was blocked (`not_mapped` / `permission_denied`).
        reason: Cow<'static, str>,
    },
    /// A virtual-time lock acquisition spun on contention.
    LockContention {
        /// Which lock (e.g. `invalq`).
        lock: Cow<'static, str>,
        /// Cycles spent spinning.
        spin_cycles: u64,
    },
    /// The DMA sanitizer (`dmasan`) detected a DMA-API misuse.
    SanitizerViolation {
        /// Which dma-debug rule fired (`double_map`, `double_unmap`,
        /// `unmap_mismatch`, `stale_access`, `oob_access`, `leak`).
        rule: Cow<'static, str>,
        /// Device-visible address the violation concerns.
        iova: u64,
        /// Human-readable description of the violation.
        detail: Cow<'static, str>,
    },
    /// A core reached an instrumented lock site: recorded only while a
    /// yield hook is installed (see [`crate::Obs::set_yield_hook`]).
    LockAcquire {
        /// Which lock (e.g. `iommu-invalidation-queue`).
        lock: Cow<'static, str>,
    },
}

impl EventKind {
    /// Stable name used by sinks (`"DmaMap"`, `"AttackBlocked"`, ...).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::DmaMap { .. } => "DmaMap",
            EventKind::DmaUnmap { .. } => "DmaUnmap",
            EventKind::IotlbInvalidate { .. } => "IotlbInvalidate",
            EventKind::PoolGrow { .. } => "PoolGrow",
            EventKind::PoolShrink { .. } => "PoolShrink",
            EventKind::FallbackAcquire { .. } => "FallbackAcquire",
            EventKind::AttackBlocked { .. } => "AttackBlocked",
            EventKind::LockContention { .. } => "LockContention",
            EventKind::SanitizerViolation { .. } => "SanitizerViolation",
            EventKind::LockAcquire { .. } => "LockAcquire",
        }
    }

    /// True for security events ([`EventKind::AttackBlocked`],
    /// [`EventKind::SanitizerViolation`]), which always bypass sampling.
    pub fn is_security(&self) -> bool {
        matches!(
            self,
            EventKind::AttackBlocked { .. } | EventKind::SanitizerViolation { .. }
        )
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (unique per tracer, never reused).
    pub seq: u64,
    /// Virtual timestamp (simulated cycles) when the event occurred.
    pub at: Cycles,
    /// Virtual core that performed the action.
    pub core: u16,
    /// Device the action concerns, if any.
    pub device: Option<u16>,
    /// Structured payload.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] core{} {}",
            self.at.0,
            self.core,
            self.kind.name()
        )
    }
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<Event>,
    dropped: u64,
    /// Events ever pushed (retained or since dropped): every other issued
    /// seq was sampled out.
    pushed: u64,
}

/// Bounded, thread-safe event ring buffer.
#[derive(Debug)]
pub struct Tracer {
    ring: Mutex<Ring>,
    capacity: usize,
    /// Sequence allocator — outside the ring lock, so sampled-out events
    /// never touch the `Mutex`.
    next_seq: AtomicU64,
    /// Keep 1 event in `period`; 1 records everything.
    sample_period: AtomicU64,
}

/// Default ring capacity (events retained before the oldest are dropped).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Point-in-time retention statistics of a [`Tracer`], so every report
/// can state how complete its event record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Events currently held in the ring.
    pub retained: u64,
    /// Events skipped by sampling (never security events).
    pub sampled_out: u64,
    /// Events dropped because the ring was full.
    pub dropped: u64,
    /// Current sampling period (1 = record everything).
    pub sample_period: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl Tracer {
    /// Creates a tracer retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            ring: Mutex::new(Ring::default()),
            capacity: capacity.max(1),
            next_seq: AtomicU64::new(0),
            sample_period: AtomicU64::new(1),
        }
    }

    /// Keeps 1 in `period` events (see the module docs); `0` and
    /// `1` both mean "record everything".
    pub fn set_sample_period(&self, period: u64) {
        self.sample_period.store(period.max(1), Ordering::Relaxed);
    }

    /// Current sampling period (1 = unsampled).
    pub fn sample_period(&self) -> u64 {
        self.sample_period.load(Ordering::Relaxed)
    }

    /// Events skipped by sampling (never counts security events;
    /// distinct from ring-overflow [`TraceStats::dropped`]): the seqs
    /// issued minus the events pushed, so a record still in flight on
    /// another thread counts here until it lands.
    pub fn sampled_out(&self) -> u64 {
        self.stats().sampled_out
    }

    /// Records an event, returning its sequence number.
    #[inline]
    pub fn record(&self, at: Cycles, core: u16, device: Option<u16>, kind: EventKind) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let period = self.sample_period.load(Ordering::Relaxed);
        if !kind.is_security() && !seq.is_multiple_of(period) {
            // The sampled-out return is the steady-state path under figure
            // sampling — it never touches the ring lock nor any shared
            // counter (it is counted as a seq issued but never pushed), and
            // `kind` is dropped here (borrowed `Cow`s, no frees).
            return seq;
        }
        self.push_retained(Event {
            seq,
            at,
            core,
            device,
            kind,
        });
        seq
    }

    /// Ring insertion for a kept event — outlined so the sampled-out fast
    /// path above stays small enough to inline into the record sites.
    #[inline(never)]
    fn push_retained(&self, event: Event) {
        let mut r = self.ring.lock();
        if r.events.len() == self.capacity {
            r.events.pop_front();
            r.dropped += 1;
        }
        r.events.push_back(event);
        r.pushed += 1;
    }

    /// Snapshot of retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        // One lock hold, one exact-size allocation, one bulk extend.
        let r = self.ring.lock();
        let mut out = Vec::with_capacity(r.events.len());
        out.extend(r.events.iter().cloned());
        out
    }

    /// Retention statistics: retained / sampled-out / dropped counts and
    /// the sampling period, for report headers and table sinks.
    pub fn stats(&self) -> TraceStats {
        let r = self.ring.lock();
        TraceStats {
            retained: r.events.len() as u64,
            sampled_out: self.next_seq.load(Ordering::Relaxed) - r.pushed,
            dropped: r.dropped,
            sample_period: self.sample_period(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> EventKind {
        EventKind::DmaMap {
            iova: i,
            len: 64,
            dir: Cow::Borrowed("to_device"),
        }
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_drops() {
        let t = Tracer::with_capacity(4);
        for i in 0..10u64 {
            let seq = t.record(Cycles(i), 0, None, ev(i));
            assert_eq!(seq, i, "seq numbers monotonic across wrap");
        }
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(t.stats().dropped, 6);
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest dropped, order preserved");
    }

    #[test]
    fn concurrent_records_unique_seqs() {
        let t = std::sync::Arc::new(Tracer::default());
        std::thread::scope(|s| {
            for c in 0..4u16 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        t.record(Cycles(i), c, None, ev(i));
                    }
                });
            }
        });
        let mut seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs.len(), 4000);
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 4000, "no duplicated sequence numbers");
    }

    #[test]
    fn sampling_keeps_one_event_in_period() {
        let t = Tracer::default();
        t.set_sample_period(4);
        assert_eq!(t.sample_period(), 4);
        // 100 rounds of three event kinds: the kinds rotate through the
        // kept seqs, so sampling is blind to what an event is.
        for i in 0..100u64 {
            t.record(Cycles(i), 0, None, ev(i));
            t.record(
                Cycles(i),
                0,
                None,
                EventKind::IotlbInvalidate {
                    pages: 1,
                    wait_cycles: 10,
                },
            );
            t.record(Cycles(i), 0, None, EventKind::DmaUnmap { iova: i, len: 64 });
        }
        let evs = t.events();
        assert_eq!(evs.len(), 75, "exactly 1 in 4 of 300 events kept");
        assert_eq!(t.sampled_out(), 225);
        assert!(evs.iter().all(|e| e.seq % 4 == 0), "kept seqs: 0, 4, 8, …");
        for name in ["DmaMap", "IotlbInvalidate", "DmaUnmap"] {
            assert!(evs.iter().any(|e| e.kind.name() == name), "no {name} kept");
        }
    }

    #[test]
    fn security_events_bypass_sampling() {
        let t = Tracer::default();
        t.set_sample_period(1_000_000);
        t.record(Cycles(0), 0, None, ev(0)); // seq 0: kept
        for i in 1..50u64 {
            t.record(Cycles(i), 0, None, ev(i)); // sampled out
        }
        t.record(
            Cycles(50),
            0,
            Some(1),
            EventKind::AttackBlocked {
                iova: 0xbad,
                access: Cow::Borrowed("write"),
                reason: Cow::Borrowed("not_mapped"),
            },
        );
        t.record(
            Cycles(51),
            0,
            Some(1),
            EventKind::SanitizerViolation {
                rule: Cow::Borrowed("stale_access"),
                iova: 0xbad,
                detail: Cow::Borrowed("use after unmap"),
            },
        );
        let names: Vec<&str> = t.events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(names, ["DmaMap", "AttackBlocked", "SanitizerViolation"]);
    }

    #[test]
    fn sampled_out_is_separate_from_dropped() {
        let t = Tracer::with_capacity(4);
        t.set_sample_period(2);
        for i in 0..20u64 {
            t.record(Cycles(i), 0, None, ev(i));
        }
        assert_eq!(t.sampled_out(), 10, "every odd seq skipped");
        assert_eq!(
            t.stats(),
            TraceStats {
                retained: 4,
                sampled_out: 10,
                dropped: 6,
                sample_period: 2,
            }
        );
        // Disabling sampling restores record-everything behavior.
        t.set_sample_period(0);
        let before = t.sampled_out();
        t.record(Cycles(99), 0, None, ev(99));
        assert_eq!(t.sampled_out(), before);
    }
}
