//! Bounded ring-buffer event tracer.
//!
//! Every structurally interesting action in the stack — a DMA map, an
//! IOTLB invalidation, a pool grow, a blocked malicious access — is
//! recorded as a timestamped [`Event`]. Events form **cause chains**: an
//! event may name the `seq` of the event that caused it, so a single
//! `DmaUnmap` can be attributed to the `IotlbInvalidate` (and its wait)
//! it triggered.
//!
//! The buffer is bounded: when full, the oldest events are dropped and
//! counted in [`TraceStats::dropped`], so tracing never grows without bound
//! during long experiments.
//!
//! # Sampling
//!
//! At one trace event per packet-side action, the ring's `Mutex` sits on
//! the per-packet hot path. [`Tracer::set_sample_period`] keeps 1-in-N
//! **cause chains**: the keep/drop decision is made once at each chain
//! head and inherited by every event recorded under its span (or naming
//! it as an explicit cause), so retained chains are always complete —
//! a kept `DmaUnmap` never loses its `IotlbInvalidate` children.
//! Sampled-out events still consume a sequence number (counted in
//! [`Tracer::sampled_out`], separate from ring-overflow drops) but skip
//! the lock entirely. Security events ([`EventKind::AttackBlocked`],
//! [`EventKind::SanitizerViolation`]) always bypass sampling.

use simcore::sync::Mutex;
use simcore::Cycles;
use std::borrow::Cow;
use std::cell::Cell;
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
    /// `seq` of the event that caused this one, forming a cause chain.
    pub cause: Option<u64>,
    /// Structured payload.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] core{} {}{}",
            self.at.0,
            self.core,
            self.kind.name(),
            match self.cause {
                Some(c) => format!(" (cause #{c})"),
                None => String::new(),
            }
        )
    }
}

/// Recent per-thread sampling decisions, so a chain head's keep/drop
/// verdict is visible to children naming it as an explicit cause (the
/// cause seq is always minted on the same host thread, moments earlier).
const DECISION_RING: usize = 32;

/// Maximum span nesting depth. Spans are opened by structural layering
/// (a `DmaUnmap` wrapping its invalidation), never recursion, so the
/// real depth is 1–2; 32 leaves a wide margin.
const MAX_SPAN_DEPTH: usize = 32;

/// Per-thread span/decision state. All fields are `Cell`s of `Copy`
/// data so the `thread_local!` is const-initialized with no destructor:
/// accesses compile to plain thread-local loads/stores, with no
/// lazy-init or borrow-flag bookkeeping on the per-event hot path
/// (this sits under every trace record, including sampled-out ones).
struct SpanTls {
    /// Number of open spans; `stack[..depth]` are live, innermost last.
    depth: Cell<usize>,
    /// Open spans as `(seq, kept)`.
    stack: [Cell<(u64, bool)>; MAX_SPAN_DEPTH],
    /// Ring of the last [`DECISION_RING`] `(seq, kept)` verdicts.
    decisions: [Cell<(u64, bool)>; DECISION_RING],
}

impl SpanTls {
    fn note_decision(&self, seq: u64, kept: bool) {
        self.decisions[(seq % DECISION_RING as u64) as usize].set((seq, kept));
    }

    /// Whether `seq` was kept when recorded on this thread; unknown (old
    /// or cross-thread) seqs default to kept so chains are never
    /// over-pruned.
    fn decision_for(&self, seq: u64) -> bool {
        let (s, kept) = self.decisions[(seq % DECISION_RING as u64) as usize].get();
        s != seq || kept
    }

    fn current_cause_entry(&self) -> Option<(u64, bool)> {
        let d = self.depth.get();
        (d > 0).then(|| self.stack[d - 1].get())
    }
}

thread_local! {
    static SPAN_TLS: SpanTls = const {
        SpanTls {
            depth: Cell::new(0),
            stack: [const { Cell::new((u64::MAX, true)) }; MAX_SPAN_DEPTH],
            decisions: [const { Cell::new((u64::MAX, true)) }; DECISION_RING],
        }
    };
}

/// RAII guard marking the enclosing event as the *cause* of every event
/// recorded (on this host thread) until the guard drops.
///
/// This is how cause chains cross layer boundaries without threading a
/// span id through every signature: the DMA layer records a `DmaUnmap`,
/// opens a span on its seq, and the invalidation-queue events recorded
/// underneath automatically point back at it. The simulator interleaves
/// virtual cores on one host thread only *between* steps, so span
/// nesting is always well-bracketed.
#[derive(Debug)]
pub struct SpanGuard {
    _priv: (),
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        SPAN_TLS.with(|t| t.depth.set(t.depth.get() - 1));
    }
}

/// Opens a cause span: events recorded while the guard lives default
/// their `cause` to `seq` — and inherit `seq`'s sampling verdict, so a
/// sampled-out head's children are sampled out with it.
#[inline]
pub fn span(seq: u64) -> SpanGuard {
    SPAN_TLS.with(|t| {
        let kept = t.decision_for(seq);
        let d = t.depth.get();
        assert!(
            d < MAX_SPAN_DEPTH,
            "trace span nesting exceeded {MAX_SPAN_DEPTH}"
        );
        t.stack[d].set((seq, kept));
        t.depth.set(d + 1);
    });
    SpanGuard { _priv: () }
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
    /// Chain heads seen so far; drives the 1-in-N keep decision.
    heads: AtomicU64,
    /// Keep 1 chain in `period`; 1 records everything.
    sample_period: AtomicU64,
}

/// Default ring capacity (events retained before the oldest are dropped).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Point-in-time retention statistics of a [`Tracer`], so every report
/// can state how complete its event record is (events skipped by chain
/// sampling vs. dropped by ring overflow were previously invisible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Events currently held in the ring.
    pub retained: u64,
    /// Events skipped by chain sampling (never security events).
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
            heads: AtomicU64::new(0),
            sample_period: AtomicU64::new(1),
        }
    }

    /// Keeps 1 in `period` cause chains (see the module docs); `0` and
    /// `1` both mean "record everything".
    pub fn set_sample_period(&self, period: u64) {
        self.sample_period.store(period.max(1), Ordering::Relaxed);
    }

    /// Current sampling period (1 = unsampled).
    pub fn sample_period(&self) -> u64 {
        self.sample_period.load(Ordering::Relaxed)
    }

    /// Events skipped by chain sampling (never counts security events;
    /// distinct from ring-overflow [`TraceStats::dropped`]): the seqs
    /// issued minus the events pushed, so a record still in flight on
    /// another thread counts here until it lands.
    pub fn sampled_out(&self) -> u64 {
        self.stats().sampled_out
    }

    /// Records an event, returning its sequence number (usable as the
    /// `cause` of follow-on events). If a [`span`] is open on this host
    /// thread, the event's cause defaults to it.
    #[inline]
    pub fn record(&self, at: Cycles, core: u16, device: Option<u16>, kind: EventKind) -> u64 {
        SPAN_TLS.with(|t| match t.current_cause_entry() {
            Some((cause, kept)) => self.push(t, at, core, device, Some(cause), Some(kept), kind),
            None => self.push(t, at, core, device, None, None, kind),
        })
    }

    /// Records an event caused by event `cause`.
    #[inline]
    pub fn record_caused(
        &self,
        at: Cycles,
        core: u16,
        device: Option<u16>,
        cause: u64,
        kind: EventKind,
    ) -> u64 {
        SPAN_TLS.with(|t| {
            let kept = t.decision_for(cause);
            self.push(t, at, core, device, Some(cause), Some(kept), kind)
        })
    }

    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn push(
        &self,
        tls: &SpanTls,
        at: Cycles,
        core: u16,
        device: Option<u16>,
        cause: Option<u64>,
        cause_kept: Option<bool>,
        kind: EventKind,
    ) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let period = self.sample_period.load(Ordering::Relaxed);
        // Security events always bypass sampling; otherwise chain members
        // follow their head's verdict and heads keep 1 in `period`.
        let security = kind.is_security();
        let kept = security
            || period <= 1
            || match cause_kept {
                Some(kept) => kept,
                None => self
                    .heads
                    .fetch_add(1, Ordering::Relaxed)
                    .is_multiple_of(period),
            };
        tls.note_decision(seq, kept);
        if !kept {
            // The sampled-out return is the steady-state path under figure
            // sampling (1 kept chain in 64) — it never touches the ring
            // lock nor any shared counter (it is counted as a seq issued
            // but never pushed), and `kind` is dropped here (borrowed
            // `Cow`s, no frees).
            return seq;
        }
        // A security event recorded under a sampled-out chain is still
        // retained, but its cause pointer would dangle — strip the link
        // rather than export a seq that is not in the ring.
        let cause = if security && cause_kept == Some(false) {
            None
        } else {
            cause
        };
        self.push_retained(Event {
            seq,
            at,
            core,
            device,
            cause,
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
    fn cause_chain_recorded() {
        let t = Tracer::default();
        let m = t.record(Cycles(1), 0, Some(0), ev(0));
        let inv = t.record_caused(
            Cycles(2),
            0,
            Some(0),
            m,
            EventKind::IotlbInvalidate {
                pages: 1,
                wait_cycles: 300,
            },
        );
        let u = t.record_caused(
            Cycles(3),
            0,
            Some(0),
            inv,
            EventKind::DmaUnmap { iova: 0, len: 64 },
        );
        let evs = t.events();
        assert_eq!(evs[1].cause, Some(m));
        assert_eq!(evs[2].seq, u);
        assert_eq!(evs[2].cause, Some(inv));
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
    fn sampling_keeps_whole_chains() {
        let t = Tracer::default();
        t.set_sample_period(4);
        assert_eq!(t.sample_period(), 4);
        // 100 chains of head + 2 children (one via span, one explicit).
        for i in 0..100u64 {
            let head = t.record(Cycles(i), 0, None, ev(i));
            let _g = span(head);
            let mid = t.record(
                Cycles(i),
                0,
                None,
                EventKind::IotlbInvalidate {
                    pages: 1,
                    wait_cycles: 10,
                },
            );
            t.record_caused(
                Cycles(i),
                0,
                None,
                mid,
                EventKind::DmaUnmap { iova: i, len: 64 },
            );
        }
        let evs = t.events();
        // 1-in-4 heads kept, each with its full chain.
        assert_eq!(evs.len(), 75, "25 of 100 chains retained, 3 events each");
        assert_eq!(t.sampled_out(), 225);
        let retained: std::collections::HashSet<u64> = evs.iter().map(|e| e.seq).collect();
        for e in &evs {
            if let Some(c) = e.cause {
                assert!(
                    retained.contains(&c),
                    "event #{} retained but its cause #{c} was sampled out",
                    e.seq
                );
            }
        }
    }

    #[test]
    fn security_events_bypass_sampling() {
        let t = Tracer::default();
        t.set_sample_period(1_000_000);
        t.record(Cycles(0), 0, None, ev(0)); // head: kept (first of period)
        for i in 1..50u64 {
            t.record(Cycles(i), 0, None, ev(i)); // heads: sampled out
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
        assert_eq!(t.sampled_out(), 10, "every other chain head skipped");
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
