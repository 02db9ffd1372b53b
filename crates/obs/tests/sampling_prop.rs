//! Property tests for cause-chain integrity under trace sampling.
//!
//! The tracer keeps 1-in-N *cause chains*: the keep/drop verdict is made
//! once per chain head and inherited by members. Two properties must
//! hold at **every** sampling period, for arbitrary interleavings of
//! spans, explicit causes and security events:
//!
//! 1. a retained event never names a sampled-out parent seq as its
//!    cause (`record_caused` and span inheritance agree with the head's
//!    verdict), and
//! 2. security events (`AttackBlocked`, `SanitizerViolation`) are
//!    always retained.
//!
//! Randomized with the in-tree deterministic [`SimRng`] across many
//! seeds, so failures replay exactly.

use obs::trace::EventKind;
use obs::{span, Tracer};
use simcore::{Cycles, SimRng};
use std::borrow::Cow;
use std::collections::HashSet;

fn head_kind(i: u64) -> EventKind {
    EventKind::DmaMap {
        iova: i,
        len: 64,
        dir: Cow::Borrowed("from_device"),
    }
}

fn security_kind(rng: &mut SimRng, i: u64) -> EventKind {
    if rng.chance(0.5) {
        EventKind::AttackBlocked {
            iova: i,
            access: Cow::Borrowed("write"),
            reason: Cow::Borrowed("not_mapped"),
        }
    } else {
        EventKind::SanitizerViolation {
            rule: Cow::Borrowed("stale_access"),
            iova: i,
            detail: Cow::Borrowed("prop"),
        }
    }
}

/// Drives one randomized workload against a tracer: chains of random
/// depth built from spans and explicit `record_caused` links, with
/// security events sprinkled in (some inside sampled-out chains).
/// Returns the seqs of every security event recorded plus the total
/// number of record calls made.
fn drive(t: &Tracer, rng: &mut SimRng, chains: u64) -> (Vec<u64>, u64) {
    let mut security = Vec::new();
    let mut recorded = 0u64;
    for i in 0..chains {
        let head = t.record(Cycles(i), (i % 4) as u16, Some(0), head_kind(i));
        recorded += 1;
        let depth = rng.below(4);
        if rng.chance(0.5) {
            // Span-based chain: children inherit the head's verdict
            // through thread-local state.
            let _g = span(head);
            let mut last = head;
            for d in 0..depth {
                last = t.record(
                    Cycles(i),
                    (i % 4) as u16,
                    Some(0),
                    EventKind::IotlbInvalidate {
                        pages: d + 1,
                        wait_cycles: 10,
                    },
                );
                recorded += 1;
                if rng.chance(0.15) {
                    security.push(t.record(Cycles(i), 0, Some(7), security_kind(rng, i)));
                    recorded += 1;
                }
            }
            if depth > 0 {
                t.record_caused(
                    Cycles(i),
                    (i % 4) as u16,
                    Some(0),
                    last,
                    EventKind::DmaUnmap { iova: i, len: 64 },
                );
                recorded += 1;
            }
        } else {
            // Explicit-cause chain: every link names its parent seq.
            let mut last = head;
            for _ in 0..depth {
                last = t.record_caused(
                    Cycles(i),
                    (i % 4) as u16,
                    Some(0),
                    last,
                    EventKind::DmaUnmap { iova: i, len: 64 },
                );
                recorded += 1;
            }
            if rng.chance(0.15) {
                security.push(t.record(Cycles(i), 0, Some(7), security_kind(rng, i)));
                recorded += 1;
            }
        }
    }
    (security, recorded)
}

#[test]
fn retained_causes_are_never_sampled_out() {
    for seed in 0..30u64 {
        let mut rng = SimRng::seed(0xC0FFEE ^ seed);
        // Periods 1, 2, 3, 4, 7, 16, 64, 1000 exercise "keep all",
        // small, prime and "keep almost nothing" regimes.
        for period in [1u64, 2, 3, 4, 7, 16, 64, 1000] {
            let t = Tracer::with_capacity(1 << 16);
            t.set_sample_period(period);
            drive(&t, &mut rng, 200);
            assert_eq!(t.stats().dropped, 0, "ring must not wrap in this test");
            let events = t.events();
            let retained: HashSet<u64> = events.iter().map(|e| e.seq).collect();
            for e in &events {
                if let Some(c) = e.cause {
                    assert!(
                        retained.contains(&c),
                        "seed {seed} period {period}: retained #{} ({}) \
                         names sampled-out cause #{c}",
                        e.seq,
                        e.kind.name()
                    );
                }
            }
        }
    }
}

#[test]
fn security_events_always_retained_at_any_period() {
    for seed in 0..30u64 {
        let mut rng = SimRng::seed(0xDEAD ^ seed);
        for period in [1u64, 2, 5, 32, 1 << 20] {
            let t = Tracer::with_capacity(1 << 16);
            t.set_sample_period(period);
            let (security, _) = drive(&t, &mut rng, 200);
            let retained: HashSet<u64> = t.events().iter().map(|e| e.seq).collect();
            for seq in &security {
                assert!(
                    retained.contains(seq),
                    "seed {seed} period {period}: security event #{seq} was sampled out"
                );
            }
            // And the ring agrees every security-kind event it holds is
            // accounted: none were counted as sampled-out.
            let held: Vec<_> = t
                .events()
                .into_iter()
                .filter(|e| e.kind.is_security())
                .collect();
            assert_eq!(
                held.len(),
                security.len(),
                "seed {seed} period {period}: security events lost"
            );
        }
    }
}

#[test]
fn sampled_out_accounting_is_exact() {
    // recorded = retained + sampled_out whenever the ring never wraps.
    for seed in 0..10u64 {
        let mut rng = SimRng::seed(seed);
        for period in [2u64, 8, 100] {
            let t = Tracer::with_capacity(1 << 16);
            t.set_sample_period(period);
            let (_, recorded) = drive(&t, &mut rng, 300);
            let stats = t.stats();
            assert_eq!(stats.dropped, 0, "ring must not wrap in this test");
            assert_eq!(
                stats.retained + stats.sampled_out,
                recorded,
                "every record call is either retained or counted sampled-out"
            );
        }
    }
}
