//! The acceptance-criteria proofs: DMA shadowing survives exhaustive
//! bounded exploration; strict engines show no vulnerability window;
//! deferred engines produce the window counterexample.

use modelcheck::{explore, Config};
use shadow_core::EngineKind;

#[test]
fn copy_is_proved_safe_within_bounds() {
    // 2 mappers × 1 device, preemption bound 3: the acceptance floor.
    let cfg = Config::new(EngineKind::Copy);
    assert!(cfg.mappers >= 2 && cfg.preemption_bound >= 3);
    let r = explore(&cfg);
    assert!(r.panics.is_empty(), "worker panics: {:?}", r.panics);
    assert!(
        r.exhausted,
        "bounded space not fully explored ({} runs, {} choice points)",
        r.runs, r.choice_points
    );
    assert!(
        !r.found_window && !r.found_subpage,
        "DMA shadowing violated the protection invariant: {:?} {:?}",
        r.window_example.as_ref().map(|c| &c.detail),
        r.subpage_example.as_ref().map(|c| &c.detail),
    );
    assert!(
        r.runs > 100,
        "exploration suspiciously small ({} runs) — yield points lost?",
        r.runs
    );
}

#[test]
fn strict_engines_have_no_window_within_bounds() {
    for kind in [EngineKind::LinuxStrict, EngineKind::IdentityPlus] {
        let r = explore(&Config::new(kind));
        assert!(r.panics.is_empty(), "{kind}: panics: {:?}", r.panics);
        assert!(r.exhausted, "{kind}: space not fully explored");
        assert!(
            !r.found_window,
            "{kind}: strict invalidation left a window: {:?}",
            r.window_example.as_ref().map(|c| &c.detail)
        );
        // Page-granularity exposure is expected — and must be witnessed,
        // otherwise the oracle's probes have regressed.
        assert!(r.found_subpage, "{kind}: sub-page exposure not found");
        assert!(
            r.unexpected.is_none(),
            "{kind}: violation contradicts the engine's profile"
        );
    }
}

#[test]
fn strict_exploration_preempts_at_the_iova_tree_lock() {
    // The global IOVA tree's lock is one of §2.2.1's two serialisation
    // points; a proof that never switches threads there covers less than
    // it claims.
    let mut cfg = Config::new(EngineKind::LinuxStrict);
    cfg.collect_runs = true;
    let r = explore(&cfg);
    assert!(r.exhausted && !r.found_window);
    let parked = r.run_summaries.iter().any(|run| {
        run.schedule
            .iter()
            .any(|step| step.label == "lock:linux-iova-rbtree")
    });
    assert!(parked, "no schedule parks a worker at the IOVA tree lock");
}

#[test]
fn deferred_engine_yields_window_counterexample() {
    let mut cfg = Config::new(EngineKind::LinuxDefer);
    cfg.stop_at_first_window = true;
    let r = explore(&cfg);
    assert!(r.panics.is_empty(), "panics: {:?}", r.panics);
    assert!(r.found_window, "deferred invalidation window not found");
    let cx = r.window_example.expect("counterexample recorded");
    assert_eq!(cx.kind, "window");
    assert_eq!(cx.strategy, "defer");
    assert!(!cx.schedule.is_empty(), "counterexample has a schedule");
    assert!(!cx.trace.is_empty(), "counterexample carries its trace");
}

#[test]
fn preemption_bound_zero_serializes_threads() {
    // Bound 0 admits only thread-completion orders: with 3 threads that
    // is at most 3! = 6 schedules (fewer when a thread has already
    // finished before a switch point).
    let mut cfg = Config::new(EngineKind::LinuxStrict);
    cfg.preemption_bound = 0;
    cfg.dpor = false;
    let r = explore(&cfg);
    assert!(r.exhausted);
    assert!(r.runs <= 6, "bound 0 exploded: {} runs", r.runs);
    assert!(!r.found_window);
}

#[test]
fn dpor_prunes_without_changing_verdicts() {
    let mut plain = Config::new(EngineKind::LinuxDefer);
    plain.dpor = false;
    let mut pruned = Config::new(EngineKind::LinuxDefer);
    pruned.dpor = true;
    let rp = explore(&plain);
    let rq = explore(&pruned);
    assert_eq!(rp.found_window, rq.found_window);
    assert_eq!(rp.found_subpage, rq.found_subpage);
    assert!(
        rq.runs <= rp.runs,
        "sleep sets must not enlarge the explored space ({} vs {})",
        rq.runs,
        rp.runs
    );
}
