//! Model-checking the per-core (magazine) configuration.
//!
//! The scaling sweep buys its throughput by sharding hot allocation state:
//! pool magazines, a per-core IOVA allocator, and per-core pending rings
//! in front of the invalidation queue. These tests pin down what that does
//! to the *protection* story:
//!
//! - DMA shadowing (`copy`) stays provably safe — magazines repartition
//!   permanently-mapped shadow slots, they never change what the device
//!   can reach;
//! - batching the invalidation queue reopens a **bounded** §2.2.1 window
//!   for engines whose no-window claim rests on synchronous page
//!   invalidation, and the checker exhibits it as a concrete schedule.

use modelcheck::{explore, Config, Rig, Strategy};

fn percore_cfg(strategy: Strategy) -> Config {
    let mut cfg = Config::new(strategy);
    cfg.percore = true;
    cfg
}

#[test]
fn percore_copy_is_still_provably_safe() {
    // The copy proof must survive the magazine layer: same bounded space,
    // zero violations, despite the extra magazine-lock preemption points.
    let r = explore(&percore_cfg(Strategy::Copy));
    assert!(r.exhausted, "bounded space not fully explored");
    assert!(!r.found_window, "copy+magazines must have no window");
    assert!(!r.found_subpage, "copy+magazines must protect sub-page");
    assert!(r.unexpected.is_none(), "{:?}", r.unexpected);
    assert!(r.panics.is_empty(), "worker panics: {:?}", r.panics);
}

#[test]
fn percore_batching_reopens_a_bounded_window_for_strict() {
    // Under batching, a "strict" unmap parks its invalidation in the
    // calling core's pending ring — until the drain the stale IOTLB entry
    // is live. The checker must find that window as a concrete schedule,
    // and the rig must expect it (no `unexpected` checker failure).
    let mut cfg = percore_cfg(Strategy::LinuxStrict);
    cfg.stop_at_first_window = true;
    let r = explore(&cfg);
    assert!(
        r.found_window,
        "per-core batching must open the bounded deferred window"
    );
    assert!(
        r.window_example.is_some(),
        "window violation needs a counterexample schedule"
    );
    assert!(
        r.unexpected.is_none(),
        "the bounded window is expected under batching: {:?}",
        r.unexpected
    );
}

#[test]
fn global_strict_remains_window_free_under_the_same_bounds() {
    // The control: the exact configuration that shows the window above,
    // minus `percore`, proves no window exists. The regression is the
    // batching, not the checker.
    let r = explore(&Config::new(Strategy::LinuxStrict));
    assert!(r.exhausted, "bounded space not fully explored");
    assert!(!r.found_window, "global strict must stay window-free");
    assert!(r.unexpected.is_none(), "{:?}", r.unexpected);
}

#[test]
fn declared_profile_accounts_for_batching_on_every_strategy() {
    // What the rig expects is the engine's own declaration. It must say
    // what the rig used to patch in by hand: a no-window claim resting on
    // synchronous page invalidation is withdrawn under a batched queue;
    // copy (no unmap invalidations) and self-inval (no queue) keep theirs.
    for strategy in Strategy::ALL {
        for percore in [false, true] {
            let claims_no_window = matches!(
                strategy,
                Strategy::Copy
                    | Strategy::SelfInval
                    | Strategy::IdentityStrict
                    | Strategy::LinuxStrict
                    | Strategy::EiovarStrict
            );
            let rests_on_sync_invalidation = matches!(
                strategy,
                Strategy::IdentityStrict | Strategy::LinuxStrict | Strategy::EiovarStrict
            );
            let profile = Rig::build(strategy, 2, false, percore).profile;
            assert_eq!(
                profile.no_vulnerability_window,
                claims_no_window && !(percore && rests_on_sync_invalidation),
                "{strategy} percore={percore}"
            );
            assert_eq!(profile.sub_page, strategy == Strategy::Copy, "{strategy}");
            assert_eq!(
                profile.uses_iommu,
                strategy != Strategy::NoProtection,
                "{strategy}"
            );
        }
    }
}
