//! Model-checking the per-core (magazine) configuration.
//!
//! The scaling sweep buys its throughput by sharding hot allocation state:
//! pool magazines, a per-core IOVA allocator, and one invalidation queue
//! per core. These tests pin down that none of it touches the *protection*
//! story:
//!
//! - DMA shadowing (`copy`) stays provably safe — magazines repartition
//!   permanently-mapped shadow slots, they never change what the device
//!   can reach;
//! - the strict engines stay provably strict — a per-core queue changes
//!   whose invalidations an unmap waits behind, not whether the IOTLB
//!   entry is gone when it returns;
//! - for every engine, sharded or not, what the engine *declares* is
//!   what the checker *proves*.

use modelcheck::{explore, Config, Rig};
use shadow_core::EngineKind;

fn percore_cfg(kind: EngineKind) -> Config {
    let mut cfg = Config::new(kind);
    cfg.percore = true;
    cfg
}

#[test]
fn percore_copy_is_still_provably_safe() {
    // The copy proof must survive the magazine layer: same bounded space,
    // zero violations, despite the extra magazine-lock preemption points.
    let r = explore(&percore_cfg(EngineKind::Copy));
    assert!(r.exhausted, "bounded space not fully explored");
    assert!(!r.found_window, "copy+magazines must have no window");
    assert!(!r.found_subpage, "copy+magazines must protect sub-page");
    assert!(r.unexpected.is_none(), "{:?}", r.unexpected);
    assert!(r.panics.is_empty(), "worker panics: {:?}", r.panics);
}

#[test]
fn percore_strict_engines_are_provably_window_free() {
    // Each mapper posts to its own queue and nothing is parked: in every
    // schedule of the bounded space the device's post-unmap probe faults,
    // exactly as under the single queue.
    for kind in [
        EngineKind::IdentityPlus,
        EngineKind::LinuxStrict,
        EngineKind::EiovarStrict,
    ] {
        let r = explore(&percore_cfg(kind));
        assert!(r.exhausted, "{kind}: bounded space not fully explored");
        assert!(!r.found_window, "{kind}: {:?}", r.window_example);
        assert!(r.unexpected.is_none(), "{kind}: {:?}", r.unexpected);
        assert!(r.panics.is_empty(), "{kind}: {:?}", r.panics);
    }
}

#[test]
fn declared_profile_is_the_proven_verdict_on_every_strategy() {
    // The engine's own declaration (what the rig expects) against the
    // explorer's verdict, for every engine, global and percore. A declared
    // window is proven by one schedule that exhibits it; a declared absence
    // only by exhausting the bounded space.
    for kind in EngineKind::ALL.into_iter().chain([EngineKind::SelfInvalHw]) {
        for percore in [false, true] {
            let profile = Rig::build(kind, 2, false, percore).profile;
            let mut cfg = Config::new(kind);
            cfg.percore = percore;
            cfg.stop_at_first_window = !profile.no_vulnerability_window;
            let r = explore(&cfg);
            assert!(
                r.exhausted || r.found_window,
                "{kind} percore={percore}: bounded space not covered"
            );
            assert_eq!(
                profile.no_vulnerability_window, !r.found_window,
                "{kind} percore={percore}: declared vs proven"
            );
            assert!(
                r.unexpected.is_none(),
                "{kind} percore={percore}: {:?}",
                r.unexpected
            );
            assert!(
                r.panics.is_empty(),
                "{kind} percore={percore}: {:?}",
                r.panics
            );
        }
    }
}
