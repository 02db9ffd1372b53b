//! The committed deferred-invalidation counterexample must keep
//! reproducing: CI replays the fixture schedule step by step and checks
//! the window violation re-occurs — and that divergence (code drift under
//! an unchanged fixture) is detected, not silently ignored.

// lint: allow(ambient-io) — reads the committed counterexample fixture

use modelcheck::{replay, Config, Counterexample, Rig, Step, ViolationClass};
use obs::Json;
use shadow_core::EngineKind;

fn load_fixture() -> Counterexample {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/deferred_counterexample.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {} (regenerate with mc-suite --write-fixture): {e}",
            path.display()
        )
    });
    Counterexample::from_json(&Json::parse(&text).expect("fixture parses")).expect("fixture layout")
}

#[test]
fn committed_counterexample_reproduces_window_violation() {
    let cx = load_fixture();
    assert_eq!(cx.kind, "window", "fixture must witness the window");
    let kind = EngineKind::from_name(&cx.strategy).expect("fixture engine exists");
    assert!(
        !Rig::build(kind, 2, false, false)
            .profile
            .no_vulnerability_window,
        "the window belongs to engines that declare one"
    );
    let cfg = Config::new(kind);
    let out = replay(&cfg, &cx.schedule).expect("fixture schedule replays without divergence");
    assert!(
        out.violations
            .iter()
            .any(|v| v.class == ViolationClass::Window),
        "fixture schedule no longer reproduces the stale-IOTLB window: {:?}",
        out.violations
    );
    assert!(out.panics.is_empty(), "replay panics: {:?}", out.panics);
}

#[test]
fn replay_detects_schedule_divergence() {
    let cx = load_fixture();
    let kind = EngineKind::from_name(&cx.strategy).expect("fixture engine exists");
    let cfg = Config::new(kind);
    // Corrupt one recorded label: replay must refuse, not misattribute.
    let mut bad: Vec<Step> = cx.schedule.clone();
    let step = bad.last_mut().expect("fixture has steps");
    step.label = "op:not-a-real-yield-point".into();
    let err = replay(&cfg, &bad).expect_err("diverged schedule must be rejected");
    assert!(
        err.contains("diverged"),
        "error should name the divergence: {err}"
    );
}
