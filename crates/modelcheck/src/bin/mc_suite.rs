//! The CI model-checking suite: runs the bounded explorer over every
//! protection engine and asserts the paper's Table 1 verdicts.
//!
//! - `copy` (DMA shadowing) must survive **exhaustive** bounded
//!   exploration with zero violations — the "proved safe within bounds"
//!   claim.
//! - The strict zero-copy engines must show **no window** violations
//!   (their sub-page exposure is expected: page-granularity mapping).
//! - The deferred engines must **produce the window counterexample** —
//!   the §2.2.1 vulnerability window as a concrete schedule.
//!
//! The time budget is deterministic (run/choice-point caps, never wall
//! clock), so CI verdicts are reproducible on any machine.
//!
//! Exit codes: 0 = all verdicts hold, 1 = a verdict failed,
//! 2 = usage/IO error.
#![forbid(unsafe_code)]

// lint: allow(ambient-io) — reads/writes the committed counterexample fixture and prints the report

use modelcheck::{explore, Config, Counterexample, Report};
use obs::Json;
use shadow_core::EngineKind;
use std::process::ExitCode;

/// The committed deferred-invalidation witness.
fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/deferred_counterexample.json")
}

/// Deterministic exploration budget shared by every engine.
fn budget(cfg: &mut Config) {
    cfg.max_runs = 60_000;
    cfg.max_choice_points = 120_000;
}

fn line(report: &Report) {
    println!(
        "  {:<18} runs={:<6} choice_points={:<7} pruned={:<5} exhausted={} window={} subpage={}",
        report.kind.name(),
        report.runs,
        report.choice_points,
        report.sleep_skips,
        report.exhausted,
        report.found_window,
        report.found_subpage,
    );
}

fn check(failures: &mut Vec<String>, ok: bool, what: &str) {
    if !ok {
        failures.push(what.to_string());
        println!("  FAIL: {what}");
    }
}

fn common_checks(failures: &mut Vec<String>, r: &Report) {
    let s = r.kind.name();
    check(
        failures,
        r.panics.is_empty(),
        &format!(
            "{s}: worker panic under exploration: {}",
            r.panics.first().map(|(_, m)| m.as_str()).unwrap_or("")
        ),
    );
    check(
        failures,
        r.unexpected.is_none(),
        &format!(
            "{s}: violation contradicts the engine's protection profile: {}",
            r.unexpected
                .as_ref()
                .map(|c| c.detail.as_str())
                .unwrap_or("")
        ),
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut write_fixture = false;
    for a in &args {
        match a.as_str() {
            "--write-fixture" => write_fixture = true,
            "--help" | "-h" => {
                println!(
                    "mc-suite: bounded model-checking CI gate\n\
                     \n\
                     USAGE: mc-suite [--write-fixture]\n\
                     \n\
                     --write-fixture  regenerate fixtures/deferred_counterexample.json\n\
                     \n\
                     exit 0 = all Table 1 verdicts hold; 1 = verdict failed; 2 = usage/IO"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("mc-suite: unknown argument `{other}` (see --help)");
                return ExitCode::from(2);
            }
        }
    }

    let mut failures = Vec::new();

    // 1. The tentpole proof: DMA shadowing survives exhaustive bounded
    //    exploration with zero violations.
    println!("[1/4] copy (DMA shadowing): exhaustive bounded exploration");
    let mut cfg = Config::new(EngineKind::Copy);
    budget(&mut cfg);
    let r = explore(&cfg);
    line(&r);
    common_checks(&mut failures, &r);
    check(
        &mut failures,
        r.exhausted,
        "copy: budget exhausted before the bounded space was covered (raise caps)",
    );
    check(
        &mut failures,
        !r.found_window && !r.found_subpage,
        "copy: protection violation found — shadowing must be byte-granular and window-free",
    );

    // 2. Strict zero-copy engines: no window, sub-page exposure expected.
    println!("[2/4] strict engines: no vulnerability window within bounds");
    for kind in [
        EngineKind::IdentityPlus,
        EngineKind::LinuxStrict,
        EngineKind::EiovarStrict,
        EngineKind::SelfInvalHw,
    ] {
        let mut cfg = Config::new(kind);
        budget(&mut cfg);
        let r = explore(&cfg);
        line(&r);
        common_checks(&mut failures, &r);
        check(
            &mut failures,
            !r.found_window,
            &format!("{kind}: window violation — strict invalidation must close it"),
        );
        check(
            &mut failures,
            r.exhausted,
            &format!("{kind}: budget exhausted before the bounded space was covered"),
        );
        check(
            &mut failures,
            r.found_subpage,
            &format!(
                "{kind}: page-granularity sub-page exposure not demonstrated \
                 (oracle or probes regressed)"
            ),
        );
    }

    // 3. Deferred engines: the §2.2.1 window must be found as a concrete
    //    counterexample schedule.
    println!("[3/4] deferred engines: vulnerability window counterexample");
    let mut defer_cx: Option<Counterexample> = None;
    for kind in [
        EngineKind::IdentityMinus,
        EngineKind::LinuxDefer,
        EngineKind::EiovarDefer,
        EngineKind::NoIommu,
    ] {
        let mut cfg = Config::new(kind);
        budget(&mut cfg);
        cfg.stop_at_first_window = true;
        let r = explore(&cfg);
        line(&r);
        common_checks(&mut failures, &r);
        check(
            &mut failures,
            r.found_window,
            &format!("{kind}: deferred invalidation window not found"),
        );
        if kind == EngineKind::LinuxDefer {
            defer_cx = r.window_example;
        }
    }
    if let Some(cx) = &defer_cx {
        println!("{}", cx.render());
    }

    // 4. The committed fixture: regenerate or replay.
    let path = fixture_path();
    if write_fixture {
        println!("[4/4] writing {}", path.display());
        let Some(cx) = &defer_cx else {
            eprintln!("mc-suite: no `defer` counterexample to write");
            return ExitCode::from(2);
        };
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("mc-suite: create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(&path, cx.to_json().encode() + "\n") {
            eprintln!("mc-suite: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    } else {
        println!("[4/4] replaying {}", path.display());
        match std::fs::read_to_string(&path) {
            Ok(text) => match Json::parse(&text).and_then(|j| Counterexample::from_json(&j)) {
                Ok(cx) => match EngineKind::from_name(&cx.strategy) {
                    Some(kind) => {
                        let cfg = Config::new(kind);
                        match modelcheck::replay(&cfg, &cx.schedule) {
                            Ok(out) => check(
                                &mut failures,
                                out.violations
                                    .iter()
                                    .any(|v| v.class == modelcheck::ViolationClass::Window),
                                "fixture replay: window violation did not reproduce",
                            ),
                            Err(why) => {
                                check(&mut failures, false, &format!("fixture replay: {why}"))
                            }
                        }
                    }
                    None => check(
                        &mut failures,
                        false,
                        &format!("fixture names unknown engine `{}`", cx.strategy),
                    ),
                },
                Err(e) => {
                    eprintln!("mc-suite: parse {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!(
                    "mc-suite: read {}: {e} (generate it with --write-fixture)",
                    path.display()
                );
                return ExitCode::from(2);
            }
        }
    }

    if failures.is_empty() {
        println!("mc-suite: all Table 1 verdicts hold");
        ExitCode::SUCCESS
    } else {
        println!("mc-suite: {} verdict(s) failed", failures.len());
        ExitCode::FAILURE
    }
}
