//! What a run prints, at 1/100 of the real item counts.

use benchmark::report::{Metric, Value};
use benchmark::round::{guarded, run_round, Ran};
use benchmark::spans::Spans;
use benchmark::workloads::{Workload, KNOWN_BROKEN, WORKLOADS};
use benchmark::{end_to_end_names, per_layer_names, run, Opts, Report};
use netsim::{EngineKind, ExpResult};
use obs::Json;

fn small(w: &'static Workload, trace: bool, include_broken: bool) -> Report {
    run(&Opts {
        workload: w,
        seed: 7,
        seconds: 0.0,
        trace,
        include_broken,
        scale: 100,
    })
}

fn sim(metrics: &[Metric]) -> Vec<&Metric> {
    metrics
        .iter()
        .filter(|m| m.name.starts_with("sim_") || m.name.contains(".sim_"))
        .collect()
}

/// The result line as the driver reads it: `metrics` of the parsed JSON.
fn parsed_metrics(report: &Report) -> Vec<(String, Json)> {
    let doc = Json::parse(&report.outcome.json_line()).expect("the result line is JSON");
    for key in ["correct", "attempted", "failed"] {
        assert!(doc.get(key).is_some(), "result line lacks {key}");
    }
    match doc.get("metrics") {
        Some(Json::Obj(members)) => members.clone(),
        other => panic!("metrics is {other:?}"),
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in &WORKLOADS {
        let report = small(w, false, false);
        assert!(report.outcome.correct, "{}: {:?}", w.name, report.engines);
        assert_eq!(report.outcome.failed, 0, "{}", w.name);
        let printed: Vec<(String, String)> = parsed_metrics(&report)
            .into_iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                assert!(
                    matches!(
                        m.get("value"),
                        Some(Json::Float(_) | Json::UInt(_) | Json::Int(_))
                    ),
                    "{name}: {m:?}"
                );
                (name, unit.to_string())
            })
            .collect();
        let expected: Vec<(String, String)> = end_to_end_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(printed, expected, "{}", w.name);
        for m in &report.outcome.metrics {
            assert!(
                m.value != Value::Float(0.0) && m.value != Value::Int(0),
                "{}: end-to-end metric {} is 0",
                w.name,
                m.name
            );
        }
    }
}

#[test]
fn simulated_metrics_repeat_exactly_and_survive_tracing() {
    for w in &WORKLOADS {
        let a = small(w, false, false);
        let b = small(w, false, false);
        assert_eq!(
            sim(&a.outcome.metrics),
            sim(&b.outcome.metrics),
            "{}",
            w.name
        );

        let traced = small(w, true, false);
        assert!(traced.outcome.correct, "{}: {:?}", w.name, traced.engines);
        let names: Vec<(String, String)> = parsed_metrics(&traced)
            .into_iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name, unit.to_string())
            })
            .collect();
        let expected: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names, expected, "{}", w.name);

        // The traced run's per-engine results are the untraced run's.
        for (t, u) in traced.engines.iter().zip(&a.engines) {
            let (t, u) = (t.result.as_ref().unwrap(), u.result.as_ref().unwrap());
            assert_eq!(format!("{t:?}"), format!("{u:?}"), "{}", w.name);
        }
        let again = small(w, true, false);
        assert_eq!(
            sim(&traced.outcome.metrics),
            sim(&again.outcome.metrics),
            "{}",
            w.name
        );
    }
}

fn canned(kind: EngineKind, items: u64) -> Ran {
    Ran {
        result: ExpResult {
            engine: kind.name(),
            cores: 1,
            msg_size: 64,
            gbps: 1.0,
            cpu: 0.5,
            items,
            bytes: items * 64,
            per_item: simcore::Breakdown::new(),
            clock_ghz: 2.4,
            latency_us: None,
            transactions_per_sec: None,
            shadow_bytes_peak: None,
        },
        wall_s: 0.001,
        readout: None,
    }
}

#[test]
fn a_panicking_engine_fails_alone() {
    let mut spans = Spans::new();
    let root = spans.enter("test", None);
    let round = run_round(&EngineKind::ALL, 10, &mut spans, root, |kind| {
        if kind == EngineKind::Copy {
            panic!("planted failure");
        }
        canned(kind, 10)
    });
    assert_eq!(round.len(), 8);
    for run in &round {
        match (&run.outcome, run.kind) {
            (Err(why), EngineKind::Copy) => assert!(why.contains("planted failure"), "{why}"),
            (Ok(_), kind) if kind != EngineKind::Copy => {}
            (outcome, kind) => panic!("{kind}: {outcome:?}"),
        }
    }
}

#[test]
fn a_short_count_is_a_failure() {
    let run = guarded(EngineKind::Copy, 10, || canned(EngineKind::Copy, 9));
    assert!(run.outcome.unwrap_err().contains("short count"));
}

/// The live case of failure accounting. When this test fails because the
/// engine now passes, the program was fixed: empty `KNOWN_BROKEN` and move
/// `sim_gbps.eiovar_plus` back among the end-to-end metrics, in a change
/// to the benchmark alone.
#[test]
fn known_broken_engines_are_counted_not_skipped() {
    for (name, kind, message) in KNOWN_BROKEN {
        let w = Workload::by_name(name).expect("a listed workload exists");
        let report = run(&Opts {
            workload: w,
            seed: 7,
            seconds: 0.0,
            trace: false,
            include_broken: true,
            scale: 4,
        });
        let per_engine = report.outcome.attempted / 8;
        assert_eq!(report.outcome.failed, per_engine, "{name}");
        assert!(!report.outcome.correct);
        for row in &report.engines {
            if row.kind == kind {
                let why = row.failure.as_deref().unwrap_or("");
                assert!(why.contains(message), "{name}: {why:?}");
            } else {
                assert!(row.result.is_some(), "{name}: {} failed too", row.kind);
            }
        }
        // Left out, the workload is clean.
        assert!(!w.engines(false).contains(&kind));
    }
}
