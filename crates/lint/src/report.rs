//! Finding types and the machine-readable report.

use std::collections::BTreeMap;

use obs::json::Json;

use crate::rules::lock_order::LockOrderReport;
use crate::rules::protocol::ProtocolAnalysis;
use crate::rules::unsafe_audit::UnsafeReport;
use crate::summary::RetEffect;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintViolation {
    /// Path (workspace-relative where possible) of the offending file.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Stable rule name, one of [`crate::ALL_RULES`].
    pub rule: &'static str,
    /// What was found.
    pub detail: String,
}

impl std::fmt::Display for LintViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.detail
        )
    }
}

/// Per-rule finding counts, every known rule present (zero when clean) so
/// the CI log always prints the full table.
pub fn rule_summary(violations: &[LintViolation]) -> BTreeMap<&'static str, usize> {
    let mut counts: BTreeMap<&'static str, usize> =
        crate::ALL_RULES.iter().map(|&r| (r, 0)).collect();
    for v in violations {
        *counts.entry(v.rule).or_insert(0) += 1;
    }
    counts
}

/// The `call_graph`, `summaries`, and `taint_analysis` sections of the
/// JSON report, from a scan's interprocedural product. Summaries are
/// exported only when DMA-relevant — a fresh-mapped return or a
/// device-data read — so the report stays proportional to the DMA
/// surface, not the workspace size.
fn protocol_sections(analysis: &ProtocolAnalysis) -> Vec<(String, Json)> {
    let g = &analysis.graph;
    let closures = g.nodes.iter().filter(|n| n.is_closure).count();
    let edges: usize = g.callees.iter().map(|c| c.len()).sum();
    let call_graph = Json::Obj(vec![
        (
            "functions".into(),
            Json::UInt((g.nodes.len() - closures) as u64),
        ),
        ("closures".into(), Json::UInt(closures as u64)),
        ("edges".into(), Json::UInt(edges as u64)),
        (
            "unknown_calls".into(),
            Json::UInt(g.unknown_calls.iter().sum::<usize>() as u64),
        ),
        ("sccs".into(), Json::UInt(g.sccs().len() as u64)),
    ]);
    let ret_str = |s: &crate::summary::FnSummary| match &s.ret {
        RetEffect::NotHandle => "not-handle".to_string(),
        RetEffect::FreshMapped { dir } => format!("fresh-mapped:{}", dir.name()),
        RetEffect::Unknown => "unknown".to_string(),
    };
    let interesting = |s: &crate::summary::FnSummary| {
        s.reads_device_data || matches!(s.ret, RetEffect::FreshMapped { .. })
    };
    let summaries = Json::Arr(
        g.nodes
            .iter()
            .zip(&analysis.summaries)
            .filter(|(_, s)| interesting(s))
            .map(|(n, s)| {
                Json::Obj(vec![
                    ("function".into(), Json::Str(n.name.clone())),
                    ("file".into(), Json::Str(n.file.clone())),
                    ("line".into(), Json::UInt(n.line as u64)),
                    ("ret".into(), Json::Str(ret_str(s))),
                    ("reads_device_data".into(), Json::Bool(s.reads_device_data)),
                    ("converged".into(), Json::Bool(s.converged)),
                ])
            })
            .collect(),
    );
    let taint = Json::Obj(vec![
        ("sources".into(), Json::UInt(analysis.taint.sources as u64)),
        (
            "tainted_vars".into(),
            Json::UInt(analysis.taint.tainted_vars as u64),
        ),
        (
            "sanitized_vars".into(),
            Json::UInt(analysis.taint.sanitized_vars as u64),
        ),
    ]);
    vec![
        ("call_graph".into(), call_graph),
        ("summaries".into(), summaries),
        ("taint_analysis".into(), taint),
    ]
}

/// Builds the machine-readable lint report (`lint --json <path>`): the
/// findings, the per-rule summary, the exported lock-order and unsafe
/// inventories, and the interprocedural call-graph, summary, and taint
/// sections.
pub fn json_report(
    violations: &[LintViolation],
    locks: &LockOrderReport,
    unsafes: &UnsafeReport,
    protocol: &ProtocolAnalysis,
) -> Json {
    let viol = |v: &LintViolation| {
        Json::Obj(vec![
            ("file".into(), Json::Str(v.file.clone())),
            ("line".into(), Json::UInt(v.line as u64)),
            ("rule".into(), Json::Str(v.rule.to_string())),
            ("detail".into(), Json::Str(v.detail.clone())),
        ])
    };
    let summary = Json::Obj(
        rule_summary(violations)
            .into_iter()
            .map(|(r, n)| (r.to_string(), Json::UInt(n as u64)))
            .collect(),
    );
    let lock_sites = Json::Arr(
        locks
            .sites
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("file".into(), Json::Str(s.file.clone())),
                    ("line".into(), Json::UInt(s.line as u64)),
                    ("lock".into(), Json::Str(s.lock.clone())),
                    ("acquisition".into(), Json::Bool(s.acquisition)),
                ])
            })
            .collect(),
    );
    let lock_edges = Json::Arr(
        locks
            .edges
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("outer".into(), Json::Str(e.outer.clone())),
                    ("inner".into(), Json::Str(e.inner.clone())),
                    ("file".into(), Json::Str(e.file.clone())),
                    ("line".into(), Json::UInt(e.line as u64)),
                ])
            })
            .collect(),
    );
    let cycles = Json::Arr(
        locks
            .cycles
            .iter()
            .map(|c| Json::Arr(c.iter().map(|n| Json::Str(n.clone())).collect()))
            .collect(),
    );
    let unsafe_sites = Json::Arr(
        unsafes
            .sites
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("file".into(), Json::Str(s.file.clone())),
                    ("line".into(), Json::UInt(s.line as u64)),
                    (
                        "has_safety_comment".into(),
                        Json::Bool(s.has_safety_comment),
                    ),
                ])
            })
            .collect(),
    );
    let mut fields = vec![
        ("tool".into(), Json::Str("lint".to_string())),
        (
            "violations".into(),
            Json::Arr(violations.iter().map(viol).collect()),
        ),
        ("summary".into(), summary),
        (
            "lock_order".into(),
            Json::Obj(vec![
                ("sites".into(), lock_sites),
                ("edges".into(), lock_edges),
                ("cycles".into(), cycles),
            ]),
        ),
        (
            "unsafe_audit".into(),
            Json::Obj(vec![
                ("sites".into(), unsafe_sites),
                (
                    "forbid_crates".into(),
                    Json::Arr(
                        unsafes
                            .forbid_crates
                            .iter()
                            .map(|c| Json::Str(c.clone()))
                            .collect(),
                    ),
                ),
            ]),
        ),
    ];
    fields.extend(protocol_sections(protocol));
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_lists_every_rule_and_counts_findings() {
        let v = vec![
            LintViolation {
                file: "a.rs".into(),
                line: 1,
                rule: "panic",
                detail: "x".into(),
            },
            LintViolation {
                file: "a.rs".into(),
                line: 2,
                rule: "panic",
                detail: "y".into(),
            },
        ];
        let s = rule_summary(&v);
        assert_eq!(s["panic"], 2);
        assert_eq!(s["leak-on-exit"], 0);
        assert!(s.contains_key("lock-order"));
    }

    #[test]
    fn json_report_round_trips() {
        let v = vec![LintViolation {
            file: "a.rs".into(),
            line: 3,
            rule: "leak-on-exit",
            detail: "m leaks".into(),
        }];
        let j = json_report(
            &v,
            &LockOrderReport::default(),
            &UnsafeReport::default(),
            &ProtocolAnalysis::default(),
        );
        let parsed = Json::parse(&j.encode()).expect("valid json");
        let first = parsed
            .get("violations")
            .and_then(|a| match a {
                Json::Arr(items) => items.first(),
                _ => None,
            })
            .expect("one violation");
        assert_eq!(
            first.get("rule").and_then(Json::as_str),
            Some("leak-on-exit")
        );
        assert_eq!(
            parsed
                .get("summary")
                .and_then(|s| s.get("leak-on-exit"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn full_report_exports_interprocedural_sections() {
        let src = "fn make_rx(engine: &E, ctx: &mut C) -> Mapping {\n\
            engine.map(ctx, DmaBuf::new(pkt, 64), DmaDirection::FromDevice).expect(\"m\")\n\
            }\n";
        let p = crate::lexer::prep("crates/x/src/lib.rs", src);
        let graph = crate::callgraph::CallGraph::build(&[(p, "x".to_string())]);
        let mut analysis = ProtocolAnalysis::from_graph(graph);
        analysis.taint = crate::taint::TaintStats {
            sources: 2,
            tainted_vars: 3,
            sanitized_vars: 1,
        };
        let j = json_report(
            &[],
            &LockOrderReport::default(),
            &UnsafeReport::default(),
            &analysis,
        );
        let parsed = Json::parse(&j.encode()).expect("valid json");
        assert_eq!(
            parsed
                .get("call_graph")
                .and_then(|g| g.get("functions"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            parsed
                .get("taint_analysis")
                .and_then(|t| t.get("sources"))
                .and_then(Json::as_u64),
            Some(2)
        );
        // `make_rx` returns a fresh mapping, so it is exported.
        let summaries = parsed.get("summaries").expect("summaries section");
        let first = match summaries {
            Json::Arr(items) => items.first().expect("one summary"),
            _ => panic!("summaries not an array"),
        };
        assert_eq!(
            first.get("function").and_then(Json::as_str),
            Some("make_rx")
        );
        assert_eq!(
            first.get("ret").and_then(Json::as_str),
            Some("fresh-mapped:FromDevice")
        );
    }
}
