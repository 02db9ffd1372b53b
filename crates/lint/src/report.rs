//! The finding type and the machine-readable report.

use std::collections::BTreeMap;

use obs::json::Json;

use crate::summary::RetEffect;
use crate::WorkspaceReport;

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

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn uint(n: usize) -> Json {
    Json::UInt(n as u64)
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// Builds the machine-readable lint report (`lint --json <path>`): the
/// findings, the per-rule summary, the function count, and the
/// interprocedural summary and taint sections. Summaries
/// are exported only when DMA-relevant — a fresh-mapped return or a
/// device-data read — so the report stays proportional to the DMA
/// surface, not the workspace size.
pub fn json_report(report: &WorkspaceReport) -> Json {
    let analysis = &report.protocol;
    let violations = report.violations.iter().map(|v| {
        obj(vec![
            ("file", text(&v.file)),
            ("line", uint(v.line)),
            ("rule", text(v.rule)),
            ("detail", text(&v.detail)),
        ])
    });
    let summary = rule_summary(&report.violations)
        .into_iter()
        .map(|(r, n)| (r.to_string(), uint(n)));
    let summaries = analysis
        .fns
        .nodes
        .iter()
        .zip(&analysis.summaries)
        .filter(|(_, s)| s.reads_device_data || matches!(s.ret, RetEffect::FreshMapped { .. }));
    let summaries = summaries.map(|(n, s)| {
        let ret = match s.ret {
            RetEffect::NotHandle => "not-handle".to_string(),
            RetEffect::FreshMapped { dir } => format!("fresh-mapped:{dir:?}"),
            RetEffect::Unknown => "unknown".to_string(),
        };
        obj(vec![
            ("function", text(&n.name)),
            ("file", text(&n.file)),
            ("line", uint(n.line)),
            ("ret", Json::Str(ret)),
            ("reads_device_data", Json::Bool(s.reads_device_data)),
        ])
    });
    let taint = &analysis.taint;
    obj(vec![
        ("tool", text("lint")),
        ("violations", Json::Arr(violations.collect())),
        ("summary", Json::Obj(summary.collect())),
        ("functions", uint(analysis.fns.nodes.len())),
        ("summaries", Json::Arr(summaries.collect())),
        (
            "taint_analysis",
            obj(vec![
                ("sources", uint(taint.sources)),
                ("tainted_vars", uint(taint.tainted_vars)),
                ("sanitized_vars", uint(taint.sanitized_vars)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::protocol::ProtocolAnalysis;

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
        assert_eq!(s.len(), crate::ALL_RULES.len());
    }

    #[test]
    fn json_report_round_trips() {
        let report = WorkspaceReport {
            violations: vec![LintViolation {
                file: "a.rs".into(),
                line: 3,
                rule: "leak-on-exit",
                detail: "m leaks".into(),
            }],
            ..Default::default()
        };
        let j = json_report(&report);
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
        let file = crate::workspace::SourceFile::lib("crates/x/src/lib.rs", src);
        let mut protocol = ProtocolAnalysis::new(crate::fns::FnIndex::build(&[file]));
        protocol.taint = crate::taint::TaintStats {
            sources: 2,
            tainted_vars: 3,
            sanitized_vars: 1,
        };
        let j = json_report(&WorkspaceReport {
            protocol,
            ..Default::default()
        });
        let parsed = Json::parse(&j.encode()).expect("valid json");
        assert_eq!(parsed.get("functions").and_then(Json::as_u64), Some(1));
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
