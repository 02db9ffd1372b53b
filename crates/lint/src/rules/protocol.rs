//! The DMA-API protocol rule pass: runs the protocol checker
//! ([`crate::typestate`]) and the device-taint pass ([`crate::taint`])
//! over a prepared file and converts their findings into
//! waiver-compatible lint violations.
//!
//! Both passes share one interprocedural context — the workspace call
//! graph ([`crate::callgraph`]) and the per-function summaries
//! ([`crate::summary`]: fresh-mapping returns, device-data reads). The
//! assembled [`ProtocolAnalysis`] is what `lint --json` exports next to
//! the lock-order and unsafe inventories.

use crate::callgraph::CallGraph;
use crate::lexer::Prep;
use crate::report::LintViolation;
use crate::rules::has_rule_waiver;
use crate::rules::style::FileContext;
use crate::summary::FnSummary;
use crate::taint::TaintStats;
use crate::typestate::{Finding, InterCtx};

/// The protocol rule names, in reporting order.
pub const PROTOCOL_RULES: [&str; 2] = ["leak-on-exit", "cpu-read-while-mapped"];

/// The interprocedural analysis product of one workspace scan: the call
/// graph, every function's summary, and the device-taint statistics.
#[derive(Debug, Default)]
pub struct ProtocolAnalysis {
    /// The workspace call graph.
    pub graph: CallGraph,
    /// Summaries, indexed like `graph.nodes`.
    pub summaries: Vec<FnSummary>,
    /// Aggregate taint numbers across the workspace.
    pub taint: TaintStats,
}

impl ProtocolAnalysis {
    /// Summarizes every function of `graph`; taint stats start empty.
    pub fn from_graph(graph: CallGraph) -> Self {
        ProtocolAnalysis {
            summaries: crate::summary::compute(&graph),
            graph,
            taint: TaintStats::default(),
        }
    }

    /// The resolution context the per-file passes consume.
    pub fn inter(&self) -> InterCtx<'_> {
        InterCtx {
            graph: &self.graph,
            summaries: &self.summaries,
        }
    }
}

/// Per-file protocol + taint result, raw and filtered.
pub struct FileProtocol {
    /// Waiver-filtered violations (what the build gates on).
    pub violations: Vec<LintViolation>,
    /// Unfiltered findings (what dead-waiver detection counts).
    pub raw: Vec<Finding>,
    /// Taint stats for this file.
    pub taint: TaintStats,
}

/// Runs the protocol checker and the taint pass over one prepared file.
/// `src` is the raw source (for waiver comments). Aux files (`tests/`,
/// `benches/`) are exempt: protocol discipline is a library-code concern,
/// and test code deliberately constructs broken sequences to feed dmasan.
pub fn check_file(prep: &Prep, src: &str, ctx: FileContext, inter: &InterCtx<'_>) -> FileProtocol {
    if ctx.aux {
        return FileProtocol {
            violations: Vec::new(),
            raw: Vec::new(),
            taint: TaintStats::default(),
        };
    }
    let mut raw = crate::typestate::check_file(prep, inter);
    let (tfindings, taint) = crate::taint::check_file(prep, inter);
    raw.extend(tfindings);
    let violations = raw
        .iter()
        .filter(|f| !has_rule_waiver(src, f.rule))
        .map(|f| LintViolation {
            file: prep.label.clone(),
            line: f.line,
            rule: f.rule,
            detail: f.detail.clone(),
        })
        .collect();
    FileProtocol {
        violations,
        raw,
        taint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::prep;

    const LEAKY: &str = "fn f(engine: &E, ctx: &mut C) {\n\
        let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
        }\n";

    fn check(label: &str, src: &str, ctx: FileContext) -> FileProtocol {
        let p = prep(label, src);
        let analysis =
            ProtocolAnalysis::from_graph(CallGraph::build(&[(p.clone(), "x".to_string())]));
        check_file(&p, src, ctx, &analysis.inter())
    }

    #[test]
    fn protocol_findings_become_violations() {
        let v = check("x.rs", LEAKY, FileContext::default()).violations;
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "leak-on-exit");
        assert_eq!(v[0].file, "x.rs");
    }

    #[test]
    fn aux_files_are_exempt() {
        let aux = FileContext {
            aux: true,
            ..Default::default()
        };
        assert!(check("tests/x.rs", LEAKY, aux).violations.is_empty());
    }

    #[test]
    fn reasoned_waiver_silences_one_rule_only() {
        let src = format!(
            "// lint: allow(leak-on-exit) — ownership handed to the ring at runtime\n{LEAKY}"
        );
        let fp = check("x.rs", &src, FileContext::default());
        assert!(fp.violations.is_empty(), "{:?}", fp.violations);
        // Filtered, not forgotten: dead-waiver detection counts the raw one.
        assert_eq!(fp.raw.len(), 1, "{:?}", fp.raw);
        assert_eq!(fp.raw[0].rule, "leak-on-exit");
        // The waiver names its rule; other protocol rules still fire.
        let early_read = "// lint: allow(leak-on-exit) — reasoned\n\
            fn f(engine: &E, mem: &M, ctx: &mut C) {\n\
            let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::FromDevice).expect(\"m\");\n\
            let got = mem.read_vec(skb, 64);\n\
            engine.unmap(ctx, m).expect(\"u\");\n\
            }\n";
        let v = check("x.rs", early_read, FileContext::default()).violations;
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "cpu-read-while-mapped");
    }
}
