//! The DMA-API protocol rule pass: runs the protocol checker
//! ([`crate::typestate`]) and the device-taint pass ([`crate::taint`])
//! over one file's functions and returns their raw findings.
//!
//! Both passes share the workspace's function index ([`crate::fns`]) and
//! the per-function summaries ([`crate::summary`]: fresh-mapping returns,
//! device-data reads) that a uniquely resolved call reads. The assembled
//! [`ProtocolAnalysis`] is what `lint --json` exports.

use crate::fns::FnIndex;
use crate::report::LintViolation;
use crate::summary::FnSummary;
use crate::taint::TaintStats;

/// The protocol rule names, in reporting order.
pub const PROTOCOL_RULES: [&str; 2] = ["leak-on-exit", "cpu-read-while-mapped"];

/// The interprocedural analysis product of one workspace scan: the
/// function index, every function's summary, and the device-taint
/// statistics.
#[derive(Debug, Default)]
pub struct ProtocolAnalysis {
    /// The workspace's named functions.
    pub fns: FnIndex,
    /// Summaries, indexed like `fns.nodes`.
    pub summaries: Vec<FnSummary>,
    /// Aggregate taint numbers across the workspace.
    pub taint: TaintStats,
}

impl ProtocolAnalysis {
    /// Summarizes every function of `fns`; taint stats start empty.
    pub fn new(fns: FnIndex) -> Self {
        ProtocolAnalysis {
            summaries: crate::summary::compute(&fns),
            fns,
            taint: TaintStats::default(),
        }
    }

    /// The raw protocol and taint findings of the `file`-th file the index
    /// was built from, and its taint numbers.
    pub fn check_file(&self, file: usize) -> (Vec<LintViolation>, TaintStats) {
        let nodes = &self.fns.nodes[self.fns.files[file].clone()];
        let mut raw = crate::typestate::check_fns(nodes, self);
        let (taint, stats) = crate::taint::check_fns(nodes, self);
        raw.extend(taint);
        (raw, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    #[test]
    fn protocol_and_taint_findings_come_back_raw() {
        let src = "// lint: allow(leak-on-exit) — the waiver filter runs later\n\
            fn f(engine: &E, ctx: &mut C) {\n\
            let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
            }\n";
        let analysis = ProtocolAnalysis::new(FnIndex::build(&[SourceFile::lib("x.rs", src)]));
        let (raw, _) = analysis.check_file(0);
        assert_eq!(raw.len(), 1, "{raw:?}");
        assert_eq!(
            (raw[0].rule, raw[0].file.as_str()),
            ("leak-on-exit", "x.rs")
        );
    }
}
