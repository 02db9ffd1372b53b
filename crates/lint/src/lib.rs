//! A pure-std workspace lint (no `syn`, no external dependencies).
//!
//! The crate is one pipeline over one parsed form of the workspace
//! ([`workspace`]: one file walk; [`lexer`]: byte-aligned stripped views
//! and the token stream; [`mod@cfg`]: token trees and per-function
//! control-flow graphs). Each file is read and prepped once, each `src/`
//! file tokenized and parsed once, and each function's CFG built once (in
//! the function index, [`fns`]). On top of it:
//!
//! 1. **House style rules** ([`rules::style`]) — no `unwrap()`/`expect(`
//!    outside `#[cfg(test)]`, no raw `PhysAddr` arithmetic outside
//!    `memsim`, no `std::process`/`std::net`/`std::fs`, no
//!    `Ordering::Relaxed` outside `crates/obs`, no external dependencies
//!    in any manifest (the workspace builds offline), and every crate
//!    root carries `#![forbid(unsafe_code)]` (`forbid-unsafe`: rustc, not
//!    this lint, then rejects any `unsafe`).
//! 2. **DMA-API protocol** ([`rules::protocol`], [`typestate`],
//!    [`summary`]) — what the move-only handle types cannot say.
//!    Unmap-once and no-use-after-unmap are rustc's (E0382); a dataflow
//!    over each function's CFG checks the two obligations ownership does
//!    not express: leak-on-exit (a mapping still owned at a
//!    `return`/`?`/exit edge — the static cross-check of dmasan's teardown
//!    leak rule) and cpu-read-while-mapped (a CPU read of a
//!    device-writable buffer before its unmap). Moves and borrows are read
//!    off the call site; the one thing a call site cannot show — whether
//!    the uniquely resolved callee returns a fresh mapping — is its
//!    summary, computed the first time it is read.
//! 3. **Device taint** ([`taint`]) — values read off device-writable
//!    mapped buffers flowing into an index, loop bound, accessor length,
//!    or `PhysAddr` arithmetic without a bounds check.
//!
//! Lock order needs no pass: locks never nest, and `simcore::SimLock`
//! panics at run time when a core takes one inside another.
//!
//! Passes return raw findings; one filter ([`rules`]) applies the
//! `// lint: allow(<rule>) — <reason>` waivers (reason mandatory) and
//! audits them: a reasoned waiver whose rule finds nothing in its file is
//! a `dead-waiver` finding. The runner exits 0 (clean) / 1 (findings) /
//! 2 (scan failure). Run via `cargo run --bin lint` (`--json <path>` for
//! the machine-readable report, `--budget-ms <n>` to fail on blown wall
//! clock).
#![forbid(unsafe_code)]

use std::path::Path;

pub mod cfg;
pub mod fns;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod summary;
pub mod taint;
pub mod typestate;
pub mod workspace;

pub use fns::{FnIndex, FnNode};
pub use lexer::{strip_code, test_region_mask, Prep};
pub use report::{json_report, rule_summary, LintViolation};
pub use rules::protocol::ProtocolAnalysis;
pub use rules::style::{lint_manifest, FileContext};
pub use summary::{FnSummary, RetEffect};
pub use taint::TaintStats;
pub use workspace::{SourceFile, Workspace};

/// Every rule the workspace lint can emit, for the per-rule summary.
pub const ALL_RULES: [&str; 10] = [
    "ambient-io",
    "cpu-read-while-mapped",
    "dead-waiver",
    "device-taint",
    "external-dep",
    "forbid-unsafe",
    "leak-on-exit",
    "panic",
    "phys-addr-arith",
    "relaxed-atomic",
];

/// A workspace scan: the violations the build gates on, plus the
/// interprocedural analysis product the JSON report exports.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Waiver-filtered violations across every file and manifest.
    pub violations: Vec<LintViolation>,
    /// Function index, summaries, and taint stats.
    pub protocol: ProtocolAnalysis,
}

/// Runs every pass over a loaded workspace: the manifests, then each
/// file's raw line, protocol and taint findings through its waivers (and
/// each crate root through the forbid-unsafe rule).
pub fn lint(ws: &Workspace) -> WorkspaceReport {
    let mut protocol = ProtocolAnalysis::new(FnIndex::build(&ws.files));
    let mut out = Vec::new();
    for (label, toml) in &ws.manifests {
        out.extend(lint_manifest(label, toml));
    }
    let mut taint = TaintStats::default();
    for (i, f) in ws.files.iter().enumerate() {
        let mut raw = rules::style::check(&f.prep, f.ctx);
        let (found, stats) = protocol.check_file(i);
        raw.extend(found);
        taint.absorb(stats);
        out.extend(rules::apply_waivers(&f.prep.label, &f.src, f.ctx, raw));
        if f.crate_root {
            out.extend(rules::style::check_crate_root(&f.prep));
        }
    }
    protocol.taint = taint;
    WorkspaceReport {
        violations: out,
        protocol,
    }
}

/// Lints the whole workspace rooted at `root`: every member crate's
/// sources and manifest, plus the root manifest.
pub fn lint_workspace_report(root: &Path) -> std::io::Result<WorkspaceReport> {
    Ok(lint(&Workspace::load(root)?))
}

/// Lints the workspace and returns the gating violations only (see
/// [`lint_workspace_report`] for the analysis product too).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<LintViolation>> {
    Ok(lint_workspace_report(root)?.violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forbid_unsafe_findings(files: Vec<SourceFile>) -> Vec<String> {
        let ws = Workspace {
            manifests: Vec::new(),
            files,
        };
        lint(&ws)
            .violations
            .into_iter()
            .filter(|v| v.rule == "forbid-unsafe")
            .map(|v| v.file)
            .collect()
    }

    fn file(label: &str, src: &str, crate_root: bool) -> SourceFile {
        let mut f = SourceFile::lib(label, src);
        f.crate_root = crate_root;
        f
    }

    #[test]
    fn crate_roots_without_forbid_unsafe_are_flagged() {
        let bare = "//! A crate.\npub fn f() {}\n";
        let forbidden = "//! A crate.\n#![forbid(unsafe_code)]\npub fn f() {}\n";
        let found = forbid_unsafe_findings(vec![
            file("crates/a/src/lib.rs", bare, true),
            file("crates/a/src/bin/tool.rs", bare, true),
            file("crates/a/src/engines.rs", bare, false),
            file("crates/b/src/lib.rs", forbidden, true),
        ]);
        assert_eq!(found, ["crates/a/src/lib.rs", "crates/a/src/bin/tool.rs"]);
    }

    #[test]
    fn forbid_unsafe_ignores_waivers() {
        let src = "// lint: allow(forbid-unsafe) — waivers do not reach this rule\npub fn f() {}\n";
        let found = forbid_unsafe_findings(vec![file("crates/a/src/lib.rs", src, true)]);
        assert_eq!(found, ["crates/a/src/lib.rs"]);
    }
}
