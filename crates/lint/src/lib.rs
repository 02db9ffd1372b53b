// lint: allow(ambient-io) — the workspace walk must read source files and manifests
//! A pure-std workspace lint (no `syn`, no external dependencies).
//!
//! The crate is built around a small in-tree Rust front-end
//! ([`lexer`]: byte-aligned stripped views + token stream, [`cfg`]:
//! token trees and per-function control-flow graphs) shared by every
//! pass, so there is exactly one tokenizer, one `#[cfg(test)]` mask, and
//! one file walk. On top of it:
//!
//! 1. **House style rules** ([`rules::style`]) — no `unwrap()`/`expect(`
//!    outside `#[cfg(test)]`, no raw `PhysAddr` arithmetic outside
//!    `memsim`, no `std::process`/`std::net`/`std::fs`, no
//!    `Ordering::Relaxed` outside `crates/obs`, and no external
//!    dependencies in any manifest (the workspace builds offline).
//! 2. **Lock order** ([`rules::lock_order`]) — extracts every
//!    instrumented lock site, builds the nested-acquisition graph, and
//!    flags cycles; the site inventory feeds the model checker's
//!    `known_locks`.
//! 3. **DMA-API protocol** ([`rules::protocol`], [`typestate`],
//!    [`callgraph`], [`summary`]) — what the move-only handle types
//!    cannot say. Unmap-once and no-use-after-unmap are rustc's (E0382);
//!    a dataflow over each function's CFG checks the two obligations
//!    ownership does not express: leak-on-exit (a mapping still owned at
//!    a `return`/`?`/exit edge — the static cross-check of dmasan's
//!    teardown leak rule) and cpu-read-while-mapped (a CPU read of a
//!    device-writable buffer before its unmap). Moves and borrows are
//!    read off the call site; the workspace call graph feeds bottom-up
//!    summaries (computed over SCCs with a fixpoint for recursion) of the
//!    one thing a call site cannot show — whether a callee returns a
//!    fresh mapping.
//! 4. **Device taint** ([`taint`]) — values read off device-writable
//!    mapped buffers flowing into an index, loop bound, accessor length,
//!    or `PhysAddr` arithmetic without a bounds check.
//! 5. **Unsafe audit** ([`rules::unsafe_audit`]) — every `unsafe` must
//!    carry a `// SAFETY:` comment; the inventory (plus which crates
//!    `#![forbid(unsafe_code)]`) is exported like the lock-order report.
//!
//! Every rule is waiver-compatible (`// lint: allow(<rule>) — <reason>`,
//! reason mandatory) — and waivers are themselves audited: a reasoned
//! waiver whose rule no longer finds anything unfiltered is a
//! `dead-waiver` finding. The runner exits 0 (clean) / 1 (findings) /
//! 2 (scan failure). Run via `cargo run --bin lint` (`--json <path>` for
//! the machine-readable report, `--budget-ms <n>` to fail on blown wall
//! clock).
#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};

pub mod callgraph;
pub mod cfg;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod summary;
pub mod taint;
pub mod typestate;

pub use callgraph::{build_workspace_graph, CallGraph, FnNode};
pub use lexer::{aligned_views, strip_code, test_region_mask, Prep};
pub use report::{json_report, rule_summary, LintViolation};
pub use rules::lock_order::{lock_order_analysis, LockEdge, LockOrderReport, LockSite};
pub use rules::protocol::ProtocolAnalysis;
pub use rules::style::{lint_manifest, lint_source, FileContext};
pub use rules::unsafe_audit::{unsafe_audit_analysis, UnsafeReport, UnsafeSite};
pub use rules::{has_rule_waiver, IO_WAIVER, PANIC_WAIVER, RELAXED_WAIVER};
pub use summary::{FnSummary, RetEffect};
pub use taint::TaintStats;
pub use typestate::{Finding, InterCtx};

/// Every rule the workspace lint can emit, for the per-rule summary.
pub const ALL_RULES: [&str; 11] = [
    "ambient-io",
    "cpu-read-while-mapped",
    "dead-waiver",
    "device-taint",
    "external-dep",
    "leak-on-exit",
    "lock-order",
    "panic",
    "phys-addr-arith",
    "relaxed-atomic",
    "unsafe-no-safety",
];

/// The sorted member crate directories under `root/crates`.
pub(crate) fn member_crates(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut members: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    Ok(members)
}

/// Recursively collects `.rs` files under `dir`.
pub(crate) fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A workspace scan: the violations the build gates on, plus the
/// interprocedural analysis product the JSON report exports next to the
/// lock-order and unsafe inventories.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Waiver-filtered violations across every file and manifest.
    pub violations: Vec<LintViolation>,
    /// Call graph, summaries, and taint stats.
    pub protocol: ProtocolAnalysis,
}

/// Tallies unfiltered findings per rule for dead-waiver detection.
fn raw_rule_counts<'a>(
    rules_iter: impl IntoIterator<Item = &'a str>,
) -> std::collections::BTreeMap<&'static str, usize> {
    let mut counts = std::collections::BTreeMap::new();
    for rule in rules_iter {
        // Rule names are interned `&'static str`s; match back onto the table.
        if let Some(r) = ALL_RULES.iter().find(|r| **r == rule) {
            *counts.entry(*r).or_insert(0) += 1;
        }
    }
    counts
}

/// Lints the whole workspace rooted at `root`: every member crate's
/// sources and manifest, plus the root manifest, through the style,
/// lock-order, protocol, device-taint, unsafe, and dead-waiver passes.
pub fn lint_workspace_report(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut out = Vec::new();
    let label = |p: &Path| {
        p.strip_prefix(root)
            .unwrap_or(p)
            .display()
            .to_string()
            .replace('\\', "/")
    };
    // The interprocedural context is built once over the whole workspace
    // so per-file protocol checks can resolve cross-file helper calls.
    let mut analysis = ProtocolAnalysis::from_graph(build_workspace_graph(root)?);
    for member in member_crates(root)? {
        let crate_name = member
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let manifest = member.join("Cargo.toml");
        if let Ok(toml) = fs::read_to_string(&manifest) {
            out.extend(lint_manifest(&label(&manifest), &toml));
        }
        let src_dir = member.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&src_dir, &mut files)?;
        files.sort();
        for f in &files {
            let src = fs::read_to_string(f)?;
            let rel = label(f);
            let ctx = FileContext {
                in_memsim: crate_name == "memsim",
                in_obs: crate_name == "obs",
                ..Default::default()
            };
            let p = lexer::prep(&rel, &src);
            out.extend(rules::style::check_prepped(&p, &src, ctx));
            let fp = rules::protocol::check_file(&p, &src, ctx, &analysis.inter());
            let sites = rules::unsafe_audit::scan_file(&p, &src);
            out.extend(rules::unsafe_audit::violations(&sites, &src));
            // Dead waivers: compare the file's waivers against what the
            // *unfiltered* passes found (waivers read from the `src`
            // argument, so an empty one disables filtering).
            let mut raw: Vec<&str> = rules::style::check_prepped(&p, "", ctx)
                .iter()
                .map(|v| v.rule)
                .chain(fp.raw.iter().map(|f| f.rule))
                .chain(
                    rules::unsafe_audit::violations(&sites, "")
                        .iter()
                        .map(|v| v.rule),
                )
                .collect();
            raw.sort_unstable();
            out.extend(rules::dead_waivers(&rel, &src, ctx, &raw_rule_counts(raw)));
            analysis.taint.absorb(fp.taint);
            out.extend(fp.violations);
        }
        // Integration tests and benches: ambient-I/O discipline only.
        for sub in ["tests", "benches"] {
            let aux_dir = member.join(sub);
            if !aux_dir.is_dir() {
                continue;
            }
            let mut aux_files = Vec::new();
            rust_files(&aux_dir, &mut aux_files)?;
            aux_files.sort();
            for f in &aux_files {
                let src = fs::read_to_string(f)?;
                let ctx = FileContext {
                    aux: true,
                    ..Default::default()
                };
                let rel = label(f);
                out.extend(lint_source(&rel, &src, ctx));
                let p = lexer::prep(&rel, &src);
                let raw: Vec<&str> = rules::style::check_prepped(&p, "", ctx)
                    .iter()
                    .map(|v| v.rule)
                    .collect();
                out.extend(rules::dead_waivers(&rel, &src, ctx, &raw_rule_counts(raw)));
            }
        }
    }
    let root_manifest = root.join("Cargo.toml");
    if let Ok(toml) = fs::read_to_string(&root_manifest) {
        out.extend(lint_manifest(&label(&root_manifest), &toml));
    }
    out.extend(lock_order_analysis(root)?.cycle_violations());
    Ok(WorkspaceReport {
        violations: out,
        protocol: analysis,
    })
}

/// Lints the workspace and returns the gating violations only (see
/// [`lint_workspace_report`] for the analysis product too).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<LintViolation>> {
    Ok(lint_workspace_report(root)?.violations)
}
