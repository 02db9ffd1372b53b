//! The lint must hold two properties at once: the real workspace passes,
//! and a planted fixture workspace (`tests/fixtures/lint-bad`) fails with
//! every rule firing. Together they prove the scanner neither rubber-stamps
//! nor cries wolf. Each workspace is scanned once, and the tests share the
//! report: findings and interprocedural product alike. The loader also
//! serves one source scan of its own: lock sites are instrumented only by
//! the `obs` primitive.

use dma_shadowing::lint::lexer::prep;
use dma_shadowing::lint::workspace::rust_files;
use dma_shadowing::lint::{lint_workspace_report, Prep, Workspace, WorkspaceReport};
use std::path::Path;
use std::sync::OnceLock;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn real_workspace() -> &'static WorkspaceReport {
    static REPORT: OnceLock<WorkspaceReport> = OnceLock::new();
    REPORT.get_or_init(|| lint_workspace_report(repo_root()).expect("scan workspace"))
}

fn fixture() -> &'static WorkspaceReport {
    static REPORT: OnceLock<WorkspaceReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        lint_workspace_report(&repo_root().join("tests/fixtures/lint-bad")).expect("scan fixture")
    })
}

#[test]
fn real_workspace_is_lint_clean() {
    let violations = &real_workspace().violations;
    assert!(
        violations.is_empty(),
        "workspace must be lint-clean, got:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn planted_fixture_trips_every_rule() {
    let violations = &fixture().violations;
    let count = |rule: &str| violations.iter().filter(|v| v.rule == rule).count();

    // `serde` in the fixture root plus `rand`/`proptest` in badcrate.
    assert_eq!(count("external-dep"), 3, "{violations:?}");
    // `.unwrap()` and `.expect(` outside `#[cfg(test)]`, no waiver.
    assert_eq!(count("panic"), 2, "{violations:?}");
    // `PhysAddr(base + idx * 4096)` outside memsim.
    assert_eq!(count("phys-addr-arith"), 1, "{violations:?}");
    // `use std::fs;` outside the bench / obs-sink allowance.
    assert_eq!(count("ambient-io"), 1, "{violations:?}");
    // `Ordering::Relaxed` outside the obs counters, no waiver.
    assert_eq!(count("relaxed-atomic"), 1, "{violations:?}");
    // `protocol.rs` plants the two leak edges (`return`, `?`) and the
    // early CPU read; `interproc.rs` adds the cross-function leaks: a
    // handle only ever *borrowed* by a helper, and one that came back from
    // a helper returning a fresh mapping. The clean controls
    // (`read_after_unmap`, `helper_roundtrip`, `taint_bounds_checked`,
    // `defer_unmap`) must stay silent. Unmap-twice and use-after-unmap
    // have no fixture: they are E0382, pinned by `DmaMapping`'s doctests.
    assert_eq!(count("leak-on-exit"), 4, "{violations:?}");
    assert_eq!(count("cpu-read-while-mapped"), 1, "{violations:?}");
    // `taint_to_index` only: device-read value indexing without a check.
    assert_eq!(count("device-taint"), 1, "{violations:?}");
    // The planted stale `cpu-read-while-mapped` waiver in `interproc.rs`.
    assert_eq!(count("dead-waiver"), 1, "{violations:?}");
    let dead = violations
        .iter()
        .find(|v| v.rule == "dead-waiver")
        .expect("dead waiver");
    assert!(
        dead.file.ends_with("interproc.rs") && dead.detail.contains("cpu-read-while-mapped"),
        "{dead:?}"
    );
    // The fixture's crate root leaves out `#![forbid(unsafe_code)]`.
    assert_eq!(count("forbid-unsafe"), 1, "{violations:?}");

    // The `#[cfg(test)]` unwrap in the fixture must NOT be counted; the
    // totals above are exhaustive.
    assert_eq!(violations.len(), 16, "{violations:?}");

    // The in-tree path dependency (`memsim = {{ path = .. }}`) is allowed.
    assert!(
        !violations
            .iter()
            .any(|v| v.rule == "external-dep" && v.detail.contains("memsim")),
        "{violations:?}"
    );
}

#[test]
fn fixture_interprocedural_product_is_exported() {
    let analysis = &fixture().protocol;

    // The call graph resolved the planted helpers: `leak_across_helper`
    // calls `touch_stats`, `leak_of_returned_handle` calls `make_rx`,
    // `helper_roundtrip` calls `finish` — all by name+arity, no
    // annotations.
    let g = &analysis.graph;
    let id = |name: &str| {
        g.nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("function `{name}` missing from the graph"))
    };
    assert!(g.callees[id("leak_across_helper")].contains(&id("touch_stats")));
    assert!(g.callees[id("leak_of_returned_handle")].contains(&id("make_rx")));
    assert!(g.callees[id("helper_roundtrip")].contains(&id("finish")));

    // `make_rx` returns a fresh mapping — the one summary fact a planted
    // violation hinges on (what `finish` does with its by-value parameter
    // is `finish`'s business: the caller's `m` was moved).
    let make_rx = &analysis.summaries[id("make_rx")];
    assert!(
        matches!(
            make_rx.ret,
            dma_shadowing::lint::RetEffect::FreshMapped { .. }
        ),
        "{make_rx:?}"
    );

    // The taint pass saw the device read feeding `taint_to_index` and the
    // guarded control.
    assert!(analysis.taint.sources >= 2, "{:?}", analysis.taint);
    assert!(analysis.taint.sanitized_vars >= 1, "{:?}", analysis.taint);
}

#[test]
fn real_workspace_interprocedural_product_is_pinned() {
    let analysis = &real_workspace().protocol;
    let g = &analysis.graph;

    // The graph covers the whole workspace: floors, not exact counts, so
    // ordinary growth does not churn this test.
    let closures = g.nodes.iter().filter(|n| n.is_closure).count();
    assert!(
        g.nodes.len() - closures > 850,
        "{} functions",
        g.nodes.len()
    );
    assert!(closures > 300, "{closures} closures");
    let edges: usize = g.callees.iter().map(|c| c.len()).sum();
    assert!(edges > 6600, "{edges} call edges");

    // Device-tainted values exist (rx paths) but every one is either
    // sink-free or guarded: zero device-taint violations is the
    // workspace-clean assertion above, and the stats prove the pass
    // actually ran over real sources rather than finding nothing to do.
    assert!(analysis.taint.sources >= 5, "{:?}", analysis.taint);
}

/// Constructions (not patterns) of `EventKind::LockAcquire` in one prepped
/// file, outside `#[cfg(test)]`.
fn hand_rolled_lock_sites(p: &Prep) -> Vec<String> {
    const NEEDLE: &str = "EventKind::LockAcquire";
    let bb = p.blank.as_bytes();
    let skip_ws = |mut k: usize| {
        while bb.get(k).is_some_and(u8::is_ascii_whitespace) {
            k += 1;
        }
        k
    };
    let mut out = Vec::new();
    for (pos, _) in p.blank.match_indices(NEEDLE) {
        // A braced value followed by `=>`, `=` or `|` is a pattern (code
        // that *reads* the stream), not a construction.
        let open = skip_ws(pos + NEEDLE.len());
        let close = match bb.get(open) {
            Some(b'{') => bb[open..].iter().position(|&c| c == b'}').map(|o| open + o),
            _ => None,
        };
        let after = close.map(|c| skip_ws(c + 1)).and_then(|k| bb.get(k));
        let line = p.line_of(pos);
        if !matches!(after, Some(b'=' | b'|')) && !p.in_test(line) {
            out.push(format!("{}:{line}: {NEEDLE}", p.label));
        }
    }
    out
}

#[test]
fn lock_acquire_is_built_only_by_the_obs_primitive() {
    // The scanner must have teeth before its silence means anything.
    let planted =
        "fn f(o: &Obs) { o.trace(t, 0, None, EventKind::LockAcquire { lock: n.into() }); }";
    assert_eq!(hand_rolled_lock_sites(&prep("x.rs", planted)).len(), 1);
    let reader = "fn g(k: &EventKind) { match k { EventKind::LockAcquire { lock } => {} \
                  _ => {} } if let EventKind::LockAcquire { lock } = k {} }";
    assert!(hand_rolled_lock_sites(&prep("x.rs", reader)).is_empty());

    // Every lock site goes through `Obs::{locked, guarded}`; a hand-copied
    // `LockAcquire` (and with it a new place to get the record-and-yield-
    // before-the-lock ordering wrong) fails here. The loader reads the
    // member crates; the umbrella crate, the examples and the standalone
    // benchmark are walked beside it.
    let root = repo_root();
    let ws = Workspace::load(root).expect("load workspace");
    let mut preps: Vec<Prep> = ws
        .files
        .into_iter()
        .filter(|f| f.crate_name != "obs")
        .map(|f| f.prep)
        .collect();
    for dir in ["src", "examples", "benchmark/src"] {
        let mut paths = Vec::new();
        rust_files(&root.join(dir), &mut paths).expect("walk sources");
        for path in paths {
            let label = path.strip_prefix(root).unwrap_or(&path).display();
            let src = std::fs::read_to_string(&path).expect("read source");
            preps.push(prep(&label.to_string(), &src));
        }
    }
    assert!(preps.len() > 50, "source walk found only {}", preps.len());
    let sites: Vec<String> = preps.iter().flat_map(hand_rolled_lock_sites).collect();
    assert!(
        sites.is_empty(),
        "lock-site instrumentation outside crates/obs:\n{}",
        sites.join("\n")
    );
}
