//! The lint must hold two properties at once: the real workspace passes,
//! and a planted fixture workspace (`tests/fixtures/lint-bad`) fails with
//! every rule firing. Together they prove the scanner neither rubber-stamps
//! nor cries wolf. Each workspace is scanned once, and the tests share the
//! report: findings and interprocedural product alike. The loader also
//! serves two source scans of its own: lock sites are instrumented only by
//! the `obs` primitive, and every `CostModel` constant prices something.

use dma_shadowing::lint::lexer::prep;
use dma_shadowing::lint::workspace::rust_files;
use dma_shadowing::lint::{
    lint_workspace_report, Prep, ProtocolAnalysis, Workspace, WorkspaceReport,
};
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

/// The index of function `name`, the first of that name.
fn id_of(analysis: &ProtocolAnalysis, name: &str) -> usize {
    analysis
        .fns
        .nodes
        .iter()
        .position(|n| n.name == name)
        .unwrap_or_else(|| panic!("function `{name}` missing from the index"))
}

#[test]
fn fixture_interprocedural_product_is_exported() {
    let analysis = &fixture().protocol;

    // The planted helpers' call sites resolve by name+arity, no
    // annotations: `leak_across_helper` calls `touch_stats(stats, &m)`,
    // `leak_of_returned_handle` calls `make_rx(engine, ctx)`,
    // `helper_roundtrip` calls `finish(engine, ctx, m)`.
    for (name, argc) in [("touch_stats", 2), ("make_rx", 2), ("finish", 3)] {
        let resolved = analysis.fns.resolve(name, false, argc);
        assert_eq!(resolved, Some(id_of(analysis, name)), "{name}");
    }

    // `make_rx` returns a fresh mapping — the one summary fact a planted
    // violation hinges on (what `finish` does with its by-value parameter
    // is `finish`'s business: the caller's `m` was moved).
    let make_rx = &analysis.summaries[id_of(analysis, "make_rx")];
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

    // The index covers the whole workspace: a floor, not an exact count,
    // so ordinary growth does not churn this test.
    let functions = analysis.fns.nodes.len();
    assert!(functions > 830, "{functions} functions");

    // The RX paths that read device-written bytes back are the taint
    // sources a call to them stands for.
    for name in ["rx_one", "loopback_rx", "deferred_window_overwrite"] {
        let summary = &analysis.summaries[id_of(analysis, name)];
        assert!(summary.reads_device_data, "{name}: {summary:?}");
    }

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

/// Direct acquisitions of a `SimLock` (`.lock(ctx`, `.with(ctx`,
/// `.with_spin(`) in one prepped file, outside `#[cfg(test)]`.
fn direct_simlock_takes(p: &Prep) -> Vec<String> {
    let mut out = Vec::new();
    for needle in [".lock(ctx", ".with(ctx", ".with_spin("] {
        for (pos, _) in p.blank.match_indices(needle) {
            let line = p.line_of(pos);
            if !p.in_test(line) {
                out.push(format!("{}:{line}: {needle}", p.label));
            }
        }
    }
    out
}

#[test]
fn simlocks_are_taken_only_through_the_obs_primitive() {
    let planted = "fn f(l: &SimLock, ctx: &mut CoreCtx) { l.with(ctx, |_| ()); }";
    assert_eq!(direct_simlock_takes(&prep("x.rs", planted)).len(), 1);
    let in_test = "#[cfg(test)]\nmod tests { fn t() { l.lock(ctx); } }";
    assert!(direct_simlock_takes(&prep("x.rs", in_test)).is_empty());

    // `Obs::locked` yields to the model checker, takes the lock and
    // traces its contention; a lock taken around it is no preemption
    // point and traces nothing. `simcore` defines the lock and `obs` is
    // the primitive.
    let ws = Workspace::load(repo_root()).expect("load workspace");
    let sites: Vec<String> = ws
        .files
        .iter()
        .filter(|f| !matches!(f.crate_name.as_str(), "simcore" | "obs"))
        .flat_map(|f| direct_simlock_takes(&f.prep))
        .collect();
    assert!(
        sites.is_empty(),
        "SimLock taken outside Obs::locked:\n{}",
        sites.join("\n")
    );
}

/// The fields of `pub struct CostModel` in `cost` that no non-test code of
/// `code` reads as `.field`. A write (`.field = ..`), a method call
/// (`.field(..)`) and a read inside `#[cfg(test)]` do not count; the
/// struct's own definition and presets name fields without a dot.
fn unread_cost_fields(cost: &Prep, code: &[&Prep]) -> Vec<String> {
    let start = cost
        .blank
        .find("pub struct CostModel")
        .expect("CostModel defined");
    let def = &cost.blank[start..];
    let body = &def[def.find('{').expect("struct body") + 1..def.find('}').expect("struct end")];
    body.split(',')
        .filter_map(|f| f.trim().strip_prefix("pub ")?.split_once(':'))
        .map(|(name, _)| name.trim())
        .filter(|name| !code.iter().any(|p| reads_field(p, name)))
        .map(String::from)
        .collect()
}

/// Whether `p` reads `.field` outside `#[cfg(test)]`.
fn reads_field(p: &Prep, field: &str) -> bool {
    let needle = format!(".{field}");
    let bb = p.blank.as_bytes();
    p.blank.match_indices(&needle).any(|(pos, _)| {
        let end = pos + needle.len();
        let mut k = end;
        while bb.get(k).is_some_and(u8::is_ascii_whitespace) {
            k += 1;
        }
        let longer = bb
            .get(end)
            .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_');
        let write = bb.get(k) == Some(&b'=') && bb.get(k + 1) != Some(&b'=');
        let call = bb.get(k) == Some(&b'(');
        !longer && !write && !call && !p.in_test(p.line_of(pos))
    })
}

#[test]
fn every_cost_constant_is_read_by_non_test_code() {
    // The scanner must have teeth: a write, a method call, a read in a
    // test and a longer name sharing the prefix do not keep a field alive.
    let planted = prep(
        "cost.rs",
        "pub struct CostModel {\n    pub a: Cycles,\n    pub b: Cycles,\n    pub c: f64,\n    pub d: f64,\n}\n",
    );
    let user = prep(
        "user.rs",
        "fn f(m: &mut CostModel) -> Cycles {\n    m.b = m.a + m.c(1) + m.d_x;\n    m.a\n}\n\
         #[cfg(test)]\nmod t {\n    fn g(m: &CostModel) -> f64 {\n        m.d\n    }\n}\n",
    );
    assert_eq!(unread_cost_fields(&planted, &[&user]), ["b", "c", "d"]);

    // Every constant of the cost model is charged, or feeds a charge,
    // somewhere in the simulator's own sources: a constant nothing reads
    // is a price no configuration pays.
    let ws = Workspace::load(repo_root()).expect("load workspace");
    let cost = ws
        .files
        .iter()
        .find(|f| f.prep.label == "crates/simcore/src/cost.rs")
        .map(|f| &f.prep)
        .expect("cost model source");
    let code: Vec<&Prep> = ws
        .files
        .iter()
        .filter(|f| !f.ctx.aux)
        .map(|f| &f.prep)
        .collect();
    let fields = unread_cost_fields(cost, &[]);
    assert!(
        fields.len() >= 30,
        "parsed only {} CostModel fields",
        fields.len()
    );
    let unread = unread_cost_fields(cost, &code);
    assert!(
        unread.is_empty(),
        "CostModel fields no simulator code reads: {unread:?}"
    );
}
