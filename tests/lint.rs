//! The lint must hold two properties at once: the real workspace passes,
//! and a planted fixture workspace (`tests/fixtures/lint-bad`) fails with
//! every rule firing. Together they prove the scanner neither rubber-stamps
//! nor cries wolf.

use dma_shadowing::lint::{lint_workspace, lint_workspace_report, lock_order_analysis};
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn real_workspace_is_lint_clean() {
    let violations = lint_workspace(repo_root()).expect("scan workspace");
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
fn real_workspace_lock_inventory_is_acyclic_and_complete() {
    let report = lock_order_analysis(repo_root()).expect("scan workspace");
    assert!(
        report.cycles.is_empty(),
        "lock-order cycles in the real workspace: {:?}",
        report.cycles
    );
    let names = report.lock_names();
    for expected in [
        "pool-cache",
        "pool-fallback",
        "deferred-flush-list",
        "linux-iova-rbtree",
        "scalable-iova-shared",
        "eiovar-iova-cache",
        "iommu-invalidation-queue",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "lock `{expected}` missing from the static inventory: {names:?}"
        );
    }
}

#[test]
fn planted_fixture_trips_every_rule() {
    let fixture = repo_root().join("tests/fixtures/lint-bad");
    let violations = lint_workspace(&fixture).expect("scan fixture");
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
    // `deadlock.rs` nests fixture-a / fixture-b in both orders: one cycle.
    assert_eq!(count("lock-order"), 1, "{violations:?}");
    let cycle = violations
        .iter()
        .find(|v| v.rule == "lock-order")
        .expect("cycle violation");
    assert!(
        cycle.detail.contains("fixture-a -> fixture-b -> fixture-a"),
        "{cycle:?}"
    );

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
    // One undocumented `unsafe`; `poke_documented` must NOT be counted.
    assert_eq!(count("unsafe-no-safety"), 1, "{violations:?}");

    // The `#[cfg(test)]` unwrap in the fixture must NOT be counted; the
    // totals above are exhaustive.
    assert_eq!(violations.len(), 17, "{violations:?}");

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
    let fixture = repo_root().join("tests/fixtures/lint-bad");
    let analysis = lint_workspace_report(&fixture)
        .expect("scan fixture")
        .protocol;

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
    let analysis = lint_workspace_report(repo_root())
        .expect("scan workspace")
        .protocol;
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
    assert!(edges > 7500, "{edges} call edges");

    // Device-tainted values exist (rx paths) but every one is either
    // sink-free or guarded: zero device-taint violations is the
    // workspace-clean assertion above, and the stats prove the pass
    // actually ran over real sources rather than finding nothing to do.
    assert!(analysis.taint.sources >= 5, "{:?}", analysis.taint);
}
