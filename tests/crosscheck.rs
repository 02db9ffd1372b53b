//! Static ↔ dynamic crosscheck: the planted protocol violations in
//! `tests/fixtures/lint-bad/crates/badcrate/src/protocol.rs` and
//! `interproc.rs` are replayed here as the equivalent runtime event
//! sequences against the DMA sanitizer, pinning the correspondence
//! between the static typestate rules and dmasan's runtime rules:
//!
//! | static rule            | dmasan rule    |
//! |------------------------|----------------|
//! | `use-after-unmap`      | `stale_access` |
//! | `leak-on-exit`         | `leak`         |
//! | `double-unmap`         | `double_unmap` |
//! | `sync-before-cpu-read` | *(none)*       |
//! | `device-taint`         | *(none)*       |
//!
//! The last rows are the documented precision gaps (the paper's §5.2
//! `StaleAccess` discussion applies in reverse): the sanitizer observes
//! device-side bus accesses, so a *CPU* read of an un-synced streaming
//! buffer — or a tainted length steering CPU-side indexing — is invisible
//! at runtime; only the static checker sees those. In the other
//! direction, the checker is summary-based but still alias-free, so a
//! handle that truly escapes (collections, struct stores, closures it
//! cannot prove safe) is reported as an escape note and covered only by
//! dmasan's teardown check. Helper boundaries are NOT a gap anymore:
//! violations split across calls (mapped in one function, unmapped in
//! another, used in a third) are caught statically and replayed below.

use dma_shadowing::dma_api::{BusObserver, DmaDirection, DmaMapping, DmaObserver};
use dma_shadowing::dmasan::{DmaSan, ViolationKind};
use dma_shadowing::iommu::{DeviceId, Iova};
use dma_shadowing::lint::{lint_workspace, LintViolation};
use dma_shadowing::memsim::PhysAddr;
use dma_shadowing::obs::Obs;
use dma_shadowing::simcore::{CoreCtx, CoreId, CostModel};
use std::path::Path;
use std::sync::Arc;

const DEV: DeviceId = DeviceId(0);

fn ctx() -> CoreCtx {
    CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()))
}

fn san() -> (DmaSan, CoreCtx) {
    // Lenient: the violations here are the point, not a test failure.
    (DmaSan::lenient(Obs::isolated()), ctx())
}

fn mapping(iova: u64, len: usize, dir: DmaDirection, os_pa: u64) -> DmaMapping {
    DmaMapping {
        iova: Iova::new(iova),
        len,
        dir,
        os_pa: PhysAddr(os_pa),
    }
}

/// The static findings from the planted fixture, by protocol rule.
fn static_count(rule: &str) -> usize {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint-bad");
    let violations: Vec<LintViolation> = lint_workspace(&fixture).expect("scan fixture");
    violations.iter().filter(|v| v.rule == rule).count()
}

/// `protocol.rs::use_after_unmap` and
/// `interproc.rs::use_after_helper_unmap` — both project `m.iova` after
/// `dma_unmap`; the runtime twin is the device using that stale IOVA. The
/// interprocedural variant is the same event sequence even though no
/// single fixture function contains it: the map happens inside `make_rx`,
/// the unmap inside `finish`, and the stale projection in the caller.
#[test]
fn use_after_unmap_replays_as_stale_access() {
    let (san, ctx) = san();
    let m = mapping(0x1000, 1500, DmaDirection::ToDevice, 0x8000);
    san.on_map(&ctx, DEV, &m, 1);
    san.on_unmap(&ctx, DEV, &m, 2);
    // The device (or, statically, the CPU via the stale handle) touches
    // the retired IOVA and the hardware lets it through.
    san.on_device_access(DEV, 0x1000, 64, false, true);

    // use_after_helper_unmap: `make_rx` maps ...
    let helper = mapping(0x7000, 1500, DmaDirection::FromDevice, 0xe000);
    san.on_map(&ctx, DEV, &helper, 3);
    // ... `finish` unmaps (the summary's `must_unmap` parameter) ...
    san.on_unmap(&ctx, DEV, &helper, 4);
    // ... and the caller fires on the handle it still holds.
    san.on_device_access(DEV, 0x7000, 64, false, true);

    assert_eq!(san.count_of(ViolationKind::StaleAccess), 2);
    assert_eq!(
        static_count("use-after-unmap"),
        san.count_of(ViolationKind::StaleAccess),
        "static and dynamic checkers must agree on the planted count"
    );
}

/// `protocol.rs::double_unmap` — the `early` path unmaps, then the
/// unconditional unmap fires again.
#[test]
fn double_unmap_replays_identically() {
    let (san, ctx) = san();
    let m = mapping(0x2000, 1500, DmaDirection::ToDevice, 0x9000);
    san.on_map(&ctx, DEV, &m, 1);
    san.on_unmap(&ctx, DEV, &m, 2); // the `if early` arm
    san.on_unmap(&ctx, DEV, &m, 3); // the unconditional unmap
    assert_eq!(san.count_of(ViolationKind::DoubleUnmap), 1);
    assert_eq!(
        static_count("double-unmap"),
        san.count_of(ViolationKind::DoubleUnmap)
    );
}

/// `protocol.rs::{leak_on_early_return, leak_via_question}` — both exits
/// leave the mapping live; dmasan sees them at teardown.
#[test]
fn leaks_replay_as_teardown_leaks() {
    let (san, ctx) = san();
    // leak_on_early_return: map, take the `return Err` path.
    san.on_map(
        &ctx,
        DEV,
        &mapping(0x3000, 1500, DmaDirection::ToDevice, 0xa000),
        1,
    );
    // leak_via_question: map, take `refill_ring(ctx)?`'s error edge.
    san.on_map(
        &ctx,
        DEV,
        &mapping(0x4000, 1500, DmaDirection::FromDevice, 0xb000),
        2,
    );
    // interproc.rs::leak_across_helper: map, call `touch_stats` — whose
    // summary proves it only *reads* the handle — and fall off the end.
    // At runtime the helper call is invisible; only the missing unmap is.
    san.on_map(
        &ctx,
        DEV,
        &mapping(0x5000, 1500, DmaDirection::ToDevice, 0xb800),
        3,
    );
    assert_eq!(san.check_teardown(), 3);
    assert_eq!(san.count_of(ViolationKind::Leak), 3);
    assert_eq!(
        static_count("leak-on-exit"),
        san.count_of(ViolationKind::Leak)
    );
}

/// `protocol.rs::read_without_sync` — the documented precision gap: the
/// CPU read of the mapped, un-synced `FromDevice` buffer is invisible to
/// dmasan (no bus access happens), so the replay is *clean* at runtime
/// while the static checker flags it.
#[test]
fn sync_before_cpu_read_has_no_runtime_mirror() {
    let (san, ctx) = san();
    let m = mapping(0x5000, 1500, DmaDirection::FromDevice, 0xc000);
    san.on_map(&ctx, DEV, &m, 1);
    // CPU-side `mem.read_vec(pkt, 1500)` happens here: no observer hook
    // exists for it, by construction.
    san.on_unmap(&ctx, DEV, &m, 2);
    assert_eq!(san.check_teardown(), 0);
    assert!(san.violations().is_empty(), "{:?}", san.violations());
    // The static side still catches it — that is the whole point of
    // having both checkers.
    assert_eq!(static_count("sync-before-cpu-read"), 1);
}

/// `interproc.rs::helper_roundtrip` — the clean interprocedural control:
/// the caller maps, `finish` unmaps. Statically the helper's `must_unmap`
/// summary discharges the obligation (no waiver involved); dynamically the
/// unmap event simply arrives from a different stack frame, which dmasan
/// never cared about in the first place. Silent in both checkers.
#[test]
fn summary_proven_helper_roundtrip_is_silent_in_both_checkers() {
    let (san, ctx) = san();
    let m = mapping(0x8000, 1500, DmaDirection::ToDevice, 0xf000);
    san.on_map(&ctx, DEV, &m, 1); // caller: engine.map(...)
    san.on_unmap(&ctx, DEV, &m, 2); // inside finish(engine, ctx, m)
    assert_eq!(san.check_teardown(), 0);
    assert!(san.violations().is_empty(), "{:?}", san.violations());
}

/// `protocol.rs::read_with_sync` (and every clean control): the canonical
/// map → sync → read → unmap sequence is silent in both checkers.
#[test]
fn clean_sequences_are_silent_in_both_checkers() {
    let (san, ctx) = san();
    let m = mapping(0x6000, 1500, DmaDirection::FromDevice, 0xd000);
    san.on_map(&ctx, DEV, &m, 1);
    san.on_device_access(DEV, 0x6000, 1500, true, true); // device fills it
    san.on_unmap(&ctx, DEV, &m, 2);
    assert_eq!(san.check_teardown(), 0);
    assert!(san.violations().is_empty(), "{:?}", san.violations());
}
