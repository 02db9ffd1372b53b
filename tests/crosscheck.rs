//! Static ↔ dynamic crosscheck: the planted protocol violations in
//! `tests/fixtures/lint-bad/crates/badcrate/src/protocol.rs` and
//! `interproc.rs` are replayed here as the equivalent runtime event
//! sequences against the DMA sanitizer, pinning which checker sees what:
//!
//! | guarantee                | primary enforcer             | cross-check           |
//! |--------------------------|------------------------------|-----------------------|
//! | unmap exactly once       | rustc (E0382, move-only)     | dmasan `double_unmap` |
//! | no use after unmap       | rustc (E0382, move-only)     | dmasan `stale_access` |
//! | no leak                  | dmasan `leak` at teardown    | lint `leak-on-exit`   |
//! | no CPU read while mapped | lint `cpu-read-while-mapped` | *(none)*              |
//! | device-tainted index     | lint `device-taint`          | *(none)*              |
//!
//! The first two rows have no replay here: a safe caller cannot write the
//! violation any more (`dma_api::DmaMapping`'s `compile_fail` doctests),
//! and what dmasan says about a *forged* handle or a device replaying a
//! stale IOVA is pinned by its own unit tests
//! (`dmasan::checker::tests::{detects_double_unmap_and_distinguishes_stale,
//! detects_stale_iova_access}`). The last two rows are the documented
//! precision gap: the sanitizer observes device-side bus accesses, so a
//! *CPU* read of a still-mapped buffer — or a tainted length steering
//! CPU-side indexing — is invisible at runtime; only the static checker
//! sees those. In the other direction the lint follows moves, not
//! aliases: a handle moved into a collection, a struct or a closure is
//! the new owner's obligation and is covered by dmasan's teardown check
//! alone.

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
        wrote: len,
    }
}

/// The static findings from the planted fixture, by protocol rule.
fn static_count(rule: &str) -> usize {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint-bad");
    let violations: Vec<LintViolation> = lint_workspace(&fixture).expect("scan fixture");
    violations.iter().filter(|v| v.rule == rule).count()
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
    // interproc.rs::leak_across_helper: map, lend the handle to
    // `touch_stats` (`&m`: a borrow, not a transfer) and fall off the end.
    // At runtime the helper call is invisible; only the missing unmap is.
    san.on_map(
        &ctx,
        DEV,
        &mapping(0x5000, 1500, DmaDirection::ToDevice, 0xb800),
        3,
    );
    // interproc.rs::leak_of_returned_handle: the map happens inside
    // `make_rx`; the caller owns what it returns and never unmaps it.
    san.on_map(
        &ctx,
        DEV,
        &mapping(0x7000, 1500, DmaDirection::FromDevice, 0xe000),
        4,
    );
    assert_eq!(san.check_teardown(), 4);
    assert_eq!(san.count_of(ViolationKind::Leak), 4);
    assert_eq!(
        static_count("leak-on-exit"),
        san.count_of(ViolationKind::Leak)
    );
}

/// `protocol.rs::read_while_mapped` — the documented precision gap: the
/// CPU read of the still-mapped `FromDevice` buffer is invisible to
/// dmasan (no bus access happens), so the replay is *clean* at runtime
/// while the static checker flags it.
#[test]
fn cpu_read_while_mapped_has_no_runtime_mirror() {
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
    assert_eq!(static_count("cpu-read-while-mapped"), 1);
}

/// `interproc.rs::helper_roundtrip` — the clean cross-function control:
/// the caller maps, `finish` unmaps. Statically the by-value pass moves
/// the handle, and the obligation, into `finish` (no waiver involved);
/// dynamically the unmap event simply arrives from a different stack
/// frame, which dmasan never cared about in the first place. Silent in
/// both checkers.
#[test]
fn summary_proven_helper_roundtrip_is_silent_in_both_checkers() {
    let (san, ctx) = san();
    let m = mapping(0x8000, 1500, DmaDirection::ToDevice, 0xf000);
    san.on_map(&ctx, DEV, &m, 1); // caller: engine.map(...)
    san.on_unmap(&ctx, DEV, &m, 2); // inside finish(engine, ctx, m)
    assert_eq!(san.check_teardown(), 0);
    assert!(san.violations().is_empty(), "{:?}", san.violations());
}

/// `protocol.rs::read_after_unmap` (and every clean control): the
/// canonical map → device DMA → unmap → read sequence is silent in both
/// checkers.
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
