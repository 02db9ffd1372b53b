//! Planted cross-function fixtures: what happens to a handle at a helper
//! boundary is read off the call site — by value is a move, `&m` is a
//! borrow — and the one summary-backed fact is a helper *returning* a
//! fresh mapping. Clean controls alongside. Never compiled.

// lint: allow(panic) — fixture bodies use expect() to keep the planted statements one-liners
// lint: allow(cpu-read-while-mapped) — stale reason left over from an earlier refactor

/// Helper that only *reads* the handle, through a borrow: the caller
/// keeps the leak obligation.
fn touch_stats(stats: &mut Stats, m: &Mapping) {
    stats.record(m.iova.get());
}

/// Helper that takes the handle by value and unmaps it.
fn finish(engine: &E, ctx: &mut C, m: Mapping) {
    engine.unmap(ctx, m).expect("unmap");
}

/// Helper whose tail expression is a fresh mapping: its return summary is
/// `fresh-mapped`, so callers inherit the handle obligations.
fn make_rx(engine: &E, ctx: &mut C) -> Mapping {
    engine
        .map(ctx, DmaBuf::new(pkt, 1500), DmaDirection::FromDevice)
        .expect("map")
}

/// `&m` is a borrow, not a transfer: the mapping is still live at exit
/// (leak-on-exit).
pub fn leak_across_helper(engine: &E, ctx: &mut C, stats: &mut Stats) {
    let m = engine
        .map(ctx, DmaBuf::new(pkt, 1500), DmaDirection::ToDevice)
        .expect("map");
    touch_stats(stats, &m);
}

/// The handle comes back from `make_rx`, is only ever borrowed, and is
/// dropped mapped (leak-on-exit through a returned handle).
pub fn leak_of_returned_handle(engine: &E, ctx: &mut C, stats: &mut Stats) {
    let m = make_rx(engine, ctx);
    touch_stats(stats, &m);
}

/// Clean control: `m` is moved into `finish`; the obligation goes with it.
pub fn helper_roundtrip(engine: &E, ctx: &mut C) {
    let m = engine
        .map(ctx, DmaBuf::new(pkt, 1500), DmaDirection::ToDevice)
        .expect("map");
    finish(engine, ctx, m);
}

/// Device-tainted index used raw: `data` comes off a device-writable
/// buffer, flows into `idx`, and indexes `table` without a bounds check.
pub fn taint_to_index(engine: &E, mem: &M, ctx: &mut C, table: &mut [u64]) {
    let m = engine
        .map(ctx, DmaBuf::new(pkt, 64), DmaDirection::FromDevice)
        .expect("map");
    engine.unmap(ctx, m).expect("unmap");
    let data = mem.read_vec(pkt, 64).expect("read");
    let idx = data[0] as usize;
    table[idx] = 1;
}

/// Clean control: the comparison guards the tainted index, so the taint
/// pass stays quiet.
pub fn taint_bounds_checked(engine: &E, mem: &M, ctx: &mut C, table: &mut [u64]) {
    let m = engine
        .map(ctx, DmaBuf::new(pkt, 64), DmaDirection::FromDevice)
        .expect("map");
    engine.unmap(ctx, m).expect("unmap");
    let data = mem.read_vec(pkt, 64).expect("read");
    let idx = data[0] as usize;
    if idx < table.len() {
        table[idx] = 1;
    }
}

/// Clean control: the closure uses the handle by value, so it moves in
/// and the deferred unmap is the closure's business.
pub fn defer_unmap(engine: &E, ctx: &mut C, defer: &mut Defer) {
    let m = engine
        .map(ctx, DmaBuf::new(pkt, 1500), DmaDirection::ToDevice)
        .expect("map");
    defer.push(move || engine.unmap(ctx, m).expect("deferred unmap"));
}
