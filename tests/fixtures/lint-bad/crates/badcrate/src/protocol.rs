//! Planted DMA-API protocol fixture: each function trips exactly one
//! protocol (or unsafe-audit) rule where `tests/lint.rs` expects, with
//! one clean control per rule family. Never compiled — which is why the
//! two rules rustc now owns (unmap twice, use after unmap: E0382 on the
//! move-only handle) have no fixture here; `dma_api::DmaMapping`'s
//! `compile_fail` doctests pin those.

// lint: allow(panic) — fixture bodies use expect() to keep the planted statements one-liners

/// The early `return` leaves the mapping live (dmasan `leak`).
pub fn leak_on_early_return(engine: &E, ctx: &mut C, bad: bool) -> Result<(), DmaError> {
    let m = engine
        .map(ctx, DmaBuf::new(pkt, 1500), DmaDirection::ToDevice)
        .expect("map");
    if bad {
        return Err(DmaError::Exhausted);
    }
    engine.unmap(ctx, m).expect("unmap");
    Ok(())
}

/// The `?` error edge of `refill_ring` leaves the mapping live
/// (dmasan `leak`).
pub fn leak_via_question(engine: &E, ctx: &mut C) -> Result<(), DmaError> {
    let m = engine.map(ctx, DmaBuf::new(pkt, 1500), DmaDirection::FromDevice)?;
    refill_ring(ctx)?;
    engine.unmap(ctx, m)?;
    Ok(())
}

/// CPU read of a device-writable buffer while its mapping is live: under
/// shadowing the device's bytes are not there yet, elsewhere the device
/// can still change them. dmasan has no runtime mirror: it observes bus
/// accesses, not CPU loads.
pub fn read_while_mapped(engine: &E, mem: &M, ctx: &mut C) {
    let m = engine
        .map(ctx, DmaBuf::new(pkt, 1500), DmaDirection::FromDevice)
        .expect("map");
    let got = mem.read_vec(pkt, 1500).expect("read");
    engine.unmap(ctx, m).expect("unmap");
}

/// Clean control: `unmap` is the handoff, the read comes after it.
pub fn read_after_unmap(engine: &E, mem: &M, ctx: &mut C) {
    let m = engine
        .map(ctx, DmaBuf::new(pkt, 1500), DmaDirection::FromDevice)
        .expect("map");
    engine.unmap(ctx, m).expect("unmap");
    let got = mem.read_vec(pkt, 1500).expect("read");
}

/// An `unsafe` block with no `// SAFETY:` justification.
pub fn poke_raw(p: *mut u8) {
    unsafe {
        *p = 0;
    }
}

/// Clean control: the justification satisfies the audit.
pub fn poke_documented(p: *mut u8) {
    // SAFETY: fixture pointer is valid for writes by construction.
    unsafe {
        *p = 1;
    }
}
