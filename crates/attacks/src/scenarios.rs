//! The attack scenarios.

// lint: allow(panic) — attack rigs panic on broken simulation invariants, not recoverable errors

use devices::MaliciousDevice;
use dma_api::{Bus, DmaBuf, DmaDirection};
use dmasan::AccessVerdict;
use memsim::PAGE_SIZE;
use netsim::{EngineKind, ExpConfig, SimStack};
use simcore::{CoreCtx, CoreId, Cycles};
use std::fmt;

/// What an attack scenario observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackReport {
    /// The attack's name.
    pub attack: &'static str,
    /// The engine under attack.
    pub engine: &'static str,
    /// Whether the attack achieved its goal.
    pub succeeded: bool,
    /// The sanitizer's classification of the attack's decisive DMA: did
    /// the hardware block it, or did it grant an access the DMA-API
    /// contract forbids?
    pub verdict: AccessVerdict,
    /// Human-readable evidence.
    pub detail: String,
}

impl fmt::Display for AttackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} vs {:<10}: {} [{:?}] ({})",
            self.attack,
            self.engine,
            if self.succeeded {
                "SUCCEEDED"
            } else {
                "blocked"
            },
            self.verdict,
            self.detail
        )
    }
}

const SECRET: &[u8] = b"TOP-SECRET-CRYPTO-KEY-0xDEADBEEF";

fn rig(kind: EngineKind) -> (SimStack, CoreCtx) {
    let stack = SimStack::new(kind, &ExpConfig::quick());
    let mut ctx = CoreCtx::new(CoreId(0), stack.cost.clone());
    ctx.seek(Cycles(1));
    (stack, ctx)
}

/// The attacker models *compromised NIC firmware*: it issues DMAs with the
/// NIC's own requester id over the same bus. It shares the victim stack's
/// sanitizer, so every probe gets an [`AccessVerdict`] against the stack's
/// live-mapping registry (the verdict API is pure classification — the
/// attacker's probes are never *recorded* as violations, so the stack's
/// panicking sanitizer stays quiet while still proving what the hardware
/// let through).
fn attacker(stack: &SimStack) -> MaliciousDevice {
    let bus = match stack.kind {
        EngineKind::NoIommu => Bus::Direct(stack.mem.clone()),
        _ => Bus::Iommu {
            mmu: stack.mmu.clone(),
            mem: stack.mem.clone(),
        },
    };
    MaliciousDevice::new(netsim::NIC_DEV, bus).with_sanitizer(stack.san.clone())
}

/// §1-style reconnaissance + exfiltration: a secret lives somewhere in
/// kernel memory with **no DMA mapping anywhere near it**; the attacker
/// scans the physical address space hunting for it.
pub fn arbitrary_memory_probe(kind: EngineKind) -> AttackReport {
    let (stack, _ctx) = rig(kind);
    let domain = stack.mem.topology().domain_of_core(CoreId(0));
    let secret_pa = stack.kmalloc.alloc(64, domain).expect("victim alloc");
    stack.mem.write(secret_pa, SECRET).expect("plant secret");

    let evil = attacker(&stack);
    // Scan the first 64 MB of the address space page by page.
    let mut found = None;
    for page in 0..(64 * 1024 * 1024 / PAGE_SIZE as u64) {
        let addr = page * PAGE_SIZE as u64;
        if let Some(off) = evil.hunt(addr, PAGE_SIZE, SECRET) {
            found = Some(addr + off as u64);
            break;
        }
    }
    // The decisive probe: the secret's own address. No mapping exists
    // anywhere near it, so a grant is by definition a contract violation.
    let (_, verdict) = evil.attempt_read(secret_pa.get(), SECRET.len());
    AttackReport {
        attack: "arbitrary memory probe",
        engine: kind.name(),
        succeeded: found.is_some(),
        verdict,
        detail: match found {
            Some(a) => format!("secret exfiltrated from {:#x}", a),
            None => format!("{} probe DMAs blocked", evil.stats().2),
        },
    }
}

/// §4's sub-page weakness: the secret is kmalloc-co-located on the same
/// page as a legitimately mapped DMA buffer. The attacker reads around the
/// mapped buffer's device-visible address.
pub fn sub_page_theft(kind: EngineKind) -> AttackReport {
    let (stack, mut ctx) = rig(kind);
    let domain = stack.mem.topology().domain_of_core(CoreId(0));
    // Two 1 KB kmalloc objects: the slab packs them onto one page.
    let dma_buf = stack.kmalloc.alloc(1000, domain).expect("dma buffer");
    let secret_pa = stack.kmalloc.alloc(1000, domain).expect("victim alloc");
    assert_eq!(dma_buf.pfn(), secret_pa.pfn(), "slab co-location");
    stack.mem.write(secret_pa, SECRET).expect("plant secret");
    stack
        .mem
        .fill(dma_buf, 0x41, 1000)
        .expect("fill DMA buffer");

    // The OS legitimately maps ONLY the 1000-byte buffer for the device.
    let mapping = stack
        .engine
        .map(&mut ctx, DmaBuf::new(dma_buf, 1000), DmaDirection::ToDevice)
        .expect("dma_map");

    // The attacker reads the whole device-visible page around the mapping.
    // Page-granular IOMMUs grant this read — only the sanitizer's
    // byte-granular window knows that most of those bytes were never
    // authorized for DMA.
    let evil = attacker(&stack);
    let window = mapping.iova.get() & !(PAGE_SIZE as u64 - 1);
    let (data, verdict) = evil.attempt_read(window, PAGE_SIZE);
    let found = data
        .ok()
        .and_then(|d| d.windows(SECRET.len()).position(|w| w == SECRET));

    stack.engine.unmap(&mut ctx, mapping).expect("dma_unmap");
    AttackReport {
        attack: "sub-page co-location theft",
        engine: kind.name(),
        succeeded: found.is_some(),
        verdict,
        detail: match found {
            Some(off) => format!("secret read at page offset {off}"),
            None => "page window holds no victim data".to_string(),
        },
    }
}

/// §3's firewall-bypass/window attack: a received packet passes inspection
/// and is unmapped; the attacker then rewrites the buffer through the
/// stale IOTLB entry before the deferred flush runs.
pub fn deferred_window_overwrite(kind: EngineKind) -> AttackReport {
    let (stack, mut ctx) = rig(kind);
    let domain = stack.mem.topology().domain_of_core(CoreId(0));
    let buf = stack.kmalloc.alloc(1500, domain).expect("rx buffer");
    let mapping = stack
        .engine
        .map(&mut ctx, DmaBuf::new(buf, 1500), DmaDirection::FromDevice)
        .expect("dma_map");

    // A legitimate packet arrives (warming the IOTLB), the driver unmaps,
    // and the OS inspects the now-owned buffer ("firewall approves it").
    // The attacker snapshots the IOVA while the mapping is live — after
    // `dma_unmap` only this stale number remains, exactly what a malicious
    // device would replay through the not-yet-flushed IOTLB entry.
    let evil = attacker(&stack);
    let legit = vec![0x11u8; 1500];
    let stale_iova = mapping.iova.get();
    evil.try_write(stale_iova, &legit)
        .expect("legitimate delivery through live mapping");
    stack.engine.unmap(&mut ctx, mapping).expect("dma_unmap");
    let inspected = stack.mem.read_vec(buf, 1500).expect("OS reads buffer");
    assert_eq!(inspected, legit, "OS saw the legitimate packet");

    // ATTACK: rewrite the packet after inspection, before the flush timer.
    let malicious = vec![0x66u8; 1500];
    let (write, verdict) = evil.attempt_write(stale_iova, &malicious);
    let after = stack.mem.read_vec(buf, 1500).expect("OS re-reads buffer");
    let corrupted = after == malicious;
    let _ = write;

    // Close the window; afterwards the write must always fail.
    stack.engine.flush_deferred(&mut ctx);
    let late = evil.try_write(stale_iova, &malicious);
    let late_corrupted = stack.mem.read_vec(buf, 1500).expect("read") == malicious && !corrupted;
    AttackReport {
        attack: "deferred-window overwrite",
        engine: kind.name(),
        succeeded: corrupted || late_corrupted,
        verdict,
        detail: if corrupted {
            "packet rewritten after firewall inspection".to_string()
        } else {
            format!("buffer intact after unmap (late write: {:?})", late.is_ok())
        },
    }
}

/// §3's observed crash: the unmapped RX buffer is `kfree`d and its slot is
/// immediately reused for a "critical kernel object". The attacker's
/// stale-window write lands in the reused object — a kernel crash in the
/// making. (The paper overwrote an unmapped buffer within 10 µs of
/// `dma_unmap` and crashed Linux.)
pub fn use_after_free_corruption(kind: EngineKind) -> AttackReport {
    let (stack, mut ctx) = rig(kind);
    let domain = stack.mem.topology().domain_of_core(CoreId(0));
    let buf = stack.kmalloc.alloc(1500, domain).expect("rx buffer");
    let mapping = stack
        .engine
        .map(&mut ctx, DmaBuf::new(buf, 1500), DmaDirection::FromDevice)
        .expect("dma_map");
    // As above: the stale IOVA is captured while the mapping is live; the
    // post-unmap scribble replays the raw number, not the dead handle.
    let evil = attacker(&stack);
    let stale_iova = mapping.iova.get();
    evil.try_write(stale_iova, &vec![0x22u8; 1500])
        .expect("legitimate delivery");
    stack.engine.unmap(&mut ctx, mapping).expect("dma_unmap");

    // The driver frees the skb; the allocator reuses the memory for a
    // critical kernel object almost immediately.
    stack.kmalloc.free(buf).expect("kfree");
    let critical = stack.kmalloc.alloc(1500, domain).expect("reuse");
    assert_eq!(critical.pfn(), buf.pfn(), "slab reuses the hot slot");
    let object = b"vtable:0xffffffff81000000";
    stack.mem.write(critical, object).expect("init object");

    // ATTACK: scribble through the stale window (within the "10 us").
    let (_, verdict) = evil.attempt_write(stale_iova, &vec![0x99u8; 1500]);
    let after = stack
        .mem
        .read_vec(critical, object.len())
        .expect("kernel reads its object");
    let crashed = after != object;

    stack.engine.flush_deferred(&mut ctx);
    AttackReport {
        attack: "use-after-unmap corruption",
        engine: kind.name(),
        succeeded: crashed,
        verdict,
        detail: if crashed {
            "kernel object overwritten -> crash".to_string()
        } else {
            "kernel object intact".to_string()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmasan::ViolationKind;

    /// Whether `kind` closes the unmap→invalidation window immediately.
    fn strict_protection(kind: EngineKind) -> bool {
        !matches!(
            kind,
            EngineKind::NoIommu
                | EngineKind::IdentityMinus
                | EngineKind::LinuxDefer
                | EngineKind::EiovarDefer
        )
    }

    #[test]
    fn probe_succeeds_only_without_iommu() {
        for kind in EngineKind::ALL {
            let r = arbitrary_memory_probe(kind);
            assert_eq!(r.succeeded, kind == EngineKind::NoIommu, "{r}");
            // Without an IOMMU the probe reaches unmapped kernel memory —
            // a contract violation only the sanitizer can name. Under
            // protection the probed address is an *IOVA*: either the IOMMU
            // rejects it, or it happens to fall in some legitimately
            // authorized window and translates away from the secret —
            // either way, no violation.
            if kind == EngineKind::NoIommu {
                assert_eq!(
                    r.verdict,
                    AccessVerdict::SanitizerViolation(ViolationKind::StaleAccess),
                    "{r}"
                );
            } else {
                assert!(
                    !matches!(r.verdict, AccessVerdict::SanitizerViolation(_)),
                    "{r}"
                );
            }
        }
    }

    #[test]
    fn sub_page_theft_blocked_only_by_copy() {
        for kind in EngineKind::ALL {
            let r = sub_page_theft(kind);
            let expect_blocked = kind == EngineKind::Copy;
            assert_eq!(r.succeeded, !expect_blocked, "{r}");
            // Every engine's hardware grants the page-window read (page
            // tables are page-granular); the byte-granular sanitizer flags
            // it on every engine. Only copy keeps the secret out of the
            // window — detection and protection are different things.
            assert!(
                matches!(r.verdict, AccessVerdict::SanitizerViolation(_)),
                "{r}"
            );
        }
    }

    /// The expected verdict for a write through the revoked mapping.
    ///
    /// Page-remapping strict engines revoke the IOMMU entry at unmap, so
    /// the hardware itself blocks the stale write. The copy engine keeps
    /// its shadow pages permanently mapped (that is where its speed comes
    /// from) — the stale write is *granted* but lands in recycled shadow
    /// memory, never the OS buffer: the sanitizer still reports the rogue
    /// DMA that shadowing silently absorbed. Deferred engines and no-iommu
    /// grant the write straight into OS memory.
    fn stale_write_verdict(kind: EngineKind) -> AccessVerdict {
        if strict_protection(kind) && kind != EngineKind::Copy {
            AccessVerdict::BlockedByIommu
        } else {
            AccessVerdict::SanitizerViolation(ViolationKind::StaleAccess)
        }
    }

    #[test]
    fn window_overwrite_only_under_deferred_protection() {
        for kind in EngineKind::ALL {
            let r = deferred_window_overwrite(kind);
            assert_eq!(r.succeeded, !strict_protection(kind), "{r}");
            assert_eq!(r.verdict, stale_write_verdict(kind), "{r}");
        }
    }

    /// The runtime twin of the lint's `device-taint` rule: firmware DMAs an
    /// honest frame into a posted RX buffer, then writes `reported` into the
    /// descriptor as the completion length — more than was posted, or zero —
    /// and the driver passes that number to `dma_unmap` as read (§5.4). The
    /// goal is a copy-back that runs past the buffer into the kernel object
    /// kmalloc placed behind it; short of that, a panic or a leaked mapping.
    fn lying_completion_length(kind: EngineKind, reported: usize) -> AttackReport {
        const POSTED: usize = 1000;
        let (mut stack, mut ctx) = rig(kind);
        let domain = stack.mem.topology().domain_of_core(CoreId(0));
        // Two 1 KB kmalloc objects: the slab packs them onto one page.
        let buf = stack.kmalloc.alloc(POSTED, domain).expect("rx buffer");
        let neighbour = stack.kmalloc.alloc(POSTED, domain).expect("victim alloc");
        assert_eq!(buf.pfn(), neighbour.pfn(), "slab co-location");
        let object = b"vtable:0xffffffff81000000";
        stack.mem.write(neighbour, object).expect("init object");

        let mapping = stack
            .engine
            .map(&mut ctx, DmaBuf::new(buf, POSTED), DmaDirection::FromDevice)
            .expect("dma_map");
        let evil = attacker(&stack);
        let (_, verdict) = evil.attempt_write(mapping.iova.get(), &[0x33u8; POSTED]);
        let unmapped = stack.engine.unmap(&mut ctx, mapping.device_wrote(reported));

        let after = stack
            .mem
            .read_vec(neighbour, object.len())
            .expect("kernel reads its object");
        let delivered = stack
            .mem
            .read_vec(buf, POSTED)
            .expect("OS reads buffer")
            .iter()
            .take_while(|&&b| b == 0x33)
            .count();
        stack.teardown(&mut ctx);
        let leaks = stack.san.check_teardown();
        AttackReport {
            attack: "lying completion length",
            engine: kind.name(),
            succeeded: after != object || unmapped.is_err() || leaks > 0,
            verdict,
            detail: format!(
                "device claimed {reported} of {POSTED} B; {delivered} B delivered, \
                 neighbour {}, unmap {}, {leaks} leaked",
                if after == object {
                    "intact"
                } else {
                    "OVERWRITTEN"
                },
                if unmapped.is_ok() { "ok" } else { "FAILED" },
            ),
        }
    }

    #[test]
    fn a_lying_completion_length_buys_nothing() {
        for kind in EngineKind::ALL {
            for reported in [0, 1, 1001, 2048, u32::MAX as usize, usize::MAX] {
                // The rig's sanitizer panics on its first violation, so
                // returning at all means dmasan saw none.
                let r = lying_completion_length(kind, reported);
                assert!(!r.succeeded, "{r}");
                // The frame itself went through a live mapping.
                assert_eq!(r.verdict, AccessVerdict::Permitted, "{r}");
                // Only copy has a copy to bound; it delivers the claimed
                // bytes and never more than were posted.
                let delivered = if kind == EngineKind::Copy {
                    reported.min(1000)
                } else {
                    1000
                };
                assert!(
                    r.detail.contains(&format!("; {delivered} B delivered")),
                    "{r}"
                );
            }
        }
    }

    #[test]
    fn use_after_free_mirrors_window() {
        for kind in EngineKind::ALL {
            let r = use_after_free_corruption(kind);
            assert_eq!(r.succeeded, !strict_protection(kind), "{r}");
            assert_eq!(r.verdict, stale_write_verdict(kind), "{r}");
        }
    }
}
