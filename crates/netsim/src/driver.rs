//! The NIC driver: the per-core receive and transmit paths.
//!
//! Mirrors a Linux NIC driver's fast path: allocate an skb from the slab,
//! `dma_map` it, post a descriptor, let the NIC DMA, reap the completion,
//! `dma_unmap`, hand the data to the stack. Every step both *does the
//! work* (real bytes, real descriptors, real mappings) and *charges the
//! modeled cost*.

// lint: allow(panic) — the driver posted the mapping itself; a fault means the protection scheme is broken

use crate::setup::SimStack;
use devices::{Nic, DESC_BYTES, MTU, RING_ENTRIES, TSO_MAX};
use dma_api::{DmaBuf, DmaDirection};
use simcore::{CoreCtx, CoreId, Cycles, Phase};
use std::cell::RefCell;

thread_local! {
    /// The fragment list, reused across packets so a transmitted buffer
    /// does not allocate its SG list. Thread-local (rather than global)
    /// because stacks on different host threads may transmit concurrently
    /// in tests.
    static TX_SCRATCH: RefCell<Vec<DmaBuf>> = const { RefCell::new(Vec::new()) };
}

/// The in-place TX check: runs `gather`, which streams a wire payload to
/// the sink it is given as `(offset, bytes)` pieces, and reports whether
/// those pieces are exactly `sent` — every byte, and the total length.
fn gathers_exactly<R>(
    sent: &[u8],
    gather: impl FnOnce(&mut dyn FnMut(usize, &[u8])) -> R,
) -> (R, bool) {
    let (mut end, mut same) = (0, true);
    let out = gather(&mut |off, bytes| {
        same &= off == end && sent.get(off..off + bytes.len()) == Some(bytes);
        end = off + bytes.len();
    });
    (out, same && end == sent.len())
}

/// Ethernet + IP + TCP header bytes added to each wire frame.
pub const HEADER_BYTES: usize = 66;

/// skb metadata overhead allocated alongside the packet data (rounds the
/// MTU allocation into kmalloc's 2 KB class, like Linux's 1.5 KB skbs do).
pub const SKB_OVERHEAD: usize = 320;

/// TCP Small Queues' per-socket budget (`tcp_limit_output_bytes`): the
/// payload a sender may have queued ahead of it on the wire before it
/// stops and waits — two 64 KB TSO buffers, so the CPU prepares buffer
/// *n+1* while the NIC sends buffer *n*.
const TSQ_BUDGET_BYTES: usize = 128 * 1024;

/// Writes an RX/TX descriptor into ring memory at the slot the NIC will
/// consume next (a CPU store into the coherent ring buffer).
pub fn post_rx(stack: &SimStack, ring: usize, iova: u64, len: u32) {
    let slot = stack.nic.rx_next(ring);
    let d = Nic::encode_descriptor(iova, len);
    stack
        .mem
        .write(stack.rx_rings[ring].pa.add((slot * DESC_BYTES) as u64), &d)
        .expect("ring memory is allocated");
}

/// Writes a TX descriptor at an explicit slot (scatter/gather chains post
/// several descriptors ahead of the NIC's consume pointer).
pub fn post_tx_at(stack: &SimStack, ring: usize, slot: usize, iova: u64, len: u32) {
    let d = Nic::encode_descriptor(iova, len);
    stack
        .mem
        .write(stack.tx_rings[ring].pa.add((slot * DESC_BYTES) as u64), &d)
        .expect("ring memory is allocated");
}

/// Per-core driver state: which ring this core owns.
#[derive(Debug, Clone, Copy)]
pub struct CoreDriver {
    /// The core this driver instance runs on.
    pub core: CoreId,
    /// The NIC ring pair owned by this core.
    pub ring: usize,
}

impl CoreDriver {
    /// Creates the driver for `core`, which owns ring pair `core`.
    pub fn new(core: CoreId) -> Self {
        CoreDriver {
            core,
            ring: core.index(),
        }
    }

    /// The full per-packet receive path: skb alloc → `dma_map` → post →
    /// NIC DMA → `dma_unmap` → protocol processing → `copy_to_user` →
    /// kfree. Returns the bytes the stack delivered to the application.
    ///
    /// # Panics
    ///
    /// Panics if the NIC's DMA faults (the driver posted the mapping, so a
    /// fault means the protection scheme is broken) or if `verify` is set
    /// and the delivered bytes differ from `payload`.
    pub fn rx_one(
        &self,
        stack: &SimStack,
        ctx: &mut CoreCtx,
        payload: &[u8],
        verify: bool,
    ) -> usize {
        let domain = stack.mem.topology().domain_of_core(self.core);
        // Allocate and map an MTU receive buffer.
        let skb = obs::profile::scope(ctx, "skb_alloc", |ctx| {
            ctx.charge(Phase::Other, ctx.cost.kmalloc_alloc);
            stack
                .kmalloc
                .alloc(MTU + SKB_OVERHEAD, domain)
                .expect("skb allocation")
        });
        let mapping = stack
            .engine
            .map(ctx, DmaBuf::new(skb, MTU), DmaDirection::FromDevice)
            .expect("dma_map");
        post_rx(stack, self.ring, mapping.iova.get(), MTU as u32);

        // The frame lands: NIC fetches the descriptor, DMAs the payload,
        // writes the completion.
        let completion = stack
            .nic
            .receive(self.ring, payload)
            .expect("NIC receive must succeed through a live mapping");

        // Driver reaps the completion and unmaps, passing on the length the
        // NIC wrote back (copy-out under DMA shadowing happens here, and
        // moves that many bytes).
        stack
            .engine
            .unmap(ctx, mapping.device_wrote(completion.len))
            .expect("dma_unmap");

        // Protocol processing and delivery to userspace.
        obs::profile::scope(ctx, "deliver", |ctx| {
            ctx.charge(Phase::RxParsing, ctx.cost.rx_parse);
            ctx.charge(Phase::CopyUser, ctx.cost.copy_user(completion.len));
            ctx.charge(Phase::Other, ctx.cost.rx_other);
        });

        if verify {
            let intact = stack
                .mem
                .equals(skb, &payload[..completion.len])
                .expect("OS buffer readable");
            assert!(
                intact,
                "payload corrupted in delivery ({})",
                stack.engine.name()
            );
        }
        obs::profile::scope(ctx, "skb_free", |ctx| {
            ctx.charge(Phase::Other, ctx.cost.kmalloc_free);
        });
        stack.kmalloc.free(skb).expect("kfree");
        stack.obs.set_now_hint(ctx.now());
        stack.net.rx_packets.inc();
        stack.net.rx_bytes.add(completion.len as u64);
        completion.len
    }

    /// The per-TSO-buffer transmit path: copy from "userspace" into an skb,
    /// `dma_map` it to-device, post, let the NIC fetch and segment, unmap
    /// on completion. Returns `(payload_len, wire_frames)`. A contiguous
    /// skb is the one-element scatter/gather list.
    ///
    /// # Panics
    ///
    /// As [`CoreDriver::tx_one_sg`].
    pub fn tx_one(
        &self,
        stack: &SimStack,
        ctx: &mut CoreCtx,
        payload: &[u8],
        verify: bool,
    ) -> (usize, usize) {
        self.tx_one_sg(stack, ctx, payload, 1, verify)
    }

    /// The scatter/gather transmit path (§5.2: "SG operations are
    /// implemented analogously, with each SG element copied to/from its
    /// own shadow buffer"): the payload is split across `frags` kmalloc'd
    /// fragments (the head one carries the skb metadata), mapped with
    /// `dma_map_sg`, posted as a descriptor chain, and gathered by the NIC
    /// into one TSO payload.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds the NIC's TSO limit, if the NIC's DMA
    /// faults, or if `verify` is set and the wire bytes differ from
    /// `payload`.
    pub fn tx_one_sg(
        &self,
        stack: &SimStack,
        ctx: &mut CoreCtx,
        payload: &[u8],
        frags: usize,
        verify: bool,
    ) -> (usize, usize) {
        let len = payload.len();
        assert!(len <= TSO_MAX, "TSO limit");
        let domain = stack.mem.topology().domain_of_core(self.core);
        let per = len.div_ceil(frags.clamp(1, len.max(1)));

        TX_SCRATCH.with(|scratch| {
            let bufs = &mut *scratch.borrow_mut();
            // copy_from_user into the fragment skbs.
            bufs.clear();
            obs::profile::scope(ctx, "skb_alloc", |ctx| {
                let mut off = 0;
                loop {
                    let take = per.min(len - off);
                    let meta = if off == 0 { SKB_OVERHEAD } else { 0 };
                    ctx.charge(Phase::Other, ctx.cost.kmalloc_alloc);
                    let pa = stack
                        .kmalloc
                        .alloc(take + meta, domain)
                        .expect("skb allocation");
                    stack
                        .mem
                        .write(pa, &payload[off..off + take])
                        .expect("skb writable");
                    bufs.push(DmaBuf::new(pa, take));
                    off += take;
                    if off >= len {
                        break;
                    }
                }
                ctx.charge(Phase::CopyUser, ctx.cost.copy_user(len));
            });

            // TCP/TSO preparation.
            obs::profile::scope(ctx, "tso_prep", |ctx| {
                let segments = len.div_ceil(MTU).max(1);
                ctx.charge(Phase::Other, ctx.cost.tx_other_per_buffer);
                ctx.charge(Phase::Other, ctx.cost.tx_per_segment * segments as u64);
            });

            let mappings = stack
                .engine
                .map_sg(ctx, bufs, DmaDirection::ToDevice)
                .expect("dma_map_sg");
            let first = stack.nic.tx_next(self.ring);
            for (k, m) in mappings.iter().enumerate() {
                let slot = (first + k) % RING_ENTRIES;
                post_tx_at(stack, self.ring, slot, m.iova.get(), m.buf().len as u32);
            }

            // The NIC fetches the fragments and segments them onto the wire,
            // and the bytes are checked as they stream past.
            let (completion, intact) = gathers_exactly(payload, |sink| {
                stack
                    .nic
                    .transmit_gather_with(self.ring, mappings.len(), sink)
                    .expect("NIC transmit must succeed through a live mapping")
            });
            assert!(
                intact || !verify,
                "payload corrupted on the way to the wire ({})",
                stack.engine.name()
            );

            // Completion: unmap and free.
            stack.engine.unmap_sg(ctx, mappings).expect("dma_unmap_sg");
            obs::profile::scope(ctx, "skb_free", |ctx| {
                ctx.charge(Phase::Other, ctx.cost.kmalloc_free * bufs.len() as u64);
            });
            for b in bufs.iter() {
                stack.kmalloc.free(b.pa).expect("kfree");
            }
            stack.obs.set_now_hint(ctx.now());
            stack.net.tx_buffers.inc();
            stack.net.tx_bytes.add(completion.len as u64);
            stack.net.tx_frames.add(completion.frames as u64);
            (completion.len, completion.frames)
        })
    }

    /// Puts this buffer's wire frames on the link, returning when the last
    /// frame finished serializing. Applies TCP Small Queues backpressure:
    /// the core idles only while more than 128 KiB of payload (plus its
    /// frame headers) is queued ahead of it on the wire.
    pub fn wire_out(&self, stack: &SimStack, ctx: &mut CoreCtx, len: usize) -> Cycles {
        let mut end = Cycles::ZERO;
        let mut remaining = len;
        while remaining > 0 {
            let seg = remaining.min(MTU);
            end = stack.wire.transmit(ctx.now(), seg + HEADER_BYTES);
            remaining -= seg;
        }
        let budget_frames = TSQ_BUDGET_BYTES.div_ceil(MTU);
        let slack = stack
            .wire
            .frame_time(TSQ_BUDGET_BYTES + budget_frames * HEADER_BYTES);
        let free = stack.wire.next_free();
        if free > ctx.now() + slack {
            ctx.wait_until(free - slack);
        }
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{EngineKind, ExpConfig};
    use std::sync::Arc;

    fn ctx(stack: &SimStack, core: u16) -> CoreCtx {
        let mut c = CoreCtx::new(CoreId(core), Arc::new(stack.cost.as_ref().clone()));
        c.seek(Cycles(1));
        c
    }

    #[test]
    fn rx_one_delivers_and_charges() {
        for kind in EngineKind::ALL {
            let stack = SimStack::new(kind, &ExpConfig::quick());
            let mut c = ctx(&stack, 0);
            let payload: Vec<u8> = (0..1400).map(|i| (i * 7 % 256) as u8).collect();
            let n = CoreDriver::new(CoreId(0)).rx_one(&stack, &mut c, &payload, true);
            assert_eq!(n, 1400);
            assert!(c.busy() > Cycles::ZERO);
            assert!(c.breakdown().get(Phase::RxParsing) > Cycles::ZERO);
            assert!(c.breakdown().get(Phase::CopyUser) > Cycles::ZERO);
        }
    }

    #[test]
    fn tx_one_emits_expected_frames() {
        for kind in EngineKind::ALL {
            let stack = SimStack::new(kind, &ExpConfig::quick());
            let mut c = ctx(&stack, 0);
            let payload: Vec<u8> = (0..48_000).map(|i| (i * 3 % 256) as u8).collect();
            let (len, frames) = CoreDriver::new(CoreId(0)).tx_one(&stack, &mut c, &payload, true);
            assert_eq!(len, 48_000);
            assert_eq!(frames, 32);
        }
    }

    #[test]
    fn the_tx_check_needs_every_byte_and_the_exact_length() {
        let sent: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        let check = |pieces: &[(usize, &[u8])]| {
            let ((), intact) = gathers_exactly(&sent, |sink| {
                for &(off, bytes) in pieces {
                    sink(off, bytes);
                }
            });
            intact
        };
        /// `wire` in frame-sized pieces, as the NIC streams it.
        fn split(wire: &[u8]) -> Vec<(usize, &[u8])> {
            let frames = wire.chunks(4096).enumerate();
            frames.map(|(k, piece)| (k * 4096, piece)).collect()
        }
        assert!(check(&split(&sent)));
        let mut flipped = sent.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(!check(&split(&flipped)), "a flipped last byte");
        let short = &sent[..sent.len() - 1];
        assert!(!check(&split(short)), "a gather one byte short");
        let mut long = sent.clone();
        long.push(0);
        assert!(!check(&split(&long)), "a gather one byte long");
        let mut repeated = split(&sent);
        repeated.insert(1, repeated[0]);
        assert!(!check(&repeated), "a piece gathered twice");
        assert!(!check(&[]), "nothing gathered");
    }

    #[test]
    fn copy_engine_charges_memcpy_on_both_paths() {
        let stack = SimStack::new(EngineKind::Copy, &ExpConfig::quick());
        let drv = CoreDriver::new(CoreId(0));
        let mut c = ctx(&stack, 0);
        drv.rx_one(&stack, &mut c, &vec![1u8; 1500], true);
        let rx_copy = c.breakdown().get(Phase::Memcpy);
        assert!(rx_copy > Cycles::ZERO, "RX copies at unmap");
        let mut c2 = ctx(&stack, 0);
        drv.tx_one(&stack, &mut c2, &vec![2u8; 1500], true);
        assert!(
            c2.breakdown().get(Phase::Memcpy) > Cycles::ZERO,
            "TX copies at map"
        );
    }

    #[test]
    fn noiommu_never_touches_iommu_phases() {
        let stack = SimStack::new(EngineKind::NoIommu, &ExpConfig::quick());
        let drv = CoreDriver::new(CoreId(0));
        let mut c = ctx(&stack, 0);
        drv.rx_one(&stack, &mut c, &vec![1u8; 1500], true);
        drv.tx_one(&stack, &mut c, &vec![2u8; 1500], true);
        assert_eq!(c.breakdown().get(Phase::InvalidateIotlb), Cycles::ZERO);
        assert_eq!(c.breakdown().get(Phase::IommuPageTableMgmt), Cycles::ZERO);
        assert_eq!(c.breakdown().get(Phase::Memcpy), Cycles::ZERO);
    }

    #[test]
    fn wire_out_applies_backpressure() {
        let stack = SimStack::new(EngineKind::NoIommu, &ExpConfig::quick());
        let drv = CoreDriver::new(CoreId(0));
        let mut c = ctx(&stack, 0);
        // Blast far more than the wire can take instantly; the core must
        // accumulate idle time waiting for the link.
        for _ in 0..100 {
            drv.wire_out(&stack, &mut c, 64 * 1024);
        }
        assert!(c.idle() > Cycles::ZERO, "backpressure idles the core");
    }

    #[test]
    fn one_tso_buffer_on_an_idle_wire_costs_no_idle() {
        // Within TSQ's budget the sender hands the buffer to the NIC and
        // goes on preparing the next one while the wire serializes it.
        let stack = SimStack::new(EngineKind::NoIommu, &ExpConfig::quick());
        let mut c = ctx(&stack, 0);
        let start = c.now();
        let end = CoreDriver::new(CoreId(0)).wire_out(&stack, &mut c, 64 * 1024);
        assert_eq!(c.idle(), Cycles::ZERO);
        assert_eq!(c.now(), start, "the core did not wait");
        assert!(end > start, "the frames are still on the wire");
    }

    #[test]
    fn a_warm_packet_takes_the_pinned_host_lock_holds() {
        // Host lock holds per RX MTU packet and per RR transaction (a
        // 64 B TX then a 64 B RX) on a warm stack, with every trace chain
        // sampled out: each device burst (`Nic::receive`, one TX gather)
        // holds the IOTLB and the memory once, ring verdicts take none,
        // kmalloc takes none, copy's unmap of a pool IOVA skips the
        // huge-mapping table, and strict keeps no table of live mappings.
        let pinned = [
            (EngineKind::NoIommu, 7, 14),
            (EngineKind::Copy, 12, 24),
            (EngineKind::LinuxStrict, 14, 28),
        ];
        for (kind, rx, rr) in pinned {
            let cfg = ExpConfig {
                cores: 16,
                trace_sample: u64::MAX,
                ..ExpConfig::quick()
            };
            let stack = SimStack::new(kind, &cfg);
            let drv = CoreDriver::new(CoreId(3));
            let mut c = ctx(&stack, 3);
            let (mtu, small) = (vec![7u8; MTU], vec![9u8; 64]);
            for _ in 0..8 {
                drv.rx_one(&stack, &mut c, &mtu, true);
                drv.tx_one(&stack, &mut c, &small, true);
            }
            let before = simcore::sync::holds();
            drv.rx_one(&stack, &mut c, &mtu, true);
            let after_rx = simcore::sync::holds();
            drv.tx_one(&stack, &mut c, &small, true);
            drv.rx_one(&stack, &mut c, &small, true);
            let after_rr = simcore::sync::holds();
            assert_eq!(
                (after_rx - before, after_rr - after_rx),
                (rx, rr),
                "{kind}: holds per RX packet, per RR transaction"
            );
        }
    }

    #[test]
    fn a_warm_tx_buffer_takes_host_lock_holds_that_do_not_grow_with_its_size() {
        // Host lock holds per warm `tx_one` of 1 500 B, 16 KB and 64 KB,
        // with every trace chain sampled out. Every DMA-API call is one
        // hold of each structure it touches however many pages it maps:
        // one page-table hold per map and per unmap, one refcount-map hold,
        // one invalidation. The +1 from 16 KB up is kmalloc's page-run
        // allocation and free. Identity- grows anyway: it defers page by
        // page, each page one pending entry and one acquisition of the
        // simulated list lock, a model-checker preemption point that no
        // host lock may span.
        let pinned = [
            (EngineKind::NoIommu, [7, 8, 8]),
            (EngineKind::Copy, [12, 13, 13]),
            (EngineKind::IdentityMinus, [13, 17, 29]),
            (EngineKind::IdentityPlus, [14, 15, 15]),
            (EngineKind::EiovarDefer, [14, 15, 15]),
            (EngineKind::EiovarStrict, [14, 15, 15]),
            (EngineKind::LinuxDefer, [13, 14, 14]),
            (EngineKind::LinuxStrict, [14, 15, 15]),
        ];
        assert_eq!(pinned.map(|(kind, _)| kind), EngineKind::ALL);
        for (kind, holds) in pinned {
            let cfg = ExpConfig {
                trace_sample: u64::MAX,
                ..ExpConfig::quick()
            };
            let stack = SimStack::new(kind, &cfg);
            let drv = CoreDriver::new(CoreId(0));
            let mut c = ctx(&stack, 0);
            let got = [1500, 16 * 1024, 64 * 1024].map(|len| {
                let payload = vec![5u8; len];
                for _ in 0..8 {
                    drv.tx_one(&stack, &mut c, &payload, true);
                }
                let before = simcore::sync::holds();
                drv.tx_one(&stack, &mut c, &payload, true);
                simcore::sync::holds() - before
            });
            assert_eq!(got, holds, "{kind}: holds per 1.5/16/64 KB TX buffer");
        }
    }

    #[test]
    fn rings_are_device_visible_even_under_protection() {
        // The descriptor fetch itself is a DMA: under a protected engine it
        // goes through the IOMMU via the coherent mapping.
        let stack = SimStack::new(EngineKind::Copy, &ExpConfig::quick());
        let mut c = ctx(&stack, 0);
        let drv = CoreDriver::new(CoreId(0));
        drv.rx_one(&stack, &mut c, &[3u8; 100], true);
        // The NIC performed IOTLB-translated accesses (ring + payload).
        assert!(stack.mmu.iotlb_stats().hits + stack.mmu.iotlb_stats().misses > 0);
    }
}
