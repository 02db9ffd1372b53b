//! §5.4 ablation: the copying hint.
//!
//! Incoming packets are often much smaller than their MTU-sized receive
//! buffers. The driver hands `dma_unmap` the completion length the NIC
//! wrote back (`DmaMapping::device_wrote`), so *copy* moves only the bytes
//! that arrived. The ablated arm runs the same stack behind [`Unreported`],
//! an engine adapter that forgets the length — what a driver that reports
//! nothing gets: the full mapped length copied back.
//!
//! Exits non-zero unless, at every packet size, the reported arm's copy
//! costs exactly `cost.memcpy(wire)` per packet, never more than the
//! unreported arm's, and its goodput is never below it.

use dma_api::{
    CoherentBuffer, DmaBuf, DmaDirection, DmaEngine, DmaError, DmaMapping, ProtectionProfile,
};
use netsim::{tcp_stream_rx_on, EngineKind, ExpConfig, ExpResult, SimStack};
use simcore::{CoreCtx, Phase};

/// The wrapped engine, minus the driver's report of what the device wrote.
struct Unreported(Box<dyn DmaEngine>);

impl DmaEngine for Unreported {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn device(&self) -> iommu::DeviceId {
        self.0.device()
    }

    fn profile(&self) -> ProtectionProfile {
        self.0.profile()
    }

    fn map(
        &self,
        ctx: &mut CoreCtx,
        buf: DmaBuf,
        dir: DmaDirection,
    ) -> Result<DmaMapping, DmaError> {
        self.0.map(ctx, buf, dir)
    }

    fn unmap(&self, ctx: &mut CoreCtx, mapping: DmaMapping) -> Result<(), DmaError> {
        let len = mapping.len;
        self.0.unmap(ctx, mapping.device_wrote(len))
    }

    fn alloc_coherent(&self, ctx: &mut CoreCtx, len: usize) -> Result<CoherentBuffer, DmaError> {
        self.0.alloc_coherent(ctx, len)
    }

    fn free_coherent(&self, ctx: &mut CoreCtx, buf: CoherentBuffer) -> Result<(), DmaError> {
        self.0.free_coherent(ctx, buf)
    }

    fn flush_deferred(&self, ctx: &mut CoreCtx) {
        self.0.flush_deferred(ctx)
    }
}

fn run(wire: usize, reported: bool) -> ExpResult {
    let cfg = ExpConfig {
        msg_size: 64 * 1024,
        rx_wire_payload: Some(wire),
        items_per_core: 20_000,
        warmup_per_core: 2_000,
        ..ExpConfig::default()
    };
    let mut stack = SimStack::new(EngineKind::Copy, &cfg);
    if !reported {
        stack = SimStack {
            engine: Box::new(Unreported(stack.engine)),
            ..stack
        };
    }
    tcp_stream_rx_on(&stack, &cfg)
}

fn main() {
    println!("==== Ablation: copying hints (§5.4), single-core RX ====");
    println!(
        "{:<26} {:>10} {:>8} {:>14}",
        "configuration", "Gb/s", "cpu%", "memcpy us/pkt"
    );
    let cost = ExpConfig::default().cost;
    for wire in [300usize, 700, 1400] {
        let [unreported, reported] = [false, true].map(|reported| {
            let r = run(wire, reported);
            println!(
                "{:<26} {:>10.2} {:>8.1} {:>14.3}",
                format!(
                    "{wire}B packets, length={}",
                    if reported { "yes" } else { "no" }
                ),
                r.gbps,
                r.cpu * 100.0,
                r.per_item.get(Phase::Memcpy).to_micros(r.clock_ghz)
            );
            r
        });
        let memcpy = |r: &ExpResult| r.per_item.get(Phase::Memcpy);
        assert_eq!(
            memcpy(&reported),
            cost.memcpy(wire, false),
            "{wire} B: the reported arm copies exactly the bytes that arrived"
        );
        assert!(
            memcpy(&reported) <= memcpy(&unreported),
            "{wire} B: reporting the length made the copy dearer"
        );
        assert!(
            reported.gbps >= unreported.gbps,
            "{wire} B: reporting the length cost goodput ({} < {})",
            reported.gbps,
            unreported.gbps
        );
    }
}
