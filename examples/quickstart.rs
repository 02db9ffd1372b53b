//! Quickstart: protect a device with DMA shadowing in ~40 lines.
//!
//! Builds a simulated machine, maps an OS buffer for receive through the
//! `copy` (DMA shadowing) engine, lets the NIC DMA a packet, unmaps, and
//! shows that (a) the data arrived intact and (b) the IOMMU never issued a
//! single IOTLB invalidation — the core of the paper's idea.
//!
//! Run with: `cargo run --example quickstart`

use dma_shadowing::dma_api::{Bus, DmaBuf, DmaDirection, DmaEngine};
use dma_shadowing::iommu::{DeviceId, Iommu};
use dma_shadowing::memsim::{Kmalloc, NumaTopology, PhysMemory};
use dma_shadowing::shadow_core::{PoolConfig, ShadowDma};
use dma_shadowing::simcore::{CoreCtx, CoreId, CostModel};
use std::sync::Arc;

fn main() {
    // A machine: physical memory + IOMMU.
    let mem = Arc::new(PhysMemory::new(NumaTopology::dual_socket_haswell()));
    let mmu = Arc::new(Iommu::new());
    let kmalloc = Kmalloc::new(mem.clone());

    // The paper's contribution: the DMA-shadowing engine for device 0.
    let nic = DeviceId(0);
    let engine = ShadowDma::new(mem.clone(), mmu.clone(), nic, PoolConfig::default());

    // A virtual core to run the driver on (costs are charged in virtual
    // cycles of the paper's 2.4 GHz testbed).
    let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::haswell_2_4ghz()));

    // Driver side: allocate an skb and authorize the upcoming receive DMA.
    let domain = mem.topology().domain_of_core(ctx.core);
    let skb = kmalloc.alloc(1500, domain).expect("skb");
    let mapping = engine
        .map(&mut ctx, DmaBuf::new(skb, 1500), DmaDirection::FromDevice)
        .expect("dma_map");
    println!("mapped OS buffer {skb} at device-visible {}", mapping.iova);

    // Device side: the NIC DMA-writes a packet — it lands in the shadow
    // buffer, never in OS memory.
    let bus = Bus::Iommu {
        mmu: mmu.clone(),
        mem: mem.clone(),
    };
    let packet: Vec<u8> = (0..1500u32).map(|i| (i % 251) as u8).collect();
    bus.write(nic, mapping.iova.get(), &packet)
        .expect("device DMA");

    // Driver side: dma_unmap copies the packet into the OS buffer.
    engine.unmap(&mut ctx, mapping).expect("dma_unmap");
    let delivered = mem.read_vec(skb, 1500).expect("read");
    assert_eq!(delivered, packet, "payload intact end-to-end");

    let inval = mmu.invalq().stats();
    println!(
        "packet delivered intact; IOTLB invalidations issued: {} (that's the point)",
        inval.page_commands + inval.flush_commands
    );
    println!(
        "driver-side cost: {:.2} us ({})",
        ctx.busy().to_micros(ctx.cost.clock_ghz),
        dma_shadowing::netsim::format_breakdown_us(ctx.breakdown(), ctx.cost.clock_ghz)
    );
    kmalloc.free(skb).expect("kfree");
}
