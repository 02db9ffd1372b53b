//! Experiment configuration and machine construction.

// lint: allow(panic) — machine construction panics on impossible configurations, documented under # Panics

use devices::{Nic, NicConfig, DESC_BYTES};
use dma_api::{Bus, BusObserver, CoherentBuffer, DmaEngine, DmaObserver, TracedDma};
use dmasan::DmaSan;
use iommu::{DeviceId, Iommu};
use memsim::{Kmalloc, NumaTopology, PhysMemory};
use obs::{Counter, Obs};
use shadow_core::build_engine;
pub use shadow_core::EngineKind;
use simcore::{CoreCtx, CoreId, CostModel, Cycles, SimRng, Wire};
use std::fmt;
use std::sync::Arc;

/// Experiment parameters (defaults follow the paper's setup).
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Cores driving the workload (1 or 16 in the paper).
    pub cores: usize,
    /// netperf message size in bytes.
    pub msg_size: usize,
    /// Measured work items (packets / TSO buffers / transactions) per core,
    /// after warm-up.
    pub items_per_core: u64,
    /// Warm-up items per core (pool growth, cold caches).
    pub warmup_per_core: u64,
    /// Cost model.
    pub cost: CostModel,
    /// Wire rate in Gb/s.
    pub wire_gbps: f64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Verify payload integrity end-to-end on every delivery.
    pub verify_data: bool,
    /// Bytes the NIC actually delivers per RX frame (packets can be much
    /// smaller than their MTU buffers); `None` = full MTU frames. The
    /// driver hands the completion length to `dma_unmap` either way (§5.4),
    /// so *copy* copies back what arrived, not what was mapped.
    pub rx_wire_payload: Option<usize>,
    /// Shadow-pool configuration for the copy engine (size classes, slot
    /// bound). `None` = the paper's default (4 KB + 64 KB classes).
    pub pool_config: Option<shadow_core::PoolConfig>,
    /// Fragments per TX buffer: 1 = contiguous skbs (the default);
    /// >1 exercises the scatter/gather path (`dma_map_sg`, §5.2).
    pub tx_sg_frags: usize,
    /// Trace sampling period: keep 1 in `trace_sample` cause chains
    /// (security events are always kept). The default keeps long figure
    /// runs off the tracer's ring lock; set `1` to record everything
    /// (what [`ExpConfig::quick`] and trace-consuming tools do).
    pub trace_sample: u64,
    /// Shard hot allocation state per core: per-core shadow-pool magazines
    /// for the copy engine, the magazine-backed per-core IOVA allocator for
    /// every tree-backed engine (*strict*, *defer*, *eiovar±*), one pending
    /// list per core for every deferred engine (all substituted by
    /// `shadow_core::build_engine`), and one IOMMU invalidation queue per
    /// core (`Iommu::with_queues`). Engine names are unchanged so scaling
    /// curves compare like for like, and so are their protection profiles:
    /// a strict unmap still returns with its IOTLB entry gone, it only
    /// stops waiting behind other cores' invalidations; a deferred engine
    /// still declares its window, which now spans one batch per core
    /// (`flush.peak_pending`). Domain-selective flushes (the deferred
    /// engines' drain) stay on queue 0.
    pub percore: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            cores: 1,
            msg_size: 64 * 1024,
            items_per_core: 20_000,
            warmup_per_core: 2_000,
            cost: CostModel::haswell_2_4ghz(),
            wire_gbps: 40.0,
            seed: 42,
            verify_data: true,
            rx_wire_payload: None,
            pool_config: None,
            tx_sg_frags: 1,
            trace_sample: 64,
            percore: false,
        }
    }
}

impl ExpConfig {
    /// A small/fast configuration for unit tests.
    pub fn quick() -> Self {
        ExpConfig {
            items_per_core: 2_000,
            warmup_per_core: 200,
            trace_sample: 1,
            ..Default::default()
        }
    }
}

/// The simulated machine: memory, IOMMU, DMA engine, NIC, wire.
///
/// One NIC (device 0) with one RX and one TX descriptor ring per core,
/// protected by the chosen engine.
pub struct SimStack {
    /// Physical memory.
    pub mem: Arc<PhysMemory>,
    /// The IOMMU (present even for `no iommu`, which bypasses it).
    pub mmu: Arc<Iommu>,
    /// The slab allocator the network stack draws skbs from.
    pub kmalloc: Kmalloc,
    /// The DMA protection engine under test.
    pub engine: Box<dyn DmaEngine>,
    /// The NIC model.
    pub nic: Nic,
    /// The 40 Gb/s link, receive direction (traffic toward the host).
    pub wire: Wire,
    /// The transmit direction of the full-duplex link (used by
    /// request/response workloads).
    pub wire_back: Wire,
    /// Per-core RX descriptor rings (driver-side view).
    pub rx_rings: Vec<CoherentBuffer>,
    /// Per-core TX descriptor rings (driver-side view).
    pub tx_rings: Vec<CoherentBuffer>,
    /// Engine kind used to build the stack.
    pub kind: EngineKind,
    /// The cost model (shared with every `CoreCtx`).
    pub cost: Arc<CostModel>,
    /// Deterministic workload RNG.
    pub rng: std::cell::RefCell<SimRng>,
    /// The stack-wide telemetry handle: the IOMMU, the engine (wrapped in
    /// [`TracedDma`]), its pool/allocator/flusher internals, and the driver
    /// all report into this one registry and tracer.
    pub obs: Obs,
    /// The DMA-API sanitizer auditing every map/unmap (via the engine's
    /// observer hook) and every device access (via the observed [`Bus`]).
    /// Strict: the first violation panics with its detail string, so every
    /// run of the stack is also a sanitizer run.
    pub san: Arc<DmaSan>,
    /// Driver traffic counters (views over `net.*` registry entries).
    pub net: NetCounters,
}

impl fmt::Debug for SimStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimStack")
            .field("kind", &self.kind)
            .field("engine", &self.engine.name())
            .finish()
    }
}

/// The NIC's requester id in every experiment.
pub const NIC_DEV: DeviceId = DeviceId(0);

/// Driver-level traffic counters (`net.*` on the NIC device), shared by
/// all cores and incremented by [`crate::CoreDriver`]'s fast paths.
#[derive(Debug, Clone)]
pub struct NetCounters {
    /// Packets delivered up the stack (`net.rx_packets`).
    pub rx_packets: Counter,
    /// Payload bytes delivered (`net.rx_bytes`).
    pub rx_bytes: Counter,
    /// TSO buffers transmitted (`net.tx_buffers`).
    pub tx_buffers: Counter,
    /// Payload bytes handed to the NIC (`net.tx_bytes`).
    pub tx_bytes: Counter,
    /// Wire frames the NIC segmented those buffers into (`net.tx_frames`).
    pub tx_frames: Counter,
}

impl NetCounters {
    fn new(obs: &Obs) -> Self {
        let d = Some(NIC_DEV.0);
        NetCounters {
            rx_packets: obs.counter("net", "rx_packets", d),
            rx_bytes: obs.counter("net", "rx_bytes", d),
            tx_buffers: obs.counter("net", "tx_buffers", d),
            tx_bytes: obs.counter("net", "tx_bytes", d),
            tx_frames: obs.counter("net", "tx_frames", d),
        }
    }
}

impl SimStack {
    /// Builds the machine for `kind` with the paper's topology (16 cores,
    /// 2 NUMA domains, 32 GB) and per-core NIC rings.
    pub fn new(kind: EngineKind, cfg: &ExpConfig) -> Self {
        Self::with_obs(kind, cfg, Obs::isolated())
    }

    /// Builds the machine reporting into an existing telemetry handle
    /// (e.g. to aggregate several stacks, or to feed external sinks).
    pub fn with_obs(kind: EngineKind, cfg: &ExpConfig, obs: Obs) -> Self {
        obs.set_trace_sampling(cfg.trace_sample);
        let cores = cfg.cores.max(1);
        let topo = if cores <= 16 {
            NumaTopology::dual_socket_haswell()
        } else {
            // Beyond the paper's 16-core Haswell pair (the 64/128/256-core
            // scaling sweeps): keep two NUMA domains and scale memory at
            // 2 GB per core so the pool and rings never hit frame limits.
            NumaTopology::new(
                cores as u16,
                2,
                cores as u64 * ((2u64 << 30) / memsim::PAGE_SIZE as u64),
            )
        };
        let mem = Arc::new(PhysMemory::new(topo));
        let queues = if cfg.percore { cores } else { 1 };
        let mmu = Arc::new(Iommu::with_queues(obs.clone(), queues));
        let cost = Arc::new(cfg.cost.clone());
        let pool_cfg = cfg.pool_config.clone().unwrap_or_default();
        let engine = build_engine(
            kind,
            mem.clone(),
            mmu.clone(),
            NIC_DEV,
            cores,
            cfg.percore,
            pool_cfg,
        );
        // Wrap the engine so every dma_map/dma_unmap is counted and traced
        // (unmap-induced invalidations chain to their DmaUnmap event) and
        // audited by the sanitizer; the bus is observed so the sanitizer
        // also sees every device-side access. The wrap happens *before*
        // ring allocation so coherent windows are registered too.
        let san = Arc::new(DmaSan::new(obs.clone()));
        let observer = san.clone() as Arc<dyn DmaObserver>;
        let engine: Box<dyn DmaEngine> =
            Box::new(TracedDma::new(engine, obs.clone(), Some(observer)));
        let bus = match kind {
            EngineKind::NoIommu => Bus::Direct(mem.clone()),
            _ => Bus::Iommu {
                mmu: mmu.clone(),
                mem: mem.clone(),
            },
        }
        .observed(san.clone() as Arc<dyn BusObserver>);
        let mut nic = Nic::new(NIC_DEV, bus, NicConfig::default());
        // Ring setup happens on core 0 at time zero; its costs are not part
        // of any measurement.
        let mut setup_ctx = CoreCtx::new(CoreId(0), cost.clone());
        let ring_bytes = NicConfig::default().ring_entries * DESC_BYTES;
        let mut rx_rings = Vec::new();
        let mut tx_rings = Vec::new();
        for _ in 0..cores {
            let rx = engine
                .alloc_coherent(&mut setup_ctx, ring_bytes)
                .expect("ring allocation");
            nic.attach_rx_ring(&rx);
            rx_rings.push(rx);
            let tx = engine
                .alloc_coherent(&mut setup_ctx, ring_bytes)
                .expect("ring allocation");
            nic.attach_tx_ring(&tx);
            tx_rings.push(tx);
        }
        SimStack {
            kmalloc: Kmalloc::new(mem.clone()),
            mem,
            mmu,
            engine,
            nic,
            wire: Wire::new(cfg.wire_gbps, cfg.cost.clock_ghz),
            wire_back: Wire::new(cfg.wire_gbps, cfg.cost.clock_ghz),
            rx_rings,
            tx_rings,
            kind,
            cost,
            rng: std::cell::RefCell::new(SimRng::seed(cfg.seed)),
            net: NetCounters::new(&obs),
            obs,
            san,
        }
    }

    /// Tears the stack down like a driver's `remove()` path: frees every
    /// descriptor ring through `dma_free_coherent` and drains any deferred
    /// invalidations. After this, [`dmasan::DmaSan::check_teardown`] on
    /// [`SimStack::san`] reports only genuinely leaked mappings.
    pub fn teardown(&mut self, ctx: &mut CoreCtx) {
        for ring in self.rx_rings.drain(..) {
            self.engine
                .free_coherent(ctx, ring)
                .expect("rx ring free_coherent");
        }
        for ring in self.tx_rings.drain(..) {
            self.engine
                .free_coherent(ctx, ring)
                .expect("tx ring free_coherent");
        }
        self.engine.flush_deferred(ctx);
    }

    /// Convenience single-packet loopback used by docs and smoke tests:
    /// maps an MTU buffer for receive, delivers `payload` through the NIC,
    /// unmaps, and returns what landed in the OS buffer.
    pub fn loopback_rx(&mut self, payload: &[u8]) -> Vec<u8> {
        use dma_api::{DmaBuf, DmaDirection};
        let mut ctx = CoreCtx::new(CoreId(0), self.cost.clone());
        ctx.seek(Cycles(1)); // distinguish from setup time zero
        let domain = self.mem.topology().domain_of_core(CoreId(0));
        let skb = self
            .kmalloc
            .alloc(payload.len().max(64), domain)
            .expect("skb allocation");
        let m = self
            .engine
            .map(
                &mut ctx,
                DmaBuf::new(skb, payload.len().max(64)),
                DmaDirection::FromDevice,
            )
            .expect("dma_map");
        crate::driver::post_rx(self, 0, m.iova.get(), payload.len().max(64) as u32);
        let completion = self.nic.receive(0, payload).expect("NIC receive");
        self.engine
            .unmap(&mut ctx, m.device_wrote(completion.len))
            .expect("dma_unmap");
        let out = self
            .mem
            .read_vec(skb, payload.len())
            .expect("read OS buffer");
        self.kmalloc.free(skb).expect("kfree");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_builds_for_every_engine() {
        for kind in EngineKind::ALL {
            let cfg = ExpConfig::quick();
            let stack = SimStack::new(kind, &cfg);
            assert_eq!(stack.engine.name(), kind.name());
        }
    }

    #[test]
    fn teardown_leaves_sanitizer_leak_clean() {
        for kind in EngineKind::ALL {
            let cfg = ExpConfig::quick();
            let mut stack = SimStack::new(kind, &cfg);
            let payload: Vec<u8> = (0..256u32).map(|i| (i % 256) as u8).collect();
            stack.loopback_rx(&payload);
            let mut ctx = CoreCtx::new(CoreId(0), stack.cost.clone());
            ctx.seek(Cycles(2));
            stack.teardown(&mut ctx);
            assert_eq!(stack.san.check_teardown(), 0, "engine {kind} leaks");
            assert_eq!(stack.san.violation_count(), 0, "engine {kind} violations");
        }
    }

    #[test]
    fn loopback_roundtrip_every_engine() {
        for kind in EngineKind::ALL {
            let cfg = ExpConfig::quick();
            let mut stack = SimStack::new(kind, &cfg);
            let payload: Vec<u8> = (0..1500).map(|i| (i % 256) as u8).collect();
            let out = stack.loopback_rx(&payload);
            assert_eq!(out, payload, "engine {kind}");
        }
    }

    #[test]
    fn percore_stack_tears_down_leak_free() {
        // The per-core machinery (pool magazines, IOVA magazines) parks
        // state outside the shared structures; teardown must return all of
        // it — the sanitizer sees no leaked mappings.
        for kind in EngineKind::ALL {
            let cfg = ExpConfig {
                percore: true,
                ..ExpConfig::quick()
            };
            let mut stack = SimStack::new(kind, &cfg);
            let payload: Vec<u8> = (0..1500u32).map(|i| (i % 256) as u8).collect();
            let out = stack.loopback_rx(&payload);
            assert_eq!(out, payload, "engine {kind}");
            let mut ctx = CoreCtx::new(CoreId(0), stack.cost.clone());
            ctx.seek(Cycles(2));
            stack.teardown(&mut ctx);
            assert_eq!(stack.san.check_teardown(), 0, "engine {kind} leaks");
            assert_eq!(stack.san.violation_count(), 0, "engine {kind} violations");
        }
    }

    #[test]
    fn percore_delivers_intact_payloads_on_every_engine() {
        // A per-core IOVA cache hands a just-freed range straight back to
        // the same core; that is only safe if the unmap's invalidation is
        // complete when it returns. `verify_data` panics on a corrupted
        // delivery and the stack's sanitizer on the first violation, so
        // reaching the end is the assertion.
        for kind in EngineKind::ALL {
            let cfg = ExpConfig {
                cores: 16,
                msg_size: devices::MTU,
                items_per_core: 500,
                warmup_per_core: 50,
                percore: true,
                ..ExpConfig::quick()
            };
            assert!(cfg.verify_data);
            let stack = SimStack::new(kind, &cfg);
            let r = crate::tcp_stream_rx_on(&stack, &cfg);
            assert_eq!(r.items, 16 * 500, "engine {kind} RX");
            assert_eq!(stack.san.violation_count(), 0, "engine {kind} RX");
            // RR alternates TX and RX maps on one core, the tightest reuse.
            let cfg = ExpConfig {
                cores: 1,
                msg_size: 64,
                ..cfg
            };
            assert_eq!(crate::tcp_rr(kind, &cfg).items, 500, "engine {kind} RR");
        }
    }

    #[test]
    fn stack_scales_beyond_the_papers_core_count() {
        // 64/128/256-core machines build and pass traffic; 256 cores force
        // the copy engine's IOVA core field beyond the paper's 7 bits.
        for cores in [64usize, 256] {
            for kind in [EngineKind::Copy, EngineKind::LinuxStrict] {
                let cfg = ExpConfig {
                    cores,
                    percore: true,
                    ..ExpConfig::quick()
                };
                let mut stack = SimStack::new(kind, &cfg);
                assert_eq!(stack.mem.topology().cores() as usize, cores);
                let payload: Vec<u8> = (0..1500u32).map(|i| (i % 256) as u8).collect();
                let out = stack.loopback_rx(&payload);
                assert_eq!(out, payload, "engine {kind} at {cores} cores");
                let mut ctx = CoreCtx::new(CoreId(0), stack.cost.clone());
                ctx.seek(Cycles(2));
                stack.teardown(&mut ctx);
                assert_eq!(stack.san.check_teardown(), 0);
            }
        }
    }
}
