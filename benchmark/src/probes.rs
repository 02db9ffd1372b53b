//! Host-time probes: `Instant` spans around the benchmark's own calls into
//! each layer's public functions, with inputs shaped like the workload
//! (its buffer sizes, directions and core count).
//!
//! A probe makes `calls` calls in [`BATCHES`] batches. Reading the clock
//! costs about as much as the cheapest calls measured here, so a span
//! covers one batch, not one call, and a probe reports the median over its
//! batches of nanoseconds per call.

use crate::spans::Spans;
use crate::workloads::{slug, Op, Workload};
use devices::{Nic, DESC_BYTES, MTU};
use dma_api::{DmaBuf, DmaDirection};
use iommu::{Access, DeviceId, Iommu, IovaPage, Perms};
use memsim::{Kmalloc, NumaDomain, NumaTopology, Pfn, PhysAddr, PhysMemory, PAGE_SIZE};
use netsim::{CoreDriver, EngineKind, ExpConfig, SimStack, SKB_OVERHEAD};
use obs::{EventKind, Obs};
use shadow_core::{MagazineConfig, PoolConfig, ShadowPool};
use simcore::{
    CoreCtx, CoreId, CoreTask, CostModel, Cycles, MultiCoreSim, Phase, SimLock, SimRng, StepOutcome,
};
use std::hint::black_box;
use std::sync::Arc;

/// Spans (batches) per probe.
pub const BATCHES: u64 = 100;

/// The engines the netsim driver probes run on.
pub const DRIVER_PROBE_ENGINES: [EngineKind; 3] = [
    EngineKind::NoIommu,
    EngineKind::Copy,
    EngineKind::LinuxStrict,
];

const DEV: DeviceId = DeviceId(0);

/// Everything the probes measured, in nanoseconds per call. `None` marks a
/// probe the workload has no shape for (a TX probe on an RX-only workload).
#[derive(Debug, Default)]
pub struct ProbeResults {
    /// `MultiCoreSim::run` with charge-only tasks, per step.
    pub sched_step: f64,
    /// `SimLock::with`, per acquire/release pair.
    pub lock_pair: f64,
    /// `Kmalloc::alloc` + `free` at the workload's skb sizes.
    pub kmalloc_pair: f64,
    /// `PhysMemory::copy` of one payload.
    pub mem_copy: f64,
    /// `PhysMemory::write` + `equals` of one payload.
    pub mem_write_equals: f64,
    /// `Iommu::map_page` + `unmap_page_nosync`.
    pub iommu_map_unmap_page: f64,
    /// `Iommu::translate`, IOTLB hit.
    pub translate_hit: f64,
    /// `Iommu::translate`, IOTLB miss and page walk.
    pub translate_miss: f64,
    /// `stack.engine.map` + `unmap`, per engine of `EngineKind::ALL`.
    pub dma_map_unmap: Vec<(EngineKind, f64)>,
    /// `ShadowPool::acquire_shadow` + `release_shadow`.
    pub pool_acquire_release: f64,
    /// Descriptor post + `Nic::receive`.
    pub nic_rx: Option<f64>,
    /// Descriptor post + `Nic::transmit_into`.
    pub nic_tx: Option<f64>,
    /// `CoreDriver::rx_one` per engine of [`DRIVER_PROBE_ENGINES`].
    pub rx_one: Vec<(EngineKind, Option<f64>)>,
    /// `CoreDriver::tx_one`, likewise.
    pub tx_one: Vec<(EngineKind, Option<f64>)>,
    /// `Counter::inc`.
    pub counter_inc: f64,
    /// `Obs::trace` at the shipped sampling period.
    pub trace_event: f64,
    /// `profile::task_scope` + one nested `scope`, profiler off as shipped.
    pub profile_scope: f64,
}

/// Runs probes for one workload.
pub struct Prober<'a> {
    w: &'a Workload,
    cfg: &'a ExpConfig,
    calls: u64,
    spans: &'a mut Spans,
    parent: usize,
}

fn core_ctxs(cores: usize, cost: &Arc<CostModel>) -> Vec<CoreCtx> {
    (0..cores)
        .map(|c| {
            let mut ctx = CoreCtx::new(CoreId(c as u16), cost.clone());
            ctx.seek(Cycles(1));
            ctx
        })
        .collect()
}

fn direction(op: Op) -> DmaDirection {
    match op {
        Op::Rx => DmaDirection::FromDevice,
        Op::Tx => DmaDirection::ToDevice,
    }
}

impl<'a> Prober<'a> {
    /// A prober making `calls` calls per probe, its spans under `parent`.
    pub fn new(
        w: &'a Workload,
        cfg: &'a ExpConfig,
        calls: u64,
        spans: &'a mut Spans,
        parent: usize,
    ) -> Self {
        Prober {
            w,
            cfg,
            calls,
            spans,
            parent,
        }
    }

    /// Times `f` in batches under a `probe:<name>` span; `f` gets the call
    /// index. Returns the median nanoseconds per call.
    fn timed(&mut self, name: &str, mut f: impl FnMut(usize)) -> f64 {
        let probe = self.spans.enter(format!("probe:{name}"), Some(self.parent));
        let batch = (self.calls / BATCHES).max(1);
        let mut per_call = Vec::with_capacity(BATCHES as usize);
        let mut i = 0usize;
        for _ in 0..BATCHES.min(self.calls) {
            let id = self.spans.enter("batch", Some(probe));
            for _ in 0..batch {
                f(i);
                i += 1;
            }
            per_call.push(self.spans.exit(id, batch) as f64 / batch as f64);
        }
        self.spans.exit(probe, i as u64);
        crate::median(&per_call)
    }

    /// The skb allocation size the driver uses for `op`.
    fn skb_len(&self, op: Op) -> usize {
        match op {
            Op::Rx => MTU + SKB_OVERHEAD,
            Op::Tx => self.w.payload_len(Op::Tx) + SKB_OVERHEAD,
        }
    }

    /// The length the driver maps for `op` (RX buffers are MTU-sized
    /// whatever arrives).
    fn map_len(&self, op: Op) -> usize {
        match op {
            Op::Rx => MTU,
            Op::Tx => self.w.payload_len(Op::Tx),
        }
    }

    fn payload(&self, op: Op) -> Vec<u8> {
        SimRng::seed(self.cfg.seed).bytes(self.w.payload_len(op))
    }

    /// Runs every probe.
    pub fn run(&mut self) -> ProbeResults {
        ProbeResults {
            sched_step: self.sched_step(),
            lock_pair: self.lock_pair(),
            kmalloc_pair: self.kmalloc_pair(),
            mem_copy: self.mem_copy(),
            mem_write_equals: self.mem_write_equals(),
            iommu_map_unmap_page: self.iommu_map_unmap_page(),
            translate_hit: self.translate(64),
            // Twice the IOTLB's 4096 entries, visited in order: with FIFO
            // sets every lookup misses.
            translate_miss: self.translate(8192),
            dma_map_unmap: EngineKind::ALL
                .into_iter()
                .map(|k| (k, self.dma_map_unmap(k)))
                .collect(),
            pool_acquire_release: self.pool_acquire_release(),
            nic_rx: self.nic(Op::Rx),
            nic_tx: self.nic(Op::Tx),
            rx_one: DRIVER_PROBE_ENGINES
                .into_iter()
                .map(|k| (k, self.driver_one(k, Op::Rx)))
                .collect(),
            tx_one: DRIVER_PROBE_ENGINES
                .into_iter()
                .map(|k| (k, self.driver_one(k, Op::Tx)))
                .collect(),
            counter_inc: self.counter_inc(),
            trace_event: self.trace_event(),
            profile_scope: self.profile_scope(),
        }
    }

    fn sched_step(&mut self) -> f64 {
        const RUNS: u64 = 10;
        let cores = self.w.cores;
        let steps_per_core = (self.calls / RUNS / cores as u64).max(1);
        let probe = self
            .spans
            .enter("probe:simcore.host_ns_per_step", Some(self.parent));
        let mut per_step = Vec::new();
        for _ in 0..RUNS {
            let mut sim = MultiCoreSim::new(Arc::new(CostModel::zero()), cores);
            // Charge-only tasks with xorshift deltas: near and far wakeups
            // mix same-slot pushes and wheel cascades, like packet loops do.
            let mut tasks: Vec<Box<dyn CoreTask>> = (0..cores)
                .map(|c| {
                    let mut left = steps_per_core;
                    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ ((c as u64) << 32);
                    Box::new(move |ctx: &mut CoreCtx| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        ctx.charge(Phase::Other, Cycles(1 + x % 700));
                        left -= 1;
                        if left == 0 {
                            StepOutcome::Done
                        } else {
                            StepOutcome::Continue
                        }
                    }) as Box<dyn CoreTask>
                })
                .collect();
            let steps = steps_per_core * cores as u64;
            let id = self.spans.enter("batch", Some(probe));
            black_box(sim.run(&mut tasks, Cycles::MAX));
            per_step.push(self.spans.exit(id, steps) as f64 / steps as f64);
        }
        self.spans.exit(probe, RUNS * steps_per_core * cores as u64);
        crate::median(&per_step)
    }

    fn lock_pair(&mut self) -> f64 {
        let lock = SimLock::new("probe");
        let mut ctxs = core_ctxs(self.w.cores, &Arc::new(self.cfg.cost.clone()));
        let n = ctxs.len();
        // Cores take the lock in turn, so with more than one core every
        // acquisition finds it busy in virtual time and walks the spin path.
        self.timed("simcore.host_ns_per_lock_pair", |i| {
            lock.with(&mut ctxs[i % n], |ctx| ctx.charge(Phase::Other, Cycles(10)));
        })
    }

    fn kmalloc_pair(&mut self) -> f64 {
        let kmalloc = Kmalloc::new(Arc::new(PhysMemory::new(
            NumaTopology::dual_socket_haswell(),
        )));
        let sizes: Vec<usize> = self.w.ops().iter().map(|&op| self.skb_len(op)).collect();
        self.timed("memsim.host_ns_per_kmalloc_pair", |i| {
            let pa = kmalloc
                .alloc(sizes[i % sizes.len()], NumaDomain(0))
                .expect("probe kmalloc");
            kmalloc.free(black_box(pa)).expect("probe kfree");
        })
    }

    /// Two page-aligned regions big enough for the workload's payloads.
    fn two_regions(&self, mem: &PhysMemory) -> (PhysAddr, PhysAddr) {
        let pages = (64 * 1024 / PAGE_SIZE) as u64;
        let a = mem.alloc_frames(NumaDomain(0), pages).expect("frames");
        let b = mem.alloc_frames(NumaDomain(0), pages).expect("frames");
        (a.base(), b.base())
    }

    fn mem_copy(&mut self) -> f64 {
        let mem = PhysMemory::new(NumaTopology::dual_socket_haswell());
        let (src, dst) = self.two_regions(&mem);
        let lens: Vec<usize> = self
            .w
            .ops()
            .iter()
            .map(|&op| self.w.payload_len(op))
            .collect();
        self.timed("memsim.host_ns_per_copy", |i| {
            mem.copy(src, dst, lens[i % lens.len()])
                .expect("probe copy");
        })
    }

    fn mem_write_equals(&mut self) -> f64 {
        let mem = PhysMemory::new(NumaTopology::dual_socket_haswell());
        let (pa, _) = self.two_regions(&mem);
        let payloads: Vec<Vec<u8>> = self.w.ops().iter().map(|&op| self.payload(op)).collect();
        self.timed("memsim.host_ns_per_write_equals", |i| {
            let p = &payloads[i % payloads.len()];
            mem.write(pa, p).expect("probe write");
            assert!(mem.equals(pa, p).expect("probe equals"));
        })
    }

    fn iommu_map_unmap_page(&mut self) -> f64 {
        let mmu = Iommu::new();
        let mut ctxs = core_ctxs(1, &Arc::new(self.cfg.cost.clone()));
        self.timed("iommu.host_ns_per_map_unmap_page", |i| {
            let page = IovaPage(0x10_0000 + (i as u64 & 511));
            mmu.map_page(&mut ctxs[0], DEV, page, Pfn(i as u64), Perms::ReadWrite)
                .expect("probe map_page");
            mmu.unmap_page_nosync(&mut ctxs[0], DEV, page)
                .expect("probe unmap_page");
        })
    }

    /// `Iommu::translate` over `pages` mapped pages visited in order: a
    /// working set inside the IOTLB always hits, one twice its size never
    /// does.
    fn translate(&mut self, pages: u64) -> f64 {
        let mmu = Iommu::new();
        let mut ctx = core_ctxs(1, &Arc::new(CostModel::zero())).remove(0);
        mmu.map_range(&mut ctx, DEV, IovaPage(0), Pfn(0), pages, Perms::Read)
            .expect("probe map_range");
        let expect_hits = pages <= 4096;
        if expect_hits {
            for p in 0..pages {
                mmu.translate(DEV, IovaPage(p).base(), Access::Read)
                    .expect("probe warm translate");
            }
        }
        let before = mmu.iotlb_stats();
        let name = if expect_hits {
            "iommu.host_ns_per_translate_hit"
        } else {
            "iommu.host_ns_per_translate_miss"
        };
        let ns = self.timed(name, |i| {
            let iova = IovaPage(i as u64 % pages).base();
            black_box(
                mmu.translate(DEV, iova, Access::Read)
                    .expect("probe translate"),
            );
        });
        let after = mmu.iotlb_stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        assert!(
            if expect_hits { misses == 0 } else { hits == 0 },
            "{name} measured the wrong path: {hits} hits, {misses} misses"
        );
        ns
    }

    fn dma_map_unmap(&mut self, kind: EngineKind) -> f64 {
        let stack = SimStack::new(kind, self.cfg);
        let mut ctxs = core_ctxs(self.w.cores, &stack.cost);
        let ops = self.w.ops();
        let bufs: Vec<(DmaBuf, DmaDirection)> = ops
            .iter()
            .map(|&op| {
                let skb = stack
                    .kmalloc
                    .alloc(self.skb_len(op), NumaDomain(0))
                    .expect("probe skb");
                (DmaBuf::new(skb, self.map_len(op)), direction(op))
            })
            .collect();
        let (n_ops, n_cores) = (ops.len(), ctxs.len());
        let name = format!("dma_api.host_ns_per_map_unmap.{}", slug(kind));
        self.timed(&name, |i| {
            let (buf, dir) = bufs[i % n_ops];
            let ctx = &mut ctxs[(i / n_ops) % n_cores];
            let m = stack.engine.map(ctx, buf, dir).expect("probe dma_map");
            stack.engine.unmap(ctx, m).expect("probe dma_unmap");
        })
    }

    fn pool_acquire_release(&mut self) -> f64 {
        // The pool as `SimStack` configures it for this workload.
        let mut pool_cfg = PoolConfig::default();
        pool_cfg.codec = pool_cfg.codec.with_min_cores(self.w.cores);
        if self.w.percore {
            pool_cfg.magazines = Some(MagazineConfig::default());
        }
        // A no-iommu stack lends its memory (whose topology has the
        // workload's cores) and its otherwise unused IOMMU.
        let stack = SimStack::new(EngineKind::NoIommu, self.cfg);
        let pool = ShadowPool::new(stack.mem.clone(), stack.mmu.clone(), DEV, pool_cfg);
        let (pa, _) = self.two_regions(&stack.mem);
        let mut ctxs = core_ctxs(self.w.cores, &stack.cost);
        let ops = self.w.ops();
        let bufs: Vec<(DmaBuf, Perms)> = ops
            .iter()
            .map(|&op| (DmaBuf::new(pa, self.map_len(op)), direction(op).perms()))
            .collect();
        let (n_ops, n_cores) = (ops.len(), ctxs.len());
        self.timed("core.host_ns_per_acquire_release", |i| {
            let (buf, perms) = bufs[i % n_ops];
            let ctx = &mut ctxs[(i / n_ops) % n_cores];
            let iova = pool.acquire_shadow(ctx, buf, perms).expect("probe acquire");
            pool.release_shadow(ctx, iova).expect("probe release");
        })
    }

    /// The NIC alone, behind the direct bus of a no-iommu stack: post one
    /// descriptor the way the driver does, then let the NIC process it.
    fn nic(&mut self, op: Op) -> Option<f64> {
        if !self.w.ops().contains(&op) {
            return None;
        }
        let stack = SimStack::new(EngineKind::NoIommu, self.cfg);
        let mut ctx = core_ctxs(1, &stack.cost).remove(0);
        let payload = self.payload(op);
        let skb = stack
            .kmalloc
            .alloc(self.skb_len(op), NumaDomain(0))
            .expect("probe skb");
        let len = self.map_len(op);
        let m = stack
            .engine
            .map(&mut ctx, DmaBuf::new(skb, len), direction(op))
            .expect("probe dma_map");
        let desc = Nic::encode_descriptor(m.iova.get(), len as u32);
        let rings = stack.rx_rings.len();
        Some(match op {
            Op::Rx => self.timed("devices.host_ns_per_rx", |i| {
                let ring = i % rings;
                let slot = stack.nic.rx_next(ring) * DESC_BYTES;
                stack
                    .mem
                    .write(stack.rx_rings[ring].pa.add(slot as u64), &desc)
                    .expect("probe post_rx");
                black_box(stack.nic.receive(ring, &payload).expect("probe receive"));
            }),
            Op::Tx => {
                stack.mem.write(skb, &payload).expect("probe skb write");
                let mut wire = Vec::new();
                self.timed("devices.host_ns_per_tx", |i| {
                    let ring = i % rings;
                    let slot = stack.nic.tx_next(ring) * DESC_BYTES;
                    stack
                        .mem
                        .write(stack.tx_rings[ring].pa.add(slot as u64), &desc)
                        .expect("probe post_tx");
                    black_box(
                        stack
                            .nic
                            .transmit_into(ring, &mut wire)
                            .expect("probe transmit"),
                    );
                })
            }
        })
    }

    fn driver_one(&mut self, kind: EngineKind, op: Op) -> Option<f64> {
        if !self.w.ops().contains(&op) {
            return None;
        }
        let stack = SimStack::new(kind, self.cfg);
        let mut ctxs = core_ctxs(self.w.cores, &stack.cost);
        let payload = self.payload(op);
        let n = ctxs.len();
        let slug = slug(kind);
        Some(match op {
            Op::Rx => self.timed(&format!("netsim.host_ns_per_rx_one.{slug}"), |i| {
                let c = i % n;
                let drv = CoreDriver::new(CoreId(c as u16));
                black_box(drv.rx_one(&stack, &mut ctxs[c], &payload, true));
            }),
            Op::Tx => self.timed(&format!("netsim.host_ns_per_tx_one.{slug}"), |i| {
                let c = i % n;
                let drv = CoreDriver::new(CoreId(c as u16));
                black_box(drv.tx_one(&stack, &mut ctxs[c], &payload, true));
            }),
        })
    }

    fn counter_inc(&mut self) -> f64 {
        let obs = Obs::isolated();
        let counter = obs.counter("bench", "probe", Some(DEV.0));
        let ns = self.timed("obs.host_ns_per_counter_inc", |_| counter.inc());
        black_box(counter.get());
        ns
    }

    fn trace_event(&mut self) -> f64 {
        let obs = Obs::isolated();
        obs.set_trace_sampling(self.cfg.trace_sample);
        self.timed("obs.host_ns_per_trace_event", |i| {
            let kind = EventKind::DmaUnmap {
                iova: i as u64,
                len: MTU as u64,
            };
            black_box(obs.trace(Cycles(i as u64), 0, Some(DEV.0), kind));
        })
    }

    fn profile_scope(&mut self) -> f64 {
        let obs = Obs::isolated();
        let mut ctx = core_ctxs(1, &Arc::new(self.cfg.cost.clone())).remove(0);
        self.timed("obs.host_ns_per_profile_scope", |_| {
            obs::profile::task_scope(&obs, &mut ctx, "probe", Some(DEV.0), "rx", |ctx| {
                obs::profile::scope(ctx, "dma_map", |ctx| {
                    ctx.charge(Phase::Other, Cycles(1));
                });
            });
        })
    }
}
