//! The model-checked configuration: N mapper threads × 1 device thread
//! driving one DMA engine instance.
//!
//! Every mapper performs one `dma_map` → publish → `dma_unmap` → OS-reuse
//! cycle over its own page; the device thread probes each mapper's window
//! twice (the first probe warms the IOTLB — stale-entry attacks need the
//! translation cached — the second is the one that lands stale under
//! deferred invalidation). The [`crate::oracle`] classifies every device
//! effect against the published window lifecycle.

// lint: allow(panic) — harness scripts assert rig invariants; a panic is a checker bug surfaced to the explorer

use crate::exec::Executor;
use crate::oracle::{self, AccessRecord, Board, WinState, BUF_LEN, TAIL_OFF};
use dma_api::{
    Bus, BusObserver, DmaBuf, DmaDirection, DmaEngine, DmaObserver, ProtectionProfile, TracedDma,
};
use dmasan::DmaSan;
use iommu::{DeviceId, Iommu};
use memsim::{NumaTopology, PhysMemory};
use obs::Obs;
use shadow_core::{build_engine, EngineKind, PoolConfig};
use simcore::{CoreCtx, CoreId, CostModel, Cycles};
use std::fmt;
use std::sync::Arc;

/// The device id every model-checked engine instance manages.
pub const MC_DEV: DeviceId = DeviceId(7);

/// Bytes the device reads per probe: covers the mapped buffer *and* the
/// page-tail secret at [`TAIL_OFF`], so a single read can demonstrate both
/// the sub-page and the stale-window exposure.
pub const PROBE_READ_LEN: usize = TAIL_OFF + 16;

/// One fully-built model-checking configuration, fresh per run.
///
/// Deliberately leaner than `netsim::SimStack` (no NIC, no wire, no RNG):
/// the stack's `RefCell` RNG is not `Sync`, and the checker needs engines
/// shared across real host threads.
pub struct Rig {
    /// Telemetry (detail events on, sampling 1 — the executor's yield hook
    /// and the counterexample trace both feed on it).
    pub obs: Obs,
    /// Physical memory (tiny single-socket topology).
    pub mem: Arc<PhysMemory>,
    /// The IOMMU.
    pub mmu: Arc<Iommu>,
    /// The engine under test, shared by all worker threads.
    pub engine: Arc<dyn DmaEngine>,
    /// The device-side access path.
    pub bus: Arc<Bus>,
    /// The shared window/violation board.
    pub board: Arc<Board>,
    /// The DMA-API sanitizer, when cross-checking (always lenient — worker
    /// panics would abort schedules mid-flight).
    pub san: Option<Arc<DmaSan>>,
    /// The engine's Table 1 row, used to classify expected vs unexpected
    /// violations.
    pub profile: ProtectionProfile,
    /// Mapper thread count (thread ids `0..mappers`; the device is
    /// `mappers`).
    pub mappers: usize,
    /// The engine this rig was built for.
    pub kind: EngineKind,
    /// Whether the rig was built with per-core allocation state (shadow
    /// pool magazines, per-core IOVA allocator, one invalidation queue per
    /// mapper).
    pub percore: bool,
}

fn zero_ctx(core: u16) -> CoreCtx {
    let mut ctx = CoreCtx::new(CoreId(core), Arc::new(CostModel::zero()));
    ctx.seek(Cycles(1)); // distinguish from setup time zero
    ctx
}

impl Rig {
    /// Builds a fresh rig: memory, engine, one pre-filled page per mapper
    /// (pattern + page-tail secret), and the yield hook installed on the
    /// rig's private telemetry handle.
    ///
    /// With `percore`, the hot allocation state is sharded per simulated
    /// core the way `netsim`'s `percore` configs shard it: the shadow pool
    /// gets per-core magazines, the tree-backed engines the per-core IOVA
    /// allocator, the deferred engines one pending list per mapper, and
    /// the IOMMU one invalidation queue per mapper. A strict unmap then
    /// waits only on its own queue and still returns with the IOTLB entry
    /// gone, and a deferred one still leaves its entry live until the
    /// flush, so every engine declares what it declares unsharded — and
    /// the explorer proves it.
    pub fn build(kind: EngineKind, mappers: usize, with_san: bool, percore: bool) -> Rig {
        assert!(mappers >= 1, "need at least one mapper");
        let obs = Obs::with_trace_capacity(4096);
        obs.set_trace_sampling(1);
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(256)));
        let queues = if percore { mappers } else { 1 };
        let mmu = Arc::new(Iommu::with_queues(obs.clone(), queues));
        let engine = build_engine(
            kind,
            mem.clone(),
            mmu.clone(),
            MC_DEV,
            mappers,
            percore,
            PoolConfig::default(),
        );
        // Always wrap in TracedDma so counterexample traces show the
        // map/unmap lifecycle; attach the sanitizer when cross-checking.
        let san = with_san.then(|| Arc::new(DmaSan::lenient(obs.clone())));
        let observer = san.clone().map(|san| san as Arc<dyn DmaObserver>);
        let engine: Arc<dyn DmaEngine> = Arc::new(TracedDma::new(engine, obs.clone(), observer));
        let profile = engine.profile();
        let bus = match kind {
            EngineKind::NoIommu => Bus::Direct(mem.clone()),
            _ => Bus::Iommu {
                mmu: mmu.clone(),
                mem: mem.clone(),
            },
        };
        let bus = match &san {
            Some(san) => bus.observed(san.clone() as Arc<dyn BusObserver>),
            None => bus,
        };

        // One page per mapper: pre-fill pattern over the buffer, secret in
        // the page tail (beyond the mapped length, §2.2.2's bait).
        let domain = mem.topology().domain_of_core(CoreId(0));
        let mut frames = Vec::new();
        for m in 0..mappers {
            let pfn = mem.alloc_frame(domain).expect("rig frame");
            let base = pfn.base();
            mem.fill(base, oracle::pre_fill(m), BUF_LEN)
                .expect("pre-fill");
            mem.write(base.add(TAIL_OFF as u64), &oracle::secret_magic(m))
                .expect("secret");
            let device_writes = m % 2 == 0;
            frames.push((m, base, device_writes));
        }
        let board = Arc::new(Board::new(&frames));
        // Yield hook last: rig setup above must not be schedule-controlled.
        Executor::install_hook(&obs);
        Rig {
            obs,
            mem,
            mmu,
            engine,
            bus: Arc::new(bus),
            board,
            san,
            profile,
            mappers,
            kind,
            percore,
        }
    }

    /// Spawns the rig's worker threads (mappers `0..mappers`, device
    /// `mappers`) onto `exec` and returns their join handles. The caller
    /// then drives the schedule via [`Executor::step`].
    pub fn spawn_workers(&self, exec: &Arc<Executor>) -> Vec<std::thread::JoinHandle<()>> {
        let mut handles = Vec::new();
        for m in 0..self.mappers {
            let exec = exec.clone();
            let engine = self.engine.clone();
            let mem = self.mem.clone();
            let board = self.board.clone();
            // An IOMMU engine that declares a window is one that leaves
            // invalidations pending after `unmap`: it gets the flush step.
            let deferred = self.profile.uses_iommu && !self.profile.no_vulnerability_window;
            handles.push(std::thread::spawn(move || {
                exec.run_worker(m, move || mapper_script(m, &engine, &mem, &board, deferred));
            }));
        }
        let exec2 = exec.clone();
        let tid = self.mappers;
        let bus = self.bus.clone();
        let mem = self.mem.clone();
        let board = self.board.clone();
        let mappers = self.mappers;
        handles.push(std::thread::spawn(move || {
            exec2.run_worker(tid, move || device_script(mappers, &bus, &mem, &board));
        }));
        handles
    }
}

impl fmt::Debug for Rig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rig")
            .field("kind", &self.kind)
            .field("mappers", &self.mappers)
            .field("percore", &self.percore)
            .finish()
    }
}

/// One mapper's lifecycle: map → publish open → unmap → publish closed →
/// OS reuses the buffer (post magic) → flush deferred invalidations.
fn mapper_script(
    m: usize,
    engine: &Arc<dyn DmaEngine>,
    mem: &Arc<PhysMemory>,
    board: &Arc<Board>,
    deferred: bool,
) {
    let mut ctx = zero_ctx(m as u16);
    let win = board.window(m);
    let dir = if win.device_writes {
        DmaDirection::FromDevice
    } else {
        DmaDirection::ToDevice
    };
    let mapping = engine
        .map(&mut ctx, DmaBuf::new(win.os_base, BUF_LEN), dir)
        .expect("dma_map");
    board.set_open(m, mapping.iova.get());
    Executor::op_yield("unmap");
    engine.unmap(&mut ctx, mapping).expect("dma_unmap");
    board.set_closed(m);
    // The OS reclaims the buffer for private data the instant unmap
    // returns — the deferred engines' vulnerability window is exactly
    // that this data is still device-reachable until the batched flush.
    let magic = oracle::post_magic(m);
    let mut reused = vec![0u8; BUF_LEN];
    for chunk in reused.chunks_mut(magic.len()) {
        chunk.copy_from_slice(&magic[..chunk.len()]);
    }
    mem.write(win.os_base, &reused).expect("OS reuse write");
    if deferred {
        Executor::op_yield("flush");
        engine.flush_deferred(&mut ctx);
    }
}

/// The device thread: two probes per mapper window, yielding between all
/// of them so the explorer can interleave each probe anywhere in the
/// mappers' lifecycles. Probe #1 typically lands in-window (warming the
/// IOTLB); probe #2 is the stale one when scheduled after that mapper's
/// unmap.
fn device_script(mappers: usize, bus: &Arc<Bus>, mem: &Arc<PhysMemory>, board: &Arc<Board>) {
    for m in 0..mappers {
        for probe_no in 0..2 {
            Executor::op_yield(&format!("probe{probe_no}-m{m}"));
            probe(m, probe_no, bus, mem, board);
        }
    }
}

/// One device access against mapper `m`'s window, classified by the
/// oracle. Writes (FromDevice windows) are diffed against before/after
/// snapshots of every mapper page; reads are scanned for leaked sentinels.
fn probe(m: usize, probe_no: usize, bus: &Arc<Bus>, mem: &Arc<PhysMemory>, board: &Arc<Board>) {
    let win = board.window(m);
    let Some(iova) = win.iova else {
        return; // mapper has not mapped yet; nothing to aim at
    };
    let label = format!("probe{probe_no}-m{m}");
    let window_open = win.state == WinState::Open;
    let violation;
    let granted;
    if win.device_writes {
        let payload = if window_open {
            [0xAAu8; 16]
        } else {
            [0xEEu8; 16]
        };
        let before = oracle::snapshot_pages(mem, board);
        granted = bus.write(MC_DEV, iova, &payload).is_ok();
        let after = oracle::snapshot_pages(mem, board);
        violation = oracle::classify_write_effects(board, &label, &before, &after);
    } else {
        let mut data = vec![0u8; PROBE_READ_LEN];
        granted = bus.read(MC_DEV, iova, &mut data).is_ok();
        violation = if granted {
            oracle::classify_read_leak(board, &label, m, &data)
        } else {
            None
        };
    }
    board.record_access(AccessRecord {
        probe: label,
        granted,
        window_open,
        violation: violation.as_ref().map(|v| v.class),
    });
    if let Some(v) = violation {
        board.record_violation(v);
    }
}
