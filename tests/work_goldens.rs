//! Host-work goldens: what the program *does* to produce the figures —
//! heap allocations and peak live heap bytes, simulated-lock
//! acquisitions, host lock holds (`simcore::sync::holds`), IOTLB lookups,
//! invalidation commands, frame and slab calls, bytes memcpy'd and zeroed,
//! trace events and every `obs` counter — pinned exactly for every engine on
//! quick-scale RX (16 cores, MTU) and TX (1 core, 64 KB), with
//! `ExpConfig::percore` off and on, and for *copy* on RR (1 core, 64 B),
//! where the copy-back is bounded by what arrived, and on memcached
//! (16 cores, 1 KB values), where RX and TX interleave under contention.
//! All of it is counted by the code already and is deterministic per
//! seed, so the comparison is string equality with no tolerance: one
//! more allocation per packet or one more lock hold per unmap fails on the
//! first run, which a wall-clock band cannot promise. Host *time* is
//! measured in one place, the standalone `benchmark/` package.
//!
//! `harness = false`: the allocation counter is process-wide, so this is
//! the process's only thread. An intended change is blessed like the engine
//! goldens (see `golden/mod.rs`).

/// The benchmark's counting allocator, shared read-only.
#[path = "../benchmark/src/alloc_count.rs"]
mod alloc_count;
mod golden;

use dma_shadowing::devices::MTU;
use dma_shadowing::netsim::{
    memcached_on, tcp_rr_on, tcp_stream_rx_on, tcp_stream_tx_on, EngineKind, ExpConfig, ExpResult,
    SimStack, NIC_DEV,
};
use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

// Statistics only, on the process's one thread: `Relaxed` is enough.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The benchmark's counting allocator, also tracking the live heap bytes
/// and their peak, so a footprint regression fails like an extra
/// allocation does.
struct PeakAlloc;

fn grown(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to
// `CountingAlloc`, which upholds the `GlobalAlloc` contract; the counters
// never touch the memory being managed.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        let p = unsafe { alloc_count::CountingAlloc.alloc(layout) };
        if !p.is_null() {
            grown(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { alloc_count::CountingAlloc.alloc_zeroed(layout) };
        if !p.is_null() {
            grown(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`, as
        // the caller guarantees.
        unsafe { alloc_count::CountingAlloc.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator with `layout`; `new_size`
        // obeys the caller's `realloc` obligations.
        let p = unsafe { alloc_count::CountingAlloc.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            grown(new_size as u64);
        }
        p
    }
}

const GOLDEN: golden::Golden = golden::Golden {
    name: "work_goldens",
    text: include_str!("fixtures/work_goldens.txt"),
};

struct Workload {
    name: &'static str,
    run: fn(&SimStack, &ExpConfig) -> ExpResult,
    cores: usize,
    msg_size: usize,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "rx_mtu_16c",
        run: tcp_stream_rx_on,
        cores: 16,
        msg_size: MTU,
    },
    Workload {
        name: "tx_64k_1c",
        run: tcp_stream_tx_on,
        cores: 1,
        msg_size: 64 * 1024,
    },
];

/// The heap work of one call: allocations, bytes requested, and the peak
/// of the live bytes it added.
struct Heap {
    allocs: u64,
    bytes: u64,
    peak: u64,
}

/// Runs `f` and returns its result with the heap work it did.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Heap) {
    let (allocs, bytes) = alloc_count::totals();
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let out = f();
    let (allocs_after, bytes_after) = alloc_count::totals();
    let heap = Heap {
        allocs: allocs_after - allocs,
        bytes: bytes_after - bytes,
        peak: PEAK.load(Ordering::Relaxed) - live,
    };
    (out, heap)
}

/// The fixture lines of one (workload, percore, engine): the stack's whole
/// life up to the end of the run, ring setup and warm-up included.
fn rows(w: &Workload, percore: bool, kind: EngineKind) -> Vec<String> {
    let cfg = ExpConfig {
        cores: w.cores,
        msg_size: w.msg_size,
        percore,
        ..ExpConfig::quick()
    };
    let holds = dma_shadowing::simcore::sync::holds();
    let ((stack, result), heap) = counted(|| {
        let stack = SimStack::new(kind, &cfg);
        let result = (w.run)(&stack, &cfg);
        (stack, result)
    });
    let host_locks = dma_shadowing::simcore::sync::holds() - holds;
    let snap = stack.obs.registry().snapshot();
    let invalq_lock = stack.mmu.invalq().lock_stats().acquisitions;
    let iova_lock = stack
        .engine
        .iova_lock_stats()
        .map_or("-".to_string(), |(_, s)| s.acquisitions.to_string());
    let iotlb = stack.mmu.iotlb_stats();
    let invalq = stack.mmu.invalq().stats();
    let frames = stack.mem.stats();
    let slab = stack.kmalloc.stats();
    let trace = stack.obs.tracer().stats();

    // A read-out that is not wired reads zeros, and a fixture of zeros
    // would pass forever.
    assert!(heap.allocs > 0, "{kind}: no heap allocation counted");
    if kind != EngineKind::NoIommu {
        let maps = snap.counter("dma", "maps", Some(NIC_DEV.0));
        assert!(maps.unwrap_or(0) > 0, "{kind}: dma.maps reads {maps:?}");
        assert!(iotlb.hits + iotlb.misses > 0, "{kind}: no IOTLB lookup");
    }

    let prefix = format!("{} percore={} {:?}", w.name, u8::from(percore), kind.name());
    let mut lines = vec![
        format!("run items={} bytes={}", result.items, result.bytes),
        format!(
            "heap allocs={} bytes={} peak={}",
            heap.allocs, heap.bytes, heap.peak
        ),
        format!("simlock invalq={invalq_lock} iova={iova_lock}"),
        format!("host_locks holds={host_locks}"),
        format!(
            "iotlb hits={} misses={} page_invalidations={} global_invalidations={} evictions={}",
            iotlb.hits,
            iotlb.misses,
            iotlb.page_invalidations,
            iotlb.global_invalidations,
            iotlb.evictions
        ),
        format!(
            "invalq page_commands={} flush_commands={} waits={}",
            invalq.page_commands, invalq.flush_commands, invalq.waits
        ),
        format!(
            "frames allocs={} frees={} copied_bytes={} zeroed_bytes={}",
            frames.allocs, frames.frees, frames.copied_bytes, frames.zeroed_bytes
        ),
        format!("kmalloc allocs={} frees={}", slab.allocs, slab.frees),
        format!(
            "trace retained={} sampled_out={} dropped={}",
            trace.retained, trace.sampled_out, trace.dropped
        ),
    ];
    // One line per obs subsystem; the snapshot is sorted by key.
    let mut subsystem = "";
    for (key, value) in &snap.counters {
        if key.subsystem != subsystem {
            subsystem = key.subsystem;
            lines.push("obs".to_string());
        }
        let line = lines.last_mut().expect("pushed above");
        line.push_str(&format!(" {key}={value}"));
    }
    lines.iter().map(|l| format!("{prefix} {l}")).collect()
}

fn main() {
    let (boxed, heap) = counted(|| std::hint::black_box(Box::new(0u64)));
    assert!(
        heap.allocs >= 1 && heap.bytes >= 8 && heap.peak >= 8,
        "the counting allocator is not installed: a Box moved allocs by {}, bytes by {}, peak by {}",
        heap.allocs,
        heap.bytes,
        heap.peak
    );
    drop(boxed);

    let engines = EngineKind::ALL.into_iter().chain([EngineKind::SelfInvalHw]);
    let mut actual = Vec::new();
    for w in &WORKLOADS {
        for percore in [false, true] {
            for kind in engines.clone() {
                actual.extend(rows(w, percore, kind));
            }
        }
    }
    // 64 B each way in an MTU receive buffer: the row that moves if the
    // copy-back goes back to the mapped length, or starts allocating.
    let rr = Workload {
        name: "rr_64b_1c",
        run: tcp_rr_on,
        cores: 1,
        msg_size: 64,
    };
    actual.extend(rows(&rr, false, EngineKind::Copy));
    let kv = Workload {
        name: "kv_1k_16c",
        run: memcached_on,
        cores: 16,
        msg_size: 1024,
    };
    actual.extend(rows(&kv, false, EngineKind::Copy));
    GOLDEN.check("", &actual, || actual.clone());
    println!("work goldens: {} rows match exactly", actual.len());
}
