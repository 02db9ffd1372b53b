//! Host-work goldens: what the program *does* to produce the figures —
//! heap allocations, simulated-lock acquisitions, IOTLB lookups,
//! invalidation commands, frame and slab calls, bytes memcpy'd, trace
//! events and every `obs` counter — pinned exactly for every engine on
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

#[global_allocator]
static ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

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

/// Runs `f` and returns its result with the heap allocations and bytes it
/// made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (allocs, bytes) = alloc_count::totals();
    let out = f();
    let (allocs_after, bytes_after) = alloc_count::totals();
    (out, allocs_after - allocs, bytes_after - bytes)
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
    let ((stack, result), allocs, alloc_bytes) = counted(|| {
        let stack = SimStack::new(kind, &cfg);
        let result = (w.run)(&stack, &cfg);
        (stack, result)
    });
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
    assert!(allocs > 0, "{kind}: no heap allocation counted");
    if kind != EngineKind::NoIommu {
        let maps = snap.counter("dma", "maps", Some(NIC_DEV.0));
        assert!(maps.unwrap_or(0) > 0, "{kind}: dma.maps reads {maps:?}");
        assert!(iotlb.hits + iotlb.misses > 0, "{kind}: no IOTLB lookup");
    }

    let prefix = format!("{} percore={} {:?}", w.name, u8::from(percore), kind.name());
    let mut lines = vec![
        format!("run items={} bytes={}", result.items, result.bytes),
        format!("heap allocs={allocs} bytes={alloc_bytes}"),
        format!("simlock invalq={invalq_lock} iova={iova_lock}"),
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
            "frames allocs={} frees={} copied_bytes={}",
            frames.allocs, frames.frees, frames.copied_bytes
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
    let ((), allocs, bytes) = counted(|| drop(std::hint::black_box(Box::new(0u64))));
    assert!(
        allocs >= 1 && bytes >= 8,
        "the counting allocator is not installed: a Box moved allocs by {allocs}, bytes by {bytes}"
    );

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
