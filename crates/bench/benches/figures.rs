//! The paper's evaluation in one run: Table 1, Figures 1 and 3–11, the §6
//! memory footprint and the ablations, each distinct configuration
//! simulated once into a `bench::Evidence`. Then every row of
//! `bench::TARGETS` (measured, paper, residual, verdict) is printed and
//! written to `target/figures.csv`; the exit status is non-zero if a claim
//! broke or a known miss started to hold. Takes no arguments.

// lint: allow(ambient-io) — writes target/figures.csv and sets the exit status

use bench::Work::{Kv, Rr, Rx, Tx};
use bench::{Evidence, Verdict, Work, MSG_SIZES, TARGETS};
use dma_api::{CoherentBuffer, DmaBuf, DmaDirection, DmaEngine, DmaError, DmaMapping};
use dma_api::{DeferPolicy, DeferredFlusher, FlushScope, InvalPolicy, IovaPolicy, MappedDma};
use iommu::{DeviceId, Iommu, Perms};
use memsim::{NumaDomain, NumaTopology, PhysMemory, PAGE_SIZE};
use netsim::{format_breakdown_us, format_table, EngineKind, ExpConfig, ExpResult, SimStack};
use shadow_core::{build_engine, IovaCodec, PoolConfig, ShadowPool};
use simcore::{CoreCtx, CoreId, CoreTask, CostModel, Cycles, MemcpyFlavor, MultiCoreSim};
use simcore::{Phase, StepOutcome};
use std::process::ExitCode;
use std::sync::Arc;
use EngineKind::{Copy as CP, IdentityMinus as IDM, IdentityPlus as IDP, NoIommu as NO};

const K64: usize = 64 * 1024;
/// No-iommu, copy, identity-, identity+: a figure's rows are read by position.
const FIGURE: [EngineKind; 4] = EngineKind::FIGURE_SET;

fn main() -> ExitCode {
    let mut e = Evidence::default();
    table1(&mut e);
    for cores in [1, 16] {
        let rows = EngineKind::ALL.map(|k| e.run(Rx, k, cores, 1500).clone());
        let title = format!("==== Figure 1: TCP RX throughput, 1500 B, {cores} core(s) ====");
        println!("{}", format_table(&title, &rows, "no iommu"));
    }
    figure(&mut e, "Figure 3: single-core TCP RX", Rx, 1);
    figure(&mut e, "Figure 4: single-core TCP TX", Tx, 1);
    breakdown(&mut e, "Figure 5a: single-core RX", Rx, 1);
    breakdown(&mut e, "Figure 5b: single-core TX", Tx, 1);
    figure(&mut e, "Figure 6: 16-core TCP RX", Rx, 16);
    figure(&mut e, "Figure 7: 16-core TCP TX", Tx, 16);
    breakdown(&mut e, "Figure 8a: 16-core RX", Rx, 16);
    breakdown(&mut e, "Figure 8b: 16-core TX", Tx, 16);
    latency(&mut e);
    memcached(&mut e);
    footprint(&mut e);
    hints(&mut e);
    memcpy(&mut e);
    huge(&mut e);
    batching(&mut e);
    selfinval(&mut e);
    classes(&mut e);
    multidev();
    claims(&e)
}

/// Table 1, observed by mounting every attack against every engine.
fn table1(e: &mut Evidence) {
    let matrix = attacks::run_matrix();
    println!("==== Table 1: protection properties (observed by attack) ====");
    println!("engine          iommu protect sub-page protect   no vulnerability win");
    let mark = |b: bool| if b { "+" } else { "-" };
    for r in &matrix {
        let (iommu, subpage) = (mark(r.iommu_protection), mark(r.sub_page_protect));
        let (engine, window) = (r.engine.name(), mark(r.no_vulnerability_window));
        println!("{engine:<12} {iommu:>16} {subpage:>16} {window:>22}");
    }
    println!("\nattack evidence:");
    for r in matrix.iter().flat_map(|row| &row.reports) {
        println!("  {r}");
    }
    println!();
    for (kind, iommu, subpage, window) in attacks::expected_table1() {
        let as_paper = matrix.iter().any(|r| {
            (r.engine, r.iommu_protection, r.sub_page_protect) == (kind, iommu, subpage)
                && r.no_vulnerability_window == window
        });
        e.table1_mismatches += f64::from(!as_paper);
    }
}

/// Figures 3, 4, 6 and 7: one table per message size, then copy's relative
/// throughput per size (the paper's "relative" panels).
fn figure(e: &mut Evidence, title: &str, work: Work, cores: usize) {
    println!("==== {title} (netperf TCP_STREAM) ====");
    let mut rel = Vec::new();
    for size in MSG_SIZES {
        let rows = FIGURE.map(|k| e.run(work, k, cores, size).clone());
        let table = format_table(&format!("message size {size} B"), &rows, "no iommu");
        println!("{table}");
        rel.push(format!("{size}B:{:.2}", rows[1].relative_gbps(&rows[0])));
    }
    println!("copy relative throughput vs no-iommu: {}\n", rel.join("  "));
}

/// Figures 5, 8 and 10: the per-phase busy time of one item at 64 KB.
fn breakdown(e: &mut Evidence, title: &str, work: Work, cores: usize) {
    println!("==== {title} breakdown (64 KB msgs) ====");
    for r in FIGURE.map(|k| e.run(work, k, cores, K64).clone()) {
        let phases = format_breakdown_us(&r.per_item, r.clock_ghz);
        let total = r.us_per_item();
        println!("{:<10} total {total:>7.2} us/item | {phases}", r.engine);
    }
    println!();
}

/// Figure 9, TCP_RR latency, and Figure 10, its CPU breakdown at 64 KB
/// (the same runs).
fn latency(e: &mut Evidence) {
    println!("==== Figure 9: TCP request/response latency ====");
    println!("engine      msgsize  latency(us)      rel     cpu%");
    let lat = |r: &ExpResult| r.latency_us.expect("RR reports latency");
    for size in MSG_SIZES {
        let rows = FIGURE.map(|k| e.run(Rr, k, 1, size).clone());
        for r in &rows {
            let (l, rel, cpu) = (lat(r), lat(r) / lat(&rows[0]), r.cpu * 100.0);
            println!("{:<10} {size:>8} {l:>12.1} {rel:>8.2} {cpu:>8.1}", r.engine);
        }
        println!();
    }
    breakdown(e, "Figure 10: TCP RR per-transaction CPU", Rr, 1);
    for r in FIGURE.map(|k| e.run(Rr, k, 1, K64).clone()) {
        let (cpu, l) = (r.cpu * 100.0, lat(&r));
        println!("{:<10} cpu {cpu:>5.1}%  latency {l:>6.1} us", r.engine);
    }
    println!();
}

/// Figure 11: memcached, 16 instances.
fn memcached(e: &mut Evidence) {
    println!("==== Figure 11: memcached (16 instances, memslap 90/10 GET/SET) ====");
    println!("engine              Mtx/s      rel     cpu%");
    let rows = FIGURE.map(|k| e.run(Kv, k, 16, 1024).clone());
    let tps = |r: &ExpResult| r.transactions_per_sec.expect("memcached reports Mtx/s");
    for r in &rows {
        let (t, rel, cpu) = (tps(r) / 1e6, tps(r) / tps(&rows[0]), r.cpu * 100.0);
        println!("{:<10} {t:>14.2} {rel:>8.2} {cpu:>8.1}", r.engine);
    }
    println!();
}

/// §6 "Memory consumption": the pool is bounded at 16 K buffers per class
/// per NUMA domain, 2 × (16K × 4 KB + 16K × 64 KB), but holds only what is
/// in flight: *copy*'s peak in the 64 KB throughput runs.
fn footprint(e: &mut Evidence) {
    let worst: u64 = 2 * (16 * 1024 * (4096 + 65536));
    println!("==== Shadow buffer memory consumption ====");
    let gb = worst as f64 / (1 << 30) as f64;
    println!("worst-case bound (16K buffers/class, 2 classes, 2 domains): {gb:.2} GB");
    for cores in [1, 16] {
        let [rx, tx] = [Rx, Tx].map(|w| e.run(w, CP, cores, K64).shadow_bytes_peak.unwrap_or(0));
        let [rx_mb, tx_mb] = [rx, tx].map(|b| b as f64 / (1 << 20) as f64);
        let [rx_x, tx_x] = [rx, tx].map(|b| worst.checked_div(b).unwrap_or(0));
        let below = format!("({rx_x}x / {tx_x}x below worst case)");
        println!(
            "{cores:>2} core(s): RX shadow footprint {rx_mb:>8.2} MB, TX {tx_mb:>8.2} MB {below}"
        );
    }
    println!();
}

/// The wrapped engine, minus the driver's report of what the device wrote:
/// what a driver that reports nothing gets, the full mapped length copied
/// back.
struct Unreported(Box<dyn DmaEngine>);

impl DmaEngine for Unreported {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn device(&self) -> DeviceId {
        self.0.device()
    }

    fn profile(&self) -> dma_api::ProtectionProfile {
        self.0.profile()
    }

    fn map(&self, ctx: &mut CoreCtx, buf: DmaBuf, d: DmaDirection) -> Result<DmaMapping, DmaError> {
        self.0.map(ctx, buf, d)
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

/// §5.4: packets much smaller than their MTU buffers, on single-core *copy*
/// RX, with the completion length forgotten by [`Unreported`] and reported
/// to `dma_unmap` (the default).
fn hints(e: &mut Evidence) {
    println!("==== Ablation: copying hints (§5.4), single-core RX ====");
    println!("configuration                    Gb/s     cpu%  memcpy us/pkt");
    for wire in [300, 700, 1400] {
        let cfg = ExpConfig {
            rx_wire_payload: Some(wire),
            ..ExpConfig::default()
        };
        let arms = [false, true].map(|reported| {
            let mut stack = SimStack::new(CP, &cfg);
            if !reported {
                let engine = Box::new(Unreported(stack.engine));
                stack = SimStack { engine, ..stack };
            }
            let r = netsim::tcp_stream_rx_on(&stack, &cfg);
            let length = if reported { "yes" } else { "no" };
            let arm = format!("{wire}B packets, length={length}");
            let (gbps, cpu) = (r.gbps, r.cpu * 100.0);
            let memcpy = r.per_item.get(Phase::Memcpy).to_micros(r.clock_ghz);
            println!("{arm:<26} {gbps:>10.2} {cpu:>8.1} {memcpy:>14.3}");
            r
        });
        e.hints.push((wire, arms));
    }
    println!();
}

/// §5.4: "smart memcpy" flavors on the copy-heavy single-core 64 KB TX.
fn memcpy(e: &mut Evidence) {
    use MemcpyFlavor::{Erms, NonTemporal, Simd};
    println!("==== Ablation: memcpy implementation (§5.4), single-core 64 KB TX ====");
    println!("flavor               Gb/s     cpu%  memcpy us/buf   other us/buf");
    for (name, flavor) in [
        ("erms", Erms),
        ("simd", Simd),
        ("non-temporal", NonTemporal),
    ] {
        let mut cfg = ExpConfig::default();
        cfg.cost.memcpy_flavor = flavor;
        // ERMS is the cost model's default: that row is Figure 4's copy run.
        let r = match flavor {
            Erms => e.run(Tx, CP, 1, K64).clone(),
            _ => netsim::tcp_stream_tx(CP, &cfg),
        };
        let us = |p| r.per_item.get(p).to_micros(r.clock_ghz);
        let (gbps, cpu, memcpy, other) =
            (r.gbps, r.cpu * 100.0, us(Phase::Memcpy), us(Phase::Other));
        println!("{name:<14} {gbps:>10.2} {cpu:>8.1} {memcpy:>14.2} {other:>14.2}");
    }
    println!();
}

/// §5.5: huge buffers — the hybrid head/tail-copy path vs strict zero-copy
/// mapping vs (modeled) full copying, µs per map+unmap.
fn huge(e: &mut Evidence) {
    println!("==== Ablation: huge DMA buffers (§5.5) ====");
    println!("size           hybrid us/op    identity+ us/op  full-copy us/op");
    let cost = Arc::new(CostModel::haswell_2_4ghz());
    let us = |c: Cycles| c.to_micros(cost.clock_ghz);
    for size in [128 * 1024, 512 * 1024, 2 * 1024 * 1024] {
        let mem = Arc::new(PhysMemory::new(NumaTopology::dual_socket_haswell()));
        let mmu = Arc::new(Iommu::new());
        let mut ctx = CoreCtx::new(CoreId(0), cost.clone());
        ctx.seek(Cycles(1));
        let frames = (size / PAGE_SIZE) as u64 + 1;
        let pfn = mem.alloc_frames(NumaDomain(0), frames).expect("frames");
        // Unaligned start so the hybrid path actually shadows head+tail.
        let buf = DmaBuf::new(pfn.base().add(100), size);
        let mut per_op = |kind| {
            let engine = engine(kind, &mem, &mmu, 0, 1);
            let start = ctx.now();
            for _ in 0..50 {
                let m = engine.map(&mut ctx, buf, DmaDirection::Bidirectional);
                engine.unmap(&mut ctx, m.expect("map")).expect("unmap");
            }
            us(ctx.now() - start) / 50.0
        };
        let (hybrid, ident) = (per_op(CP), per_op(IDP));
        // Full copy, what naive shadowing would do: both copies of the whole
        // buffer, pool bookkeeping and cache pollution.
        let copies = cost.memcpy(size, false) * 2 + cost.shadow_pool_op * 2;
        let full = us(copies) + us(cost.cache_pollution(size)) * 2.0;
        let label = format!("{}KB", size / 1024);
        println!("{label:<10} {hybrid:>16.2} {ident:>18.2} {full:>16.2}");
        e.huge.push([hybrid, ident, full]);
    }
    println!();
}

/// `kind` protecting device `dev` of a machine with `cores` cores, built as
/// the figures build it (global allocation state, the paper's pool).
fn engine(
    kind: EngineKind,
    mem: &Arc<PhysMemory>,
    mmu: &Arc<Iommu>,
    dev: u16,
    cores: usize,
) -> Box<dyn DmaEngine> {
    let pool = PoolConfig::default();
    build_engine(
        kind,
        mem.clone(),
        mmu.clone(),
        DeviceId(dev),
        cores,
        false,
        pool,
    )
}

/// `ops` map+unmap pairs of one 1500 B buffer on each core, core `i`
/// driving `engines[i]`; each core's clock stops at its last unmap.
fn storm(mem: &PhysMemory, engines: &[&dyn DmaEngine], ops: u64) -> MultiCoreSim {
    let mut sim = MultiCoreSim::new(Arc::new(CostModel::haswell_2_4ghz()), engines.len());
    for ctx in sim.ctxs_mut() {
        ctx.seek(Cycles(1));
    }
    let mut tasks: Vec<Box<dyn CoreTask + '_>> = Vec::new();
    for (i, &engine) in engines.iter().enumerate() {
        let domain = mem.topology().domain_of_core(CoreId(i as u16));
        let buf = DmaBuf::new(mem.alloc_frames(domain, 1).expect("buf").base(), 1500);
        let mut done = 0;
        tasks.push(Box::new(move |ctx: &mut CoreCtx| {
            let m = engine.map(ctx, buf, DmaDirection::FromDevice).expect("map");
            engine.unmap(ctx, m).expect("unmap");
            done += 1;
            if done < ops {
                StepOutcome::Continue
            } else {
                StepOutcome::Done
            }
        }));
    }
    sim.run(&mut tasks, Cycles::MAX);
    drop(tasks);
    sim
}

/// §2.2.1: stock Linux's one global deferred list and lock vs ATC'15's
/// per-core lists, as 16-core map/unmap throughput over identity placement.
fn batching(e: &mut Evidence) {
    const OPS: u64 = 30_000;
    println!("==== Ablation: deferred batching scope (§2.2.1), 16-core map/unmap ====");
    println!("scope               M map+unmap/s         spin us/op   deferred ops");
    let scopes = [
        ("global (Linux)", FlushScope::Global),
        ("per-core (ATC15)", FlushScope::PerCore),
    ];
    for (i, (name, scope)) in scopes.into_iter().enumerate() {
        let mem = Arc::new(PhysMemory::new(NumaTopology::dual_socket_haswell()));
        let mmu = Arc::new(Iommu::new());
        let (policy, obs) = (DeferPolicy::linux_default(), mmu.obs().clone());
        let flush = InvalPolicy::Deferred(DeferredFlusher::with_obs(policy, scope, 16, obs));
        let (dev, identity) = (DeviceId(0), IovaPolicy::identity());
        let engine = MappedDma::new("identity-", mem.clone(), mmu.clone(), dev, identity, flush);
        let sim = storm(&mem, &[&engine as &dyn DmaEngine; 16], OPS);
        let items = (OPS * 16) as f64;
        let end = sim.ctxs().iter().map(|c| c.now()).max().expect("16 cores");
        let mops = items / end.to_secs(2.4) / 1e6;
        let spin = sim.ctxs().iter().map(|c| c.breakdown.get(Phase::Spinlock));
        let spin = spin.map(|c| c.to_micros(2.4)).sum::<f64>() / items;
        let deferred = mmu.obs().counter("flush", "deferred_total", None).get();
        println!("{name:<18} {mops:>14.2} {spin:>18.4} {deferred:>14}");
        e.batching[i] = mops;
    }
    println!();
}

/// §7: Basu et al.'s self-invalidating IOMMU, modeled at its best case
/// (entries self-destruct at unmap, costing no CPU), vs the software
/// engines.
fn selfinval(e: &mut Evidence) {
    println!("==== Ablation: self-invalidating IOMMU hardware (§7) ====");
    for cores in [1, 16] {
        let rows = [NO, EngineKind::SelfInvalHw, CP, IDP].map(|k| e.run(Rx, k, cores, K64).clone());
        let title = format!("TCP RX, 64 KB messages, {cores} core(s)");
        println!("{}", format_table(&title, &rows, "no iommu"));
    }
}

/// §5.3's "one can have more size classes": the paper's 4 KB + 64 KB pool
/// vs one with a sub-page 2 KB class that packs two MTU shadow buffers per
/// page. It shows in the footprint of a full receive ring of 256 MTU
/// buffers, not in throughput.
fn classes(e: &mut Evidence) {
    println!("==== Ablation: shadow pool size classes (§5.3) ====");
    println!("pool classes                  256-slot ring footprint    RX Gb/s     cpu%");
    let codec = IovaCodec::new(6, 2, vec![2048, 4096, 65536]);
    let subpage = PoolConfig {
        codec,
        ..PoolConfig::default()
    };
    for (name, pool) in [
        ("4KB+64KB (paper)", None),
        ("2KB+4KB+64KB (subpage)", Some(subpage)),
    ] {
        let mem = Arc::new(PhysMemory::new(NumaTopology::dual_socket_haswell()));
        let (mmu, pool_cfg) = (Arc::new(Iommu::new()), pool.clone().unwrap_or_default());
        let shadows = ShadowPool::new(mem.clone(), mmu, DeviceId(0), pool_cfg);
        let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
        ctx.seek(Cycles(1));
        let os = mem.alloc_frames(NumaDomain(0), 1).expect("os buf").base();
        for _ in 0..256 {
            let slot = shadows.acquire_shadow(&mut ctx, DmaBuf::new(os, 1500), Perms::Write);
            slot.expect("ring slot");
        }
        let kb = shadows.stats().shadow_bytes as f64 / 1024.0;
        let cfg = ExpConfig {
            pool_config: pool,
            ..ExpConfig::default()
        };
        let r = match cfg.pool_config {
            None => e.run(Rx, CP, 1, K64).clone(),
            Some(_) => netsim::tcp_stream_rx(CP, &cfg),
        };
        let (gbps, cpu) = (r.gbps, r.cpu * 100.0);
        println!("{name:<26} {kb:>23.0} KB {gbps:>10.2} {cpu:>8.1}");
    }
    println!();
}

/// The invalidation queue is one global resource (§2.1), so one
/// strictly-protected device slows every other strict device. Cores 0–7
/// drive a victim NIC under the engine on the row; cores 8–15 drive a
/// second, identity+ NIC through the same IOMMU. (No no-iommu row: its
/// map/unmap are no-ops.)
fn multidev() {
    const OPS: u64 = 20_000;
    println!("==== Ablation: cross-device interference via the shared invalidation queue ====");
    println!("victim         alone (Mops/s)    w/ strict NIC B   slowdown");
    // The victim's aggregate M map+unmap/s, alone or with the neighbor.
    let mops = |victim, cores: usize| {
        let mem = Arc::new(PhysMemory::new(NumaTopology::dual_socket_haswell()));
        let mmu = Arc::new(Iommu::new());
        // Each NIC is driven by 8 cores.
        let (v, n) = (
            engine(victim, &mem, &mmu, 0, 8),
            engine(IDP, &mem, &mmu, 1, 8),
        );
        let engines: Vec<&dyn DmaEngine> =
            (0..cores).map(|i| if i < 8 { &*v } else { &*n }).collect();
        let sim = storm(&mem, &engines, OPS);
        let end = sim.ctxs()[..8].iter().map(|c| c.now()).max();
        let end = end.expect("8 victims");
        (8 * OPS) as f64 / end.to_secs(2.4) / 1e6
    };
    for victim in [CP, IDM, IDP] {
        let (alone, noisy) = (mops(victim, 8), mops(victim, 16));
        let slowdown = alone / noisy;
        let victim = victim.name();
        println!("{victim:<12} {alone:>16.2} {noisy:>18.2} {slowdown:>9.2}x");
    }
    println!();
}

/// Evaluates every claim, prints and writes the rows, and turns a broken
/// claim or a stale known miss into a non-zero exit.
fn claims(e: &Evidence) -> ExitCode {
    println!("==== The paper's claims (bench::TARGETS) ====");
    println!(
        "{:<42} {:<7} {:>10} {:<16} {:>10}  verdict",
        "id", "paper §", "measured", "paper", "residual"
    );
    let mut csv = String::from("id,measured,paper,residual,verdict\n");
    let mut failed = 0;
    for t in TARGETS {
        let (measured, verdict) = t.evaluate(e);
        let (id, section, paper) = (t.id, t.section, format!("{:?}", t.paper));
        let residual = measured - t.paper.reference();
        let why = t.miss.map(|w| format!(" ({w})")).unwrap_or_default();
        let cells = format!("{measured:>10.3} {paper:<16} {residual:>+10.3}");
        println!("{id:<42} {section:<7} {cells}  {verdict:?}{why}");
        csv += &format!("{id},{measured:.4},\"{paper}\",{residual:.4},{verdict:?}\n");
        failed += usize::from(!matches!(verdict, Verdict::Holds | Verdict::ExpectedMiss));
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    std::fs::create_dir_all(&dir).expect("create target dir");
    std::fs::write(dir.join("figures.csv"), csv).expect("write figures.csv");
    let rows = TARGETS.len();
    println!("\n{rows} claims, {failed} failed; rows written to target/figures.csv");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
