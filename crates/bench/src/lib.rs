//! # bench — the paper's evaluation as data
//!
//! `cargo bench -p bench --bench figures` regenerates every table and figure
//! of the paper's evaluation and the ablations DESIGN.md calls out, running
//! each distinct configuration once into an [`Evidence`], then checks it
//! against [`TARGETS`], one row per claim of the paper (EXPERIMENTS.md cites
//! each by id). `--bench scaling` is the core-count sweep. Both report
//! simulated numbers only; host time is measured by `benchmark/`.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use netsim::{EngineKind, ExpConfig, ExpResult};
use simcore::Phase::{
    self, CopyMgmt, InvalidateIotlb, IommuPageTableMgmt, Memcpy, Other, Spinlock,
};
use std::collections::HashMap;
use EngineKind::{Copy as CP, IdentityMinus as IDM, IdentityPlus as IDP, NoIommu as NO};
use EngineKind::{EiovarDefer, EiovarStrict, LinuxDefer, LinuxStrict, SelfInvalHw};
use Paper::{AtLeast, AtMost, Below, Near, Within};
use Work::{Kv, Rr, Rx, Tx};

/// The message sizes on the x-axis of Figures 3, 4, 6, 7 and 9.
pub const MSG_SIZES: [usize; 6] = [64, 256, 1024, 4096, 16 * 1024, K64];
const K64: usize = 64 * 1024;

/// A workload: netperf TCP_STREAM receive or transmit, TCP_RR on one core,
/// or memcached under memslap.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Work {
    Rx,
    Tx,
    Rr,
    Kv,
}

/// What the claims are measured on: the workload runs, keyed by (workload,
/// engine, cores, message size) so that no point is simulated twice, and
/// what the ablations that are not workload runs report.
#[derive(Debug, Default)]
pub struct Evidence {
    runs: HashMap<(Work, &'static str, usize, usize), ExpResult>,
    /// Table 1 rows (engines) the mounted attacks decide unlike the paper.
    pub table1_mismatches: f64,
    /// §5.4, per packet size: copy RX with the completion length forgotten
    /// and reported.
    pub hints: Vec<(usize, [ExpResult; 2])>,
    /// §5.5, per buffer size, ascending: µs per map+unmap for the hybrid
    /// path, identity+ and a full copy.
    pub huge: Vec<[f64; 3]>,
    /// §2.2.1: M map+unmap/s on 16 cores, global and per-core deferred lists.
    pub batching: [f64; 2],
}

/// The configuration of one figure point. Stream runs take 20 000 items per
/// core on one core and 4 000 on more; RR and memcached take 3 000; each
/// warms up on a tenth as many.
fn config(work: Work, cores: usize, size: usize) -> ExpConfig {
    let items = match work {
        Rx | Tx if cores > 1 => 4_000,
        Rx | Tx => 20_000,
        Rr | Kv => 3_000,
    };
    ExpConfig {
        cores,
        msg_size: size,
        items_per_core: items,
        warmup_per_core: items / 10,
        ..ExpConfig::default()
    }
}

impl Evidence {
    /// The run of `work` on `kind` at one point, simulated on first use with
    /// the point's configuration (`config`).
    pub fn run(&mut self, work: Work, kind: EngineKind, cores: usize, size: usize) -> &ExpResult {
        let workload = match work {
            Rx => netsim::tcp_stream_rx,
            Tx => netsim::tcp_stream_tx,
            Rr => netsim::tcp_rr,
            Kv => netsim::memcached,
        };
        let key = (work, kind.name(), cores, size);
        self.runs
            .entry(key)
            .or_insert_with(|| workload(kind, &config(work, cores, size)))
    }

    /// Records a run made elsewhere, under its own engine, cores and size.
    pub fn insert(&mut self, work: Work, r: ExpResult) {
        self.runs.insert((work, r.engine, r.cores, r.msg_size), r);
    }

    /// A run already made; panics if a target reads a point nothing ran.
    pub fn get(&self, work: Work, kind: EngineKind, cores: usize, size: usize) -> &ExpResult {
        let missing = || panic!("no {work:?} run of {kind} at {cores} cores, {size} B");
        self.runs
            .get(&(work, kind.name(), cores, size))
            .unwrap_or_else(missing)
    }
}

/// What the paper says a measured quantity is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Paper {
    /// A value the paper plots or quotes as "≈": it holds within ±10 %,
    /// the precision of reading a bar or a rounded number.
    Near(f64),
    /// A range the paper states, compared at two decimals, the precision
    /// the figures print ratios at (1.2001 is 1.20, inside 1.1–1.2).
    Within(f64, f64),
    /// At least this much.
    AtLeast(f64),
    /// At most this much.
    AtMost(f64),
    /// Strictly below this: an equal reading breaks the claim.
    Below(f64),
}

impl Paper {
    /// Whether `measured` satisfies the relation (never for NaN).
    pub fn holds(self, measured: f64) -> bool {
        match self {
            Near(v) => (measured - v).abs() <= 0.1 * v.abs(),
            Within(lo, hi) => (lo..=hi).contains(&((measured * 100.0).round() / 100.0)),
            AtLeast(v) => measured >= v,
            AtMost(v) => measured <= v,
            Below(v) => measured < v,
        }
    }

    /// Where a residual is taken from: the value, the midpoint, the bound.
    pub fn reference(self) -> f64 {
        match self {
            Near(v) | AtLeast(v) | AtMost(v) | Below(v) => v,
            Within(lo, hi) => (lo + hi) / 2.0,
        }
    }
}

/// One claim of the paper the reproduction is held to.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// `<figure>.<point>.<quantity>`: the first segment names the figure
    /// (`table1`, `fig4`, `mem` for §6's footprint, or the ablation).
    pub id: &'static str,
    /// The paper's section that makes the claim.
    pub section: &'static str,
    /// What the paper says.
    pub paper: Paper,
    /// The measured quantity.
    pub measure: fn(&Evidence) -> f64,
    /// For a known miss, why the reproduction misses.
    pub miss: Option<&'static str>,
}

/// How one row came out: a claim that holds or a known miss that misses
/// passes; a broken claim, or a known miss that holds (a stale mark),
/// fails.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Holds,
    ExpectedMiss,
    Broken,
    Stale,
}

impl Target {
    /// The measured value and its verdict.
    pub fn evaluate(&self, e: &Evidence) -> (f64, Verdict) {
        let measured = (self.measure)(e);
        let verdict = match (self.paper.holds(measured), self.miss.is_some()) {
            (true, false) => Verdict::Holds,
            (false, true) => Verdict::ExpectedMiss,
            (false, false) => Verdict::Broken,
            (true, true) => Verdict::Stale,
        };
        (measured, verdict)
    }
}

/// A figure point: workload, cores, message size.
type Point = (Work, usize, usize);

const RX1_MTU: Point = (Rx, 1, 1500);
const RX16_MTU: Point = (Rx, 16, 1500);
const RX1_256: Point = (Rx, 1, 256);
const RX1_64K: Point = (Rx, 1, K64);
const RX16_64K: Point = (Rx, 16, K64);
const TX1_256: Point = (Tx, 1, 256);
const TX1_64K: Point = (Tx, 1, K64);
const TX16_64K: Point = (Tx, 16, K64);
const RR_1K: Point = (Rr, 1, 1024);
const RR_64K: Point = (Rr, 1, K64);
const KV: Point = (Kv, 16, 1024);

const FIGURE: [EngineKind; 4] = EngineKind::FIGURE_SET;
const ZERO_COPY: [EngineKind; 2] = [IDM, IDP];
const NOT_STRICT: [EngineKind; 7] = [NO, CP, IDM, IDP, EiovarDefer, EiovarStrict, LinuxDefer];
const IOMMU: [Phase; 3] = [Spinlock, InvalidateIotlb, IommuPageTableMgmt];

const GBPS: fn(&ExpResult) -> f64 = |r| r.gbps;
const CPU: fn(&ExpResult) -> f64 = |r| r.cpu;
const LATENCY: fn(&ExpResult) -> f64 = |r| r.latency_us.unwrap_or(f64::NAN);
const TPS: fn(&ExpResult) -> f64 = |r| r.transactions_per_sec.unwrap_or(f64::NAN);
const MEMCPY: fn(&ExpResult) -> f64 = |r| r.per_item.get(Memcpy).get() as f64;

fn at(e: &Evidence, (w, cores, size): Point, kind: EngineKind) -> &ExpResult {
    e.get(w, kind, cores, size)
}

/// `f` of engine `a` over `f` of engine `b` at one point.
fn ratio(e: &Evidence, p: Point, f: fn(&ExpResult) -> f64, a: EngineKind, b: EngineKind) -> f64 {
    f(at(e, p, a)) / f(at(e, p, b))
}

/// The least (`f64::min`) or greatest (`f64::max`) `f` of any of `kinds` at
/// any of `points`.
fn over(
    e: &Evidence,
    points: &[Point],
    kinds: &[EngineKind],
    f: fn(&ExpResult) -> f64,
    pick: fn(f64, f64) -> f64,
) -> f64 {
    let all = points
        .iter()
        .flat_map(|&p| kinds.iter().map(move |&k| f(at(e, p, k))));
    all.reduce(pick).unwrap_or(f64::NAN)
}

/// µs per item spent in `phases`.
fn us(r: &ExpResult, phases: &[Phase]) -> f64 {
    phases
        .iter()
        .map(|&p| r.per_item.get(p).to_micros(r.clock_ghz))
        .sum()
}

/// `f` of the hint ablation's reported arm over its unreported arm, folded
/// over packet sizes by `pick`.
fn hint_arms(e: &Evidence, f: fn(&ExpResult) -> f64, pick: fn(f64, f64) -> f64) -> f64 {
    e.hints
        .iter()
        .map(|(_, [off, on])| f(on) / f(off))
        .reduce(pick)
        .unwrap_or(f64::NAN)
}

/// A row the reproduction holds.
const fn row(
    id: &'static str,
    section: &'static str,
    paper: Paper,
    measure: fn(&Evidence) -> f64,
) -> Target {
    Target {
        id,
        section,
        paper,
        measure,
        miss: None,
    }
}

/// A row the reproduction is known to miss, and why.
const fn miss(
    id: &'static str,
    section: &'static str,
    paper: Paper,
    measure: fn(&Evidence) -> f64,
    why: &'static str,
) -> Target {
    Target {
        id,
        section,
        paper,
        measure,
        miss: Some(why),
    }
}

/// The paper's claims, one row each; EXPERIMENTS.md cites every id. A known
/// miss carries its reason (the deviation number refers to EXPERIMENTS.md's
/// "Summary of deviations") and must keep missing. This is the one place the
/// paper's bands are stated: `tests/experiments.rs` evaluates these rows on
/// its smaller runs rather than keeping bands of its own.
#[rustfmt::skip]
pub const TARGETS: &[Target] = &[
    // Table 1: the mounted attacks decide every cell.
    row("table1.engines_unlike_paper", "§3", AtMost(0.0), |e| e.table1_mismatches),
    // Figure 1: Linux TCP RX, 1500 B packets, all eight engines.
    row("fig1.rx1c.copy_vs_identity_minus", "§1", Near(1.1), |e| ratio(e, RX1_MTU, GBPS, CP, IDM)),
    row("fig1.rx1c.copy_vs_identity_plus", "§1", Near(2.0), |e| ratio(e, RX1_MTU, GBPS, CP, IDP)),
    row("fig1.rx.strict_vs_slowest_other", "§1", AtMost(1.0), |e| {
        let vs = |p| at(e, p, LinuxStrict).gbps / over(e, &[p], &NOT_STRICT, GBPS, f64::min);
        vs(RX1_MTU).max(vs(RX16_MTU))
    }),
    row("fig1.rx16c.copy_vs_identity_plus", "§1", Near(5.0), |e| ratio(e, RX16_MTU, GBPS, CP, IDP)),
    row("fig1.rx16c.identity_plus_gbps", "§1", Near(7.0), |e| at(e, RX16_MTU, IDP).gbps),
    miss("fig1.rx16c.defer_gbps", "§1", Near(20.0), |e| at(e, RX16_MTU, LinuxDefer).gbps,
        "deviation 7: no constant is fitted to defer's 16-core rate"),
    miss("fig1.rx16c.strict_gbps", "§1", Within(2.0, 3.0), |e| at(e, RX16_MTU, LinuxStrict).gbps,
        "deviation 2: FIFO-perfect simulated locks collapse less than real spinlocks"),
    // Figure 3: single-core RX vs message size.
    row("fig3.rx256.slowest_vs_fastest", "§6", Near(1.0), |e| {
        over(e, &[RX1_256], &FIGURE, GBPS, f64::min) / over(e, &[RX1_256], &FIGURE, GBPS, f64::max)
    }),
    row("fig3.rx256.copy_relcpu", "§6", Within(1.1, 1.2), |e| ratio(e, RX1_256, CPU, CP, NO)),
    miss("fig3.rx256.identity_plus_relcpu", "§6", Within(1.3, 1.7), |e| ratio(e, RX1_256, CPU, IDP, NO),
        "deviation 7: identity+'s 0.85 us of IOMMU work lands on a 0.65 us packet"),
    row("fig3.rx64k.copy_vs_noiommu", "§6", Near(0.76), |e| ratio(e, RX1_64K, GBPS, CP, NO)),
    row("fig3.rx64k.copy_vs_identity_minus", "§6", Near(1.1), |e| ratio(e, RX1_64K, GBPS, CP, IDM)),
    row("fig3.rx64k.copy_vs_identity_plus", "§6", Near(2.0), |e| ratio(e, RX1_64K, GBPS, CP, IDP)),
    // Figure 4: single-core TX vs message size; at 64 KB (TSO) zero-copy wins.
    row("fig4.tx256.copy_vs_identity_minus", "§6", Near(1.0), |e| ratio(e, TX1_256, GBPS, CP, IDM)),
    row("fig4.tx64k.copy_cpu", "§6", AtLeast(0.99), |e| at(e, TX1_64K, CP).cpu),
    row("fig4.tx64k.others_max_cpu", "§6", Below(0.99), |e| over(e, &[TX1_64K], &[NO, IDM, IDP], CPU, f64::max)),
    row("fig4.tx64k.copy_vs_slowest_zero_copy", "§6", Below(1.0), |e| {
        at(e, TX1_64K, CP).gbps / over(e, &[TX1_64K], &ZERO_COPY, GBPS, f64::min)
    }),
    row("fig4.tx64k.slowest_zero_copy_vs_noiommu", "§6", AtLeast(0.99), |e| {
        over(e, &[TX1_64K], &ZERO_COPY, GBPS, f64::min) / at(e, TX1_64K, NO).gbps
    }),
    miss("fig4.tx64k.copy_vs_noiommu", "§6", Within(0.8, 0.9), |e| ratio(e, TX1_64K, GBPS, CP, NO),
        "deviation 6: no-iommu's TX CPU is 56.8 % where the paper implies ~71 %"),
    miss("fig4.tx64k.copy_relcpu", "§6", Near(1.4), |e| ratio(e, TX1_64K, CPU, CP, NO),
        "deviation 6: no-iommu's TX CPU is 56.8 % where the paper implies ~71 %"),
    // Figure 5: single-core per-packet breakdown, 64 KB messages.
    row("fig5.rx.copy_mgmt_us", "§6", Near(0.02), |e| us(at(e, RX1_64K, CP), &[CopyMgmt])),
    row("fig5.rx.copy_memcpy_us", "§6", Near(0.11), |e| us(at(e, RX1_64K, CP), &[Memcpy])),
    row("fig5.rx.identity_plus_inval_us", "§6", Near(0.61), |e| us(at(e, RX1_64K, IDP), &[InvalidateIotlb])),
    row("fig5.rx.identity_plus_pagetable_us", "§6", Near(0.17), |e| us(at(e, RX1_64K, IDP), &[IommuPageTableMgmt])),
    row("fig5.rx.inval_vs_memcpy", "§6", Near(5.5), |e| {
        us(at(e, RX1_64K, IDP), &[InvalidateIotlb]) / us(at(e, RX1_64K, CP), &[Memcpy])
    }),
    row("fig5.tx.copy_memcpy_us", "§6", Near(4.65), |e| us(at(e, TX1_64K, CP), &[Memcpy])),
    row("fig5.tx.copy_pollution_us", "§6", Near(2.0), |e| us(at(e, TX1_64K, CP), &[Other]) - us(at(e, TX1_64K, NO), &[Other])),
    miss("fig5.tx.identity_plus_iommu_us", "§6", Near(4.6), |e| us(at(e, TX1_64K, IDP), &IOMMU),
        "deviation 7: TX page-table work is 16 pages at RX's fitted 0.17 us each"),
    // Figure 6: 16-core RX; identity+ collapses on the invalidation-queue lock.
    row("fig6.rx64k.noiommu_vs_identity_plus", "§6", Near(5.0), |e| ratio(e, RX16_64K, GBPS, NO, IDP)),
    row("fig6.rx.identity_plus_flat", "§6", Near(1.0), |e| {
        let sizes = MSG_SIZES.map(|s| (Rx, 16, s));
        over(e, &sizes, &[IDP], GBPS, f64::min) / over(e, &sizes, &[IDP], GBPS, f64::max)
    }),
    row("fig6.rx.identity_plus_min_cpu", "§6", AtLeast(0.99), |e| over(e, &MSG_SIZES.map(|s| (Rx, 16, s)), &[IDP], CPU, f64::min)),
    row("fig6.rx.others_max_cpu", "§6", Below(0.99), |e| over(e, &MSG_SIZES.map(|s| (Rx, 16, s)), &[NO, CP, IDM], CPU, f64::max)),
    // Figure 7: 16-core TX; TSO lets identity+ reach the wire.
    row("fig7.tx64k.identity_plus_vs_noiommu", "§6", Near(1.0), |e| ratio(e, TX16_64K, GBPS, IDP, NO)),
    // Figure 8: 16-core breakdown, 64 KB messages.
    miss("fig8.rx.identity_plus_spin_us", "§6", Near(70.0), |e| us(at(e, RX16_64K, IDP), &[Spinlock]),
        "deviation 2: FIFO-perfect simulated locks collapse less than real spinlocks"),
    miss("fig8.rx.identity_plus_inval_us", "§6", Near(2.7), |e| us(at(e, RX16_64K, IDP), &[InvalidateIotlb]),
        "deviation 2: the hardware part is fitted to ~1.5 us; the rest is lock queueing"),
    row("fig8.rx.spin_vs_tx_memcpy", "§6", AtLeast(1.0), |e| {
        us(at(e, RX16_64K, IDP), &[Spinlock]) / us(at(e, TX16_64K, CP), &[Memcpy])
    }),
    // Figure 9: TCP_RR latency; the designs are comparable.
    row("fig9.rr1k.copy_vs_noiommu", "§6", Near(1.0), |e| ratio(e, RR_1K, LATENCY, CP, NO)),
    miss("fig9.rr1k.identity_plus_vs_noiommu", "§6", Near(1.0), |e| ratio(e, RR_1K, LATENCY, IDP, NO),
        "deviation 3: the invalidation waits sit on a 9.5 us RTT, not a ~17 us one"),
    miss("fig9.rr64k.copy_vs_noiommu", "§6", Near(1.0), |e| ratio(e, RR_64K, LATENCY, CP, NO),
        "deviation 3: the response's 44 copy-backs serialise into the RTT"),
    miss("fig9.rr64k.identity_plus_vs_noiommu", "§6", Near(1.0), |e| ratio(e, RR_64K, LATENCY, IDP, NO),
        "deviation 3: the response's 44 invalidations serialise into the RTT"),
    // Figure 10: RR CPU breakdown, 64 KB (Figure 9's runs).
    row("fig10.rr64k.identity_plus_iommu_share", "§6", Near(0.5), |e| {
        let r = at(e, RR_64K, IDP);
        us(r, &IOMMU) / r.us_per_item()
    }),
    row("fig10.rr64k.copy_busy_share", "§6", Near(0.2), |e| {
        let r = at(e, RR_64K, CP);
        us(r, &[CopyMgmt, Memcpy]) / r.us_per_item()
    }),
    miss("fig10.rr64k.copy_wall_share", "§6", AtMost(0.1), |e| {
        let r = at(e, RR_64K, CP);
        us(r, &[CopyMgmt, Memcpy]) / LATENCY(r)
    }, "deviation 7: the RR core is 68.7 % busy, so 21 % of busy time is 15 % of the RTT"),
    // Figure 11: memcached, 16 instances.
    miss("fig11.kv.copy_vs_noiommu", "§6", AtLeast(0.98), |e| ratio(e, KV, TPS, CP, NO),
        "deviation 7: no constant is fitted to Fig. 11"),
    row("fig11.kv.identity_minus_vs_noiommu", "§6", Near(1.0), |e| ratio(e, KV, TPS, IDM, NO)),
    miss("fig11.kv.noiommu_vs_identity_plus", "§6", Near(6.6), |e| ratio(e, KV, TPS, NO, IDP),
        "deviation 7: no constant is fitted to Fig. 11"),
    // §6 memory consumption: copy's peak shadow footprint in the 64 KB stream runs.
    miss("mem.peak_shadow_mb", "§6", Near(160.0), |e| {
        let peaks = [(Rx, 1), (Tx, 1), (Rx, 16), (Tx, 16)].map(|(w, c)| e.get(w, CP, c, K64).shadow_bytes_peak);
        peaks.into_iter().flatten().max().unwrap_or(0) as f64 / (1 << 20) as f64
    }, "deviation 5: one receive buffer per core in flight, not a full ring"),
    // §5.4: the copy-back is bounded by what the device wrote.
    row("hints.reported_memcpy_excess_cycles", "§5.4", AtMost(0.0), |e| {
        let cost = ExpConfig::default().cost;
        let excess = |(wire, [_, on]): &(usize, [ExpResult; 2])| (MEMCPY(on) - cost.memcpy(*wire, false).get() as f64).abs();
        e.hints.iter().map(excess).fold(0.0, f64::max)
    }),
    row("hints.reported_vs_unreported_memcpy", "§5.4", AtMost(1.0), |e| hint_arms(e, MEMCPY, f64::max)),
    row("hints.reported_vs_unreported_gbps", "§5.4", AtLeast(1.0), |e| hint_arms(e, GBPS, f64::min)),
    // §5.5: huge buffers copy only their sub-page head and tail.
    row("huge.2m.hybrid_vs_identity_plus", "§5.5", Near(1.0), |e| e.huge.last().map_or(f64::NAN, |[h, i, _]| h / i)),
    row("huge.hybrid_vs_full_copy", "§5.5", AtMost(1.0), |e| e.huge.iter().map(|[h, _, f]| h / f).fold(0.0, f64::max)),
    // §2.2.1: one global deferred list serialises unmaps; per-core lists do not.
    row("batching.percore_vs_global", "§2.2.1", AtLeast(1.0), |e| e.batching[1] / e.batching[0]),
    // §7: self-invalidating hardware makes strict protection as cheap as deferred.
    row("selfinval.rx1c.vs_identity_minus", "§7", Near(1.0), |e| ratio(e, RX1_64K, GBPS, SelfInvalHw, IDM)),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_points_scale_items_with_cores() {
        let items = |w, cores| {
            let c = config(w, cores, 1024);
            (c.cores, c.items_per_core, c.warmup_per_core)
        };
        assert_eq!(items(Rx, 1), (1, 20_000, 2_000));
        assert_eq!(items(Tx, 16), (16, 4_000, 400));
        assert_eq!(items(Rr, 1), (1, 3_000, 300));
        assert_eq!(items(Kv, 16), (16, 3_000, 300));
        assert_eq!(config(Tx, 1, K64).msg_size, K64);
    }

    /// `figures` reads each figure's rows by position: no-iommu first (the
    /// baseline), then copy.
    #[test]
    fn figure_runs_come_back_in_figure_set_order_under_their_engine() {
        let cfg = ExpConfig {
            items_per_core: 200,
            warmup_per_core: 20,
            ..ExpConfig::quick()
        };
        let mut e = Evidence::default();
        for kind in FIGURE {
            e.insert(Rx, netsim::tcp_stream_rx(kind, &cfg));
        }
        let names = FIGURE.map(|k| e.get(Rx, k, 1, cfg.msg_size).engine);
        assert_eq!(names, ["no iommu", "copy", "identity-", "identity+"]);
    }
}
