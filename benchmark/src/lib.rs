//! # benchmark — one benchmark for the simulator and the design it models
//!
//! Five netperf-family workloads ([`workloads::WORKLOADS`]) over the
//! simulated stack, reporting two kinds of number by name:
//!
//! - **simulated** numbers (`sim_*`) are what the modelled machine would
//!   do. The simulator is seeded and reads no wall clock, so for one seed
//!   they repeat exactly.
//! - **host** numbers (`host_*`, `setup_s`, every `*.host_ns_*`) are what
//!   this process costs. They are noisy, so they are taken as the fastest
//!   of several rounds or the median of many batches.
//!
//! One process runs one workload. An untraced run ([`Opts::trace`] off)
//! sets up three times (before, half-way through and after the rounds),
//! repeats rounds for [`Opts::seconds`] and reports the end-to-end metrics. A traced run repeats fewer rounds, then
//! one round with the virtual-time profiler on, then the layer probes
//! ([`probes`]), and reports the per-layer metrics. See `README.md` for
//! what every metric means and which end-to-end number it should move.
//!
//! The benchmark calls only public items of the crates it measures, and
//! of those only ones that ROADMAP items 2 and 6 keep, so that later
//! changes are measured with this code unchanged.

pub mod alloc_count;
mod layers;
pub mod probes;
pub mod report;
pub mod round;
pub mod spans;
pub mod workloads;

pub use layers::per_layer_names;
use layers::Layers;
use netsim::{EngineKind, ExpConfig, ExpResult, SimStack};
use probes::Prober;
use report::{Metric, Outcome, Value, FOCUS, GBPS_ENGINES};
use round::{fingerprint, guarded, run_engine, run_round, EngineRun};
use simcore::{CoreCtx, CoreId, Cycles, SimRng};
use spans::Spans;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workloads::{slug, Workload};

#[global_allocator]
static ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// Calls per probe in a traced run at full scale.
pub const PROBE_CALLS: u64 = 100_000;

/// Set-up passes of an untraced run; `setup_s` is the fastest.
const SETUP_PASSES: usize = 3;

/// Rounds between two set-up passes of an untraced run: at least this
/// many, which makes two in the run, so that results can be compared
/// between rounds.
const MIN_ROUNDS_PER_SHARE: usize = 1;

/// Untraced rounds of a traced run: at least this many, for a median and
/// quartiles.
const MIN_TRACED_BASE_ROUNDS: usize = 3;

/// Share of a traced run's `--seconds` spent on its untraced rounds.
const TRACED_BASE_SHARE: f64 = 0.4;

/// What one process is asked to do.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload.
    pub workload: &'static Workload,
    /// Passed to `ExpConfig::seed`; the program sees only the config.
    pub seed: u64,
    /// How long the measured rounds go on.
    pub seconds: f64,
    /// Off: end-to-end metrics. On: per-layer metrics.
    pub trace: bool,
    /// Also run the engines on [`workloads::KNOWN_BROKEN`].
    pub include_broken: bool,
    /// Divides item and probe-call counts (1 in real runs, 100 in tests).
    pub scale: u64,
}

/// One engine's line of the printed table.
#[derive(Debug, Clone)]
pub struct EngineRow {
    /// Which engine.
    pub kind: EngineKind,
    /// The first round's result, if the engine passed every check.
    pub result: Option<ExpResult>,
    /// Host seconds of the engine's fastest round.
    pub best_wall_s: f64,
    /// Why the engine failed, if it did.
    pub failure: Option<String>,
}

/// Everything one process found out.
#[derive(Debug)]
pub struct Report {
    /// The result line's content.
    pub outcome: Outcome,
    /// Per-engine results, in running order.
    pub engines: Vec<EngineRow>,
    /// Heap allocations and bytes of the counted round, with its items
    /// (traced runs; zeros otherwise).
    pub alloc_counts: (u64, u64, u64),
    /// Seconds of each set-up pass, in order.
    pub setup_passes: Vec<f64>,
    /// Host seconds of each untraced round (engines that passed), in order.
    pub round_walls: Vec<f64>,
    /// The host-time spans of the run.
    pub spans: Spans,
}

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

/// Silences the default panic message while engines run under
/// `catch_unwind` (their messages are kept in the report instead), and
/// puts the previous hook back when dropped.
struct QuietPanics(Option<PanicHook>);

impl QuietPanics {
    fn install() -> Self {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics(Some(prev))
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(prev) = self.0.take() {
            std::panic::set_hook(prev);
        }
    }
}

/// The state one run accumulates.
struct Run {
    w: &'static Workload,
    cfg: ExpConfig,
    engines: Vec<EngineKind>,
    /// First failure message per engine.
    failures: Vec<(EngineKind, String)>,
    /// Sanitizer counts over every stack this process could look into.
    violations: u64,
    leaks: u64,
    spans: Spans,
    root: usize,
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, by the "exclusive" method Python's
/// `statistics.quantiles(v, n=4)` uses.
fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(0.25), at(0.75))
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Run {
    fn new(opts: &Opts) -> Self {
        let w = opts.workload;
        let mut spans = Spans::new();
        let root = spans.enter(format!("run:{}", w.name), None);
        Run {
            w,
            cfg: w.config(opts.seed, opts.scale),
            engines: w.engines(opts.include_broken),
            failures: Vec::new(),
            violations: 0,
            leaks: 0,
            spans,
            root,
        }
    }

    fn failure(&self, kind: EngineKind) -> Option<&str> {
        self.failures
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, why)| why.as_str())
    }

    fn fail(&mut self, kind: EngineKind, why: String) {
        if self.is_ok(kind) {
            self.failures.push((kind, why));
        }
    }

    fn is_ok(&self, kind: EngineKind) -> bool {
        self.failure(kind).is_none()
    }

    fn items_per_engine(&self) -> u64 {
        self.cfg.cores as u64 * self.cfg.items_per_core
    }

    /// One set-up pass: for each engine, build the machine at the
    /// workload's config, pass one packet through it and check its bytes,
    /// tear it down and check that nothing leaked, then run the workload
    /// at a quarter of its item count (pool growth, cold caches and lazy
    /// initialisation are most of such a run). Returns each engine's
    /// seconds, in engine order.
    fn setup_pass(&mut self) -> Vec<Option<f64>> {
        let pass = self.spans.enter("setup_pass", Some(self.root));
        let mut secs = Vec::new();
        let quarter = ExpConfig {
            items_per_core: (self.cfg.items_per_core / 4).max(1),
            warmup_per_core: (self.cfg.warmup_per_core / 4).max(1),
            ..self.cfg.clone()
        };
        let payload = SimRng::seed(self.cfg.seed).bytes(devices::MTU);
        for kind in self.engines.clone() {
            let span = self
                .spans
                .enter(format!("setup:{}", slug(kind)), Some(pass));
            let cfg = &self.cfg;
            let checked = catch_unwind(AssertUnwindSafe(|| {
                let mut stack = SimStack::new(kind, cfg);
                let intact = stack.loopback_rx(&payload) == payload;
                let mut ctx = CoreCtx::new(CoreId(0), stack.cost.clone());
                ctx.seek(Cycles(2));
                stack.teardown(&mut ctx);
                let violations = stack.san.violation_count();
                (intact, violations, stack.san.check_teardown() as u64)
            }));
            match checked {
                Ok((intact, violations, leaks)) => {
                    self.violations += violations;
                    self.leaks += leaks;
                    if !intact {
                        self.fail(kind, "loopback packet corrupted".into());
                    } else if violations > 0 || leaks > 0 {
                        self.fail(
                            kind,
                            format!("loopback: {violations} violations, {leaks} leaks"),
                        );
                    }
                }
                Err(_) => self.fail(kind, "panicked in the loopback check".into()),
            }
            let expect = quarter.cores as u64 * quarter.items_per_core;
            let run = guarded(kind, expect, || run_engine(self.w, &quarter, kind, false));
            self.note(&[run]);
            self.spans.exit(span, expect);
            secs.push(Some(self.spans.secs(span)));
        }
        self.spans.exit(pass, 0);
        secs
    }

    /// Folds a round's failures and sanitizer counts into the run.
    fn note(&mut self, round: &[EngineRun]) {
        for run in round {
            match &run.outcome {
                Ok(ran) => {
                    if let Some(r) = &ran.readout {
                        self.violations += r.violations;
                        self.leaks += r.leaks;
                    }
                }
                Err(why) => self.fail(run.kind, why.clone()),
            }
        }
    }

    fn round(&mut self, profile: bool) -> Vec<EngineRun> {
        let name = if profile { "traced_round" } else { "round" };
        let id = self.spans.enter(name, Some(self.root));
        let (w, cfg) = (self.w, &self.cfg);
        let round = run_round(
            &self.engines,
            self.items_per_engine(),
            &mut self.spans,
            id,
            |kind| run_engine(w, cfg, kind, profile),
        );
        self.spans.exit(id, 0);
        self.note(&round);
        round
    }

    /// Untraced rounds until `seconds` have passed, and at least `min`.
    fn rounds_for(&mut self, seconds: f64, min: usize) -> Vec<Vec<EngineRun>> {
        let start = Instant::now();
        let mut rounds = Vec::new();
        while rounds.len() < min || start.elapsed().as_secs_f64() < seconds {
            rounds.push(self.round(false));
        }
        rounds
    }

    /// The determinism self-check: an engine's result must be
    /// bit-identical in every round.
    fn check_identical(&mut self, rounds: &[Vec<EngineRun>]) {
        for (i, first) in rounds[0].iter().enumerate() {
            let Some(a) = first.ok() else { continue };
            let a = fingerprint(&a.result);
            for later in &rounds[1..] {
                if later[i].ok().is_some_and(|b| fingerprint(&b.result) != a) {
                    self.fail(first.kind, "result differs between rounds".into());
                }
            }
        }
    }

    /// Host seconds a round spent in the engines that pass every check.
    fn round_wall(&self, round: &[EngineRun]) -> f64 {
        round
            .iter()
            .filter(|r| self.is_ok(r.kind))
            .filter_map(|r| r.ok())
            .map(|r| r.wall_s)
            .sum()
    }

    /// Host seconds of one round's work at its fastest: for each engine
    /// that passes every check its fastest time over `rounds`, summed.
    /// Interference from outside the process comes in bursts shorter than a
    /// round, so engine by engine the minimum is steadier than the fastest
    /// whole round.
    fn fastest(&self, rounds: &[Vec<Option<f64>>]) -> f64 {
        self.engines
            .iter()
            .enumerate()
            .filter(|(_, &k)| self.is_ok(k))
            .map(|(i, _)| {
                rounds
                    .iter()
                    .filter_map(|r| r[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }

    fn ok_items(&self) -> u64 {
        self.engines.iter().filter(|&&k| self.is_ok(k)).count() as u64 * self.items_per_engine()
    }

    fn rows(&self, rounds: &[Vec<EngineRun>]) -> Vec<EngineRow> {
        self.engines
            .iter()
            .enumerate()
            .map(|(i, &kind)| EngineRow {
                kind,
                result: rounds[0][i]
                    .ok()
                    .filter(|_| self.is_ok(kind))
                    .map(|r| r.result.clone()),
                best_wall_s: rounds
                    .iter()
                    .filter_map(|r| r[i].ok())
                    .map(|r| r.wall_s)
                    .fold(f64::INFINITY, f64::min),
                failure: self.failure(kind).map(str::to_string),
            })
            .collect()
    }

    fn finish(
        mut self,
        metrics: Vec<Metric>,
        engines: Vec<EngineRow>,
        alloc_counts: (u64, u64, u64),
        setup_passes: Vec<f64>,
        round_walls: Vec<f64>,
    ) -> Report {
        let attempted = self.engines.len() as u64 * self.items_per_engine();
        let failed = self.failures.len() as u64 * self.items_per_engine();
        self.spans.exit(self.root, attempted);
        Report {
            outcome: Outcome {
                correct: self.failures.is_empty(),
                attempted,
                failed,
                metrics,
            },
            engines,
            alloc_counts,
            setup_passes,
            round_walls,
            spans: self.spans,
        }
    }
}

/// The end-to-end metrics, in printing order: the three host numbers,
/// then the simulated values of `rows` (0 for an engine with no result).
fn end_to_end(setup_s: f64, items_per_s: f64, rss_mb: f64, rows: &[EngineRow]) -> Vec<Metric> {
    let result = |kind| {
        rows.iter()
            .find(|r| r.kind == kind)
            .and_then(|r| r.result.as_ref())
    };
    let mut out = vec![
        Metric::new("setup_s", Value::Float(setup_s), "s"),
        Metric::new("host_items_per_s", Value::Float(items_per_s), "items/s"),
        Metric::new("host_peak_rss_mb", Value::Float(rss_mb), "MB"),
    ];
    for k in GBPS_ENGINES {
        let gbps = result(k).map_or(0.0, |r| r.gbps);
        out.push(Metric::new(
            format!("sim_gbps.{}", slug(k)),
            Value::Float(gbps),
            "Gb/s",
        ));
    }
    for k in FOCUS {
        let us = result(k).map_or(0.0, |r| r.us_per_item());
        out.push(Metric::new(
            format!("sim_busy_us_per_item.{}", slug(k)),
            Value::Float(us),
            "us/item",
        ));
    }
    out
}

/// `(name, unit)` of every end-to-end metric, in printing order, without
/// running anything.
pub fn end_to_end_names() -> Vec<(String, &'static str)> {
    end_to_end(0.0, 0.0, 0.0, &[])
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect()
}

/// Runs one process's worth of benchmark.
pub fn run(opts: &Opts) -> Report {
    let _quiet = QuietPanics::install();
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

/// Each engine's host seconds in each round (`None` where it failed).
fn engine_walls(rounds: &[Vec<EngineRun>]) -> Vec<Vec<Option<f64>>> {
    rounds
        .iter()
        .map(|r| r.iter().map(|e| e.ok().map(|ran| ran.wall_s)).collect())
        .collect()
}

fn pass_totals(passes: &[Vec<Option<f64>>]) -> Vec<f64> {
    passes.iter().map(|p| p.iter().flatten().sum()).collect()
}

fn run_untraced(opts: &Opts) -> Report {
    let mut run = Run::new(opts);
    // Set-up passes at the start, in the middle and at the end of the run:
    // interference from outside lasts seconds to a minute, longer than
    // three passes in a row, so passes kept apart are less often all hit.
    let mut setup = vec![run.setup_pass()];
    let mut rounds = Vec::new();
    for _ in 1..SETUP_PASSES {
        let share = opts.seconds / (SETUP_PASSES - 1) as f64;
        rounds.extend(run.rounds_for(share, MIN_ROUNDS_PER_SHARE));
        setup.push(run.setup_pass());
    }
    run.check_identical(&rounds);

    let walls: Vec<f64> = rounds.iter().map(|r| run.round_wall(r)).collect();
    let best_wall = run.fastest(&engine_walls(&rounds));
    let rows = run.rows(&rounds);
    let items_per_s = if best_wall > 0.0 {
        run.ok_items() as f64 / best_wall
    } else {
        0.0
    };
    let metrics = end_to_end(run.fastest(&setup), items_per_s, peak_rss_mb(), &rows);
    run.finish(metrics, rows, (0, 0, 0), pass_totals(&setup), walls)
}

fn run_traced(opts: &Opts) -> Report {
    let mut run = Run::new(opts);
    let setup = pass_totals(&[run.setup_pass()]);

    // Untraced rounds first: the base the traced round is compared with.
    // Heap allocations are counted over the last of them, when lazily
    // grown buffers have reached their size.
    let mut base = run.rounds_for(opts.seconds * TRACED_BASE_SHARE, MIN_TRACED_BASE_ROUNDS - 1);
    let before = alloc_count::totals();
    base.push(run.round(false));
    let after = alloc_count::totals();
    base.push(run.round(true));
    run.check_identical(&base);
    let traced = base.pop().expect("the traced round was just pushed");

    let walls: Vec<f64> = base.iter().map(|r| run.round_wall(r)).collect();
    let best_wall = run.fastest(&engine_walls(&base));
    let traced_wall = run.round_wall(&traced);
    let allocs = (after.0 - before.0, after.1 - before.1, run.ok_items());

    let probe_span = run.spans.enter("probes", Some(run.root));
    let calls = (PROBE_CALLS / opts.scale).max(1);
    let probes = Prober::new(run.w, &run.cfg, calls, &mut run.spans, probe_span).run();
    run.spans.exit(probe_span, 0);

    let layers = Layers {
        w: run.w,
        cfg: &run.cfg,
        traced: traced
            .iter()
            .filter(|r| run.is_ok(r.kind))
            .filter_map(|r| Some((r.kind, r.ok()?)))
            .collect(),
        probes: &probes,
        host_ns_per_item: best_wall * 1e9 / run.ok_items().max(1) as f64,
        walls: &walls,
        traced_wall,
        allocs,
        violations: run.violations,
        leaks: run.leaks,
    };
    let metrics = layers.metrics();
    let rows = run.rows(&[traced]);
    run.finish(metrics, rows, allocs, setup, walls)
}

/// The per-engine table of a report, for people: simulated values with
/// round-trip precision next to the integers they derive from.
pub fn engine_table(report: &Report) -> String {
    let mut out = format!(
        "{:<10} {:>7} {:>10} {:>14} {:>22} {:>22} {:>9}\n",
        "engine", "status", "items", "bytes", "sim Gb/s", "sim busy us/item", "host s"
    );
    for row in &report.engines {
        match &row.result {
            Some(r) => out.push_str(&format!(
                "{:<10} {:>7} {:>10} {:>14} {:>22?} {:>22?} {:>9.3}\n",
                row.kind.name(),
                "ok",
                r.items,
                r.bytes,
                r.gbps,
                r.us_per_item(),
                row.best_wall_s
            )),
            None => out.push_str(&format!(
                "{:<10} {:>7} {}\n",
                row.kind.name(),
                "FAILED",
                row.failure.as_deref().unwrap_or("")
            )),
        }
    }
    out
}
