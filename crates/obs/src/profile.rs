//! Hierarchical virtual-time profiler: nested scopes accumulate per-phase
//! cycles into a call tree keyed `engine × core × device`.
//!
//! The paper's Figure 5 decomposes packet time into eight fixed
//! [`Phase`] categories. This module generalizes that one hand-wired
//! breakdown into an arbitrary-depth **call tree**: every scope records
//! the [`CoreCtx::breakdown`] delta it observed, split into *self* cycles
//! (charged directly in the scope) and *total* cycles (self + everything
//! charged in child scopes). It reads the core's ledger and never keeps a
//! second one.
//!
//! - [`task_scope`] opens a *root* scope for one engine's task step (the
//!   netsim RX/TX loop bodies). It binds the host thread to the
//!   profiler handle so callees need no `Obs` plumbing.
//! - [`scope`] opens a nested scope anywhere below a root — the DMA
//!   engines, the IOMMU invalidation queue, the shadow pool, the driver.
//!   With no root open on the thread (unit tests, teardown, deferred
//!   flushes) a `scope` is a pass-through, so the tree sees exactly what
//!   runs under a measured task — what the measured cores' breakdowns
//!   hold.
//! - [`note_reset`] re-bases every open scope after a warm-up
//!   [`CoreCtx::reset_stats`] and clears the task's tree, so
//!   steady-state trees cover precisely the measured window.
//!
//! The **depth-1 cut** of the tree — per-phase totals summed over root
//! nodes — reproduces the measured cores' summed [`Breakdown`] exactly;
//! see [`ProfileSnapshot::breakdown_cut`].
//!
//! Exports: [`ProfileSnapshot::render`] (text table),
//! [`ProfileSnapshot::to_json_lines`] (replayable JSONL),
//! and [`flamegraph`] (collapsed-stack format).
//!
//! All timestamps are simulated cycles; the profiler never reads host
//! wall-clock time, and a disabled profiler costs one relaxed load per
//! root scope (nested scopes only check thread-local state).

use crate::json::Json;
use crate::Obs;
use simcore::sync::Mutex;
use simcore::{Breakdown, CoreCtx, Cycles, Phase};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Identity of one profile tree: which engine ran on which core against
/// which device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    engine: &'static str,
    core: u16,
    device: Option<u16>,
}

/// One open scope on the thread's stack.
struct Frame {
    label: &'static str,
    /// The core's breakdown at scope entry (or at the last [`note_reset`]).
    enter: Breakdown,
    /// Cycles attributed to already-closed child scopes; subtracted from
    /// this scope's delta to obtain its self time.
    consumed: Breakdown,
}

/// Thread-local binding of a running task to its profiler.
struct TaskCtx {
    profiler: Arc<Profiler>,
    key: Key,
    frames: Vec<Frame>,
}

thread_local! {
    static TASK: RefCell<Option<TaskCtx>> = const { RefCell::new(None) };
    /// Mirror of `TASK.is_some()`. `TaskCtx` holds an `Arc`, so `TASK`
    /// is a lazily-registered (destructor-tracked) thread-local; this
    /// plain `Cell<bool>` is const-initialized with no destructor, so
    /// the pass-through check every instrumented library call makes when
    /// no profiled task is running costs one thread-local load.
    static ROOT_OPEN: Cell<bool> = const { Cell::new(false) };
}

fn set_root_open(open: bool) {
    ROOT_OPEN.with(|c| c.set(open));
}

/// Clears the thread's task binding if `task_scope`'s body unwinds, so a
/// panicking experiment cannot poison the next one on this thread.
struct RootGuard;

impl Drop for RootGuard {
    fn drop(&mut self) {
        TASK.with(|t| {
            t.borrow_mut().take();
        });
        set_root_open(false);
    }
}

/// Pops one frame without recording if `scope`'s body unwinds.
struct FrameGuard;

impl Drop for FrameGuard {
    fn drop(&mut self) {
        TASK.with(|t| {
            if let Some(task) = t.borrow_mut().as_mut() {
                task.frames.pop();
            }
        });
    }
}

/// Internal tree node; labels stay `&'static str` on the hot path.
#[derive(Debug, Default)]
struct Node {
    count: u64,
    self_cycles: Breakdown,
    children: Vec<(&'static str, Node)>,
}

impl Node {
    fn child_mut(&mut self, label: &'static str) -> &mut Node {
        if let Some(i) = self.children.iter().position(|(l, _)| *l == label) {
            return &mut self.children[i].1;
        }
        self.children.push((label, Node::default()));
        let last = self.children.len() - 1;
        &mut self.children[last].1
    }

    fn to_public(&self, label: &str) -> ProfileNode {
        ProfileNode {
            label: label.to_string(),
            count: self.count,
            self_cycles: self.self_cycles,
            children: self.children.iter().map(|(l, n)| n.to_public(l)).collect(),
        }
    }
}

/// The stack-wide profiler: one call tree per `engine × core × device`.
///
/// One lives inside every [`Obs`] handle (see [`Obs::profiler`]); it is
/// disabled by default so ordinary runs and benchmarks pay one relaxed
/// load per task step.
pub struct Profiler {
    enabled: AtomicBool,
    /// Per-key synthetic containers whose children are task-root nodes.
    trees: Mutex<Vec<(Key, Node)>>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .field("trees", &self.trees.lock().len())
            .finish()
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// Creates a disabled profiler.
    pub fn new() -> Self {
        Profiler {
            enabled: AtomicBool::new(false),
            trees: Mutex::new(Vec::new()),
        }
    }

    /// Enables or disables call-tree collection. Checked once per
    /// [`task_scope`]; nested [`scope`]s follow their root's decision.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// True when call-tree collection is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of every collected call tree.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let trees = self.trees.lock();
        let mut roots = Vec::new();
        for (key, container) in trees.iter() {
            for (label, node) in &container.children {
                roots.push(ProfileRoot {
                    engine: key.engine.to_string(),
                    core: key.core,
                    device: key.device,
                    node: node.to_public(label),
                });
            }
        }
        ProfileSnapshot { roots }
    }

    /// Records the exit of `leaf`, nested under `parents` (outermost
    /// first), at breakdown `exit`; returns the scope's total delta for its
    /// parent to consume.
    fn record_exit(
        &self,
        key: Key,
        parents: &[Frame],
        leaf: &Frame,
        exit: &Breakdown,
    ) -> Breakdown {
        let delta = exit.saturating_sub(&leaf.enter);
        let mut trees = self.trees.lock();
        let mut node = if let Some(i) = trees.iter().position(|(k, _)| *k == key) {
            &mut trees[i].1
        } else {
            trees.push((key, Node::default()));
            let last = trees.len() - 1;
            &mut trees[last].1
        };
        for frame in parents.iter().chain([leaf]) {
            node = node.child_mut(frame.label);
        }
        node.count += 1;
        node.self_cycles += delta.saturating_sub(&leaf.consumed);
        delta
    }

    fn reset_tree(&self, key: Key) {
        self.trees.lock().retain(|(k, _)| *k != key);
    }
}

/// Opens the *root* profiling scope for one task step of `engine`
/// against `device` on `ctx`'s core, and runs `f` under it.
///
/// A disabled profiler makes this a pass-through (one relaxed load). If
/// a root is already open on this thread the call degrades to a nested
/// [`scope`]. The root's profiler handle travels in thread-local state,
/// so everything `f` calls can use [`scope`] without an [`Obs`].
pub fn task_scope<R>(
    obs: &Obs,
    ctx: &mut CoreCtx,
    engine: &'static str,
    device: Option<u16>,
    label: &'static str,
    f: impl FnOnce(&mut CoreCtx) -> R,
) -> R {
    let prof = obs.profiler();
    if !prof.enabled() {
        return f(ctx);
    }
    if ROOT_OPEN.with(|c| c.get()) {
        return scope(ctx, label, f);
    }
    let key = Key {
        engine,
        core: ctx.core.0,
        device,
    };
    TASK.with(|t| {
        *t.borrow_mut() = Some(TaskCtx {
            profiler: Arc::clone(prof),
            key,
            frames: vec![Frame {
                label,
                enter: *ctx.breakdown(),
                consumed: Breakdown::new(),
            }],
        })
    });
    set_root_open(true);
    let guard = RootGuard;
    let r = f(ctx);
    std::mem::forget(guard);
    set_root_open(false);
    if let Some(task) = TASK.with(|t| t.borrow_mut().take()) {
        if let Some(frame) = task.frames.last() {
            task.profiler
                .record_exit(task.key, &[], frame, ctx.breakdown());
        }
    }
    r
}

/// Opens a nested profiling scope labelled `label` and runs `f` under it.
///
/// Pass-through when no [`task_scope`] root is open on this thread —
/// instrumented library code (DMA engines, the invalidation queue, the
/// shadow pool) calls this unconditionally and only pays when a
/// profiled task is running above it.
pub fn scope<R>(ctx: &mut CoreCtx, label: &'static str, f: impl FnOnce(&mut CoreCtx) -> R) -> R {
    if !ROOT_OPEN.with(|c| c.get()) {
        return f(ctx);
    }
    let pushed = TASK.with(|t| match t.borrow_mut().as_mut() {
        Some(task) => {
            task.frames.push(Frame {
                label,
                enter: *ctx.breakdown(),
                consumed: Breakdown::new(),
            });
            true
        }
        None => false,
    });
    if !pushed {
        return f(ctx);
    }
    let guard = FrameGuard;
    let r = f(ctx);
    std::mem::forget(guard);
    TASK.with(|t| {
        let mut b = t.borrow_mut();
        if let Some(task) = b.as_mut() {
            if let Some(frame) = task.frames.pop() {
                // The path is the frame stack itself, walked in place: a
                // scope exit allocates nothing.
                let (prof, parents) = (&task.profiler, &task.frames);
                let delta = prof.record_exit(task.key, parents, &frame, ctx.breakdown());
                if let Some(parent) = task.frames.last_mut() {
                    parent.consumed += delta;
                }
            }
        }
    });
    r
}

/// Re-bases every open scope after a warm-up [`CoreCtx::reset_stats`]
/// and clears this task's collected tree.
///
/// Call immediately after `reset_stats()` inside the measured task so
/// the steady-state tree matches the core's breakdown byte for byte.
/// No-op when no root scope is open.
pub fn note_reset(ctx: &CoreCtx) {
    TASK.with(|t| {
        let mut b = t.borrow_mut();
        if let Some(task) = b.as_mut() {
            for fr in task.frames.iter_mut() {
                fr.enter = *ctx.breakdown();
                fr.consumed = Breakdown::new();
            }
            task.profiler.reset_tree(task.key);
        }
    });
}

/// One node of an exported call tree: label, hit count, per-phase self
/// cycles and children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileNode {
    /// Scope label (e.g. `"dma_map"`).
    pub label: String,
    /// Times the scope was entered (after the last warm-up reset).
    pub count: u64,
    /// Cycles charged directly in this scope, per phase.
    pub self_cycles: Breakdown,
    /// Child scopes, in first-entered order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Self cycles summed over all phases.
    pub fn self_total(&self) -> u64 {
        self.self_cycles.total().get()
    }

    /// Per-phase cycles including every descendant.
    pub fn total_cycles(&self) -> Breakdown {
        let children: Breakdown = self.children.iter().map(ProfileNode::total_cycles).sum();
        self.self_cycles + children
    }

    /// Total cycles (self + descendants) summed over all phases.
    pub fn total(&self) -> u64 {
        self.total_cycles().total().get()
    }

    /// Child with the given label, if present.
    pub fn child(&self, label: &str) -> Option<&ProfileNode> {
        self.children.iter().find(|c| c.label == label)
    }

    /// Accumulates `other` (same logical node) into `self`, merging
    /// children by label.
    pub fn merge_from(&mut self, other: &ProfileNode) {
        self.count += other.count;
        self.self_cycles += other.self_cycles;
        for oc in &other.children {
            if let Some(c) = self.children.iter_mut().find(|c| c.label == oc.label) {
                c.merge_from(oc);
            } else {
                self.children.push(oc.clone());
            }
        }
    }
}

/// One collected tree: the task root node plus its identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRoot {
    /// Engine name (paper name, e.g. `"copy"`, `"identity+"`).
    pub engine: String,
    /// Virtual core the task ran on.
    pub core: u16,
    /// Device the task drove, if any.
    pub device: Option<u16>,
    /// The task-root call-tree node.
    pub node: ProfileNode,
}

/// Point-in-time copy of every call tree a [`Profiler`] collected.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileSnapshot {
    /// All collected trees, one per `engine × core × device × task`.
    pub roots: Vec<ProfileRoot>,
}

impl ProfileSnapshot {
    /// Distinct engine names, in first-seen order.
    pub fn engines(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for r in &self.roots {
            if !out.contains(&r.engine) {
                out.push(r.engine.clone());
            }
        }
        out
    }

    /// The **depth-1 cut**: per-phase totals over every root whose
    /// device matches, as a [`Breakdown`].
    ///
    /// When root scopes wrap whole task steps this equals, phase for
    /// phase, the measured cores' summed `CoreCtx::breakdown` (the
    /// Figure 5 bars); netsim's harness invariants test asserts it.
    pub fn breakdown_cut(&self, device: Option<u16>) -> Breakdown {
        self.roots
            .iter()
            .filter(|r| r.device == device)
            .map(|r| r.node.total_cycles())
            .sum()
    }

    /// Merges matching roots (optionally restricted to one engine) into
    /// a single synthetic tree whose children are the task roots merged
    /// by label across cores and devices.
    pub fn merged(&self, engine: Option<&str>) -> ProfileNode {
        let mut out = ProfileNode {
            label: engine.unwrap_or("all").to_string(),
            ..ProfileNode::default()
        };
        for r in &self.roots {
            if let Some(e) = engine {
                if r.engine != e {
                    continue;
                }
            }
            if let Some(c) = out.children.iter_mut().find(|c| c.label == r.node.label) {
                c.merge_from(&r.node);
            } else {
                out.children.push(r.node.clone());
            }
        }
        out
    }

    /// Exports each root as one `{"type":"profile",...}` JSON value
    /// (JSONL-ready; inverse of [`ProfileSnapshot::from_json_lines`]).
    pub fn to_json_lines(&self) -> Vec<Json> {
        self.roots
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("type".into(), Json::Str("profile".into())),
                    ("engine".into(), Json::Str(r.engine.clone())),
                    ("core".into(), Json::UInt(r.core as u64)),
                    (
                        "device".into(),
                        match r.device {
                            Some(d) => Json::UInt(d as u64),
                            None => Json::Null,
                        },
                    ),
                    ("tree".into(), node_json(&r.node)),
                ])
            })
            .collect()
    }

    /// Rebuilds a snapshot from parsed JSONL values, skipping lines
    /// whose `type` is not `"profile"`.
    pub fn from_json_lines(lines: &[Json]) -> Result<ProfileSnapshot, String> {
        let mut roots = Vec::new();
        for l in lines {
            if l.get("type").and_then(Json::as_str) != Some("profile") {
                continue;
            }
            let engine = l
                .get("engine")
                .and_then(Json::as_str)
                .ok_or("profile line: missing 'engine'")?
                .to_string();
            let core = l
                .get("core")
                .and_then(Json::as_u64)
                .ok_or("profile line: missing 'core'")? as u16;
            let device = match l.get("device") {
                Some(Json::Null) | None => None,
                Some(v) => Some(v.as_u64().ok_or("profile line: invalid 'device'")? as u16),
            };
            let tree = l.get("tree").ok_or("profile line: missing 'tree'")?;
            roots.push(ProfileRoot {
                engine,
                core,
                device,
                node: node_from_json(tree)?,
            });
        }
        Ok(ProfileSnapshot { roots })
    }

    /// Renders per-engine phase totals (the depth-1 cut) and the merged
    /// call tree as an aligned text table. `clock_ghz` converts cycle
    /// totals to microseconds for the summary rows.
    pub fn render(&self, clock_ghz: f64) -> String {
        let mut out = String::new();
        for engine in self.engines() {
            let merged = self.merged(Some(&engine));
            let totals = merged.total_cycles();
            let grand = totals.total().get();
            let _ = writeln!(out, "=== profile: {engine} ===");
            let _ = writeln!(out, "  phase totals (depth-1 cut):");
            for (p, c) in totals.iter() {
                let _ = writeln!(
                    out,
                    "    {:<22} {:>14}  {:>5.1}%",
                    p.label(),
                    c.get(),
                    100.0 * c.get() as f64 / grand.max(1) as f64
                );
            }
            let _ = writeln!(
                out,
                "    {:<22} {:>14}  ({:.1} us)",
                "total",
                grand,
                Cycles(grand).to_micros(clock_ghz)
            );
            let _ = writeln!(out, "  call tree (total cyc / self cyc, count):");
            for c in &merged.children {
                render_node(&mut out, c, 2, grand);
            }
        }
        out
    }

    /// Renders a node-by-node comparison of `self` (before) against
    /// `after`, to triage where two runs' simulated cycles diverge.
    pub fn render_diff(&self, after: &ProfileSnapshot) -> String {
        let mut engines = self.engines();
        for e in after.engines() {
            if !engines.contains(&e) {
                engines.push(e);
            }
        }
        let mut out = String::new();
        for engine in engines {
            let a = self.merged(Some(&engine));
            let b = after.merged(Some(&engine));
            let _ = writeln!(out, "=== diff: {engine} (total cycles) ===");
            let _ = writeln!(
                out,
                "  {:<34} {:>14} {:>14} {:>9}",
                "node", "before", "after", "delta"
            );
            diff_node(&mut out, &a, &b, 1);
        }
        out
    }
}

fn render_node(out: &mut String, n: &ProfileNode, depth: usize, grand: u64) {
    let total = n.total();
    let _ = writeln!(
        out,
        "  {:indent$}{:<width$} {:>12} / {:>12}  n={} ({:.1}%)",
        "",
        n.label,
        total,
        n.self_total(),
        n.count,
        100.0 * total as f64 / grand.max(1) as f64,
        indent = depth * 2,
        width = 28usize.saturating_sub(depth * 2),
    );
    for c in &n.children {
        render_node(out, c, depth + 1, grand);
    }
}

fn diff_node(out: &mut String, a: &ProfileNode, b: &ProfileNode, depth: usize) {
    let (ta, tb) = (a.total(), b.total());
    let delta = if ta == 0 {
        if tb == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        100.0 * (tb as f64 - ta as f64) / ta as f64
    };
    let _ = writeln!(
        out,
        "  {:indent$}{:<width$} {:>14} {:>14} {:>+8.1}%",
        "",
        a.label,
        ta,
        tb,
        delta,
        indent = depth * 2,
        width = 34usize.saturating_sub(depth * 2),
    );
    let empty = ProfileNode::default();
    for ca in &a.children {
        let cb = b.child(&ca.label).unwrap_or(&empty);
        diff_node(out, ca, cb, depth + 1);
    }
    for cb in &b.children {
        if a.child(&cb.label).is_none() {
            let ca = ProfileNode {
                label: cb.label.clone(),
                ..ProfileNode::default()
            };
            diff_node(out, &ca, cb, depth + 1);
        }
    }
}

fn node_json(n: &ProfileNode) -> Json {
    Json::Obj(vec![
        ("label".into(), Json::Str(n.label.clone())),
        ("count".into(), Json::UInt(n.count)),
        (
            "self".into(),
            Json::Arr(
                n.self_cycles
                    .iter()
                    .map(|(_, c)| Json::UInt(c.get()))
                    .collect(),
            ),
        ),
        (
            "children".into(),
            Json::Arr(n.children.iter().map(node_json).collect()),
        ),
    ])
}

fn node_from_json(j: &Json) -> Result<ProfileNode, String> {
    let label = j
        .get("label")
        .and_then(Json::as_str)
        .ok_or("profile node: missing 'label'")?
        .to_string();
    let count = j
        .get("count")
        .and_then(Json::as_u64)
        .ok_or("profile node: missing 'count'")?;
    let mut self_cycles = Breakdown::new();
    match j.get("self") {
        Some(Json::Arr(a)) if a.len() == Phase::ALL.len() => {
            for (p, v) in Phase::ALL.into_iter().zip(a) {
                let c = v.as_u64().ok_or("profile node: invalid 'self' cell")?;
                self_cycles.record(p, Cycles(c));
            }
        }
        _ => return Err("profile node: missing/invalid 'self'".into()),
    }
    let children = match j.get("children") {
        Some(Json::Arr(a)) => a
            .iter()
            .map(node_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("profile node: missing 'children'".into()),
    };
    Ok(ProfileNode {
        label,
        count,
        self_cycles,
        children,
    })
}

/// Renders the snapshot in collapsed-stack flamegraph format:
/// `engine;task;scope;...;phase self_cycles`, one line per stack, with
/// the leaf frame naming the phase the cycles were charged to. Stacks
/// are aggregated across cores and devices and sorted for determinism.
pub fn flamegraph(snap: &ProfileSnapshot) -> String {
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for r in &snap.roots {
        flame_walk(&mut agg, &r.engine, &r.node);
    }
    let mut out = String::new();
    for (stack, v) in agg {
        let _ = writeln!(out, "{stack} {v}");
    }
    out
}

fn flame_walk(agg: &mut BTreeMap<String, u64>, prefix: &str, n: &ProfileNode) {
    let path = format!("{prefix};{}", n.label);
    for (p, c) in n.self_cycles.iter() {
        if c > Cycles::ZERO {
            *agg.entry(format!("{path};{}", p.slug())).or_insert(0) += c.get();
        }
    }
    for c in &n.children {
        flame_walk(agg, &path, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{CoreId, CostModel};

    fn ctx(core: u16) -> CoreCtx {
        CoreCtx::new(CoreId(core), Arc::new(CostModel::haswell_2_4ghz()))
    }

    fn charged_obs() -> Obs {
        let obs = Obs::isolated();
        obs.profiler().set_enabled(true);
        obs
    }

    #[test]
    fn disabled_profiler_is_passthrough() {
        let obs = Obs::isolated();
        let mut c = ctx(0);
        let r = task_scope(&obs, &mut c, "copy", Some(0), "rx", |ctx| {
            ctx.charge(Phase::Memcpy, Cycles(10));
            42
        });
        assert_eq!(r, 42);
        assert!(obs.profiler().snapshot().roots.is_empty());
    }

    #[test]
    fn nested_scopes_split_self_and_total() {
        let obs = charged_obs();
        let mut c = ctx(0);
        task_scope(&obs, &mut c, "copy", Some(0), "rx", |ctx| {
            ctx.charge(Phase::RxParsing, Cycles(100));
            scope(ctx, "dma_map", |ctx| {
                ctx.charge(Phase::CopyMgmt, Cycles(30));
                scope(ctx, "memcpy", |ctx| {
                    ctx.charge(Phase::Memcpy, Cycles(50));
                });
                ctx.charge(Phase::CopyMgmt, Cycles(5));
            });
            ctx.charge(Phase::Other, Cycles(7));
        });
        let snap = obs.profiler().snapshot();
        assert_eq!(snap.roots.len(), 1);
        let root = &snap.roots[0];
        assert_eq!(root.engine, "copy");
        assert_eq!(root.device, Some(0));
        let rx = &root.node;
        assert_eq!(rx.label, "rx");
        assert_eq!(rx.count, 1);
        // Self excludes everything charged under dma_map.
        assert_eq!(rx.self_total(), 107);
        assert_eq!(rx.total(), 192);
        let map = rx.child("dma_map").ok_or("missing dma_map").unwrap();
        assert_eq!(map.self_total(), 35);
        assert_eq!(map.total(), 85);
        let mc = map.child("memcpy").ok_or("missing memcpy").unwrap();
        assert_eq!(mc.self_total(), 50);
        // Depth-1 cut matches the ctx breakdown exactly.
        let cut = snap.breakdown_cut(Some(0));
        assert_eq!(cut, *c.breakdown());
    }

    #[test]
    fn scope_without_root_is_passthrough() {
        let mut c = ctx(0);
        let r = scope(&mut c, "orphan", |ctx| {
            ctx.charge(Phase::Other, Cycles(1));
            7
        });
        assert_eq!(r, 7);
    }

    #[test]
    fn repeated_steps_accumulate_counts() {
        let obs = charged_obs();
        let mut c = ctx(3);
        for _ in 0..5 {
            task_scope(&obs, &mut c, "identity+", None, "tx", |ctx| {
                scope(ctx, "dma_map", |ctx| {
                    ctx.charge(Phase::IommuPageTableMgmt, Cycles(11));
                });
            });
        }
        let snap = obs.profiler().snapshot();
        assert_eq!(snap.roots.len(), 1);
        assert_eq!(snap.roots[0].core, 3);
        assert_eq!(snap.roots[0].node.count, 5);
        let map = snap.roots[0]
            .node
            .child("dma_map")
            .cloned()
            .unwrap_or_default();
        assert_eq!(map.count, 5);
        assert_eq!(map.total(), 55);
    }

    #[test]
    fn note_reset_rebases_open_scopes_and_clears_tree() {
        let obs = charged_obs();
        let mut c = ctx(0);
        // Warm-up step collected into the tree, then a mid-step reset.
        task_scope(&obs, &mut c, "copy", Some(0), "rx", |ctx| {
            ctx.charge(Phase::Memcpy, Cycles(1000));
        });
        task_scope(&obs, &mut c, "copy", Some(0), "rx", |ctx| {
            ctx.charge(Phase::Memcpy, Cycles(500));
            ctx.reset_stats();
            note_reset(ctx);
            ctx.charge(Phase::RxParsing, Cycles(40));
        });
        let snap = obs.profiler().snapshot();
        // Only post-reset cycles survive, matching the post-reset ctx.
        assert_eq!(snap.breakdown_cut(Some(0)), *c.breakdown());
        assert_eq!(snap.roots[0].node.total(), 40);
    }

    #[test]
    fn two_engines_two_trees() {
        let obs = charged_obs();
        let mut c = ctx(0);
        task_scope(&obs, &mut c, "copy", Some(0), "rx", |ctx| {
            ctx.charge(Phase::Memcpy, Cycles(10));
        });
        task_scope(&obs, &mut c, "identity+", Some(0), "rx", |ctx| {
            ctx.charge(Phase::InvalidateIotlb, Cycles(20));
        });
        let snap = obs.profiler().snapshot();
        assert_eq!(snap.engines(), vec!["copy", "identity+"]);
        assert_eq!(snap.merged(Some("copy")).total(), 10);
        assert_eq!(snap.merged(Some("identity+")).total(), 20);
        assert_eq!(snap.merged(None).total(), 30);
    }

    #[test]
    fn json_lines_roundtrip() {
        let obs = charged_obs();
        let mut c = ctx(1);
        task_scope(&obs, &mut c, "copy", Some(0), "rx", |ctx| {
            ctx.charge(Phase::RxParsing, Cycles(9));
            scope(ctx, "deliver", |ctx| {
                ctx.charge(Phase::CopyUser, Cycles(33));
            });
        });
        let snap = obs.profiler().snapshot();
        let lines = snap.to_json_lines();
        // Through an encode/parse cycle, as `report --diff` loads it.
        let parsed: Vec<Json> = lines
            .iter()
            .map(|l| Json::parse(&l.encode()).ok().unwrap_or(Json::Null))
            .collect();
        let back = ProfileSnapshot::from_json_lines(&parsed)
            .ok()
            .unwrap_or_default();
        assert_eq!(back, snap);
    }

    #[test]
    fn flamegraph_lines_are_phase_leafed() {
        let obs = charged_obs();
        let mut c = ctx(0);
        task_scope(&obs, &mut c, "copy", Some(0), "rx", |ctx| {
            scope(ctx, "dma_map", |ctx| {
                ctx.charge(Phase::Memcpy, Cycles(64));
            });
            ctx.charge(Phase::RxParsing, Cycles(8));
        });
        let fg = flamegraph(&obs.profiler().snapshot());
        assert!(fg.contains("copy;rx;dma_map;memcpy 64"), "got: {fg}");
        assert!(fg.contains("copy;rx;rx_parsing 8"), "got: {fg}");
    }

    #[test]
    fn unwinding_scope_cleans_thread_state() {
        let obs = charged_obs();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut c = ctx(0);
            task_scope(&obs, &mut c, "copy", None, "rx", |ctx| {
                scope(ctx, "boom", |_| panic!("injected"));
            });
        }));
        assert!(caught.is_err());
        // The thread binding is gone: a fresh task works normally.
        let mut c = ctx(0);
        task_scope(&obs, &mut c, "copy", None, "rx", |ctx| {
            ctx.charge(Phase::Other, Cycles(5));
        });
        let snap = obs.profiler().snapshot();
        let rx = snap.merged(Some("copy"));
        assert_eq!(rx.total(), 5);
    }

    #[test]
    fn diff_render_alignment() {
        let mut a = ProfileSnapshot::default();
        let mut b = ProfileSnapshot::default();
        let mk = |v: u64| {
            let mut self_cycles = Breakdown::new();
            self_cycles.record(Phase::CopyMgmt, Cycles(v));
            ProfileRoot {
                engine: "copy".into(),
                core: 0,
                device: None,
                node: ProfileNode {
                    label: "rx".into(),
                    count: 1,
                    self_cycles,
                    children: vec![],
                },
            }
        };
        a.roots.push(mk(100));
        b.roots.push(mk(150));
        let d = a.render_diff(&b);
        assert!(d.contains("rx"), "got: {d}");
        assert!(d.contains("+50.0%"), "got: {d}");
    }

    #[test]
    fn render_mentions_all_phases() {
        let obs = charged_obs();
        let mut c = ctx(0);
        task_scope(&obs, &mut c, "copy", Some(0), "rx", |ctx| {
            ctx.charge(Phase::Memcpy, Cycles(240));
        });
        let text = obs.profiler().snapshot().render(2.4);
        for p in Phase::ALL {
            assert!(text.contains(p.label()), "missing {}", p.label());
        }
        assert!(text.contains("=== profile: copy ==="));
    }
}
