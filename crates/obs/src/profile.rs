//! Hierarchical virtual-time profiler: nested scopes accumulate per-phase
//! cycles into a call tree keyed `engine × core × device`.
//!
//! The paper's Figure 5 decomposes packet time into eight fixed
//! [`Phase`] categories. This module generalizes that one hand-wired
//! breakdown into an arbitrary-depth **call tree**: every scope records
//! the per-phase [`CoreCtx::breakdown`] delta it observed, split into
//! *self* cycles (charged directly in the scope) and *total* cycles
//! (self + everything charged in child scopes).
//!
//! - [`task_scope`] opens a *root* scope for one engine's task step (the
//!   netsim RX/TX loop bodies). It binds the host thread to the
//!   profiler handle so callees need no `Obs` plumbing.
//! - [`scope`] opens a nested scope anywhere below a root — the DMA
//!   engines, the IOMMU invalidation queue, the shadow pool, the driver.
//!   With no root open on the thread (unit tests, teardown, deferred
//!   flushes) a `scope` is a pass-through, which is exactly what keeps
//!   the profile tree byte-identical to the registry's published
//!   breakdown: both see only what runs under a measured task.
//! - [`note_reset`] re-bases every open scope after a warm-up
//!   [`CoreCtx::reset_stats`] and clears the task's tree, so
//!   steady-state trees cover precisely the measured window.
//!
//! The **depth-1 cut** of the tree — per-phase totals summed over root
//! nodes — reproduces the Figure 5 [`Breakdown`] exactly; see
//! [`ProfileSnapshot::breakdown_cut`].
//!
//! Exports: [`ProfileSnapshot::render`] (text table),
//! [`ProfileSnapshot::to_json_lines`] (replayable JSONL),
//! [`flamegraph`] (collapsed-stack format) and [`chrome_trace`]
//! (Chrome trace-event JSON, loadable in Perfetto via the span log).
//!
//! All timestamps are simulated cycles; the profiler never reads host
//! wall-clock time, and a disabled profiler costs one relaxed load per
//! root scope (nested scopes only check thread-local state).

use crate::breakdown::phase_slug;
use crate::json::Json;
use crate::Obs;
use simcore::sync::Mutex;
use simcore::{Breakdown, CoreCtx, Cycles, Phase};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Number of phase cells per node, one per [`Phase::ALL`] entry (cell `i`
/// belongs to `Phase::ALL[i]`, the paper's legend order).
pub const PHASE_COUNT: usize = 8;

/// Default bound on retained span-log entries (begin/end pairs for the
/// Chrome trace exporter).
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 20;

fn cells(b: &Breakdown) -> [u64; PHASE_COUNT] {
    let mut out = [0u64; PHASE_COUNT];
    for (i, p) in Phase::ALL.iter().enumerate() {
        out[i] = b.get(*p).0;
    }
    out
}

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
    /// Breakdown cells at scope entry (or at the last [`note_reset`]).
    enter: [u64; PHASE_COUNT],
    /// Cycles attributed to already-closed child scopes; subtracted from
    /// this scope's delta to obtain its self time.
    consumed: [u64; PHASE_COUNT],
    /// Whether a span-log `begin` entry was emitted (and so an `end`
    /// entry must be, to keep B/E pairs matched).
    span_logged: bool,
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
    self_cycles: [u64; PHASE_COUNT],
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

/// One span-log entry: a scope begin or end, in record order.
///
/// The log is only populated while [`Profiler::set_span_log`] is on; it
/// feeds [`chrome_trace`]. Entries from one core are strictly nested
/// (the simulator interleaves virtual cores between task steps only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Engine the enclosing task runs (paper name, e.g. `"copy"`).
    pub engine: &'static str,
    /// Virtual core executing the scope.
    pub core: u16,
    /// Device the task drives, if any.
    pub device: Option<u16>,
    /// Scope label (e.g. `"dma_map"`).
    pub label: &'static str,
    /// Virtual time of the begin/end.
    pub at: Cycles,
    /// True for a scope entry, false for its exit.
    pub begin: bool,
}

struct ProfInner {
    /// Per-key synthetic containers whose children are task-root nodes.
    trees: Vec<(Key, Node)>,
    spans: Vec<SpanEvent>,
    span_dropped: u64,
}

/// The stack-wide profiler: call trees plus an optional span log.
///
/// One lives inside every [`Obs`] handle (see [`Obs::profiler`]); it is
/// disabled by default so ordinary runs and benchmarks pay one relaxed
/// load per task step.
pub struct Profiler {
    enabled: AtomicBool,
    spans_enabled: AtomicBool,
    inner: Mutex<ProfInner>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Profiler")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .field("trees", &inner.trees.len())
            .field("spans", &inner.spans.len())
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
            spans_enabled: AtomicBool::new(false),
            inner: Mutex::new(ProfInner {
                trees: Vec::new(),
                spans: Vec::new(),
                span_dropped: 0,
            }),
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

    /// Enables or disables the span log feeding [`chrome_trace`]. Toggle
    /// only between runs: turning it off mid-span loses end entries.
    pub fn set_span_log(&self, on: bool) {
        self.spans_enabled.store(on, Ordering::Relaxed);
    }

    /// Span-log begins dropped because [`DEFAULT_SPAN_CAPACITY`] entries
    /// were already retained; ends of logged spans are always kept, so
    /// B/E pairs stay matched.
    pub fn span_dropped(&self) -> u64 {
        self.inner.lock().span_dropped
    }

    /// Snapshot of the retained span log, in record order.
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.inner.lock().spans.clone()
    }

    /// Point-in-time copy of every collected call tree.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let inner = self.inner.lock();
        let mut roots = Vec::new();
        for (key, container) in &inner.trees {
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

    fn log_begin(&self, key: Key, label: &'static str, at: Cycles) -> bool {
        if !self.spans_enabled.load(Ordering::Relaxed) {
            return false;
        }
        let mut inner = self.inner.lock();
        if inner.spans.len() >= DEFAULT_SPAN_CAPACITY {
            inner.span_dropped += 1;
            return false;
        }
        inner.spans.push(SpanEvent {
            engine: key.engine,
            core: key.core,
            device: key.device,
            label,
            at,
            begin: true,
        });
        true
    }

    fn log_end(&self, key: Key, label: &'static str, at: Cycles) {
        // Ends of logged begins bypass the capacity check so B/E pairs
        // stay matched; the overshoot is bounded by the nesting depth.
        self.inner.lock().spans.push(SpanEvent {
            engine: key.engine,
            core: key.core,
            device: key.device,
            label,
            at,
            begin: false,
        });
    }

    fn record_exit(
        &self,
        key: Key,
        path: &[&'static str],
        enter: &[u64; PHASE_COUNT],
        consumed: &[u64; PHASE_COUNT],
        exit: &[u64; PHASE_COUNT],
    ) -> [u64; PHASE_COUNT] {
        let mut delta = [0u64; PHASE_COUNT];
        let mut selfc = [0u64; PHASE_COUNT];
        for i in 0..PHASE_COUNT {
            delta[i] = exit[i].saturating_sub(enter[i]);
            selfc[i] = delta[i].saturating_sub(consumed[i]);
        }
        let mut inner = self.inner.lock();
        let mut node = if let Some(i) = inner.trees.iter().position(|(k, _)| *k == key) {
            &mut inner.trees[i].1
        } else {
            inner.trees.push((key, Node::default()));
            let last = inner.trees.len() - 1;
            &mut inner.trees[last].1
        };
        for l in path {
            node = node.child_mut(l);
        }
        node.count += 1;
        for (cell, add) in node.self_cycles.iter_mut().zip(selfc) {
            *cell = cell.saturating_add(add);
        }
        delta
    }

    fn reset_tree(&self, key: Key) {
        self.inner.lock().trees.retain(|(k, _)| *k != key);
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
    let span_logged = prof.log_begin(key, label, ctx.now());
    TASK.with(|t| {
        *t.borrow_mut() = Some(TaskCtx {
            profiler: Arc::clone(prof),
            key,
            frames: vec![Frame {
                label,
                enter: cells(&ctx.breakdown),
                consumed: [0; PHASE_COUNT],
                span_logged,
            }],
        })
    });
    set_root_open(true);
    let guard = RootGuard;
    let r = f(ctx);
    std::mem::forget(guard);
    set_root_open(false);
    let exit = cells(&ctx.breakdown);
    let end = ctx.now();
    if let Some(task) = TASK.with(|t| t.borrow_mut().take()) {
        if let Some(frame) = task.frames.last() {
            task.profiler.record_exit(
                task.key,
                &[frame.label],
                &frame.enter,
                &frame.consumed,
                &exit,
            );
            if frame.span_logged {
                task.profiler.log_end(task.key, frame.label, end);
            }
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
    let bound = TASK.with(|t| {
        t.borrow()
            .as_ref()
            .map(|task| (Arc::clone(&task.profiler), task.key))
    });
    let (prof, key) = match bound {
        Some(b) => b,
        None => return f(ctx),
    };
    let span_logged = prof.log_begin(key, label, ctx.now());
    TASK.with(|t| {
        if let Some(task) = t.borrow_mut().as_mut() {
            task.frames.push(Frame {
                label,
                enter: cells(&ctx.breakdown),
                consumed: [0; PHASE_COUNT],
                span_logged,
            });
        }
    });
    let guard = FrameGuard;
    let r = f(ctx);
    std::mem::forget(guard);
    let exit = cells(&ctx.breakdown);
    let end = ctx.now();
    TASK.with(|t| {
        let mut b = t.borrow_mut();
        if let Some(task) = b.as_mut() {
            if let Some(frame) = task.frames.pop() {
                let mut path: Vec<&'static str> = task.frames.iter().map(|fr| fr.label).collect();
                path.push(frame.label);
                let delta = task.profiler.record_exit(
                    task.key,
                    &path,
                    &frame.enter,
                    &frame.consumed,
                    &exit,
                );
                if let Some(parent) = task.frames.last_mut() {
                    for (cell, add) in parent.consumed.iter_mut().zip(delta) {
                        *cell = cell.saturating_add(add);
                    }
                }
                if frame.span_logged {
                    task.profiler.log_end(task.key, frame.label, end);
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
/// the steady-state tree matches the registry's published breakdown
/// byte for byte. No-op when no root scope is open.
pub fn note_reset(ctx: &CoreCtx) {
    TASK.with(|t| {
        let mut b = t.borrow_mut();
        if let Some(task) = b.as_mut() {
            let now = cells(&ctx.breakdown);
            for fr in task.frames.iter_mut() {
                fr.enter = now;
                fr.consumed = [0; PHASE_COUNT];
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
    /// Cycles charged directly in this scope, per [`Phase::ALL`] cell.
    pub self_cycles: [u64; PHASE_COUNT],
    /// Child scopes, in first-entered order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Self cycles summed over all phases.
    pub fn self_total(&self) -> u64 {
        self.self_cycles.iter().sum()
    }

    /// Per-phase cycles including every descendant.
    pub fn total_cycles(&self) -> [u64; PHASE_COUNT] {
        let mut out = self.self_cycles;
        for c in &self.children {
            let t = c.total_cycles();
            for i in 0..PHASE_COUNT {
                out[i] = out[i].saturating_add(t[i]);
            }
        }
        out
    }

    /// Total cycles (self + descendants) summed over all phases.
    pub fn total(&self) -> u64 {
        self.total_cycles().iter().sum()
    }

    /// Child with the given label, if present.
    pub fn child(&self, label: &str) -> Option<&ProfileNode> {
        self.children.iter().find(|c| c.label == label)
    }

    /// Accumulates `other` (same logical node) into `self`, merging
    /// children by label.
    pub fn merge_from(&mut self, other: &ProfileNode) {
        self.count += other.count;
        for i in 0..PHASE_COUNT {
            self.self_cycles[i] = self.self_cycles[i].saturating_add(other.self_cycles[i]);
        }
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
    /// When root scopes wrap whole task steps this is byte-identical to
    /// the breakdown the experiment publishes into the registry (the
    /// Figure 5 bars) — the acceptance invariant the `report` binary
    /// asserts.
    pub fn breakdown_cut(&self, device: Option<u16>) -> Breakdown {
        let mut b = Breakdown::new();
        for r in &self.roots {
            if r.device != device {
                continue;
            }
            let t = r.node.total_cycles();
            for (i, p) in Phase::ALL.iter().enumerate() {
                b.record(*p, Cycles(t[i]));
            }
        }
        b
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
            let grand: u64 = totals.iter().sum();
            let _ = writeln!(out, "=== profile: {engine} ===");
            let _ = writeln!(out, "  phase totals (depth-1 cut):");
            for (i, p) in Phase::ALL.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "    {:<22} {:>14}  {:>5.1}%",
                    p.label(),
                    totals[i],
                    100.0 * totals[i] as f64 / grand.max(1) as f64
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
            Json::Arr(n.self_cycles.iter().map(|&v| Json::UInt(v)).collect()),
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
    let mut self_cycles = [0u64; PHASE_COUNT];
    match j.get("self") {
        Some(Json::Arr(a)) if a.len() == PHASE_COUNT => {
            for (i, v) in a.iter().enumerate() {
                self_cycles[i] = v.as_u64().ok_or("profile node: invalid 'self' cell")?;
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
    for (i, p) in Phase::ALL.iter().enumerate() {
        if n.self_cycles[i] > 0 {
            *agg.entry(format!("{path};{}", phase_slug(*p))).or_insert(0) += n.self_cycles[i];
        }
    }
    for c in &n.children {
        flame_walk(agg, &path, c);
    }
}

/// Converts a span log into a Chrome trace-event JSON document
/// (Perfetto-loadable): engines become processes, cores become threads,
/// scopes become `B`/`E` duration events with `ts` in virtual
/// microseconds at `clock_ghz`.
pub fn chrome_trace(spans: &[SpanEvent], clock_ghz: f64) -> Json {
    let mut engines: Vec<&str> = Vec::new();
    let mut events: Vec<Json> = Vec::new();
    for s in spans {
        let pid = match engines.iter().position(|e| *e == s.engine) {
            Some(i) => i as u64 + 1,
            None => {
                engines.push(s.engine);
                let pid = engines.len() as u64;
                events.push(Json::Obj(vec![
                    ("name".into(), Json::Str("process_name".into())),
                    ("ph".into(), Json::Str("M".into())),
                    ("pid".into(), Json::UInt(pid)),
                    (
                        "args".into(),
                        Json::Obj(vec![("name".into(), Json::Str(s.engine.into()))]),
                    ),
                ]));
                pid
            }
        };
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str(s.label.into())),
            ("cat".into(), Json::Str("sim".into())),
            (
                "ph".into(),
                Json::Str(if s.begin { "B".into() } else { "E".into() }),
            ),
            ("ts".into(), Json::Float(s.at.to_micros(clock_ghz))),
            ("pid".into(), Json::UInt(pid)),
            ("tid".into(), Json::UInt(s.core as u64)),
        ]));
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
}

/// Validates a Chrome trace-event document: every `B` has a matching
/// `E` with the same name, properly nested per `(pid, tid)` track.
/// Returns the number of matched pairs.
pub fn validate_chrome_trace(doc: &Json) -> Result<u64, String> {
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(a)) => a,
        _ => return Err("missing 'traceEvents' array".into()),
    };
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut pairs = 0u64;
    for e in events {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or("event missing 'ph'")?;
        if ph == "M" {
            continue;
        }
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or("event missing 'name'")?;
        let pid = e.get("pid").and_then(Json::as_u64).ok_or("missing 'pid'")?;
        let tid = e.get("tid").and_then(Json::as_u64).ok_or("missing 'tid'")?;
        let stack = stacks.entry((pid, tid)).or_default();
        match ph {
            "B" => stack.push(name.to_string()),
            "E" => match stack.pop() {
                Some(open) if open == name => pairs += 1,
                Some(open) => {
                    return Err(format!(
                        "mismatched E '{name}' closes '{open}' on ({pid},{tid})"
                    ))
                }
                None => return Err(format!("E '{name}' with no open B on ({pid},{tid})")),
            },
            other => return Err(format!("unsupported phase '{other}'")),
        }
    }
    for ((pid, tid), stack) in stacks {
        if !stack.is_empty() {
            return Err(format!("unclosed spans {stack:?} on ({pid},{tid})"));
        }
    }
    Ok(pairs)
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
        assert_eq!(cut, c.breakdown);
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
        assert_eq!(snap.breakdown_cut(Some(0)), c.breakdown);
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
    fn chrome_trace_has_matched_pairs() {
        let obs = charged_obs();
        obs.profiler().set_span_log(true);
        let mut c = ctx(0);
        for _ in 0..3 {
            task_scope(&obs, &mut c, "copy", Some(0), "rx", |ctx| {
                scope(ctx, "dma_map", |ctx| {
                    ctx.charge(Phase::Memcpy, Cycles(10));
                });
                scope(ctx, "deliver", |ctx| {
                    ctx.charge(Phase::CopyUser, Cycles(10));
                });
            });
        }
        let spans = obs.profiler().spans();
        assert_eq!(spans.len(), 3 * 3 * 2, "3 steps x 3 scopes x B/E");
        let doc = chrome_trace(&spans, 2.4);
        // Survives an encode/parse cycle and validates.
        let parsed = Json::parse(&doc.encode()).ok().unwrap_or(Json::Null);
        let pairs = validate_chrome_trace(&parsed);
        assert_eq!(pairs, Ok(9));
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
        let mk = |v: u64| ProfileRoot {
            engine: "copy".into(),
            core: 0,
            device: None,
            node: ProfileNode {
                label: "rx".into(),
                count: 1,
                self_cycles: [v, 0, 0, 0, 0, 0, 0, 0],
                children: vec![],
            },
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
