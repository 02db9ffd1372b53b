//! The DMA-API protocol checker: the rules the handle types cannot state.
//!
//! `DmaMapping` and `CoherentBuffer` are move-only and consumed by
//! `unmap` / `unmap_sg` / `free_coherent`, so "unmap exactly once" and "no
//! use after unmap" are rustc's to enforce (E0382 — alias-aware,
//! interprocedural, un-waivable). Two obligations remain that ownership
//! does not express, and this pass checks them over each function's CFG:
//!
//! - **leak-on-exit** — a `map`/`alloc_coherent` result that can reach a
//!   `return`/`?` edge or function exit still owned by the function:
//!   nothing runs on drop, so the mapping stays device-reachable. This is
//!   the static cross-check of dmasan's teardown `leak` rule, which is the
//!   primary enforcer.
//! - **cpu-read-while-mapped** — a CPU-side read of a `FromDevice` /
//!   `Bidirectional` buffer while its mapping is live. Under DMA shadowing
//!   the device's bytes reach the OS buffer only in `unmap`'s copy, so
//!   such a read sees stale data on *copy* and a racing device everywhere
//!   else. dmasan has no mirror: the runtime observes device-side bus
//!   accesses, not CPU loads.
//!
//! ## Ownership is read off the call site
//!
//! The lattice is one fact per handle — *may still be owned, mapped, by
//! this function* — and it follows the language's own move semantics, so
//! no callee summary is consulted: a tracked handle mentioned **by value**
//! (`finish(engine, ctx, m)`, `engine.unmap(ctx, m)`, `ring.push(m)`,
//! `Ok(m)`, a closure body using `m`) is moved and the obligation leaves
//! with it, and so is the receiver of the handle's one `self` method
//! (`engine.unmap(ctx, m.device_wrote(n))`); `&m`, `&mut m` and `m.field`
//! are borrows and the handle stays tracked. The one interprocedural fact
//! kept is the *return* effect
//! ([`crate::summary::RetEffect::FreshMapped`]): `let h = make_rx(…)` is
//! tracked like a direct `map` when the callee provably returns a fresh
//! mapping.
//!
//! ## Soundness caveats (by design, to keep the pass zero-false-positive)
//!
//! Only handles bound by a direct `let h = engine.map(…)` /
//! `alloc_coherent(…)` call chain (optionally suffixed `?` / `.unwrap()` /
//! `.expect(…)`) — or by a uniquely-resolved call returning a fresh
//! mapping — are tracked; a moved handle is the next owner's business
//! (and dmasan's). Map results consumed by a surrounding expression (a
//! `match` scrutinee, a closure wrapper like
//! `obs::profile::scope(…, |ctx| engine.map(…))`) are not tracked at all.
//! A `map` call is recognized only when its first argument is a `ctx`-ish
//! identifier and its last argument names a `DmaDirection` (or is the
//! literal identifier `dir`), which keeps `Iterator::map`, page-table
//! `map(page, pfn, perms)`, and `perms()`-projected calls out.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, INTRINSICS};
use crate::cfg::{build_trees, extract_functions, split_top_level_commas, Cfg, Stmt, Tree};
use crate::lexer::Prep;
use crate::summary::{FnSummary, RetEffect};

/// One protocol finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule name: `leak-on-exit`, `cpu-read-while-mapped`,
    /// `device-taint`.
    pub rule: &'static str,
    /// 1-indexed line.
    pub line: usize,
    /// What was found.
    pub detail: String,
}

/// The interprocedural context: call resolution plus the per-function
/// summaries, shared by this pass and [`crate::taint`].
pub struct InterCtx<'a> {
    /// The workspace call graph.
    pub graph: &'a CallGraph,
    /// Per-node summaries, indexed like `graph.nodes`.
    pub summaries: &'a [FnSummary],
}

/// Streaming direction of a tracked mapping, as far as the source shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    ToDevice,
    FromDevice,
    Bidirectional,
    /// Direction is a runtime value (`dir` variable): read rule disabled.
    Unknown,
    /// Coherent allocation: always CPU-visible, read rule not applicable.
    Coherent,
}

impl Dir {
    /// The device may write the buffer: its bytes are device-controlled,
    /// and final only once the mapping is gone.
    pub(crate) fn device_writes(self) -> bool {
        matches!(self, Dir::FromDevice | Dir::Bidirectional)
    }

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Dir::ToDevice => "ToDevice",
            Dir::FromDevice => "FromDevice",
            Dir::Bidirectional => "Bidirectional",
            Dir::Unknown => "Unknown",
            Dir::Coherent => "Coherent",
        }
    }
}

/// A handle this function may still own, mapped, on some path reaching
/// the program point. Presence in the [`State`] *is* the lattice fact
/// (union join); a move or unmap removes the entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Live {
    dir: Dir,
    /// The identifier passed to `DmaBuf::new(addr, …)` at the map site,
    /// when visible — lets the read rule connect `mem.read_vec(addr, …)`
    /// back to this mapping.
    buf: Option<String>,
    /// Line of the map call that created the handle.
    born_line: usize,
}

type State = BTreeMap<String, Live>;

fn join_into(dst: &mut State, src: &State) -> bool {
    let mut changed = false;
    for (k, v) in src {
        match dst.get_mut(k) {
            None => {
                dst.insert(k.clone(), v.clone());
                changed = true;
            }
            Some(d) => {
                if d.dir != v.dir && d.dir != Dir::Unknown {
                    d.dir = Dir::Unknown;
                    changed = true;
                }
            }
        }
    }
    changed
}

const MAP_METHODS: [&str; 3] = ["map", "map_sg", "alloc_coherent"];
/// `DmaMapping`'s by-value methods: `m.device_wrote(n)` takes `self`, so the
/// receiver is moved, not projected.
const SELF_METHODS: [&str; 1] = ["device_wrote"];
/// CPU-side read markers on the simulated memory (`SimMemory` API).
pub(crate) const READ_METHODS: [&str; 4] = ["read", "read_vec", "read_into", "equals"];

/// One ordered event extracted from a statement.
#[derive(Debug)]
pub(crate) enum Ev {
    /// `v` mentioned by value — not borrowed (`&v`), not projected
    /// (`v.…`): ownership of `v` moves out of the function's hands.
    Move { var: String },
    /// A CPU-side memory read; `head` are the identifiers of its first
    /// argument (the address expression).
    Read { head: Vec<String>, line: usize },
    /// A call that is neither a DMA intrinsic nor a memory read:
    /// `name(…)` or `recv.name(…)` with `argc` arguments.
    UserCall {
        name: String,
        method: bool,
        /// Free call preceded by a `::` path segment (resolution skipped:
        /// the path may name a foreign type's constructor).
        qualified: bool,
        argc: usize,
    },
}

fn ident_of(t: &Tree) -> Option<&str> {
    match t {
        Tree::Tok(tok) if tok.is_ident => Some(&tok.text),
        _ => None,
    }
}

/// First argument is `ctx`-flavored: an identifier ending in `ctx`
/// (`ctx`, `setup_ctx`, `&mut ctx`, `r.ctx`).
fn ctx_first_arg(children: &[Tree]) -> bool {
    split_top_level_commas(children)
        .first()
        .is_some_and(|first| {
            first
                .iter()
                .any(|t| ident_of(t).is_some_and(|s| s.ends_with("ctx")))
        })
}

/// Last argument names a direction: mentions `DmaDirection` or is exactly
/// the identifier `dir`. Rejects `dir.perms()` and friends.
fn dir_last_arg(children: &[Tree]) -> Option<Dir> {
    let args = split_top_level_commas(children);
    let last = args.last()?;
    if let Some(k) = last.iter().position(|t| t.is_ident("DmaDirection")) {
        let name = last.get(k + 2).and_then(ident_of).unwrap_or("");
        return Some(match name {
            "ToDevice" => Dir::ToDevice,
            "FromDevice" => Dir::FromDevice,
            "Bidirectional" => Dir::Bidirectional,
            _ => Dir::Unknown,
        });
    }
    if last.len() == 1 && last[0].is_ident("dir") {
        return Some(Dir::Unknown);
    }
    None
}

/// The identifier handed to `DmaBuf::new(addr, …)` inside map args.
fn dma_buf_ident(children: &[Tree]) -> Option<String> {
    for (i, t) in children.iter().enumerate() {
        if t.is_ident("DmaBuf")
            && children.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && children.get(i + 2).is_some_and(|t| t.is_ident("new"))
        {
            if let Some(Tree::Group {
                children: inner, ..
            }) = children.get(i + 3)
            {
                return inner.first().and_then(ident_of).map(str::to_string);
            }
        }
        if let Tree::Group {
            children: inner, ..
        } = t
        {
            if let Some(found) = dma_buf_ident(inner) {
                return Some(found);
            }
        }
    }
    None
}

/// Whether `.name(children)` is a DMA-API map call, and if so the
/// direction it maps with.
fn map_call_dir(name: &str, children: &[Tree]) -> Option<Dir> {
    if !MAP_METHODS.contains(&name) || !ctx_first_arg(children) {
        return None;
    }
    if name == "alloc_coherent" {
        return Some(Dir::Coherent);
    }
    dir_last_arg(children)
}

/// All bare (unprojected) identifiers in a tree slice, recursively.
fn bare_idents(trees: &[Tree], out: &mut Vec<String>) {
    for (k, t) in trees.iter().enumerate() {
        match t {
            Tree::Tok(tok)
                if tok.is_ident && !trees.get(k + 1).is_some_and(|n| n.is_punct(".")) =>
            {
                out.push(tok.text.clone());
            }
            Tree::Group { children, .. } => bare_idents(children, out),
            _ => {}
        }
    }
}

/// Keywords that look like `ident (…)` but never name a callable.
const CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "fn", "in", "as", "move", "loop", "let", "else",
];

/// Left-to-right event extraction over a statement's trees. Closure
/// bodies are scanned inline: a closure that uses a handle by value moves
/// it, one that only projects it borrows it, exactly as outside a closure.
pub(crate) fn scan(trees: &[Tree], evs: &mut Vec<Ev>) {
    for (i, t) in trees.iter().enumerate() {
        let name = match t {
            Tree::Group { children, .. } => {
                scan(children, evs);
                continue;
            }
            Tree::Tok(tok) if tok.is_ident => &tok.text,
            Tree::Tok(_) => continue,
        };
        let after = |p: &str| i > 0 && trees[i - 1].is_punct(p);
        let method = after(".");
        if let Some(Tree::Group {
            delim: '(',
            children,
            ..
        }) = trees.get(i + 1)
        {
            if method && READ_METHODS.contains(&name.as_str()) {
                let mut head = Vec::new();
                if let Some(first) = split_top_level_commas(children).first() {
                    bare_idents(first, &mut head);
                }
                evs.push(Ev::Read {
                    head,
                    line: t.line(),
                });
            } else if !CALL_KEYWORDS.contains(&name.as_str())
                && !INTRINSICS.contains(&name.as_str())
            {
                evs.push(Ev::UserCall {
                    name: name.clone(),
                    method,
                    qualified: after("::"),
                    argc: split_top_level_commas(children).len(),
                });
            }
            continue;
        }
        let projected = trees.get(i + 1).is_some_and(|n| n.is_punct("."))
            && !trees
                .get(i + 2)
                .and_then(ident_of)
                .is_some_and(|m| SELF_METHODS.contains(&m));
        let borrowed =
            after("&") || (i > 1 && trees[i - 1].is_ident("mut") && trees[i - 2].is_punct("&"));
        if !method && !projected && !borrowed {
            evs.push(Ev::Move { var: name.clone() });
        }
    }
}

/// A recognized trackable map binding.
#[derive(Debug)]
pub(crate) struct Bind {
    pub(crate) var: String,
    pub(crate) dir: Dir,
    pub(crate) buf: Option<String>,
    pub(crate) line: usize,
}

/// Detects a trackable map binding in a statement: `let h = <chain>.map(…)`
/// (modulo `?`/`.unwrap()`/`.expect(…)` suffixes), or — with summaries —
/// `let h = make_mapping(…)` where the callee provably returns a fresh
/// mapping. The RHS must *end* with the recognized call so results
/// consumed by a larger expression are left untracked.
pub(crate) fn detect_bind(trees: &[Tree], inter: Option<&InterCtx>) -> Option<Bind> {
    if !trees.first()?.is_ident("let") {
        return None;
    }
    let mut j = 1;
    if trees.get(j)?.is_ident("mut") {
        j += 1;
    }
    let var = ident_of(trees.get(j)?)?.to_string();
    if !trees.get(j + 1)?.is_punct("=") {
        return None;
    }
    let call = last_call(&trees[j + 2..])?;
    let (dir, buf) = match call {
        TailCall::Map { dir, children, .. } => (dir, dma_buf_ident(children)),
        // The callee-side buffer identifier is meaningless in this scope;
        // the read rule stays quiet for summary-backed bindings.
        TailCall::User { .. } => match call.ret(inter?.graph, inter?.summaries)? {
            RetEffect::FreshMapped { dir } => (dir, None),
            _ => return None,
        },
    };
    Some(Bind {
        var,
        dir,
        buf,
        line: call.line(),
    })
}

/// The call an expression *ends* with (modulo `?` / `.unwrap()` /
/// `.expect(…)` suffixes), at top level.
enum TailCall<'t> {
    /// A recognized DMA map call.
    Map {
        dir: Dir,
        children: &'t [Tree],
        line: usize,
    },
    /// Any other call (candidate for summary resolution).
    User {
        name: &'t str,
        method: bool,
        qualified: bool,
        argc: usize,
        line: usize,
    },
}

impl TailCall<'_> {
    fn line(&self) -> usize {
        match self {
            TailCall::Map { line, .. } | TailCall::User { line, .. } => *line,
        }
    }

    /// What the call's result is, handle-wise: a fresh mapping for a map
    /// call, the callee's summarized return effect for a uniquely-resolved
    /// user call, `None` when resolution fails.
    fn ret(&self, graph: &CallGraph, sums: &[FnSummary]) -> Option<RetEffect> {
        match *self {
            TailCall::Map { dir, .. } => Some(RetEffect::FreshMapped { dir }),
            TailCall::User {
                name,
                method,
                qualified,
                argc,
                ..
            } => {
                if qualified {
                    return None;
                }
                match graph.resolve(name, method, argc)[..] {
                    [id] => Some(sums.get(id)?.ret),
                    _ => None,
                }
            }
        }
    }
}

fn last_call(rhs: &[Tree]) -> Option<TailCall<'_>> {
    let mut found = None;
    for k in 0..rhs.len().saturating_sub(1) {
        let (
            Some(name),
            Some(Tree::Group {
                delim: '(',
                children,
                ..
            }),
        ) = (ident_of(&rhs[k]), rhs.get(k + 1))
        else {
            continue;
        };
        let method = k > 0 && rhs[k - 1].is_punct(".");
        let line = rhs[k].line();
        let map_dir = if method {
            map_call_dir(name, children)
        } else {
            None
        };
        if let Some(dir) = map_dir {
            found = Some((
                k,
                TailCall::Map {
                    dir,
                    children,
                    line,
                },
            ));
        } else if !CALL_KEYWORDS.contains(&name)
            && !INTRINSICS.contains(&name)
            && !READ_METHODS.contains(&name)
            && !(method && (name == "unwrap" || name == "expect"))
        {
            found = Some((
                k,
                TailCall::User {
                    name,
                    method,
                    qualified: !method && k > 0 && rhs[k - 1].is_punct("::"),
                    argc: split_top_level_commas(children).len(),
                    line,
                },
            ));
        }
    }
    let (at, call) = found?;
    // Only panic/try suffixes may follow the call.
    let mut s = at + 2;
    while s < rhs.len() {
        if rhs[s].is_punct("?") {
            s += 1;
        } else if rhs[s].is_punct(".")
            && rhs
                .get(s + 1)
                .and_then(ident_of)
                .is_some_and(|m| m == "unwrap" || m == "expect")
            && matches!(rhs.get(s + 2), Some(Tree::Group { delim: '(', .. }))
        {
            s += 3;
        } else {
            return None;
        }
    }
    Some(call)
}

/// The [`RetEffect`] of a return-position expression, for the summary
/// pass: `FreshMapped` when it ends with a recognized map call or a
/// uniquely-resolved callee whose summary proves one, `Unknown` otherwise.
pub(crate) fn tail_call_effect(trees: &[Tree], graph: &CallGraph, sums: &[FnSummary]) -> RetEffect {
    last_call(trees)
        .and_then(|call| call.ret(graph, sums))
        .unwrap_or(RetEffect::Unknown)
}

/// Collects findings with per-function leak dedup (one leak report per
/// handle, at the first program point that witnesses it).
#[derive(Default)]
struct Reporter {
    findings: Vec<Finding>,
    leaked: BTreeSet<(String, usize)>,
    seen: BTreeSet<(&'static str, usize, String)>,
}

impl Reporter {
    fn push(&mut self, rule: &'static str, line: usize, detail: String) {
        if self.seen.insert((rule, line, detail.clone())) {
            self.findings.push(Finding { rule, line, detail });
        }
    }

    fn leak(&mut self, var: &str, st: &Live, line: usize, what: &str) {
        if self.leaked.insert((var.to_string(), st.born_line)) {
            self.push(
                "leak-on-exit",
                line,
                format!(
                    "mapping `{var}` (mapped at line {}) can reach {what} without \
                     unmap or ownership transfer",
                    st.born_line
                ),
            );
        }
    }
}

/// Applies one statement's events to `state`; reports findings when `rep`
/// is set. Returns the statement's map binding *unapplied*: the caller
/// applies it to the fallthrough state only, since on the `?` error edge
/// the handle was never mapped.
fn transfer(
    state: &mut State,
    stmt: &Stmt,
    inter: &InterCtx,
    mut rep: Option<&mut Reporter>,
) -> Option<Bind> {
    if stmt.trees.first().is_some_and(|t| t.is_ident("fn")) {
        return None; // nested fn item: analyzed as its own function
    }
    let bind = detect_bind(&stmt.trees, Some(inter));
    let mut evs = Vec::new();
    scan(&stmt.trees, &mut evs);
    for ev in &evs {
        match ev {
            // The bind's own variable is not yet live on this statement.
            Ev::Move { var } => {
                if bind.as_ref().is_none_or(|b| &b.var != var) {
                    state.remove(var);
                }
            }
            Ev::Read { head, line } => {
                let Some(r) = rep.as_deref_mut() else {
                    continue;
                };
                for (var, st) in state.iter() {
                    let Some(buf) = st.buf.as_ref().filter(|b| head.contains(b)) else {
                        continue;
                    };
                    if st.dir.device_writes() {
                        r.push(
                            "cpu-read-while-mapped",
                            *line,
                            format!(
                                "CPU read of buffer `{buf}` while `{var}` still maps it {:?}: \
                                 the device's bytes are final only after unmap",
                                st.dir
                            ),
                        );
                    }
                }
            }
            Ev::UserCall { .. } => {}
        }
    }
    bind
}

fn leak_check(state: &State, line: usize, what: &str, rep: &mut Reporter) {
    for (var, st) in state.iter() {
        rep.leak(var, st, line, what);
    }
}

/// Processes block `b` from in-state `st`. Returns the fallthrough
/// out-state and, for a `?` statement, the implicit error-edge out-state
/// (which excludes the statement's own binding: on the error path the
/// handle was never mapped).
fn block_out(
    cfg: &Cfg,
    b: usize,
    mut st: State,
    inter: &InterCtx,
    mut rep: Option<&mut Reporter>,
) -> (State, Option<State>) {
    let Some(stmt) = &cfg.blocks[b].stmt else {
        return (st, None);
    };
    let bind = transfer(&mut st, stmt, inter, rep.as_deref_mut());
    let mut try_out = None;
    if stmt.has_try {
        if let Some(r) = rep.as_deref_mut() {
            leak_check(&st, stmt.line, "the `?` error path", r);
        }
        try_out = Some(st.clone());
    }
    if stmt.is_return {
        if let Some(r) = rep {
            leak_check(&st, stmt.line, "this return", r);
        }
    }
    if let Some(b) = bind {
        st.insert(
            b.var,
            Live {
                dir: b.dir,
                buf: b.buf,
                born_line: b.line,
            },
        );
    }
    (st, try_out)
}

/// Runs the pass over one function's CFG.
fn check_cfg(cfg: &Cfg, inter: &InterCtx, rep: &mut Reporter) {
    let n = cfg.blocks.len();
    let mut ins: Vec<State> = vec![State::new(); n];
    // Fixpoint: propagate out-states along edges until stable.
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 8 * n + 64 {
        changed = false;
        rounds += 1;
        for b in 0..n {
            let (out, try_out) = block_out(cfg, b, ins[b].clone(), inter, None);
            if let Some(t) = try_out {
                changed |= join_into(&mut ins[cfg.exit], &t);
            }
            for &s in &cfg.blocks[b].succs {
                changed |= join_into(&mut ins[s], &out);
            }
        }
    }
    // Reporting pass over the converged in-states, in block order. The
    // exit node goes last so edge-level reports (`?`, `return`) win the
    // per-handle leak dedup and anchor the finding at the leaking edge.
    for (b, in_state) in ins.iter().enumerate() {
        if b != cfg.exit {
            block_out(cfg, b, in_state.clone(), inter, Some(rep));
        }
    }
    // Handles still live at the exit join that no explicit edge already
    // reported (e.g. a fallthrough that ends the function with the handle
    // live) are anchored at the map site.
    for (var, st) in &ins[cfg.exit] {
        rep.leak(var, st, st.born_line, "function exit");
    }
}

/// Runs the protocol checker over every non-test function in a prepared
/// file; `inter` is what lets a binding of a call that returns a fresh
/// mapping be tracked like a direct `map`.
pub fn check_file(prep: &Prep, inter: &InterCtx) -> Vec<Finding> {
    let tokens = crate::lexer::tokenize(&prep.blank);
    let trees = build_trees(&tokens);
    let mut rep = Reporter::default();
    for f in extract_functions(prep, &trees) {
        check_cfg(&Cfg::build(&f.body), inter, &mut rep);
    }
    rep.findings.sort_by_key(|f| (f.line, f.rule));
    rep.findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::prep;
    use crate::rules::protocol::ProtocolAnalysis;

    /// Runs the checker with the file's own call graph and summaries.
    fn run(src: &str) -> Vec<Finding> {
        let p = prep("x.rs", src);
        let graph = CallGraph::build(&[(p.clone(), "x".to_string())]);
        check_file(&p, &ProtocolAnalysis::from_graph(graph).inter())
    }

    fn rules(src: &str) -> Vec<&'static str> {
        run(src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn clean_map_unmap_is_silent() {
        let src = "fn f(engine: &E, ctx: &mut C) -> Result<(), E> {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice)?;\n\
                   post(m.iova.get());\n\
                   engine.unmap(ctx, m)?;\n\
                   Ok(())\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn leak_on_try_edge_is_flagged() {
        let src = "fn f(engine: &E, ctx: &mut C) -> Result<(), E> {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice)?;\n\
                   helper(ctx)?;\n\
                   engine.unmap(ctx, m)?;\n\
                   Ok(())\n\
                   }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "leak-on-exit");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn leak_on_early_return_is_flagged() {
        let src = "fn f(engine: &E, ctx: &mut C, bad: bool) -> Result<(), E> {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   if bad {\n\
                   return Err(E::Bad);\n\
                   }\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   Ok(())\n\
                   }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "leak-on-exit");
    }

    #[test]
    fn leak_at_fallthrough_exit_is_flagged() {
        let src = "fn f(engine: &E, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   touch(m.iova.get());\n\
                   }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "leak-on-exit");
    }

    #[test]
    fn unmap_on_one_arm_only_is_a_leak() {
        let src = "fn f(engine: &E, ctx: &mut C, early: bool) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   if early {\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   }\n\
                   }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "leak-on-exit");
    }

    #[test]
    fn a_by_value_mention_moves_the_handle() {
        // Returned, pushed, passed by value or used by value in a closure:
        // the obligation leaves with the handle, no summary consulted.
        let src = "fn f(engine: &E, ctx: &mut C) -> Result<M, E> {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice)?;\n\
                   Ok(m)\n\
                   }\n\
                   fn g(engine: &E, ctx: &mut C, out: &mut Vec<M>) {\n\
                   let rx = engine.alloc_coherent(ctx, 4096).expect(\"ring\");\n\
                   nic.attach(&rx);\n\
                   out.push(rx);\n\
                   }\n\
                   fn h(engine: &E, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   finish(engine, ctx, m);\n\
                   }\n\
                   fn k(engine: &E, ctx: &mut C, defer: &mut Vec<F>) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   defer.push(Box::new(move || consume(m)));\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn a_borrow_keeps_the_obligation_with_the_caller() {
        // `&m` to a known helper, `&m` to an unknown callee, a projection
        // inside a closure: none of them is a move, so the leak is ours.
        for borrow in [
            "touch_stats(&m);",
            "ring.stash(&mut m);",
            "with(|| count(m.len));",
        ] {
            let src = format!(
                "fn caller(engine: &E, ctx: &mut C) {{\n\
                 let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                 {borrow}\n\
                 }}\n\
                 fn touch_stats(m: &M) {{\n\
                 count(m.len);\n\
                 }}\n"
            );
            let f = run(&src);
            assert_eq!(f.len(), 1, "{borrow}: {f:?}");
            assert_eq!(f[0].rule, "leak-on-exit", "{borrow}");
        }
    }

    #[test]
    fn helper_roundtrip_with_unmap_is_clean() {
        let src = "fn caller(engine: &E, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   log_mapping(&m);\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   }\n\
                   fn log_mapping(m: &M) {\n\
                   note(m.iova);\n\
                   }\n";
        assert_eq!(run(src), Vec::new());
    }

    #[test]
    fn cpu_read_of_device_written_buffer_while_mapped_is_flagged() {
        for dir in ["FromDevice", "Bidirectional"] {
            let src = format!(
                "fn f(engine: &E, mem: &M, ctx: &mut C) {{\n\
                 let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::{dir}).expect(\"m\");\n\
                 let got = mem.read_vec(skb, 64);\n\
                 engine.unmap(ctx, m).expect(\"u\");\n\
                 }}\n"
            );
            let f = run(&src);
            assert_eq!(f.len(), 1, "{dir}: {f:?}");
            assert_eq!(f[0].rule, "cpu-read-while-mapped");
            assert_eq!(f[0].line, 3);
        }
    }

    #[test]
    fn unmap_of_a_self_method_result_consumes_the_receiver() {
        assert!(run("fn f(engine: &E, ctx: &mut C, mem: &M, skb: P, n: usize) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::FromDevice).expect(\"m\");\n\
                   engine.unmap(ctx, m.device_wrote(n)).expect(\"u\");\n\
                   let _ = mem.read_vec(skb, 64);\n\
                 }")
        .is_empty());
        // Any other method on the handle still only borrows it.
        assert_eq!(
            rules(
                "fn f(engine: &E, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::FromDevice).expect(\"m\");\n\
                   log(m.iova.get());\n\
                 }"
            ),
            ["leak-on-exit"]
        );
    }

    #[test]
    fn read_after_unmap_is_the_legal_handoff() {
        // unmap performs the CPU handoff (under shadowing, the copy);
        // reading afterwards is the driver pattern (netsim's rx path).
        let src = "fn f(engine: &E, mem: &M, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::FromDevice).expect(\"m\");\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   let got = mem.read_vec(skb, 64);\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn to_device_reads_are_unrestricted() {
        let src = "fn f(engine: &E, mem: &M, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   let echo = mem.read_vec(skb, 64);\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn iterator_and_page_table_maps_are_not_tracked() {
        let src = "fn f(items: &[u32], pt: &mut Pt, ctx: &mut C) {\n\
                   let v: Vec<u32> = items.iter().map(|x| x + 1).collect();\n\
                   let e = pt.map(page, pfn, perms);\n\
                   let h = self.huge.map(ctx, &self.zc_iova, buf, dir.perms());\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn map_consumed_by_match_or_closure_is_untracked() {
        let src = "fn f(engine: &E, ctx: &mut C) -> Result<M, E> {\n\
                   match self.map(ctx, buf, dir) {\n\
                   Ok(m) => out.push(m),\n\
                   Err(e) => roll(e),\n\
                   }\n\
                   let m = obs::profile::scope(ctx, |ctx| self.inner.map(ctx, buf, dir))?;\n\
                   Ok(m)\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn loop_body_map_unmap_converges_clean() {
        let src = "fn f(engine: &E, ctx: &mut C, n: u32) {\n\
                   for i in 0..n {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   fire(m.iova.get());\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   }\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn unmap_on_both_if_arms_is_clean() {
        let src = "fn f(engine: &E, ctx: &mut C, fast: bool) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   if fast {\n\
                   engine.unmap(ctx, m).expect(\"a\");\n\
                   } else {\n\
                   engine.unmap(ctx, m).expect(\"b\");\n\
                   }\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn test_functions_are_exempt() {
        let src = "#[cfg(test)]\nmod t {\n\
                   fn leaky(engine: &E, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   }\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn handle_returned_by_a_helper_is_tracked() {
        let src = "fn caller(engine: &E, ctx: &mut C) {\n\
                   let m = make_rx(engine, ctx);\n\
                   fire(m.iova.get());\n\
                   }\n\
                   fn make_rx(engine: &E, ctx: &mut C) -> M {\n\
                   engine.map(ctx, DmaBuf::new(buf, 64), DmaDirection::FromDevice).expect(\"m\")\n\
                   }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "leak-on-exit");
        assert_eq!(f[0].line, 2);
    }
}
