// lint: allow(ambient-io) — the call-graph walk must read member crates' sources
//! The workspace call graph.
//!
//! Nodes are every non-test function extracted by the shared front-end
//! ([`crate::cfg::extract_functions`]) across the workspace file walk,
//! plus one anonymous node per closure body (`{fn}::closure@L<line>`) so
//! deferred code is represented rather than silently skipped. Edges are
//! resolved syntactically: a call site `name(…)` or `recv.name(…)` links
//! to every workspace function of that `name` whose parameter count is
//! compatible (receiver-position heuristics mirror the `map`/`unmap`
//! recognition in [`crate::typestate`]). Calls that resolve to nothing —
//! std/core methods, macros-expanded names, trait objects we cannot see —
//! are counted per function as *unknown callees*: the explicit bottom of
//! the interprocedural lattice. [`crate::summary`] consumes the graph
//! bottom-up over its SCCs.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::cfg::{build_trees, extract_functions, split_top_level_commas, Param, Tree};
use crate::lexer::{prep, tokenize, Prep};

/// One call-graph node: a named function or an anonymous closure body.
#[derive(Debug)]
pub struct FnNode {
    /// Workspace-relative file.
    pub file: String,
    /// Member crate the file belongs to.
    pub crate_name: String,
    /// Function name; closures use `{parent}::closure@L<line>`.
    pub name: String,
    /// 1-indexed line of the `fn` keyword (or the closure's `|`).
    pub line: usize,
    /// Declared parameters (receiver included; closures: their params).
    pub params: Vec<Param>,
    /// Body token trees.
    pub body: Vec<Tree>,
    /// `true` for anonymous closure nodes.
    pub is_closure: bool,
}

/// The resolved call graph plus per-node unknown-callee counts.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All nodes; edges index into this vector.
    pub nodes: Vec<FnNode>,
    /// Simple name → candidate node ids (closures are not name-addressable).
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Resolved callee ids per node (deduplicated, sorted).
    pub callees: Vec<Vec<usize>>,
    /// Call sites per node that resolved to no workspace function — the
    /// explicit unknown-callee bottom.
    pub unknown_calls: Vec<usize>,
}

/// One syntactic call site found in a body.
#[derive(Debug)]
struct CallSite {
    name: String,
    /// Method-call syntax (`recv.name(…)`): the callee's receiver slot is
    /// implicit, so `argc` excludes it.
    method: bool,
    argc: usize,
}

/// Names treated as DMA-API intrinsics by the protocol pass; their
/// protocol effect is primitive, so call sites are not graph edges.
pub(crate) const INTRINSICS: [&str; 6] = [
    "map",
    "map_sg",
    "alloc_coherent",
    "unmap",
    "unmap_sg",
    "free_coherent",
];

/// Keywords that look like `ident (…)` call syntax but are not calls.
const NON_CALL_KEYWORDS: [&str; 10] = [
    "if", "while", "for", "match", "return", "fn", "in", "as", "move", "loop",
];

/// Collects every syntactic call site in `trees`, skipping closure bodies
/// (they are separate nodes with their own sites).
fn collect_calls(trees: &[Tree], out: &mut Vec<CallSite>) {
    let mut i = 0;
    while i < trees.len() {
        if let Some((params_end, _)) = closure_at(trees, i) {
            // Skip the whole closure header; its body is scanned when the
            // closure node is built, not as part of the parent.
            let body_end = closure_body_end(trees, params_end + 1);
            i = body_end;
            continue;
        }
        // `. name ( … )` — method call.
        if trees[i].is_punct(".") {
            if let (Some(name), Some(Tree::Group { children, .. })) =
                (ident_text(trees.get(i + 1)), paren_group(trees.get(i + 2)))
            {
                out.push(CallSite {
                    name: name.to_string(),
                    method: true,
                    argc: split_top_level_commas(children).len(),
                });
                collect_calls(children, out);
                i += 3;
                continue;
            }
            i += 1;
            continue;
        }
        // `name ( … )` — free (or path-suffixed) call; `name ! ( … )` is a
        // macro, not a call.
        if let (Some(name), Some(Tree::Group { children, .. })) =
            (ident_text(trees.get(i)), paren_group(trees.get(i + 1)))
        {
            if !NON_CALL_KEYWORDS.contains(&name) {
                out.push(CallSite {
                    name: name.to_string(),
                    method: false,
                    argc: split_top_level_commas(children).len(),
                });
            }
            collect_calls(children, out);
            i += 2;
            continue;
        }
        if let Tree::Group { children, .. } = &trees[i] {
            collect_calls(children, out);
        }
        i += 1;
    }
}

fn ident_text(t: Option<&Tree>) -> Option<&str> {
    match t {
        Some(Tree::Tok(tok)) if tok.is_ident => Some(&tok.text),
        _ => None,
    }
}

fn paren_group(t: Option<&Tree>) -> Option<&Tree> {
    match t {
        Some(g @ Tree::Group { delim: '(', .. }) => Some(g),
        _ => None,
    }
}

/// Detects a closure starting at `trees[i]`: `move |params| …` or a `|`
/// in expression-start position (slice start, or right after `(`/`,`/`=`)
/// — which keeps bitwise-or (`a | b`) and or-patterns out. Returns the
/// index of the closing param `|` and the index of the first param token.
pub(crate) fn closure_at(trees: &[Tree], i: usize) -> Option<(usize, usize)> {
    let (bar, after_move) = if trees[i].is_ident("move") {
        if trees.get(i + 1).is_some_and(|t| t.is_punct("|")) {
            (i + 1, true)
        } else {
            return None;
        }
    } else if trees[i].is_punct("|") {
        (i, false)
    } else {
        return None;
    };
    if !after_move {
        let expr_start = i == 0
            || trees
                .get(i.wrapping_sub(1))
                .is_some_and(|t| t.is_punct(",") || t.is_punct("=") || t.is_punct("("));
        if !expr_start {
            return None;
        }
    }
    // Find the closing `|` of the parameter list at this level.
    let mut j = bar + 1;
    while j < trees.len() {
        if trees[j].is_punct("|") {
            return Some((j, bar + 1));
        }
        // Parameter lists contain idents, `,`, `:`, `&`, `mut`, and type
        // groups; anything else means this was not a closure after all.
        let ok = match &trees[j] {
            Tree::Tok(t) => {
                t.is_ident
                    || matches!(
                        t.text.as_str(),
                        "," | ":" | "&" | "mut" | "_" | "::" | "<" | ">"
                    )
            }
            Tree::Group { delim, .. } => *delim == '(' || *delim == '[',
        };
        if !ok {
            return None;
        }
        j += 1;
    }
    None
}

/// The exclusive end of a closure body that starts at `body_start`: the
/// next top-level comma, or the end of the slice.
pub(crate) fn closure_body_end(trees: &[Tree], body_start: usize) -> usize {
    let mut j = body_start;
    while j < trees.len() {
        if trees[j].is_punct(",") {
            return j;
        }
        j += 1;
    }
    j
}

/// Extracts every closure in `trees` (recursing into groups, but not into
/// inner closures' bodies — those are found when the inner node is built).
fn collect_closures(trees: &[Tree], out: &mut Vec<(usize, Vec<Param>, Vec<Tree>)>) {
    let mut i = 0;
    while i < trees.len() {
        if let Some((params_end, params_start)) = closure_at(trees, i) {
            let line = trees[i].line();
            let params: Vec<Param> = trees[params_start..params_end]
                .iter()
                .filter_map(|t| match t {
                    Tree::Tok(tok) if tok.is_ident && tok.text != "mut" => Some(Param {
                        name: tok.text.clone(),
                    }),
                    _ => None,
                })
                .collect();
            let end = closure_body_end(trees, params_end + 1);
            out.push((line, params, trees[params_end + 1..end].to_vec()));
            i = end;
            continue;
        }
        if let Tree::Group { children, .. } = &trees[i] {
            collect_closures(children, out);
        }
        i += 1;
    }
}

impl CallGraph {
    /// Builds the graph from already-prepared files: `(prep, crate_name)`
    /// pairs from the workspace walk.
    pub fn build(files: &[(Prep, String)]) -> CallGraph {
        let mut g = CallGraph::default();
        for (p, crate_name) in files {
            let trees = build_trees(&tokenize(&p.blank));
            for f in extract_functions(p, &trees) {
                let parent_id = g.nodes.len();
                let parent_name = f.name.clone();
                g.push_node(FnNode {
                    file: p.label.clone(),
                    crate_name: crate_name.clone(),
                    name: f.name,
                    line: f.line,
                    params: f.params,
                    body: f.body,
                    is_closure: false,
                });
                // Closures become anonymous child nodes. Nested closures
                // are discovered from their parent closure's body in turn.
                let mut queue = vec![parent_id];
                while let Some(owner) = queue.pop() {
                    let mut closures = Vec::new();
                    collect_closures(&g.nodes[owner].body, &mut closures);
                    for (line, params, body) in closures {
                        let id = g.nodes.len();
                        g.push_node(FnNode {
                            file: p.label.clone(),
                            crate_name: crate_name.clone(),
                            name: format!("{parent_name}::closure@L{line}"),
                            line,
                            params,
                            body,
                            is_closure: true,
                        });
                        queue.push(id);
                    }
                }
            }
        }
        g.resolve_edges();
        g
    }

    fn push_node(&mut self, node: FnNode) {
        let id = self.nodes.len();
        if !node.is_closure {
            self.by_name.entry(node.name.clone()).or_default().push(id);
        }
        self.nodes.push(node);
        self.callees.push(Vec::new());
        self.unknown_calls.push(0);
    }

    fn resolve_edges(&mut self) {
        for id in 0..self.nodes.len() {
            let mut sites = Vec::new();
            collect_calls(&self.nodes[id].body, &mut sites);
            let mut callees = Vec::new();
            let mut unknown = 0;
            for site in &sites {
                if INTRINSICS.contains(&site.name.as_str()) {
                    continue; // primitive protocol effect, not an edge
                }
                let targets = self.resolve(&site.name, site.method, site.argc);
                if targets.is_empty() {
                    unknown += 1;
                } else {
                    callees.extend(targets);
                }
            }
            // Closures hang off their parent: the parent "calls" them (at
            // worst deferred, which the summaries treat conservatively).
            callees.sort_unstable();
            callees.dedup();
            self.callees[id] = callees;
            self.unknown_calls[id] = unknown;
        }
        // Parent → closure edges.
        let mut pending: Vec<(usize, usize)> = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            if node.is_closure {
                // The owner is the nearest earlier non-closure (or
                // closure) node in the same file whose name prefixes ours.
                let owner = self.nodes[..id]
                    .iter()
                    .rposition(|n| n.file == node.file && node.name.starts_with(n.name.as_str()));
                if let Some(o) = owner {
                    pending.push((o, id));
                }
            }
        }
        for (o, id) in pending {
            if !self.callees[o].contains(&id) {
                self.callees[o].push(id);
            }
        }
    }

    /// Resolves a call site to candidate node ids: workspace functions of
    /// that name whose arity is compatible (method calls: params = argc+1
    /// with a `self` receiver; free calls: params = argc, or an associated
    /// constructor taking argc after no receiver).
    pub fn resolve(&self, name: &str, method: bool, argc: usize) -> Vec<usize> {
        let Some(cands) = self.by_name.get(name) else {
            return Vec::new();
        };
        cands
            .iter()
            .copied()
            .filter(|&id| {
                let p = &self.nodes[id].params;
                if method {
                    p.len() == argc + 1 && p.first().is_some_and(|p0| p0.name == "self")
                } else {
                    p.len() == argc && p.first().is_none_or(|p0| p0.name != "self")
                }
            })
            .collect()
    }

    /// Tarjan SCCs in reverse-topological order (callees before callers),
    /// so summaries can be computed bottom-up in one sweep.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.nodes.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack = Vec::new();
        let mut sccs = Vec::new();
        let mut next = 0usize;
        // Iterative Tarjan: frame = (node, child cursor).
        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
                if *cursor == 0 {
                    index[v] = next;
                    low[v] = next;
                    next += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if let Some(&w) = self.callees[v].get(*cursor) {
                    *cursor += 1;
                    if index[w] == usize::MAX {
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut scc = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        scc.sort_unstable();
                        sccs.push(scc);
                    }
                }
            }
        }
        sccs
    }

    /// Whether `id` participates in recursion (self-loop or SCC > 1).
    pub fn is_recursive(&self, id: usize, scc: &[usize]) -> bool {
        scc.len() > 1 || self.callees[id].contains(&id)
    }
}

/// Walks the workspace exactly like the lint pass (member crates' `src/`
/// trees) and builds the call graph.
pub fn build_workspace_graph(root: &Path) -> std::io::Result<CallGraph> {
    let label = |p: &Path| {
        p.strip_prefix(root)
            .unwrap_or(p)
            .display()
            .to_string()
            .replace('\\', "/")
    };
    let mut files = Vec::new();
    for member in crate::member_crates(root)? {
        let crate_name = member
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src_dir = member.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut rs = Vec::new();
        crate::rust_files(&src_dir, &mut rs)?;
        rs.sort();
        for f in &rs {
            let src = fs::read_to_string(f)?;
            files.push((prep(&label(f), &src), crate_name.clone()));
        }
    }
    Ok(CallGraph::build(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> CallGraph {
        CallGraph::build(&[(prep("x.rs", src), "x".to_string())])
    }

    fn id_of(g: &CallGraph, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("{name} not in graph"))
    }

    #[test]
    fn free_and_method_calls_resolve_by_name_and_arity() {
        let src = "fn helper(a: u32) {}\n\
                   impl S {\n    fn act(&self, x: u32) { helper(x); self.go(x); }\n    fn go(&self, x: u32) {}\n}\n";
        let g = graph(src);
        let act = id_of(&g, "act");
        let helper = id_of(&g, "helper");
        let go = id_of(&g, "go");
        assert!(g.callees[act].contains(&helper), "{g:?}");
        assert!(g.callees[act].contains(&go), "{g:?}");
        assert_eq!(g.unknown_calls[act], 0);
    }

    #[test]
    fn unresolved_calls_count_as_unknown_bottom() {
        let g = graph("fn f(v: Vec<u32>) { external_thing(v); }\n");
        let f = id_of(&g, "f");
        assert!(g.callees[f].is_empty());
        assert_eq!(g.unknown_calls[f], 1);
    }

    #[test]
    fn arity_mismatch_does_not_resolve() {
        let g = graph("fn t(a: u32, b: u32) {}\nfn f() { t(1); }\n");
        let f = id_of(&g, "f");
        assert!(g.callees[f].is_empty(), "{g:?}");
        assert_eq!(g.unknown_calls[f], 1);
    }

    #[test]
    fn closures_become_anonymous_nodes_with_parent_edges() {
        let g = graph("fn f(items: &[u32]) { run(move || step(1)); }\nfn step(x: u32) {}\n");
        let f = id_of(&g, "f");
        let closure = g
            .nodes
            .iter()
            .position(|n| n.is_closure)
            .expect("closure node");
        assert!(g.nodes[closure].name.starts_with("f::closure@L"));
        assert!(g.callees[f].contains(&closure), "{g:?}");
        // The closure body's call belongs to the closure, not the parent.
        let step = id_of(&g, "step");
        assert!(g.callees[closure].contains(&step), "{g:?}");
        assert!(!g.callees[f].contains(&step), "{g:?}");
    }

    #[test]
    fn bitwise_or_is_not_a_closure() {
        let g = graph("fn f(a: u32, b: u32) -> u32 { mix(a | b) }\nfn mix(x: u32) -> u32 { x }\n");
        assert!(g.nodes.iter().all(|n| !n.is_closure), "{:?}", g.nodes);
    }

    #[test]
    fn sccs_come_out_callees_first() {
        let src = "fn a() { b(); }\nfn b() { c(); }\nfn c() { b(); }\nfn d() {}\n";
        let g = graph(src);
        let sccs = g.sccs();
        let pos = |name: &str| {
            let id = id_of(&g, name);
            sccs.iter()
                .position(|s| s.contains(&id))
                .expect("in an scc")
        };
        // b and c are one SCC and must precede a.
        assert_eq!(pos("b"), pos("c"));
        assert!(pos("b") < pos("a"), "{sccs:?}");
        let bc = &sccs[pos("b")];
        assert!(g.is_recursive(id_of(&g, "b"), bc));
        assert!(!g.is_recursive(id_of(&g, "a"), &sccs[pos("a")]));
    }

    #[test]
    fn dma_intrinsics_are_not_edges() {
        let src = "impl E {\n    fn map(&self, ctx: &mut C, b: B, d: D) -> M { m }\n}\n\
                   fn f(engine: &E, ctx: &mut C) { let m = engine.map(ctx, DmaBuf::new(p, 4), DmaDirection::ToDevice); }\n";
        let g = graph(src);
        let f = id_of(&g, "f");
        assert!(g.callees[f].is_empty(), "{g:?}");
    }
}
