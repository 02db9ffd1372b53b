//! Lock-order static analysis.
//!
//! Extracts every lock site from the member crates' shared token trees —
//! the `SimLock::new` declarations and three acquisition shapes: a bare
//! `lock.with(ctx, …)` / `lock.with_spin(ctx, …)`, and the two forms of
//! the `obs` lock-site primitive, `obs.locked(ctx, &lock, …)` and
//! `obs.guarded(ctx, NAME, …)` — resolves the lock-name constants, builds
//! the nested-acquisition graph from which acquisition's argument group
//! holds which, and flags any cycle as a `lock-order` violation. Lock-name
//! literals are read from the byte-aligned `kept` view, since the token
//! stream is built over the blanked one. The site inventory is exported
//! ([`crate::WorkspaceReport::locks`]) and fed to the bounded model
//! checker's `known_locks` check, so a lock the checker schedules around
//! can never be missing from the static map.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::Tree;
use crate::report::LintViolation;
use crate::workspace::SourceFile;

/// One statically discovered lock site in a member crate's sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Resolved lock name — the string handed to `SimLock::new` or to
    /// `Obs::guarded`, after constant resolution.
    pub lock: String,
    /// `true` for acquisition sites; `false` for the `SimLock::new`
    /// declaration.
    pub acquisition: bool,
}

/// A nested acquisition: `inner` is acquired while `outer` is held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock held at the outer site.
    pub outer: String,
    /// Lock acquired inside the outer critical section.
    pub inner: String,
    /// File of the inner (nested) acquisition.
    pub file: String,
    /// 1-indexed line of the inner acquisition.
    pub line: usize,
}

/// The exported result of the lock-order pass: the full site inventory
/// (which the model checker cross-checks its runtime lock labels against),
/// the nested-acquisition graph, and any cycles found in it.
#[derive(Debug, Clone, Default)]
pub struct LockOrderReport {
    /// Every declaration and acquisition site found.
    pub sites: Vec<LockSite>,
    /// Deduplicated nested-acquisition edges.
    pub edges: Vec<LockEdge>,
    /// Each distinct acquisition-order cycle, smallest lock name first.
    pub cycles: Vec<Vec<String>>,
}

impl LockOrderReport {
    /// Sorted, deduplicated lock names — the model checker's
    /// `Config::known_locks` input.
    pub fn lock_names(&self) -> Vec<String> {
        let set: BTreeSet<&str> = self.sites.iter().map(|s| s.lock.as_str()).collect();
        set.into_iter().map(str::to_string).collect()
    }

    /// One `lock-order` violation per cycle, anchored at a witnessing
    /// nested acquisition.
    pub fn cycle_violations(&self) -> Vec<LintViolation> {
        self.cycles
            .iter()
            .map(|cyc| {
                let outer = &cyc[0];
                let inner = cyc.get(1).unwrap_or(&cyc[0]);
                let site = self
                    .edges
                    .iter()
                    .find(|e| &e.outer == outer && &e.inner == inner);
                let ring: Vec<&str> = cyc
                    .iter()
                    .map(String::as_str)
                    .chain([cyc[0].as_str()])
                    .collect();
                LintViolation {
                    file: site.map(|e| e.file.clone()).unwrap_or_default(),
                    line: site.map(|e| e.line).unwrap_or(0),
                    rule: "lock-order",
                    detail: format!(
                        "lock acquisition cycle {}; nested acquisitions must follow \
                         one global order",
                        ring.join(" -> ")
                    ),
                }
            })
            .collect()
    }
}

/// A crate's lock-name constants: `const NAME: &str = "value";`.
type Consts = BTreeMap<String, String>;

/// The string literal that starts, after whitespace, at byte `from` of
/// the comment-stripped view.
fn literal_at(f: &SourceFile, from: usize) -> Option<String> {
    let body = f.prep.kept.get(from..)?.trim_start().strip_prefix('"')?;
    Some(body[..body.find('"').unwrap_or(body.len())].to_string())
}

/// A lock-name argument: a crate constant when it starts with an
/// identifier, else a literal starting at byte `from`.
fn lock_arg(f: &SourceFile, arg: &[Tree], from: usize, consts: &Consts) -> Option<String> {
    match arg.first().and_then(Tree::ident) {
        Some(name) => consts.get(name).cloned(),
        None => literal_at(f, from),
    }
}

/// Collects the file's `const NAME: <&str type> = "value";` items, at any
/// depth, into `consts`.
fn scan_consts(f: &SourceFile, trees: &[Tree], consts: &mut Consts) {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group { children, .. } = t {
            scan_consts(f, children, consts);
            continue;
        }
        if !t.is_ident("const") {
            continue;
        }
        let Some(name) = trees.get(i + 1).and_then(Tree::ident) else {
            continue;
        };
        let rest = &trees[i + 2..];
        let Some(eq) = rest.iter().position(|t| t.is_punct("=") || t.is_punct(";")) else {
            continue;
        };
        let typed_str = rest[..eq]
            .iter()
            .any(|t| t.token().is_some_and(|t| t.text.contains("str")));
        if let Some(eq_tok) = rest[eq].token().filter(|t| t.text == "=" && typed_str) {
            if let Some(value) = literal_at(f, eq_tok.pos + 1) {
                consts.insert(name.to_string(), value);
            }
        }
    }
}

/// The `SimLock::new(ARG)` declarations: `(line, lock, binder)`, the
/// binder being the field or `let` name it initialises, if any.
fn declarations(
    f: &SourceFile,
    trees: &[Tree],
    consts: &Consts,
    out: &mut Vec<(usize, String, Option<String>)>,
) {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group { children, .. } = t {
            declarations(f, children, consts, out);
            continue;
        }
        let Some(Tree::Group {
            delim: '(',
            children,
            open_pos,
            ..
        }) = trees.get(i + 3)
        else {
            continue;
        };
        if !(t.is_ident("SimLock") && trees[i + 1].is_punct("::") && trees[i + 2].is_ident("new"))
            || f.prep.in_test(t.line())
        {
            continue;
        }
        let Some(lock) = lock_arg(f, children, open_pos + 1, consts) else {
            continue;
        };
        let binder = (i >= 2 && (trees[i - 1].is_punct(":") || trees[i - 1].is_punct("=")))
            .then(|| trees[i - 2].ident())
            .flatten()
            .filter(|b| *b != "let")
            .map(str::to_string);
        out.push((t.line(), lock, binder));
    }
}

/// An acquisition: the locks it takes, and the acquisitions whose
/// argument group (critical section) it sits in.
struct Acq {
    /// The shape's reporting rank: `with`, `with_spin`, `locked`, `guarded`.
    rank: usize,
    /// Byte offset of the method's `.` (unique per acquisition).
    pos: usize,
    line: usize,
    names: Vec<String>,
    /// `pos` of every enclosing acquisition.
    within: Vec<usize>,
}

/// The acquisitions in `trees`, in source order.
fn acquisitions(
    f: &SourceFile,
    trees: &[Tree],
    consts: &Consts,
    fields: &BTreeMap<String, BTreeSet<String>>,
    held: &mut Vec<usize>,
    out: &mut Vec<Acq>,
) {
    let held_by = |binder: Option<&str>| -> Vec<String> {
        binder
            .and_then(|b| fields.get(b))
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    };
    for (i, t) in trees.iter().enumerate() {
        let Tree::Group {
            delim, children, ..
        } = t
        else {
            continue;
        };
        let mut before = trees[..i].iter().rev();
        let method = before.next().and_then(Tree::ident);
        let dot = before
            .next()
            .and_then(Tree::token)
            .filter(|d| d.text == ".");
        let ctx_comma = children.first().and_then(Tree::ident) == Some("ctx")
            && children.get(1).is_some_and(|c| c.is_punct(","));
        let acq = match (*delim, method, dot) {
            ('(', Some(m @ ("with" | "with_spin")), Some(dot)) => {
                // The receiver must be a SimLock binder written right
                // before the `.` (this keeps `CURRENT.with(|…|)` out).
                let recv = before
                    .next()
                    .and_then(Tree::token)
                    .filter(|r| r.is_ident && r.pos + r.text.len() == dot.pos);
                let rank = if m == "with" { 0 } else { 1 };
                Some((rank, dot, held_by(recv.map(|r| r.text.as_str()))))
            }
            ('(', Some("locked"), Some(dot)) if ctx_comma => {
                // `&self.lock`: the last identifier of the path is the binder.
                let path = children[2..].iter().take_while(
                    |t| matches!(t, Tree::Tok(t) if t.is_ident || t.text == "&" || t.text == "."),
                );
                let binder = path.filter_map(Tree::ident).last();
                Some((2, dot, held_by(binder)))
            }
            ('(', Some("guarded"), Some(dot)) if ctx_comma => {
                let from = children[1].token().map_or(0, |c| c.pos + 1);
                let arg = &children[2..];
                let arg = &arg[..arg
                    .iter()
                    .position(|t| t.is_punct(","))
                    .unwrap_or(arg.len())];
                Some((3, dot, lock_arg(f, arg, from, consts).into_iter().collect()))
            }
            _ => None,
        };
        match acq {
            Some((rank, dot, names)) if !names.is_empty() && !f.prep.in_test(dot.line) => {
                out.push(Acq {
                    rank,
                    pos: dot.pos,
                    line: dot.line,
                    names,
                    within: held.clone(),
                });
                held.push(dot.pos);
                acquisitions(f, children, consts, fields, held, out);
                held.pop();
            }
            _ => acquisitions(f, children, consts, fields, held, out),
        }
    }
}

/// Scans one file for lock declarations and acquisitions, recording sites
/// and intra-file nested-acquisition edges.
fn scan_file(
    f: &SourceFile,
    consts: &Consts,
    sites: &mut Vec<LockSite>,
    edges: &mut Vec<LockEdge>,
) {
    let site = |line, lock, acquisition| LockSite {
        file: f.prep.label.clone(),
        line,
        lock,
        acquisition,
    };
    let mut decls = Vec::new();
    declarations(f, &f.trees, consts, &mut decls);
    let mut fields: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (line, lock, binder) in decls {
        if let Some(b) = binder {
            fields.entry(b).or_default().insert(lock.clone());
        }
        sites.push(site(line, lock, false));
    }
    let mut acqs = Vec::new();
    acquisitions(f, &f.trees, consts, &fields, &mut Vec::new(), &mut acqs);
    acqs.sort_by_key(|a| a.rank);
    for a in &acqs {
        sites.extend(a.names.iter().map(|n| site(a.line, n.clone(), true)));
    }
    for outer in &acqs {
        for inner in acqs.iter().filter(|a| a.within.contains(&outer.pos)) {
            for no in &outer.names {
                for ni in &inner.names {
                    if !edges.iter().any(|e| &e.outer == no && &e.inner == ni) {
                        edges.push(LockEdge {
                            outer: no.clone(),
                            inner: ni.clone(),
                            file: f.prep.label.clone(),
                            line: inner.line,
                        });
                    }
                }
            }
        }
    }
}

/// DFS cycle extraction over the lock-name graph; each cycle reported
/// once, rotated so its smallest name comes first.
pub(crate) fn find_cycles(edges: &[LockEdge]) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.outer).or_default().insert(&e.inner);
    }
    fn dfs<'a>(
        n: &'a str,
        adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
        color: &mut BTreeMap<&'a str, u8>,
        stack: &mut Vec<&'a str>,
        out: &mut Vec<Vec<String>>,
    ) {
        color.insert(n, 1);
        stack.push(n);
        for &m in adj.get(n).into_iter().flatten() {
            match color.get(m).copied().unwrap_or(0) {
                0 => dfs(m, adj, color, stack, out),
                1 => {
                    let k = stack.iter().position(|&x| x == m).unwrap_or(0);
                    let mut cyc: Vec<String> = stack[k..].iter().map(|s| s.to_string()).collect();
                    if let Some(mi) = (0..cyc.len()).min_by_key(|&i| cyc[i].clone()) {
                        cyc.rotate_left(mi);
                    }
                    if !out.contains(&cyc) {
                        out.push(cyc);
                    }
                }
                _ => {}
            }
        }
        stack.pop();
        color.insert(n, 2);
    }
    let mut color = BTreeMap::new();
    let mut stack = Vec::new();
    let mut out = Vec::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for n in nodes {
        if color.get(n).copied().unwrap_or(0) == 0 {
            dfs(n, &adj, &mut color, &mut stack, &mut out);
        }
    }
    out
}

/// Runs the lock-order pass over the `src/` files of a parsed workspace,
/// returning the site inventory, acquisition graph, and cycles. Lock-name
/// constants resolve crate-wide.
pub fn analyze(files: &[SourceFile]) -> LockOrderReport {
    let lib = || files.iter().filter(|f| !f.ctx.aux);
    let mut consts: BTreeMap<&str, Consts> = BTreeMap::new();
    for f in lib() {
        scan_consts(
            f,
            &f.trees,
            consts.entry(f.crate_name.as_str()).or_default(),
        );
    }
    let mut report = LockOrderReport::default();
    for f in lib() {
        scan_file(
            f,
            &consts[f.crate_name.as_str()],
            &mut report.sites,
            &mut report.edges,
        );
    }
    report.cycles = find_cycles(&report.edges);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    #[test]
    fn lock_sites_resolve_consts_fields_and_nesting() {
        let src = concat!(
            "const A_LOCK: &str = \"lock-a\";\n",
            "struct S { a: SimLock, b: SimLock }\n",
            "impl S {\n",
            "    fn build() -> Self { Self { a: SimLock::new(A_LOCK), b: SimLock::new(\"lock-b\") } }\n",
            "    fn nest(&self, ctx: &mut CoreCtx) {\n",
            "        let (_, _spin) = self.a.with_spin(ctx, |ctx| {\n",
            "            self.b.with(ctx, |_ctx| {});\n",
            "        });\n",
            "    }\n",
            "}\n",
        );
        let LockOrderReport { sites, edges, .. } = analyze(&[SourceFile::lib("x.rs", src)]);
        // `A_LOCK` resolved through the crate's constants.
        assert!(
            sites
                .iter()
                .any(|s| s.lock == "lock-a" && !s.acquisition && s.line == 4),
            "{sites:?}"
        );
        assert!(
            sites
                .iter()
                .any(|s| s.lock == "lock-b" && s.acquisition && s.line == 7),
            "{sites:?}"
        );
        assert_eq!(edges.len(), 1, "{edges:?}");
        let e = &edges[0];
        assert_eq!((&*e.outer, &*e.inner, e.line), ("lock-a", "lock-b", 7));
    }

    #[test]
    fn primitive_sites_are_acquisitions_and_nest() {
        let src = concat!(
            "const B_LOCK: &str = \"lock-b\";\n",
            "struct S { obs: Obs, a: SimLock }\n",
            "impl S {\n",
            "    fn build() -> Self { Self { obs: Obs::isolated(), a: SimLock::new(\"lock-a\") } }\n",
            "    fn nest(&self, ctx: &mut CoreCtx) {\n",
            "        self.obs.locked(ctx,\n            &self.a, \"s.var\", |ctx| {\n",
            "            self.obs.guarded(ctx, B_LOCK, format_args!(\"s.b[{}]\", 1));\n",
            "        });\n",
            "        obs.locked(ctx, &unknown, \"x\", |_| {});\n",
            "    }\n",
            "}\n",
        );
        let LockOrderReport { sites, edges, .. } = analyze(&[SourceFile::lib("x.rs", src)]);
        let acqs: Vec<(&str, usize)> = sites
            .iter()
            .filter(|s| s.acquisition)
            .map(|s| (s.lock.as_str(), s.line))
            .collect();
        assert_eq!(acqs, [("lock-a", 6), ("lock-b", 8)], "{sites:?}");
        assert_eq!(edges.len(), 1, "{edges:?}");
        let e = &edges[0];
        assert_eq!((&*e.outer, &*e.inner, e.line), ("lock-a", "lock-b", 8));
    }

    #[test]
    fn thread_locals_and_test_regions_are_not_lock_sites() {
        let src = concat!(
            "fn f() { CURRENT.with(|c| c.get()); }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { let l = SimLock::new(\"test\"); l.with(ctx, |ctx| {}); }\n",
            "}\n",
        );
        let LockOrderReport { sites, edges, .. } = analyze(&[SourceFile::lib("x.rs", src)]);
        assert!(sites.is_empty(), "{sites:?}");
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn lock_cycles_are_detected_and_reported() {
        let edges = vec![
            LockEdge {
                outer: "b".into(),
                inner: "a".into(),
                file: "x.rs".into(),
                line: 9,
            },
            LockEdge {
                outer: "a".into(),
                inner: "b".into(),
                file: "x.rs".into(),
                line: 4,
            },
        ];
        let cycles = find_cycles(&edges);
        assert_eq!(cycles, vec![vec!["a".to_string(), "b".to_string()]]);
        let report = LockOrderReport {
            sites: Vec::new(),
            edges,
            cycles,
        };
        let v = report.cycle_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "lock-order");
        assert!(v[0].detail.contains("a -> b -> a"), "{}", v[0].detail);
        assert_eq!((v[0].file.as_str(), v[0].line), ("x.rs", 4));
    }

    #[test]
    fn acyclic_lock_graph_is_clean() {
        let edges = vec![LockEdge {
            outer: "a".into(),
            inner: "b".into(),
            file: "x.rs".into(),
            line: 4,
        }];
        assert!(find_cycles(&edges).is_empty());
    }
}
