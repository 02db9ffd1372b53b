// lint: allow(ambient-io) — the lock-order pass must read member crates' sources
//! Lock-order static analysis.
//!
//! Extracts every lock site from the member crates — the `SimLock::new`
//! declarations and three acquisition shapes: a bare `lock.with(ctx, …)` /
//! `lock.with_spin(ctx, …)`, and the two forms of the `obs` lock-site
//! primitive, `obs.locked(ctx, &lock, …)` and `obs.guarded(ctx, NAME, …)`
//! — resolves the lock-name constants, builds the nested-acquisition
//! graph by paren matching the critical-section closures, and flags any
//! cycle as a
//! `lock-order` violation. The site inventory is exported
//! ([`lock_order_analysis`]) and fed to the bounded model checker's
//! `known_locks` check, so a lock the checker schedules around can never
//! be missing from the static map.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::lexer::{prep, Prep};
use crate::report::LintViolation;

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

/// Collects `const NAME: &str = "value";`-style string constants (the
/// idiom lock names are declared with) into `consts`, crate-wide.
pub(crate) fn scan_lock_consts(prep: &Prep, consts: &mut BTreeMap<String, String>) {
    let bb = prep.blank.as_bytes();
    let kb = prep.kept.as_bytes();
    for (pos, _) in prep.blank.match_indices("const ") {
        if pos > 0 && (bb[pos - 1].is_ascii_alphanumeric() || bb[pos - 1] == b'_') {
            continue;
        }
        let mut k = pos + "const ".len();
        while k < bb.len() && bb[k] == b' ' {
            k += 1;
        }
        let start = k;
        while k < bb.len() && (bb[k].is_ascii_alphanumeric() || bb[k] == b'_') {
            k += 1;
        }
        if k == start {
            continue;
        }
        let ident = &prep.blank[start..k];
        // The type between `:` and `=` must be a &str flavor.
        let Some(eq) = prep.blank[k..].find('=').map(|o| k + o) else {
            continue;
        };
        if !prep.blank[k..eq].contains("str") {
            continue;
        }
        let mut v = eq + 1;
        while v < kb.len() && (kb[v] == b' ' || kb[v] == b'\n') {
            v += 1;
        }
        if v >= kb.len() || kb[v] != b'"' {
            continue;
        }
        let mut e = v + 1;
        while e < kb.len() && kb[e] != b'"' {
            e += 1;
        }
        if let Ok(val) = std::str::from_utf8(&kb[v + 1..e]) {
            consts.insert(ident.to_string(), val.to_string());
        }
    }
}

/// Reads a lock-name argument starting at byte `k`: a string literal
/// (from the comment-stripped view) or an identifier resolved through the
/// crate's constant table.
fn read_lock_arg(prep: &Prep, mut k: usize, consts: &BTreeMap<String, String>) -> Option<String> {
    let bb = prep.blank.as_bytes();
    let kb = prep.kept.as_bytes();
    while k < kb.len() && (kb[k] == b' ' || kb[k] == b'\n' || kb[k] == b'\t') {
        k += 1;
    }
    if k >= kb.len() {
        return None;
    }
    if kb[k] == b'"' {
        let mut e = k + 1;
        while e < kb.len() && kb[e] != b'"' {
            e += 1;
        }
        return std::str::from_utf8(&kb[k + 1..e]).ok().map(str::to_string);
    }
    let start = k;
    let mut e = k;
    while e < bb.len() && (bb[e].is_ascii_alphanumeric() || bb[e] == b'_') {
        e += 1;
    }
    if e == start {
        return None;
    }
    consts.get(&prep.blank[start..e]).cloned()
}

/// The identifier ending right before byte `end` (used for `.with`
/// receivers and `SimLock::new` binders).
fn ident_before(blank: &str, end: usize) -> &str {
    let bb = blank.as_bytes();
    let mut k = end;
    while k > 0 && (bb[k - 1].is_ascii_alphanumeric() || bb[k - 1] == b'_') {
        k -= 1;
    }
    &blank[k..end]
}

/// Matches the `(` at `open` to its `)` on the fully-blanked view (string
/// contents cannot unbalance it).
fn match_paren(blank: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (k, &c) in blank.iter().enumerate().skip(open) {
        match c {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Byte offset of a call's second argument, given the offset right after
/// its first (`ctx`): skips the separating comma and surrounding
/// whitespace.
fn second_arg(blank: &[u8], mut k: usize) -> Option<usize> {
    let skip_ws = |mut k: usize| {
        while k < blank.len() && (blank[k] == b' ' || blank[k] == b'\n') {
            k += 1;
        }
        k
    };
    k = skip_ws(k);
    (blank.get(k) == Some(&b',')).then(|| skip_ws(k + 1))
}

/// An acquisition occurrence with the byte span of its critical-section
/// argument list (nested occurrences starting inside the span become
/// lock-order edges).
struct Acq {
    start: usize,
    end: usize,
    line: usize,
    names: Vec<String>,
}

/// Scans one prepared file for lock declarations and acquisitions,
/// recording sites and intra-file nested-acquisition edges.
pub(crate) fn scan_lock_file(
    prep: &Prep,
    consts: &BTreeMap<String, String>,
    sites: &mut Vec<LockSite>,
    edges: &mut Vec<LockEdge>,
) {
    let bb = prep.blank.as_bytes();

    // Declarations: `binder: SimLock::new(ARG)` / `let binder = …`.
    let mut fields: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (pos, _) in prep.blank.match_indices("SimLock::new(") {
        let line = prep.line_of(pos);
        if prep.in_test(line) {
            continue;
        }
        let Some(name) = read_lock_arg(prep, pos + "SimLock::new(".len(), consts) else {
            continue;
        };
        let mut j = pos;
        while j > 0 && bb[j - 1] == b' ' {
            j -= 1;
        }
        if j > 0 && (bb[j - 1] == b':' || bb[j - 1] == b'=') {
            j -= 1;
            while j > 0 && bb[j - 1] == b' ' {
                j -= 1;
            }
            let binder = ident_before(&prep.blank, j);
            if !binder.is_empty() && binder != "let" {
                fields
                    .entry(binder.to_string())
                    .or_default()
                    .insert(name.clone());
            }
        }
        sites.push(LockSite {
            file: prep.label.clone(),
            line,
            lock: name,
            acquisition: false,
        });
    }

    let mut acqs: Vec<Acq> = Vec::new();
    let mut record = |names: Vec<String>, open: usize, pos: usize, acqs: &mut Vec<Acq>| {
        let line = prep.line_of(pos);
        if names.is_empty() || prep.in_test(line) {
            return;
        }
        let Some(end) = match_paren(bb, open) else {
            return;
        };
        for n in &names {
            sites.push(LockSite {
                file: prep.label.clone(),
                line,
                lock: n.clone(),
                acquisition: true,
            });
        }
        acqs.push(Acq {
            start: pos,
            end,
            line,
            names,
        });
    };

    let held_by = |binder: &str| -> Vec<String> {
        fields
            .get(binder)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    };
    // `receiver.with(ctx, |ctx| …)` / `receiver.with_spin(ctx, |ctx| …)` —
    // a bare SimLock acquisition. The receiver must be a known SimLock
    // binder (this is what keeps `CURRENT.with(|…|)` thread-locals out).
    for method in [".with", ".with_spin"] {
        for (pos, _) in prep.blank.match_indices(&format!("{method}(")) {
            let names = held_by(ident_before(&prep.blank, pos));
            record(names, pos + method.len(), pos, &mut acqs);
        }
    }
    // `obs.locked(ctx, &self.lock, var, |ctx| …)` — the lock-site primitive
    // over a SimLock: the second argument's last path segment is the
    // binder, resolved like a `.with(` receiver.
    for (pos, _) in prep.blank.match_indices(".locked(ctx") {
        let Some(arg) = second_arg(bb, pos + ".locked(ctx".len()) else {
            continue;
        };
        let mut end = arg;
        while end < bb.len() && (bb[end].is_ascii_alphanumeric() || b"&_.".contains(&bb[end])) {
            end += 1;
        }
        let names = held_by(ident_before(&prep.blank, end));
        record(names, pos + ".locked".len(), pos, &mut acqs);
    }
    // `obs.guarded(ctx, NAME, var)` — the primitive's name-only form for
    // host-mutex regions.
    for (pos, _) in prep.blank.match_indices(".guarded(ctx") {
        let Some(arg) = second_arg(bb, pos + ".guarded(ctx".len()) else {
            continue;
        };
        let names = read_lock_arg(prep, arg, consts).into_iter().collect();
        record(names, pos + ".guarded".len(), pos, &mut acqs);
    }

    for outer in &acqs {
        for inner in &acqs {
            if inner.start <= outer.start || inner.start >= outer.end {
                continue;
            }
            for no in &outer.names {
                for ni in &inner.names {
                    if !edges.iter().any(|e| &e.outer == no && &e.inner == ni) {
                        edges.push(LockEdge {
                            outer: no.clone(),
                            inner: ni.clone(),
                            file: prep.label.clone(),
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

/// Runs the lock-order pass over every member crate's `src/` tree rooted
/// at `root`, returning the site inventory, acquisition graph, and cycles.
pub fn lock_order_analysis(root: &Path) -> std::io::Result<LockOrderReport> {
    let label = |p: &Path| {
        p.strip_prefix(root)
            .unwrap_or(p)
            .display()
            .to_string()
            .replace('\\', "/")
    };
    let mut report = LockOrderReport::default();
    for member in crate::member_crates(root)? {
        let src_dir = member.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        crate::rust_files(&src_dir, &mut files)?;
        files.sort();
        let mut preps = Vec::new();
        let mut consts = BTreeMap::new();
        for f in &files {
            let src = fs::read_to_string(f)?;
            let p = prep(&label(f), &src);
            scan_lock_consts(&p, &mut consts);
            preps.push(p);
        }
        for p in &preps {
            scan_lock_file(p, &consts, &mut report.sites, &mut report.edges);
        }
    }
    report.cycles = find_cycles(&report.edges);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let p = prep("x.rs", src);
        let mut consts = BTreeMap::new();
        scan_lock_consts(&p, &mut consts);
        assert_eq!(consts.get("A_LOCK").map(String::as_str), Some("lock-a"));
        let (mut sites, mut edges) = (Vec::new(), Vec::new());
        scan_lock_file(&p, &consts, &mut sites, &mut edges);
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
        assert_eq!(
            (
                edges[0].outer.as_str(),
                edges[0].inner.as_str(),
                edges[0].line
            ),
            ("lock-a", "lock-b", 7)
        );
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
        let p = prep("x.rs", src);
        let mut consts = BTreeMap::new();
        scan_lock_consts(&p, &mut consts);
        let (mut sites, mut edges) = (Vec::new(), Vec::new());
        scan_lock_file(&p, &consts, &mut sites, &mut edges);
        let acqs: Vec<(&str, usize)> = sites
            .iter()
            .filter(|s| s.acquisition)
            .map(|s| (s.lock.as_str(), s.line))
            .collect();
        assert_eq!(acqs, [("lock-a", 6), ("lock-b", 8)], "{sites:?}");
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert_eq!(
            (
                edges[0].outer.as_str(),
                edges[0].inner.as_str(),
                edges[0].line
            ),
            ("lock-a", "lock-b", 8)
        );
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
        let p = prep("x.rs", src);
        let (mut sites, mut edges) = (Vec::new(), Vec::new());
        scan_lock_file(&p, &BTreeMap::new(), &mut sites, &mut edges);
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
