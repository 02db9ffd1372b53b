//! The device-taint pass: the static mirror of `crates/attacks`.
//!
//! Under the paper's threat model everything a device can write is
//! attacker-controlled, so any value the CPU loads out of a
//! `FromDevice`/`Bidirectional` buffer is **tainted**. This pass marks
//! such loads as sources, propagates taint through local `let` bindings
//! (flow-insensitively, within one function), and flags taint reaching a
//! sink with no intervening bounds check:
//!
//! | sink                | pattern                                     |
//! |---------------------|---------------------------------------------|
//! | index               | `table[…tainted…]`                          |
//! | loop bound          | `for _ in …tainted… { }` range head         |
//! | `PhysAddr` arith    | tainted inside `PhysAddr…(…)` arguments     |
//! | read/write length   | tainted argument of a `SimMemory` accessor  |
//!
//! Sanitizers: a comparison over the tainted value in an `if`/`while`
//! condition (`idx < table.len()`), or clamping at the definition site
//! (`.min(…)`, `.clamp(…)`, `% len`). A call returning the payload of a
//! device-reading helper (`reads_device_data` in its summary) is also a
//! source. Findings use the waivable `device-taint` rule.

use std::collections::BTreeSet;

use crate::cfg::{Stmt, Tree};
use crate::fns::FnNode;
use crate::report::LintViolation;
use crate::rules::protocol::ProtocolAnalysis;
use crate::typestate::{detect_bind, let_binding, scan, Ev, READ_METHODS};

/// Aggregate numbers for the JSON report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaintStats {
    /// Device-load statements that introduced taint.
    pub sources: usize,
    /// Distinct tainted variables (after propagation).
    pub tainted_vars: usize,
    /// Tainted variables neutralized by a bounds check or clamp.
    pub sanitized_vars: usize,
}

impl TaintStats {
    /// Accumulates another file's stats.
    pub fn absorb(&mut self, other: TaintStats) {
        self.sources += other.sources;
        self.tainted_vars += other.tainted_vars;
        self.sanitized_vars += other.sanitized_vars;
    }
}

/// Any ident from `vars` mentioned anywhere in `trees`.
fn mentions(trees: &[Tree], vars: &BTreeSet<String>) -> bool {
    trees.iter().any(|t| match t {
        Tree::Tok(tok) => tok.is_ident && vars.contains(&tok.text),
        Tree::Group { children, .. } => mentions(children, vars),
    })
}

/// The definition site clamps the value: `.min(…)`, `.clamp(…)`, `% …`.
fn clamped_at_definition(trees: &[Tree]) -> bool {
    let mut i = 0;
    while i < trees.len() {
        match &trees[i] {
            Tree::Tok(tok) => {
                if tok.text == "%" {
                    return true;
                }
                if tok.text == "."
                    && trees
                        .get(i + 1)
                        .and_then(Tree::ident)
                        .is_some_and(|m| m == "min" || m == "clamp")
                    && matches!(trees.get(i + 2), Some(Tree::Group { delim: '(', .. }))
                {
                    return true;
                }
            }
            Tree::Group { children, .. } => {
                if clamped_at_definition(children) {
                    return true;
                }
            }
        }
        i += 1;
    }
    false
}

/// Collects the head region of every `kw`-started block (`if`/`while`
/// conditions, `for` heads): the tokens between the keyword and the next
/// `{` group at the same level. Recurses into all groups.
fn head_regions<'t>(trees: &'t [Tree], kws: &[&str], out: &mut Vec<&'t [Tree]>) {
    let mut i = 0;
    while i < trees.len() {
        if kws.iter().any(|k| trees[i].is_ident(k)) {
            let mut j = i + 1;
            while j < trees.len() && !matches!(trees[j], Tree::Group { delim: '{', .. }) {
                j += 1;
            }
            out.push(&trees[i + 1..j]);
            i = j;
            continue; // the body group recurses on the next iteration
        }
        if let Tree::Group { children, .. } = &trees[i] {
            head_regions(children, kws, out);
        }
        i += 1;
    }
}

/// Comparison puncts that constitute a bounds check when a tainted value
/// sits in the same condition (`<=`/`>=` lex as two puncts, so `<`, `>`
/// and `==` cover them).
fn has_comparison(trees: &[Tree]) -> bool {
    trees.iter().any(|t| match t {
        Tree::Tok(tok) => !tok.is_ident && matches!(tok.text.as_str(), "<" | ">" | "=="),
        Tree::Group { children, .. } => has_comparison(children),
    })
}

/// Tainted idents present in `trees`, recursively, deduplicated.
fn tainted_in(trees: &[Tree], tainted: &BTreeSet<String>, out: &mut Vec<String>) {
    for t in trees {
        match t {
            Tree::Tok(tok)
                if tok.is_ident && tainted.contains(&tok.text) && !out.contains(&tok.text) =>
            {
                out.push(tok.text.clone());
            }
            Tree::Group { children, .. } => tainted_in(children, tainted, out),
            _ => {}
        }
    }
}

/// Runs the taint pass over one file's functions `nodes`. Uniquely
/// resolved calls to device-reading helpers (`reads_device_data` in
/// `inter`'s summaries) act as sources too.
pub fn check_fns(nodes: &[FnNode], inter: &ProtocolAnalysis) -> (Vec<LintViolation>, TaintStats) {
    let mut findings = Vec::new();
    let mut stats = TaintStats::default();
    for f in nodes {
        let stmts: Vec<&Stmt> = f.cfg.stmts().collect();
        check_fn(f, &stmts, inter, &mut findings, &mut stats);
    }
    findings.sort_by_key(|f| (f.line, f.detail.clone()));
    findings.dedup();
    (findings, stats)
}

fn check_fn(
    f: &FnNode,
    stmts: &[&Stmt],
    inter: &ProtocolAnalysis,
    findings: &mut Vec<LintViolation>,
    stats: &mut TaintStats,
) {
    let body = &f.body;
    // Device-writable buffers bound in this function.
    let mut device_bufs: BTreeSet<String> = BTreeSet::new();
    for stmt in stmts {
        if let Some(b) = detect_bind(&stmt.trees, None) {
            if b.dir.device_writes() {
                if let Some(buf) = b.buf {
                    device_bufs.insert(buf);
                }
            }
        }
    }

    // Sources: `let v = …read…(device_buf, …)` and `let v = helper(…)`
    // where the helper's summary says it reads device data.
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    for stmt in stmts {
        let Some((var, _)) = let_binding(&stmt.trees) else {
            continue;
        };
        if clamped_at_definition(&stmt.trees) {
            continue;
        }
        let mut evs = Vec::new();
        scan(&stmt.trees, &mut evs);
        let mut is_source = false;
        for ev in &evs {
            match ev {
                Ev::Read { head, .. } if head.iter().any(|h| device_bufs.contains(h)) => {
                    is_source = true;
                }
                Ev::UserCall {
                    name,
                    method,
                    qualified: false,
                    argc,
                } => {
                    if let Some(id) = inter.fns.resolve(name, *method, *argc) {
                        is_source |= inter.summaries[id].reads_device_data;
                    }
                }
                _ => {}
            }
        }
        if is_source && tainted.insert(var.to_string()) {
            stats.sources += 1;
        }
    }
    if tainted.is_empty() {
        return;
    }

    // Propagation: a let whose RHS mentions a tainted value taints the
    // binding, unless the definition clamps it.
    let mut rounds = 0;
    loop {
        let mut changed = false;
        for stmt in stmts {
            let Some((var, _)) = let_binding(&stmt.trees) else {
                continue;
            };
            if tainted.contains(var) || clamped_at_definition(&stmt.trees) {
                continue;
            }
            if mentions(&stmt.trees[1..], &tainted) {
                tainted.insert(var.to_string());
                changed = true;
            }
        }
        rounds += 1;
        if !changed || rounds > stmts.len() + 2 {
            break;
        }
    }
    stats.tainted_vars += tainted.len();

    // Sanitizers: a comparison over the tainted value in an `if`/`while`
    // condition neutralizes it for the whole function.
    let mut conds = Vec::new();
    head_regions(body, &["if", "while"], &mut conds);
    let mut sanitized: BTreeSet<String> = BTreeSet::new();
    for cond in &conds {
        if has_comparison(cond) {
            let mut hit = Vec::new();
            tainted_in(cond, &tainted, &mut hit);
            sanitized.extend(hit);
        }
    }
    stats.sanitized_vars += sanitized.len();
    let live: BTreeSet<String> = tainted.difference(&sanitized).cloned().collect();
    if live.is_empty() {
        return;
    }

    // Sinks.
    let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
    let mut flag = |findings: &mut Vec<LintViolation>, line: usize, var: &str, sink: &str| {
        if seen.insert((line, var.to_string())) {
            findings.push(LintViolation {
                file: f.file.clone(),
                rule: "device-taint",
                line,
                detail: format!(
                    "device-tainted value `{var}` flows into {sink} without a bounds check"
                ),
            });
        }
    };
    // Loop bounds: a tainted value in a `for` range head.
    let mut for_heads = Vec::new();
    head_regions(body, &["for"], &mut for_heads);
    for head in &for_heads {
        if head.iter().any(|t| t.is_punct("..")) {
            let mut hit = Vec::new();
            tainted_in(head, &live, &mut hit);
            let line = head.first().map(Tree::line).unwrap_or(0);
            for var in hit {
                flag(findings, line, &var, "a loop bound");
            }
        }
    }
    sink_walk(body, &live, &mut |line, var, sink| {
        flag(findings, line, var, sink)
    });
}

/// Recursive scan for index, `PhysAddr`, and accessor-argument sinks.
fn sink_walk(trees: &[Tree], live: &BTreeSet<String>, flag: &mut impl FnMut(usize, &str, &str)) {
    let mut i = 0;
    while i < trees.len() {
        // Index sink: `ident [ …tainted… ]` (the ident guard keeps
        // `vec![…]` and `#[…]` out).
        if trees.get(i).and_then(Tree::ident).is_some() {
            if let Some(Tree::Group {
                delim: '[',
                children,
                open_line,
                ..
            }) = trees.get(i + 1)
            {
                let mut hit = Vec::new();
                tainted_in(children, live, &mut hit);
                for var in hit {
                    flag(*open_line, &var, "an index expression");
                }
            }
        }
        // PhysAddr sink: tainted inside the argument group of a
        // `PhysAddr`-path call (`PhysAddr::new(base + off)`, …).
        if trees.get(i).and_then(Tree::ident) == Some("PhysAddr") {
            for t in trees.iter().skip(i + 1).take(4) {
                if let Tree::Group {
                    delim: '(',
                    children,
                    open_line,
                    ..
                } = t
                {
                    let mut hit = Vec::new();
                    tainted_in(children, live, &mut hit);
                    for var in hit {
                        flag(*open_line, &var, "PhysAddr arithmetic");
                    }
                    break;
                }
            }
        }
        // Accessor-length sink: tainted argument of a memory accessor
        // (`mem.read_vec(addr, len)`, `mem.write(addr, data)`, …).
        if trees[i].is_punct(".") {
            if let (
                Some(name),
                Some(Tree::Group {
                    delim: '(',
                    children,
                    open_line,
                    ..
                }),
            ) = (trees.get(i + 1).and_then(Tree::ident), trees.get(i + 2))
            {
                if READ_METHODS.contains(&name) || name == "write" || name == "write_vec" {
                    let mut hit = Vec::new();
                    tainted_in(children, live, &mut hit);
                    for var in hit {
                        flag(*open_line, &var, "a memory-accessor argument");
                    }
                }
            }
        }
        if let Tree::Group { children, .. } = &trees[i] {
            sink_walk(children, live, flag);
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn run(src: &str) -> Vec<LintViolation> {
        let fns = crate::fns::FnIndex::build(&[SourceFile::lib("x.rs", src)]);
        let analysis = crate::rules::protocol::ProtocolAnalysis::new(fns);
        check_fns(&analysis.fns.nodes, &analysis).0
    }

    #[test]
    fn taint_to_index_without_check_is_flagged() {
        let src = "fn rx(engine: &E, mem: &M, ctx: &mut C, table: &[u32]) {\n\
                   let m = engine.map(ctx, DmaBuf::new(frame, 256), DmaDirection::FromDevice).expect(\"m\");\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   let data = mem.read_vec(frame, 256);\n\
                   let idx = head(&data);\n\
                   let x = table[idx];\n\
                   }\n\
                   fn head(d: &[u8]) -> usize { 0 }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "device-taint");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn bounds_checked_taint_is_clean() {
        let src = "fn rx(engine: &E, mem: &M, ctx: &mut C, table: &[u32]) {\n\
                   let m = engine.map(ctx, DmaBuf::new(frame, 256), DmaDirection::FromDevice).expect(\"m\");\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   let data = mem.read_vec(frame, 256);\n\
                   let idx = head(&data);\n\
                   if idx < table.len() {\n\
                   let x = table[idx];\n\
                   }\n\
                   }\n\
                   fn head(d: &[u8]) -> usize { 0 }\n";
        assert_eq!(run(src), Vec::new());
    }

    #[test]
    fn clamped_definition_is_clean() {
        let src = "fn rx(mem: &M, engine: &E, ctx: &mut C, table: &[u32]) {\n\
                   let m = engine.map(ctx, DmaBuf::new(frame, 256), DmaDirection::FromDevice).expect(\"m\");\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   let data = mem.read_vec(frame, 256);\n\
                   let idx = head(&data) % table.len();\n\
                   let x = table[idx];\n\
                   }\n\
                   fn head(d: &[u8]) -> usize { 0 }\n";
        assert_eq!(run(src), Vec::new());
    }

    #[test]
    fn to_device_buffers_do_not_taint() {
        let src = "fn tx(mem: &M, engine: &E, ctx: &mut C, table: &[u32]) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   let echo = mem.read_vec(skb, 64);\n\
                   let x = table[echo];\n\
                   }\n";
        assert_eq!(run(src), Vec::new());
    }

    #[test]
    fn tainted_loop_bound_is_flagged() {
        let src = "fn rx(mem: &M, engine: &E, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(frame, 256), DmaDirection::Bidirectional).expect(\"m\");\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   let count = mem.read_vec(frame, 4);\n\
                   for i in 0..count {\n\
                   step(i);\n\
                   }\n\
                   }\n\
                   fn step(i: usize) {}\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].detail.contains("loop bound"), "{f:?}");
    }

    #[test]
    fn tainted_accessor_length_is_flagged() {
        let src = "fn rx(mem: &M, engine: &E, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(frame, 256), DmaDirection::FromDevice).expect(\"m\");\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   let len = mem.read_vec(frame, 4);\n\
                   let body = mem.read_vec(frame, len);\n\
                   }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].detail.contains("memory-accessor"), "{f:?}");
    }

    #[test]
    fn tainted_phys_addr_arith_is_flagged() {
        let src = "fn rx(mem: &M, engine: &E, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(frame, 256), DmaDirection::FromDevice).expect(\"m\");\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   let off = mem.read_vec(frame, 8);\n\
                   let target = PhysAddr::new(base + off);\n\
                   }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].detail.contains("PhysAddr"), "{f:?}");
    }

    #[test]
    fn summary_backed_source_taints_helper_result() {
        let src = "fn rx_one(mem: &M, engine: &E, ctx: &mut C) -> usize {\n\
                   let m = engine.map(ctx, DmaBuf::new(frame, 256), DmaDirection::FromDevice).expect(\"m\");\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   let data = mem.read_vec(frame, 256);\n\
                   first(&data)\n\
                   }\n\
                   fn caller(mem: &M, engine: &E, ctx: &mut C, table: &[u32]) {\n\
                   let idx = rx_one(mem, engine, ctx);\n\
                   let x = table[idx];\n\
                   }\n\
                   fn first(d: &[u8]) -> usize { 0 }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "device-taint");
        assert_eq!(f[0].line, 9);
    }

    #[test]
    fn test_functions_are_exempt() {
        let src = "#[cfg(test)]\nmod t {\n\
                   fn f(mem: &M, engine: &E, ctx: &mut C, table: &[u32]) {\n\
                   let m = engine.map(ctx, DmaBuf::new(frame, 256), DmaDirection::FromDevice).expect(\"m\");\n\
                   let data = mem.read_vec(frame, 256);\n\
                   let x = table[data];\n\
                   }\n\
                   }\n";
        assert_eq!(run(src), Vec::new());
    }
}
