//! Per-function summaries, computed bottom-up over the call graph's SCCs.
//!
//! Ownership transfer is the language's — a handle passed by value is
//! moved, `&m` is a borrow, both visible at the call site — so a summary
//! says nothing about parameters. It holds the two facts a caller cannot
//! read off its own source:
//!
//! - **return slot** — does the function return a freshly mapped handle
//!   (and with which direction), so `let h = make_rx(…)` can be tracked
//!   like a direct `map` call?
//! - does the function read data back out of a device-writable buffer
//!   (the taint pass's interprocedural source bit)?
//!
//! The return lattice is `NotHandle < FreshMapped(dir) < Unknown`.
//! Summaries are computed per SCC with a fixpoint (callees first, so
//! non-recursive code converges in one sweep); an SCC that fails to
//! converge within its round cap falls back to the explicit conservative
//! bottom — return unknown, `converged = false` — rather than an unsound
//! guess.

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::typestate::{detect_bind, scan, tail_call_effect, Dir, Ev};

/// What the function's return slot carries, handle-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetEffect {
    /// Provably not a DMA handle (unit, counters, …) — the bottom.
    #[default]
    NotHandle,
    /// Every return path ends in a fresh `map`/`alloc_coherent` (or a
    /// callee that provably does): callers may track the binding.
    FreshMapped { dir: Dir },
    /// Anything else: possibly a handle, not provably fresh.
    Unknown,
}

/// One function's summary, indexed like `CallGraph::nodes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSummary {
    /// Return-slot effect.
    pub ret: RetEffect,
    /// Reads CPU-visible data out of a `FromDevice`/`Bidirectional`
    /// mapping: a device-taint source.
    pub reads_device_data: bool,
    /// `false` when the SCC fixpoint hit its round cap and this summary
    /// is the conservative fallback.
    pub converged: bool,
}

impl FnSummary {
    const BOTTOM: FnSummary = FnSummary {
        ret: RetEffect::NotHandle,
        reads_device_data: false,
        converged: true,
    };

    const CONSERVATIVE: FnSummary = FnSummary {
        ret: RetEffect::Unknown,
        reads_device_data: false,
        converged: false,
    };
}

/// Computes summaries for every node, callees before callers.
pub fn compute(graph: &CallGraph) -> Vec<FnSummary> {
    let mut sums = vec![FnSummary::BOTTOM; graph.nodes.len()];
    for scc in graph.sccs() {
        let cap = 3 * scc.len() + 3;
        let mut rounds = 0;
        loop {
            let mut changed = false;
            for &id in &scc {
                let next = summarize_one(graph, &graph.nodes[id].cfg, &sums);
                if next != sums[id] {
                    sums[id] = next;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            rounds += 1;
            if rounds >= cap {
                for &id in &scc {
                    sums[id] = FnSummary::CONSERVATIVE;
                }
                break;
            }
        }
    }
    sums
}

fn summarize_one(graph: &CallGraph, cfg: &Cfg, sums: &[FnSummary]) -> FnSummary {
    let mut s = FnSummary::BOTTOM;

    // Device-writable buffers bound in this body (taint sources).
    let device_bufs: BTreeSet<String> = cfg
        .stmts()
        .filter_map(|stmt| detect_bind(&stmt.trees, None))
        .filter(|b| b.dir.device_writes())
        .filter_map(|b| b.buf)
        .collect();

    for stmt in cfg.stmts() {
        let mut evs = Vec::new();
        scan(&stmt.trees, &mut evs);
        s.reads_device_data |= evs.iter().any(
            |ev| matches!(ev, Ev::Read { head, .. } if head.iter().any(|h| device_bufs.contains(h))),
        );

        // Return-slot effect, joined over all return-position statements.
        if !(stmt.is_return || stmt.is_tail) {
            continue;
        }
        let mut trees = &stmt.trees[..];
        if trees.first().is_some_and(|t| t.is_ident("return")) {
            trees = &trees[1..];
        }
        if !trees.is_empty() {
            // (a bare `return` / empty tail carries no value)
            s.ret = join_ret(s.ret, tail_call_effect(trees, graph, sums));
        }
    }
    s
}

fn join_ret(a: RetEffect, b: RetEffect) -> RetEffect {
    match (a, b) {
        (RetEffect::NotHandle, x) | (x, RetEffect::NotHandle) => x,
        (RetEffect::FreshMapped { dir: d1 }, RetEffect::FreshMapped { dir: d2 }) => {
            RetEffect::FreshMapped {
                dir: if d1 == d2 { d1 } else { Dir::Unknown },
            }
        }
        _ => RetEffect::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn setup(src: &str) -> (CallGraph, Vec<FnSummary>) {
        let g = CallGraph::build(&[SourceFile::lib("x.rs", src)]);
        let s = compute(&g);
        (g, s)
    }

    fn sum_of<'s>(g: &CallGraph, s: &'s [FnSummary], name: &str) -> &'s FnSummary {
        let id = g
            .nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("{name} not in graph"));
        &s[id]
    }

    #[test]
    fn tail_map_call_returns_fresh_mapping() {
        let src = "fn make_rx(engine: &E, ctx: &mut C) -> M {\n\
                   engine.map(ctx, DmaBuf::new(buf, 64), DmaDirection::FromDevice).expect(\"m\")\n\
                   }\n\
                   fn wrap(engine: &E, ctx: &mut C) -> M {\n\
                   make_rx(engine, ctx)\n\
                   }\n";
        let (g, s) = setup(src);
        assert_eq!(
            sum_of(&g, &s, "make_rx").ret,
            RetEffect::FreshMapped {
                dir: Dir::FromDevice
            }
        );
        // Propagates through a uniquely-resolved tail call.
        assert_eq!(
            sum_of(&g, &s, "wrap").ret,
            RetEffect::FreshMapped {
                dir: Dir::FromDevice
            }
        );
    }

    #[test]
    fn a_passed_through_parameter_is_not_a_fresh_mapping() {
        let (g, s) = setup("fn pass(m: M) -> M { m }\n");
        assert_eq!(sum_of(&g, &s, "pass").ret, RetEffect::Unknown);
    }

    #[test]
    fn recursion_converges() {
        let src = "fn walk(n: u32) { if n > 0 { walk(n - 1); } }\n";
        let (g, s) = setup(src);
        assert!(sum_of(&g, &s, "walk").converged);
    }

    #[test]
    fn device_read_sets_the_taint_source_bit() {
        let src = "fn rx(engine: &E, mem: &M, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(frame, 256), DmaDirection::FromDevice).expect(\"m\");\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   let data = mem.read_vec(frame, 256);\n\
                   }\n";
        let (g, s) = setup(src);
        assert!(sum_of(&g, &s, "rx").reads_device_data);
    }
}
