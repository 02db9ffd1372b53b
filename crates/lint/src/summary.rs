//! Per-function summaries: the two facts a caller cannot read off its
//! own source.
//!
//! Ownership transfer is the language's — a handle passed by value is
//! moved, `&m` is a borrow, both visible at the call site — so a summary
//! says nothing about parameters. It holds:
//!
//! - **return slot** — does the function return a freshly mapped handle
//!   (and with which direction), so `let h = make_rx(…)` can be tracked
//!   like a direct `map` call?
//! - does the function's own body read data back out of a buffer it maps
//!   device-writable (the taint pass's interprocedural source bit)?
//!
//! The return lattice is `NotHandle < FreshMapped(dir) < Unknown`. A
//! return expression ending in a uniquely resolved workspace call takes
//! that callee's return, computed the first time it is needed; a callee
//! still on the walk's stack (recursion) reads as `Unknown`, the
//! conservative top.

use std::collections::BTreeSet;

use crate::cfg::Cfg;
use crate::fns::FnIndex;
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

/// One function's summary, indexed like `FnIndex::nodes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSummary {
    /// Return-slot effect.
    pub ret: RetEffect,
    /// Reads CPU-visible data out of a `FromDevice`/`Bidirectional`
    /// mapping: a device-taint source.
    pub reads_device_data: bool,
}

/// Summarizes every function of `fns`.
pub fn compute(fns: &FnIndex) -> Vec<FnSummary> {
    let mut rets = vec![None; fns.nodes.len()];
    (0..fns.nodes.len())
        .map(|id| FnSummary {
            ret: ret_of(fns, id, &mut rets),
            reads_device_data: reads_device_data(&fns.nodes[id].cfg),
        })
        .collect()
}

/// `id`'s return effect, joined over its return-position statements and
/// memoised in `rets`.
fn ret_of(fns: &FnIndex, id: usize, rets: &mut [Option<RetEffect>]) -> RetEffect {
    if let Some(ret) = rets[id] {
        return ret;
    }
    // Until the walk below finishes, a recursive call back here reads the
    // conservative top.
    rets[id] = Some(RetEffect::Unknown);
    let mut ret = RetEffect::NotHandle;
    for stmt in fns.nodes[id]
        .cfg
        .stmts()
        .filter(|s| s.is_return || s.is_tail)
    {
        let trees = match stmt.trees.split_first() {
            Some((kw, rest)) if kw.is_ident("return") => rest,
            _ => &stmt.trees[..],
        };
        if !trees.is_empty() {
            // (a bare `return` / empty tail carries no value)
            let callee_ret = |callee| ret_of(fns, callee, rets);
            ret = join_ret(ret, tail_call_effect(trees, fns, callee_ret));
        }
    }
    rets[id] = Some(ret);
    ret
}

/// Whether some statement of the body reads a device-writable buffer the
/// body itself maps.
fn reads_device_data(cfg: &Cfg) -> bool {
    let device_bufs: BTreeSet<String> = cfg
        .stmts()
        .filter_map(|stmt| detect_bind(&stmt.trees, None))
        .filter(|b| b.dir.device_writes())
        .filter_map(|b| b.buf)
        .collect();
    cfg.stmts().any(|stmt| {
        let mut evs = Vec::new();
        scan(&stmt.trees, &mut evs);
        evs.iter().any(
            |ev| matches!(ev, Ev::Read { head, .. } if head.iter().any(|h| device_bufs.contains(h))),
        )
    })
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

    /// The summaries of `src`'s functions, in source order.
    fn summarize(src: &str) -> Vec<FnSummary> {
        compute(&FnIndex::build(&[SourceFile::lib("x.rs", src)]))
    }

    fn rets(src: &str) -> Vec<RetEffect> {
        summarize(src).into_iter().map(|s| s.ret).collect()
    }

    #[test]
    fn tail_map_call_returns_fresh_mapping() {
        let make_rx = "fn make_rx(engine: &E, ctx: &mut C) -> M {\n\
                       engine.map(ctx, DmaBuf::new(buf, 64), DmaDirection::FromDevice).expect(\"m\")\n\
                       }\n";
        let wrap = "fn wrap(engine: &E, ctx: &mut C) -> M {\nmake_rx(engine, ctx)\n}\n";
        let fresh = RetEffect::FreshMapped {
            dir: Dir::FromDevice,
        };
        // Propagates through a uniquely-resolved tail call, whichever of
        // the two is summarized first.
        assert_eq!(rets(&format!("{make_rx}{wrap}")), [fresh, fresh]);
        assert_eq!(rets(&format!("{wrap}{make_rx}")), [fresh, fresh]);
    }

    #[test]
    fn a_tail_if_else_of_maps_returns_fresh_mapping() {
        let src = "fn make(engine: &E, ctx: &mut C, big: bool) -> M {\n\
                   if big {\n\
                   engine.map(ctx, DmaBuf::new(huge, 65536), DmaDirection::FromDevice).expect(\"m\")\n\
                   } else {\n\
                   engine.map(ctx, DmaBuf::new(buf, 64), DmaDirection::FromDevice).expect(\"m\")\n\
                   }\n\
                   }\n";
        let fresh = RetEffect::FreshMapped {
            dir: Dir::FromDevice,
        };
        assert_eq!(rets(src), [fresh]);
    }

    #[test]
    fn a_tail_match_joins_its_arms() {
        // One arm passes a parameter through: not provably fresh.
        let src = "fn pick(engine: &E, ctx: &mut C, old: Option<M>) -> M {\n\
                   match old {\n\
                   None => engine.map(ctx, DmaBuf::new(buf, 64), DmaDirection::ToDevice).expect(\"m\"),\n\
                   Some(m) => m,\n\
                   }\n\
                   }\n";
        assert_eq!(rets(src), [RetEffect::Unknown]);
    }

    #[test]
    fn a_passed_through_parameter_is_not_a_fresh_mapping() {
        assert_eq!(rets("fn pass(m: M) -> M { m }\n"), [RetEffect::Unknown]);
    }

    #[test]
    fn self_recursion_reads_unknown() {
        // The base case maps, but the recursive return is not provably
        // fresh: the callee is still on the walk's stack.
        let src = "fn again(engine: &E, ctx: &mut C, n: u32) -> M {\n\
                   if n > 0 {\n\
                   return again(engine, ctx, n - 1);\n\
                   }\n\
                   engine.map(ctx, DmaBuf::new(buf, 64), DmaDirection::FromDevice).expect(\"m\")\n\
                   }\n";
        assert_eq!(rets(src), [RetEffect::Unknown]);
    }

    #[test]
    fn mutual_recursion_through_tail_calls_reads_unknown() {
        let src = "fn ping(engine: &E, ctx: &mut C) -> M {\n\
                   pong(engine, ctx)\n\
                   }\n\
                   fn pong(engine: &E, ctx: &mut C) -> M {\n\
                   ping(engine, ctx)\n\
                   }\n";
        assert_eq!(rets(src), [RetEffect::Unknown, RetEffect::Unknown]);
    }

    #[test]
    fn device_read_sets_the_taint_source_bit() {
        let src = "fn rx(engine: &E, mem: &M, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(frame, 256), DmaDirection::FromDevice).expect(\"m\");\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   let data = mem.read_vec(frame, 256);\n\
                   }\n";
        assert!(summarize(src)[0].reads_device_data);
    }
}
