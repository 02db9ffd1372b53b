//! The workspace's function index.
//!
//! Every non-test named function extracted by the shared front-end
//! ([`crate::cfg::extract_functions`]) from the parsed workspace, with its
//! CFG built once here for every pass that reads it, addressable by file
//! and by simple name. There are no call edges: a pass that reads a
//! callee's fact resolves that one call site with [`FnIndex::resolve`],
//! and [`crate::summary`] computes the fact the first time it is needed.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::cfg::{extract_functions, Cfg, Param, Tree};
use crate::workspace::SourceFile;

/// One named function.
#[derive(Debug)]
pub struct FnNode {
    /// Workspace-relative file.
    pub file: String,
    /// Function name.
    pub name: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// Declared parameters (receiver included).
    pub params: Vec<Param>,
    /// Body token trees.
    pub body: Vec<Tree>,
    /// The body's control-flow graph.
    pub cfg: Cfg,
}

/// The workspace's named functions.
#[derive(Debug, Default)]
pub struct FnIndex {
    /// All functions, file by file.
    pub nodes: Vec<FnNode>,
    /// Simple name → candidate ids.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// The ids of each input file, indexed like the input.
    pub files: Vec<Range<usize>>,
}

impl FnIndex {
    /// Indexes parsed files (`tests/`/`benches/` files have no trees,
    /// hence no functions).
    pub fn build(files: &[SourceFile]) -> FnIndex {
        let mut index = FnIndex::default();
        for file in files {
            let first = index.nodes.len();
            for f in extract_functions(&file.prep, &file.trees) {
                index
                    .by_name
                    .entry(f.name.clone())
                    .or_default()
                    .push(index.nodes.len());
                index.nodes.push(FnNode {
                    file: file.prep.label.clone(),
                    name: f.name,
                    line: f.line,
                    params: f.params,
                    cfg: Cfg::build(&f.body),
                    body: f.body,
                });
            }
            index.files.push(first..index.nodes.len());
        }
        index
    }

    /// The one workspace function a call site `name(…)` (or, for a
    /// `method` call, `recv.name(…)`) with `argc` arguments can reach:
    /// method calls need params = argc+1 with a `self` receiver, free
    /// calls params = argc and no receiver. `None` when no function or
    /// more than one fits.
    pub fn resolve(&self, name: &str, method: bool, argc: usize) -> Option<usize> {
        let mut fits = self.by_name.get(name)?.iter().copied().filter(|&id| {
            let p = &self.nodes[id].params;
            if method {
                p.len() == argc + 1 && p.first().is_some_and(|p0| p0.name == "self")
            } else {
                p.len() == argc && p.first().is_none_or(|p0| p0.name != "self")
            }
        });
        let id = fits.next()?;
        fits.next().is_none().then_some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(src: &str) -> FnIndex {
        FnIndex::build(&[SourceFile::lib("x.rs", src)])
    }

    fn id_of(fns: &FnIndex, name: &str) -> usize {
        fns.nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("{name} not indexed"))
    }

    #[test]
    fn free_and_method_calls_resolve_by_name_and_arity() {
        let fns = index(
            "fn helper(a: u32) {}\n\
             impl S {\n    fn act(&self, x: u32) { helper(x); self.go(x); }\n    fn go(&self, x: u32) {}\n}\n",
        );
        assert_eq!(fns.resolve("helper", false, 1), Some(id_of(&fns, "helper")));
        assert_eq!(fns.resolve("go", true, 1), Some(id_of(&fns, "go")));
        // A receiver is not a free argument.
        assert_eq!(fns.resolve("go", false, 2), None);
        assert_eq!(fns.resolve("external_thing", false, 1), None);
    }

    #[test]
    fn arity_mismatch_does_not_resolve() {
        let fns = index("fn t(a: u32, b: u32) {}\nfn f() { t(1); }\n");
        assert_eq!(fns.resolve("t", false, 1), None);
    }

    #[test]
    fn a_name_two_functions_fit_does_not_resolve() {
        let fns = index("impl A {\n    fn new(n: u32) {}\n}\nimpl B {\n    fn new(n: u32) {}\n}\n");
        assert_eq!(fns.resolve("new", false, 1), None);
    }

    #[test]
    fn closures_are_not_functions() {
        let fns = index("fn f(items: &[u32]) { run(move || step(1)); }\nfn step(x: u32) {}\n");
        let names: Vec<&str> = fns.nodes.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["f", "step"]);
    }
}
