// lint: allow(ambient-io) — the loader is the one place the lint reads the workspace
//! The one walk and the one parse.
//!
//! [`Workspace::load`] reads every member crate's manifest and its `src/`,
//! `tests/` and `benches/` files once. Each file is prepped once
//! ([`crate::lexer::prep`]); each `src/` file is also tokenized and turned
//! into token trees once, here. Every pass — the line rules, the function
//! index (which splits the trees into functions and builds each one's
//! CFG once), the protocol and taint checks — reads this form and none of
//! them touches the file system.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::cfg::{build_trees, Tree};
use crate::lexer::{prep, tokenize, Prep};
use crate::rules::style::FileContext;

/// One member source file, read and parsed once.
#[derive(Debug)]
pub struct SourceFile {
    /// The label and the byte-aligned stripped views.
    pub prep: Prep,
    /// The raw text: waiver comments live in it.
    pub src: String,
    /// The member crate's directory name.
    pub crate_name: String,
    /// Where the file sits, which decides the rules that apply.
    pub ctx: FileContext,
    /// `src/lib.rs`, `src/main.rs` or `src/bin/*.rs` of its crate.
    pub crate_root: bool,
    /// The file's token trees; empty for `tests/` and `benches/` files,
    /// which only the line rules read.
    pub trees: Vec<Tree>,
}

impl SourceFile {
    /// Preps `src` and, outside `tests/`/`benches/`, parses it.
    pub fn parse(label: &str, src: String, crate_name: &str, ctx: FileContext) -> SourceFile {
        let prep = prep(label, &src);
        let trees = if ctx.aux {
            Vec::new()
        } else {
            build_trees(&tokenize(&prep.blank))
        };
        SourceFile {
            prep,
            src,
            crate_name: crate_name.to_string(),
            ctx,
            crate_root: false,
            trees,
        }
    }
}

/// A loaded workspace: what the lint reads, read once.
#[derive(Debug, Default)]
pub struct Workspace {
    /// `(label, text)` of each member manifest, then the root manifest.
    pub manifests: Vec<(String, String)>,
    /// Every member's `src/`, `tests/` and `benches/` files, member by
    /// member, each tree sorted.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Reads the workspace rooted at `root`: the member crates under
    /// `root/crates` and the root manifest.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let label = |p: &Path| {
            p.strip_prefix(root)
                .unwrap_or(p)
                .display()
                .to_string()
                .replace('\\', "/")
        };
        let mut ws = Workspace::default();
        let mut members: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            let crate_name = member
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let manifest = member.join("Cargo.toml");
            if let Ok(toml) = fs::read_to_string(&manifest) {
                ws.manifests.push((label(&manifest), toml));
            }
            for sub in ["src", "tests", "benches"] {
                let dir = member.join(sub);
                let mut paths = Vec::new();
                if dir.is_dir() {
                    rust_files(&dir, &mut paths)?;
                }
                paths.sort();
                let ctx = FileContext {
                    in_memsim: crate_name == "memsim",
                    in_obs: crate_name == "obs",
                    aux: sub != "src",
                };
                for path in paths {
                    let src = fs::read_to_string(&path)?;
                    let mut file = SourceFile::parse(&label(&path), src, &crate_name, ctx);
                    file.crate_root = sub == "src" && is_crate_root(&path, &dir);
                    ws.files.push(file);
                }
            }
        }
        let root_manifest = root.join("Cargo.toml");
        if let Ok(toml) = fs::read_to_string(&root_manifest) {
            ws.manifests.push((label(&root_manifest), toml));
        }
        Ok(ws)
    }
}

/// Whether `path`, under a crate's `src` directory, is a crate root:
/// `lib.rs`, `main.rs` or `bin/*.rs`.
fn is_crate_root(path: &Path, src: &Path) -> bool {
    let rel = path.strip_prefix(src).unwrap_or(path);
    rel == Path::new("lib.rs")
        || rel == Path::new("main.rs")
        || rel.parent() == Some(Path::new("bin"))
}

/// Recursively collects `.rs` files under `dir`.
pub fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
impl SourceFile {
    /// One library file of crate `x`, parsed, for unit tests.
    pub(crate) fn lib(label: &str, src: &str) -> SourceFile {
        SourceFile::parse(label, src.to_string(), "x", FileContext::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_roots_are_lib_main_and_bins() {
        let src = Path::new("crates/a/src");
        for root in ["lib.rs", "main.rs", "bin/mc_suite.rs"] {
            assert!(is_crate_root(&src.join(root), src), "{root}");
        }
        for module in ["engines.rs", "rules/mod.rs", "bin/tool/helpers.rs"] {
            assert!(!is_crate_root(&src.join(module), src), "{module}");
        }
    }

    #[test]
    fn only_src_files_are_parsed() {
        let aux = FileContext {
            aux: true,
            ..Default::default()
        };
        let bench = SourceFile::parse("crates/a/benches/b.rs", "fn f() {}\n".into(), "a", aux);
        assert!(bench.trees.is_empty());
        assert!(!SourceFile::lib("crates/a/src/a.rs", "fn f() {}\n")
            .trees
            .is_empty());
    }
}
