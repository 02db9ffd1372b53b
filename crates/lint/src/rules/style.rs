//! The line-level house rules, the manifest rule and the crate-root
//! rule, on the shared front-end: the line scan runs over the `blank`
//! view (comments and literal contents erased) with the `#[cfg(test)]`
//! mask applied, and reports raw findings (waivers are
//! `rules::apply_waivers`'s job).

use crate::lexer::Prep;
use crate::report::LintViolation;

const FORBIDDEN_MODULES: [&str; 3] = ["std::process", "std::net", "std::fs"];

/// Options describing where a source file sits, which determines which
/// rules apply to it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileContext {
    /// The file belongs to `crates/memsim` (raw address arithmetic is its
    /// job).
    pub in_memsim: bool,
    /// The file belongs to `crates/obs` (relaxed telemetry counters are
    /// its job).
    pub in_obs: bool,
    /// The file lives under a member's `tests/` or `benches/` tree: only
    /// the ambient-I/O rule applies (panic / address / atomic discipline
    /// is a library-code concern).
    pub aux: bool,
}

/// The line rules' raw findings for one prepared file.
pub fn check(p: &Prep, ctx: FileContext) -> Vec<LintViolation> {
    let label = &p.label;
    let mut out = Vec::new();
    for (idx, line) in p.blank.lines().enumerate() {
        let in_test = p.in_test(idx + 1);
        let lineno = idx + 1;
        if !in_test && !ctx.aux {
            for pat in [".unwrap()", ".expect("] {
                if line.contains(pat) {
                    out.push(LintViolation {
                        file: label.to_string(),
                        line: lineno,
                        rule: "panic",
                        detail: format!(
                            "`{pat}` outside #[cfg(test)]; propagate the error or add \
                             `// lint: allow(panic) — <reason>`"
                        ),
                    });
                }
            }
        }
        if !in_test && !ctx.in_memsim && !ctx.aux {
            if let Some(arg) = phys_addr_ctor_arg(line) {
                if arg.contains(['+', '*']) || arg.contains("<<") || arg.contains(" - ") {
                    out.push(LintViolation {
                        file: label.to_string(),
                        line: lineno,
                        rule: "phys-addr-arith",
                        detail: format!(
                            "raw PhysAddr arithmetic `PhysAddr({arg})` outside memsim; \
                             use PhysAddr::add or page-frame APIs"
                        ),
                    });
                }
            }
        }
        for m in FORBIDDEN_MODULES {
            if line.contains(m) {
                out.push(LintViolation {
                    file: label.to_string(),
                    line: lineno,
                    rule: "ambient-io",
                    detail: format!(
                        "`{m}` in simulation code; the stack stays deterministic \
                         and self-contained — deliberate I/O edges add \
                         `// lint: allow(ambient-io) — <reason>`"
                    ),
                });
            }
        }
        if !in_test && !ctx.aux && !ctx.in_obs && line.contains("Ordering::Relaxed") {
            out.push(LintViolation {
                file: label.to_string(),
                line: lineno,
                rule: "relaxed-atomic",
                detail: "`Ordering::Relaxed` outside the obs counters; pick an ordering \
                         or argue why none is needed via \
                         `// lint: allow(relaxed-atomic) — <reason>`"
                    .to_string(),
            });
        }
    }
    out
}

/// The argument of a `PhysAddr(...)` constructor on this line, if any.
fn phys_addr_ctor_arg(line: &str) -> Option<&str> {
    let start = line.find("PhysAddr(")? + "PhysAddr(".len();
    let rest = &line[start..];
    let mut depth = 1;
    for (k, c) in rest.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[..k]);
                }
            }
            _ => {}
        }
    }
    Some(rest)
}

/// The crate-root rule: a crate root (`src/lib.rs`, `src/main.rs`,
/// `src/bin/*.rs`) must carry `#![forbid(unsafe_code)]`, so rustc rejects
/// any `unsafe` in the crate. Not waivable: a crate that ever needs
/// `unsafe` drops the attribute on purpose and audits its blocks with
/// clippy's `undocumented_unsafe_blocks`.
pub fn check_crate_root(p: &Prep) -> Option<LintViolation> {
    (!p.blank.contains("#![forbid(unsafe_code)]")).then(|| LintViolation {
        file: p.label.clone(),
        line: 1,
        rule: "forbid-unsafe",
        detail: "crate root without `#![forbid(unsafe_code)]`; let rustc reject `unsafe`"
            .to_string(),
    })
}

/// Lints one `Cargo.toml`: every dependency must resolve in-tree.
pub fn lint_manifest(label: &str, toml: &str) -> Vec<LintViolation> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for (idx, raw) in toml.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = matches!(
                line,
                "[dependencies]"
                    | "[dev-dependencies]"
                    | "[build-dependencies]"
                    | "[workspace.dependencies]"
            );
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, value)) = line.split_once('=') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        let in_tree = name.ends_with(".workspace")
            || value.contains("workspace = true")
            || value.contains("path =");
        if !in_tree {
            out.push(LintViolation {
                file: label.to_string(),
                line: idx + 1,
                rule: "external-dep",
                detail: format!(
                    "dependency `{name}` is not an in-tree path/workspace crate; the \
                     workspace must build offline"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::prep;

    fn lint_source(label: &str, src: &str, ctx: FileContext) -> Vec<LintViolation> {
        check(&prep(label, src), ctx)
    }

    #[test]
    fn test_regions_are_exempt() {
        let src =
            "fn prod() { v.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { v.unwrap(); }\n}\n";
        let v = lint_source("x.rs", src, FileContext::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
        assert_eq!(v[0].rule, "panic");
    }

    #[test]
    fn phys_addr_rules() {
        let ok = "let p = PhysAddr(addr);\nlet q = PhysAddr(0x1000);\n";
        assert!(lint_source("x.rs", ok, FileContext::default()).is_empty());
        let bad = "let p = PhysAddr(base + off * 4096);\n";
        let v = lint_source("x.rs", bad, FileContext::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "phys-addr-arith");
        // memsim owns address arithmetic.
        let memsim = FileContext {
            in_memsim: true,
            ..Default::default()
        };
        assert!(lint_source("x.rs", bad, memsim).is_empty());
    }

    #[test]
    fn ambient_io_rule() {
        let src = "use std::fs;\nfn f() { std::process::exit(1); }\n";
        let v = lint_source("x.rs", src, FileContext::default());
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "ambient-io"));
    }

    #[test]
    fn relaxed_atomic_rule() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        let v = lint_source("x.rs", src, FileContext::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "relaxed-atomic");
        // obs owns relaxed telemetry counters.
        let obs = FileContext {
            in_obs: true,
            ..Default::default()
        };
        assert!(lint_source("x.rs", src, obs).is_empty());
    }

    #[test]
    fn aux_files_only_get_ambient_io() {
        let src = "use std::fs;\nfn f() { v.unwrap(); let p = PhysAddr(a + b); x.load(Ordering::Relaxed); }\n";
        let aux = FileContext {
            aux: true,
            ..Default::default()
        };
        let v = lint_source("tests/x.rs", src, aux);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "ambient-io");
    }

    #[test]
    fn crate_root_rule_reads_code_not_comments() {
        let bare = prep("src/lib.rs", "//! Docs.\npub mod a;\n");
        let v = check_crate_root(&bare).expect("missing attribute");
        assert_eq!((v.rule, v.line), ("forbid-unsafe", 1));
        let commented = prep("src/lib.rs", "// #![forbid(unsafe_code)]\npub mod a;\n");
        assert!(check_crate_root(&commented).is_some());
        let forbidden = prep(
            "src/lib.rs",
            "//! Docs.\n#![forbid(unsafe_code)]\npub mod a;\n",
        );
        assert!(check_crate_root(&forbidden).is_none());
    }

    #[test]
    fn manifest_rejects_external_deps() {
        let toml = "[package]\nname = \"x\"\n[dependencies]\nobs.workspace = true\nmemsim = { workspace = true }\nlocal = { path = \"../local\" }\nserde = \"1.0\"\n";
        let v = lint_manifest("Cargo.toml", toml);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "external-dep");
        assert!(v[0].detail.contains("serde"));
    }
}
