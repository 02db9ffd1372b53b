//! The line-level house rules and the manifest rule, ported onto the
//! shared front-end: the scan runs over the `blank` view (comments and
//! literal contents erased) with the `#[cfg(test)]` mask applied.

use crate::lexer::prep;
use crate::report::LintViolation;
use crate::rules::{has_waiver, IO_WAIVER, PANIC_WAIVER, RELAXED_WAIVER};

const FORBIDDEN_MODULES: [&str; 3] = ["std::process", "std::net", "std::fs"];

/// Options describing where a source file sits, which determines which
/// rules apply to it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileContext {
    /// The file belongs to `crates/memsim` (raw address arithmetic is its
    /// job).
    pub in_memsim: bool,
    /// The file is pre-approved as an ambient-I/O edge (callers that
    /// cannot carry a waiver comment); source files normally opt out with
    /// a reasoned [`IO_WAIVER`] comment instead.
    pub io_allowed: bool,
    /// The file belongs to `crates/obs` (relaxed telemetry counters are
    /// its job).
    pub in_obs: bool,
    /// The file lives under a member's `tests/` or `benches/` tree: only
    /// the ambient-I/O rule applies (panic / address / atomic discipline
    /// is a library-code concern).
    pub aux: bool,
}

/// Lints one Rust source file's contents. `label` is used for reporting.
pub fn lint_source(label: &str, src: &str, ctx: FileContext) -> Vec<LintViolation> {
    check_prepped(&prep(label, src), src, ctx)
}

/// Same as [`lint_source`], over an already-prepared file (the workspace
/// walk preps each file once and shares it across all rule passes).
pub fn check_prepped(p: &crate::lexer::Prep, src: &str, ctx: FileContext) -> Vec<LintViolation> {
    let label = &p.label;
    let mut out = Vec::new();
    let waived_panics = has_waiver(src, PANIC_WAIVER);
    let waived_io = has_waiver(src, IO_WAIVER);
    let waived_relaxed = has_waiver(src, RELAXED_WAIVER);
    for (idx, line) in p.blank.lines().enumerate() {
        let in_test = p.in_test(idx + 1);
        let lineno = idx + 1;
        if !in_test && !waived_panics && !ctx.aux {
            for pat in [".unwrap()", ".expect("] {
                if line.contains(pat) {
                    out.push(LintViolation {
                        file: label.to_string(),
                        line: lineno,
                        rule: "panic",
                        detail: format!(
                            "`{pat}` outside #[cfg(test)]; propagate the error or add \
                             `{PANIC_WAIVER} — <reason>`"
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
        if !ctx.io_allowed && !waived_io {
            for m in FORBIDDEN_MODULES {
                if line.contains(m) {
                    out.push(LintViolation {
                        file: label.to_string(),
                        line: lineno,
                        rule: "ambient-io",
                        detail: format!(
                            "`{m}` in simulation code; the stack stays deterministic \
                             and self-contained — deliberate I/O edges add \
                             `{IO_WAIVER} — <reason>`"
                        ),
                    });
                }
            }
        }
        if !in_test
            && !ctx.aux
            && !ctx.in_obs
            && !waived_relaxed
            && line.contains("Ordering::Relaxed")
        {
            out.push(LintViolation {
                file: label.to_string(),
                line: lineno,
                rule: "relaxed-atomic",
                detail: format!(
                    "`Ordering::Relaxed` outside the obs counters; pick an ordering \
                     or argue why none is needed via `{RELAXED_WAIVER} — <reason>`"
                ),
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
    fn waiver_with_reason_silences_panic_rule_only() {
        let src = "// lint: allow(panic) — invariant panics are documented\nfn f() { v.unwrap(); let p = PhysAddr(a + b); }\n";
        let v = lint_source("x.rs", src, FileContext::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "phys-addr-arith");
    }

    #[test]
    fn bare_waiver_without_reason_is_ignored() {
        let src = "// lint: allow(panic)\nfn f() { v.unwrap(); }\n";
        let v = lint_source("x.rs", src, FileContext::default());
        assert_eq!(v.len(), 1, "{v:?}");
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
        let bench = FileContext {
            io_allowed: true,
            ..Default::default()
        };
        assert!(lint_source("x.rs", src, bench).is_empty());
    }

    #[test]
    fn io_waiver_with_reason_silences_ambient_io_only() {
        let src = "// lint: allow(ambient-io) — the sweep writes its curve artifacts\nuse std::fs;\nfn f() { v.unwrap(); }\n";
        let v = lint_source("x.rs", src, FileContext::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "panic");
        // A bare waiver with no reason does not count.
        let bare = "// lint: allow(ambient-io)\nuse std::fs;\n";
        let v = lint_source("x.rs", bare, FileContext::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "ambient-io");
        // A panic waiver does not satisfy the ambient-io rule.
        let cross = "// lint: allow(panic) — deliberate\nuse std::fs;\n";
        let v = lint_source("x.rs", cross, FileContext::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "ambient-io");
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
        // A reasoned waiver silences it; a bare one does not.
        let waived = "// lint: allow(relaxed-atomic) — stats counter, never synchronized on\nfn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(lint_source("x.rs", waived, FileContext::default()).is_empty());
        let bare = "// lint: allow(relaxed-atomic)\nfn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert_eq!(lint_source("x.rs", bare, FileContext::default()).len(), 1);
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
    fn manifest_rejects_external_deps() {
        let toml = "[package]\nname = \"x\"\n[dependencies]\nobs.workspace = true\nmemsim = { workspace = true }\nlocal = { path = \"../local\" }\nserde = \"1.0\"\n";
        let v = lint_manifest("Cargo.toml", toml);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "external-dep");
        assert!(v[0].detail.contains("serde"));
    }
}
