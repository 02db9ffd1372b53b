//! The rule passes, all consuming the one parsed workspace
//! ([`crate::workspace`]), and the one waiver filter.
//!
//! - [`style`] — the line-level house rules (panic, phys-addr-arith,
//!   ambient-io, relaxed-atomic), the manifest rule (external-dep) and
//!   the crate-root rule (forbid-unsafe).
//! - [`protocol`] — the DMA-API protocol rules the handle types cannot
//!   state (leak-on-exit, cpu-read-while-mapped) plus device-taint.
//!
//! Passes return raw findings. `apply_waivers` is the one place a file
//! opts out of a rule, with `// lint: allow(<rule>) — <reason>` (the
//! reason is mandatory), and the one place a waiver that excuses nothing
//! becomes a `dead-waiver` finding. External dependencies and
//! forbid-unsafe are not waivable.

use std::collections::BTreeMap;

use crate::report::LintViolation;
use style::FileContext;

pub mod protocol;
pub mod style;

/// The reasoned waivers in `src`: rule → 1-indexed line of the first
/// `// lint: allow(<rule>) — <reason>`. A waiver without a reason does
/// not count.
fn waivers(src: &str) -> BTreeMap<&str, usize> {
    let mut out = BTreeMap::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(rest) = line.trim_start().strip_prefix("// lint: allow(") else {
            continue;
        };
        if let Some((rule, reason)) = rest.split_once(')') {
            if reason.len() > 3 {
                out.entry(rule).or_insert(idx + 1);
            }
        }
    }
    out
}

/// The waivable rules that actually *execute* for a file in context
/// `ctx`: the universe dead-waiver detection checks against. A waiver
/// for a rule that never runs here (e.g. `panic` in a bench) is left
/// alone — it is inert, not stale evidence.
fn executed_waivable_rules(ctx: FileContext) -> Vec<&'static str> {
    if ctx.aux {
        return vec!["ambient-io"];
    }
    let mut rules = vec!["ambient-io", "panic"];
    if !ctx.in_obs {
        rules.push("relaxed-atomic");
    }
    rules.extend(protocol::PROTOCOL_RULES);
    rules.push("device-taint");
    rules
}

/// Filters one file's raw findings through its waivers, then reports each
/// reasoned waiver of an executed rule that filtered nothing
/// (`dead-waiver`), so waivers cannot outlive what they excused.
pub(crate) fn apply_waivers(
    label: &str,
    src: &str,
    ctx: FileContext,
    raw: Vec<LintViolation>,
) -> Vec<LintViolation> {
    let waived = waivers(src);
    let mut out = Vec::new();
    for rule in executed_waivable_rules(ctx) {
        if let Some(&line) = waived.get(rule) {
            if !raw.iter().any(|v| v.rule == rule) {
                out.push(LintViolation {
                    file: label.to_string(),
                    line,
                    rule: "dead-waiver",
                    detail: format!("waiver for `{rule}` no longer suppresses any finding"),
                });
            }
        }
    }
    let kept = raw.into_iter().filter(|v| !waived.contains_key(v.rule));
    kept.chain(out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(rule: &'static str) -> LintViolation {
        LintViolation {
            file: "x.rs".into(),
            line: 9,
            rule,
            detail: String::new(),
        }
    }

    fn rules(src: &str, ctx: FileContext, found: &[&'static str]) -> Vec<&'static str> {
        let found = found.iter().map(|&r| raw(r)).collect();
        apply_waivers("x.rs", src, ctx, found)
            .iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn a_reasoned_waiver_silences_its_rule_only() {
        let src = "// lint: allow(panic) — invariant panics are documented\nfn f() {}\n";
        let lib = FileContext::default();
        assert_eq!(
            rules(src, lib, &["panic", "phys-addr-arith"]),
            ["phys-addr-arith"]
        );
        // A panic waiver does not satisfy the ambient-io rule.
        let cross = "// lint: allow(panic) — deliberate\n";
        assert_eq!(rules(cross, lib, &["panic", "ambient-io"]), ["ambient-io"]);
    }

    #[test]
    fn a_bare_waiver_without_a_reason_is_ignored() {
        let bare = "// lint: allow(ambient-io)\nuse std::fs;\n";
        assert_eq!(
            rules(bare, FileContext::default(), &["ambient-io"]),
            ["ambient-io"]
        );
        // Nor is it dead: it is not a waiver at all.
        assert!(rules(bare, FileContext::default(), &[]).is_empty());
    }

    #[test]
    fn an_inert_waiver_for_a_rule_that_does_not_run_is_not_dead() {
        let bench = FileContext {
            aux: true,
            ..Default::default()
        };
        let src = "// lint: allow(panic) — bench bodies expect() through setup\n";
        assert!(rules(src, bench, &[]).is_empty());
        let obs = FileContext {
            in_obs: true,
            ..Default::default()
        };
        let src = "// lint: allow(relaxed-atomic) — counters are statistics\n";
        assert!(rules(src, obs, &[]).is_empty());
    }

    #[test]
    fn a_stale_protocol_waiver_is_dead() {
        let src = "fn f() {}\n// lint: allow(cpu-read-while-mapped) — stale reason\n";
        let v = apply_waivers(
            "x.rs",
            src,
            FileContext::default(),
            vec![raw("leak-on-exit")],
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("leak-on-exit", 9));
        assert_eq!((v[1].rule, v[1].line), ("dead-waiver", 2));
        assert!(v[1].detail.contains("cpu-read-while-mapped"), "{v:?}");
    }
}
