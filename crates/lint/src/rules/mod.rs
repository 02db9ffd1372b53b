//! The rule passes, all consuming the shared front-end ([`crate::lexer`]).
//!
//! - [`style`] — the line-level house rules (panic, phys-addr-arith,
//!   ambient-io, relaxed-atomic) and the manifest rule (external-dep).
//! - [`lock_order`] — lock-site inventory and acquisition-cycle detection.
//! - [`protocol`] — the DMA-API protocol rules the handle types cannot
//!   state (leak-on-exit, cpu-read-while-mapped) plus device-taint.
//! - [`unsafe_audit`] — every `unsafe` must carry a `// SAFETY:` comment.
//!
//! Every rule is waiver-compatible: a file opts out of one rule with
//! `// lint: allow(<rule>) — <reason>`; the reason is mandatory.

pub mod lock_order;
pub mod protocol;
pub mod style;
pub mod unsafe_audit;

/// The waiver comment a file uses to opt out of the panic rule. A reason
/// is mandatory: `// lint: allow(panic) — deliberate invariant panics`.
pub const PANIC_WAIVER: &str = "// lint: allow(panic)";

/// The waiver comment a file uses to opt out of the ambient-I/O rule. A
/// reason is mandatory:
/// `// lint: allow(ambient-io) — the sweep writes its curve artifacts`.
pub const IO_WAIVER: &str = "// lint: allow(ambient-io)";

/// The waiver comment a file uses to opt out of the relaxed-atomic rule.
/// A reason is mandatory — it must say why no ordering is needed:
/// `// lint: allow(relaxed-atomic) — stats counters, never synchronized on`.
pub const RELAXED_WAIVER: &str = "// lint: allow(relaxed-atomic)";

/// Whether `src` contains `waiver` followed by a non-trivial reason.
pub(crate) fn has_waiver(src: &str, waiver: &str) -> bool {
    src.lines().any(|l| {
        let t = l.trim_start();
        t.starts_with(waiver) && t.len() > waiver.len() + 3
    })
}

/// Whether `src` carries a reasoned waiver for `rule`
/// (`// lint: allow(<rule>) — <reason>`).
pub fn has_rule_waiver(src: &str, rule: &str) -> bool {
    let waiver = format!("// lint: allow({rule})");
    has_waiver(src, &waiver)
}

/// The 1-indexed line of the first reasoned waiver for `rule`, if any.
pub(crate) fn rule_waiver_line(src: &str, rule: &str) -> Option<usize> {
    let waiver = format!("// lint: allow({rule})");
    src.lines()
        .position(|l| {
            let t = l.trim_start();
            t.starts_with(&waiver) && t.len() > waiver.len() + 3
        })
        .map(|i| i + 1)
}

/// The waivable rules that actually *execute* for a file in context
/// `ctx`: the universe dead-waiver detection checks against. A waiver
/// for a rule that never runs here (e.g. `panic` in a bench) is left
/// alone — it is inert, not stale evidence.
pub(crate) fn executed_waivable_rules(ctx: style::FileContext) -> Vec<&'static str> {
    let mut rules = Vec::new();
    if !ctx.io_allowed {
        rules.push("ambient-io");
    }
    if ctx.aux {
        return rules;
    }
    rules.push("panic");
    if !ctx.in_obs {
        rules.push("relaxed-atomic");
    }
    rules.extend(protocol::PROTOCOL_RULES);
    rules.push("device-taint");
    rules.push("unsafe-no-safety");
    rules
}

/// Reports reasoned waivers that no longer suppress anything: for each
/// executed waivable rule, a waiver present in `src` while the
/// *unfiltered* finding count for that rule is zero is itself a finding
/// (`dead-waiver`), so waivers cannot outlive what they excused.
pub(crate) fn dead_waivers(
    label: &str,
    src: &str,
    ctx: style::FileContext,
    raw_counts: &std::collections::BTreeMap<&'static str, usize>,
) -> Vec<crate::report::LintViolation> {
    let mut out = Vec::new();
    for rule in executed_waivable_rules(ctx) {
        if raw_counts.get(rule).copied().unwrap_or(0) > 0 {
            continue;
        }
        if let Some(line) = rule_waiver_line(src, rule) {
            out.push(crate::report::LintViolation {
                file: label.to_string(),
                line,
                rule: "dead-waiver",
                detail: format!("waiver for `{rule}` no longer suppresses any finding"),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_waiver_requires_reason() {
        let with = "// lint: allow(leak-on-exit) — the ring owns it at runtime\nfn f() {}\n";
        assert!(has_rule_waiver(with, "leak-on-exit"));
        let bare = "// lint: allow(leak-on-exit)\nfn f() {}\n";
        assert!(!has_rule_waiver(bare, "leak-on-exit"));
        assert!(!has_rule_waiver(with, "device-taint"));
    }
}
