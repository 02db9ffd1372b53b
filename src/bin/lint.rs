// lint: allow(ambient-io) — the runner writes the --json report file
//! Workspace lint runner: `cargo run --bin lint`.
//!
//! Reads every member crate's sources, tests, benches, and manifest once
//! and runs the house rules, the crate-root `forbid(unsafe_code)` rule,
//! the DMA-API protocol rules the handle types cannot state, the
//! device-taint pass, and stale waivers over them (see the `lint` crate),
//! prints a per-rule summary, and exits with a CI-friendly code: `0`
//! clean, `1` findings, `2` the scan itself failed (I/O error, missing
//! workspace, blown time budget).
//!
//! Flags:
//! - `--json <path>` — also write the machine-readable report (findings,
//!   per-rule summary, function count, function summaries, taint stats)
//!   to `path`; it comes from the same scan.
//! - `--budget-ms <n>` — fail (exit 2) if the scan takes longer than `n`
//!   milliseconds of wall clock; keeps the pass honest in CI.
//! - any other argument — the workspace root (default: this crate's
//!   manifest directory).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use lint::{json_report, rule_summary};

fn main() -> ExitCode {
    let mut json_path: Option<PathBuf> = None;
    let mut budget_ms: Option<u64> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("lint: --json requires a path");
                    return ExitCode::from(2);
                }
            },
            "--budget-ms" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => budget_ms = Some(n),
                None => {
                    eprintln!("lint: --budget-ms requires a millisecond count");
                    return ExitCode::from(2);
                }
            },
            _ => root = Some(PathBuf::from(a)),
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    let started = Instant::now();

    let report = match lint::lint_workspace_report(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let violations = &report.violations;

    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, json_report(&report).encode()) {
            eprintln!("lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("lint: wrote {}", path.display());
    }

    let elapsed_ms = started.elapsed().as_millis() as u64;
    if let Some(budget) = budget_ms {
        if elapsed_ms > budget {
            eprintln!("lint: blew the time budget: {elapsed_ms}ms > {budget}ms");
            return ExitCode::from(2);
        }
        println!("lint: {elapsed_ms}ms elapsed, within the {budget}ms budget");
    }

    let summary: Vec<String> = rule_summary(violations)
        .iter()
        .map(|(rule, n)| format!("{rule}: {n}"))
        .collect();
    if violations.is_empty() {
        println!("lint: workspace clean ({})", root.display());
        println!("lint: {}", summary.join(", "));
        return ExitCode::SUCCESS;
    }
    for v in violations {
        eprintln!("{v}");
    }
    eprintln!("lint: {} violation(s)", violations.len());
    eprintln!("lint: {}", summary.join(", "));
    ExitCode::from(1)
}
