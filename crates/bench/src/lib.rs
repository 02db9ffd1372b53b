//! # bench — the experiment harness
//!
//! One `cargo bench` target per table/figure of the paper's evaluation
//! (`table1`, `fig1`, `fig3`–`fig11`, `memfootprint`), the ablation
//! studies DESIGN.md calls out (`ablate_*`), and the core-count sweep
//! (`scaling`). Every target reports *simulated* numbers only: host time
//! is measured in one place, the standalone `benchmark/` package, and CI
//! gates host cost on exact work counters (`tests/work_goldens.rs`).
//!
//! Every figure bench prints the same rows/series the paper reports:
//! throughput + relative throughput + CPU% + relative CPU across the
//! paper's message sizes, or the corresponding breakdown/latency/
//! transaction numbers. `EXPERIMENTS.md` records paper-vs-measured for
//! each.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use netsim::{EngineKind, ExpConfig, ExpResult};

/// The message sizes on the x-axis of Figures 3, 4, 6, 7 and 9.
pub const MSG_SIZES: [usize; 6] = [64, 256, 1024, 4096, 16 * 1024, 64 * 1024];

/// The engines plotted in Figures 3–11.
pub const FIGURE_ENGINES: [EngineKind; 4] = EngineKind::FIGURE_SET;

/// Standard experiment configuration for figure benches.
///
/// Item counts scale down with core count so the 16-core figures finish in
/// reasonable host time while still simulating hundreds of thousands of
/// packets; results are deterministic either way.
pub fn figure_cfg(cores: usize, msg_size: usize) -> ExpConfig {
    let items = if cores > 1 { 4_000 } else { 20_000 };
    ExpConfig {
        cores,
        msg_size,
        items_per_core: items,
        warmup_per_core: items / 10,
        ..ExpConfig::default()
    }
}

/// Runs `f` over every figure engine at one `(cores, msg_size)` point.
pub fn run_engines(
    cores: usize,
    msg_size: usize,
    f: impl Fn(EngineKind, &ExpConfig) -> ExpResult,
) -> Vec<ExpResult> {
    let cfg = figure_cfg(cores, msg_size);
    FIGURE_ENGINES.iter().map(|&k| f(k, &cfg)).collect()
}

/// Prints a figure: one table per message size, plus a one-line summary of
/// copy's relative throughput per size (the paper's "relative" panels).
/// Returns each size's rows, in `sizes` order, for the figure's checks.
pub fn print_figure(
    title: &str,
    cores: usize,
    sizes: &[usize],
    f: impl Fn(EngineKind, &ExpConfig) -> ExpResult,
) -> Vec<Vec<ExpResult>> {
    println!("==== {title} ====");
    let mut rel_line = Vec::new();
    let mut tables = Vec::new();
    for &size in sizes {
        let rows = run_engines(cores, size, &f);
        println!(
            "{}",
            netsim::format_table(&format!("message size {size} B"), &rows, "no iommu")
        );
        let base = rows.iter().find(|r| r.engine == "no iommu");
        let copy = rows.iter().find(|r| r.engine == "copy");
        if let (Some(b), Some(c)) = (base, copy) {
            rel_line.push(format!("{}B:{:.2}", size, c.relative_gbps(b)));
        }
        tables.push(rows);
    }
    println!(
        "copy relative throughput vs no-iommu: {}\n",
        rel_line.join("  ")
    );
    tables
}

/// Prints the per-phase packet-time breakdown of each engine at one point
/// (Figures 5, 8 and 10).
pub fn print_breakdown(title: &str, rows: &[ExpResult]) {
    println!("==== {title} ====");
    for r in rows {
        println!(
            "{:<10} total {:>7.2} us/item | {}",
            r.engine,
            r.us_per_item(),
            netsim::format_breakdown_us(&r.per_item, r.clock_ghz)
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_cfg_scales_items() {
        assert_eq!(figure_cfg(1, 64).items_per_core, 20_000);
        assert_eq!(figure_cfg(16, 64).items_per_core, 4_000);
        assert_eq!(figure_cfg(16, 64).cores, 16);
    }

    #[test]
    fn run_engines_covers_figure_set() {
        let cfg_small = ExpConfig {
            items_per_core: 200,
            warmup_per_core: 20,
            ..ExpConfig::quick()
        };
        let rows: Vec<ExpResult> = FIGURE_ENGINES
            .iter()
            .map(|&k| netsim::tcp_stream_rx(k, &cfg_small))
            .collect();
        assert_eq!(rows.len(), 4);
        let names: Vec<&str> = rows.iter().map(|r| r.engine).collect();
        assert_eq!(names, ["no iommu", "copy", "identity-", "identity+"]);
    }
}
