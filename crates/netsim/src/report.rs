//! Experiment results and table formatting for the bench harness.

use simcore::{Breakdown, Cycles};

/// The outcome of one workload run — one bar/point of a paper figure.
#[derive(Debug, Clone)]
pub struct ExpResult {
    /// Engine name (paper legend).
    pub engine: &'static str,
    /// Cores that drove the workload.
    pub cores: usize,
    /// netperf message size (or value size for memcached).
    pub msg_size: usize,
    /// Goodput in Gb/s (payload bytes, like netperf reports).
    pub gbps: f64,
    /// Average CPU utilization across the driving cores, `0..=1`.
    pub cpu: f64,
    /// Measured work items (MTU packets on RX, TSO buffers on TX,
    /// transactions for RR/memcached).
    pub items: u64,
    /// Measured payload bytes.
    pub bytes: u64,
    /// Average per-item phase breakdown.
    pub per_item: Breakdown,
    /// Modeled clock (GHz) for time conversions.
    pub clock_ghz: f64,
    /// Round-trip latency, for TCP_RR.
    pub latency_us: Option<f64>,
    /// Transactions per second, for memcached.
    pub transactions_per_sec: Option<f64>,
    /// Peak shadow-pool footprint (copy engine only).
    pub shadow_bytes_peak: Option<u64>,
}

impl ExpResult {
    /// Average busy microseconds per work item.
    pub fn us_per_item(&self) -> f64 {
        if self.items == 0 {
            return 0.0;
        }
        self.per_item.total().to_micros(self.clock_ghz)
    }

    /// Ratio of this result's throughput to a baseline's.
    pub fn relative_gbps(&self, baseline: &ExpResult) -> f64 {
        if baseline.gbps == 0.0 {
            return 0.0;
        }
        self.gbps / baseline.gbps
    }

    /// Ratio of this result's CPU use to a baseline's.
    pub fn relative_cpu(&self, baseline: &ExpResult) -> f64 {
        if baseline.cpu == 0.0 {
            return 0.0;
        }
        self.cpu / baseline.cpu
    }
}

/// Formats a per-item breakdown as `phase=µs` pairs (legend order),
/// skipping empty phases.
pub fn format_breakdown_us(b: &Breakdown, clock_ghz: f64) -> String {
    let mut parts = Vec::new();
    for (phase, cycles) in b.iter() {
        if cycles > Cycles::ZERO {
            parts.push(format!(
                "{}={:.2}us",
                phase.label(),
                cycles.to_micros(clock_ghz)
            ));
        }
    }
    if parts.is_empty() {
        parts.push("idle".to_string());
    }
    parts.join("  ")
}

/// Renders results as an aligned text table with relative columns against
/// the first row whose engine is `baseline` (falling back to the first
/// row), mirroring the paper's absolute+relative figure pairs. The engine
/// column is 10 characters wide, or as wide as the longest engine name.
pub fn format_table(title: &str, rows: &[ExpResult], baseline: &str) -> String {
    let w = rows.iter().map(|r| r.engine.len()).fold(10, usize::max);
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!(
        "{:<w$} {:>6} {:>8} {:>10} {:>8} {:>8} {:>8} {:>10}\n",
        "engine", "cores", "msgsize", "Gb/s", "rel", "cpu%", "relcpu", "us/item"
    ));
    let base = rows
        .iter()
        .find(|r| r.engine == baseline)
        .or_else(|| rows.first());
    for r in rows {
        let (rel, relcpu) = match base {
            Some(b) => (r.relative_gbps(b), r.relative_cpu(b)),
            None => (0.0, 0.0),
        };
        out.push_str(&format!(
            "{:<w$} {:>6} {:>8} {:>10.2} {:>8.2} {:>8.1} {:>8.2} {:>10.2}\n",
            r.engine,
            r.cores,
            r.msg_size,
            r.gbps,
            rel,
            r.cpu * 100.0,
            relcpu,
            r.us_per_item(),
        ));
        if let Some(l) = r.latency_us {
            out.push_str(&format!("{:<w$}   latency = {l:.1} us\n", ""));
        }
        if let Some(t) = r.transactions_per_sec {
            out.push_str(&format!("{:<w$}   {:.2} M transactions/s\n", "", t / 1e6));
        }
    }
    out
}

/// Sums busy time per phase across a slice of results (used by breakdown
/// figures).
pub fn merged_breakdown(rows: &[ExpResult]) -> Breakdown {
    rows.iter().map(|r| r.per_item).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Phase;

    fn result(engine: &'static str, gbps: f64, cpu: f64) -> ExpResult {
        let mut b = Breakdown::new();
        b.record(Phase::Memcpy, Cycles(264));
        ExpResult {
            engine,
            cores: 1,
            msg_size: 1500,
            gbps,
            cpu,
            items: 100,
            bytes: 150_000,
            per_item: b,
            clock_ghz: 2.4,
            latency_us: None,
            transactions_per_sec: None,
            shadow_bytes_peak: None,
        }
    }

    #[test]
    fn relative_columns() {
        let base = result("no iommu", 16.0, 0.5);
        let copy = result("copy", 12.0, 0.6);
        assert!((copy.relative_gbps(&base) - 0.75).abs() < 1e-9);
        assert!((copy.relative_cpu(&base) - 1.2).abs() < 1e-9);
    }

    #[test]
    fn us_per_item() {
        let r = result("copy", 10.0, 0.5);
        assert!((r.us_per_item() - 0.11).abs() < 0.01);
    }

    #[test]
    fn table_contains_rows_and_relatives() {
        let rows = vec![result("no iommu", 16.0, 0.5), result("copy", 12.0, 0.6)];
        let t = format_table("Figure X", &rows, "no iommu");
        assert!(t.contains("Figure X"));
        assert!(t.contains("no iommu"));
        assert!(t.contains("copy"));
        assert!(t.contains("0.75"));
    }

    #[test]
    fn engine_column_fits_the_longest_name() {
        let rows = vec![
            result("no iommu", 16.0, 0.5),
            result("self-inval hw", 12.0, 0.6),
        ];
        let t = format_table("Figure X", &rows, "no iommu");
        // Where the msgsize column ends on the row starting with `engine`.
        let end = |engine: &str, cell: &str| {
            let line = t.lines().find(|l| l.starts_with(engine)).expect("row");
            line.find(cell).expect("msgsize column") + cell.len()
        };
        assert_eq!(end("no iommu", "1500"), end("self-inval hw", "1500"));
        assert_eq!(end("engine", "msgsize"), end("no iommu", "1500"));
    }

    #[test]
    fn breakdown_formatting_skips_empty() {
        let mut b = Breakdown::new();
        b.record(Phase::Memcpy, Cycles(2400));
        let s = format_breakdown_us(&b, 2.4);
        assert_eq!(s, "memcpy=1.00us");
        assert_eq!(format_breakdown_us(&Breakdown::new(), 2.4), "idle");
    }
}
