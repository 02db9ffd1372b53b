//! Text and JSON-lines sinks: a pretty-table reporter for the registry,
//! and the JSON-lines reader that loads saved profile trees
//! ([`crate::profile::ProfileSnapshot::from_json_lines`]).

use crate::json::Json;
use crate::metrics::RegistrySnapshot;
use crate::trace::TraceStats;
use std::fmt::Write as _;

/// Parses a JSON-lines document into its constituent values.
pub fn parse_jsonl(s: &str) -> Result<Vec<Json>, String> {
    s.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Json::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Renders the snapshot as an aligned text table: counters and gauges as
/// `metric value` rows. When `trace` is given, trailing rows report
/// the tracer's retained/sampled-out/dropped counts so no report
/// silently hides an incomplete event record.
pub fn render_table(snap: &RegistrySnapshot, trace: Option<&TraceStats>) -> String {
    let mut rows: Vec<(String, String)> = Vec::new();
    for (k, v) in &snap.counters {
        rows.push((k.to_string(), v.to_string()));
    }
    for (k, v) in &snap.gauges {
        rows.push((k.to_string(), v.to_string()));
    }
    if let Some(t) = trace {
        rows.push(("trace.retained".into(), t.retained.to_string()));
        rows.push((
            "trace.sampled_out".into(),
            format!("{} (period {})", t.sampled_out, t.sample_period),
        ));
        rows.push(("trace.dropped".into(), t.dropped.to_string()));
    }
    let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (k, v) in rows {
        let _ = writeln!(out, "  {k:<width$}  {v}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricKey, Registry};

    #[test]
    fn table_renders_all_metrics() {
        let r = Registry::new();
        r.counter(MetricKey::new("a", "count", None)).add(5);
        r.gauge(MetricKey::new("b", "depth", Some(1))).set(-2);
        let table = render_table(&r.snapshot(), None);
        assert!(table.contains("a.count"));
        assert!(table.contains("b.depth{dev1}"));
        assert!(table.contains("-2"));
    }

    #[test]
    fn table_surfaces_trace_stats() {
        let r = Registry::new();
        r.counter(MetricKey::new("a", "count", None)).add(5);
        let stats = TraceStats {
            retained: 40,
            sampled_out: 120,
            dropped: 3,
            sample_period: 4,
        };
        let table = render_table(&r.snapshot(), Some(&stats));
        assert!(table.contains("trace.retained"), "got: {table}");
        assert!(table.contains("40"));
        assert!(table.contains("120 (period 4)"));
        assert!(table.contains("trace.dropped"));
    }
}
