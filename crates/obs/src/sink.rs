//! Pluggable sinks: a pretty-table text reporter and a JSON-lines
//! exporter/importer.
//!
//! ## JSON-lines schema (`BENCH_*.json` trajectory format)
//!
//! One JSON object per line; every line carries a `type` discriminator so
//! bench runs are machine-comparable across PRs:
//!
//! - `{"type":"run", ...}` — one header line of run metadata
//!   (workload, engine, cores, message size, throughput...).
//! - `{"type":"metric","kind":"counter"|"gauge","key":"pool.acquires{dev0}",
//!    "subsystem":...,"name":...,"device":...,"value":N}`
//! - `{"type":"metric","kind":"histogram",...,"count":N,"sum":S,
//!    "buckets":[[upper,count],...]}`
//! - `{"type":"event","seq":N,"at":CYCLES,"core":N,"device":N|null,
//!    "cause":N|null,"event":"DmaMap",...kind fields...}`
//!
//! [`parse_jsonl`] + [`event_from_json`] invert the export losslessly.

use crate::json::Json;
use crate::metrics::{MetricKey, RegistrySnapshot};
use crate::trace::{Event, EventKind, TraceStats};
use simcore::Cycles;
use std::borrow::Cow;
use std::fmt::Write as _;

fn device_json(d: Option<u16>) -> Json {
    match d {
        Some(d) => Json::UInt(d as u64),
        None => Json::Null,
    }
}

fn metric_obj(key: &MetricKey, kind: &str) -> Vec<(String, Json)> {
    vec![
        ("type".into(), Json::Str("metric".into())),
        ("kind".into(), Json::Str(kind.into())),
        ("key".into(), Json::Str(key.to_string())),
        ("subsystem".into(), Json::Str(key.subsystem.into())),
        ("name".into(), Json::Str(key.name.into())),
        ("device".into(), device_json(key.device)),
    ]
}

/// Renders every metric in `snap` as JSON-lines values.
pub fn metric_lines(snap: &RegistrySnapshot) -> Vec<Json> {
    let mut out = Vec::new();
    for (k, v) in &snap.counters {
        let mut obj = metric_obj(k, "counter");
        obj.push(("value".into(), Json::UInt(*v)));
        out.push(Json::Obj(obj));
    }
    for (k, v) in &snap.gauges {
        let mut obj = metric_obj(k, "gauge");
        obj.push((
            "value".into(),
            if *v >= 0 {
                Json::UInt(*v as u64)
            } else {
                Json::Int(*v)
            },
        ));
        out.push(Json::Obj(obj));
    }
    for (k, h) in &snap.histograms {
        let mut obj = metric_obj(k, "histogram");
        obj.push(("count".into(), Json::UInt(h.count)));
        obj.push(("sum".into(), Json::UInt(h.sum)));
        obj.push((
            "buckets".into(),
            Json::Arr(
                h.buckets
                    .iter()
                    .map(|&(bound, c)| Json::Arr(vec![Json::UInt(bound), Json::UInt(c)]))
                    .collect(),
            ),
        ));
        out.push(Json::Obj(obj));
    }
    out
}

/// Renders one trace event as a JSON-lines value.
pub fn event_line(e: &Event) -> Json {
    let mut obj = vec![
        ("type".into(), Json::Str("event".into())),
        ("seq".into(), Json::UInt(e.seq)),
        ("at".into(), Json::UInt(e.at.0)),
        ("core".into(), Json::UInt(e.core as u64)),
        ("device".into(), device_json(e.device)),
        (
            "cause".into(),
            match e.cause {
                Some(c) => Json::UInt(c),
                None => Json::Null,
            },
        ),
        ("event".into(), Json::Str(e.kind.name().into())),
    ];
    match &e.kind {
        EventKind::DmaMap { iova, len, dir } => {
            obj.push(("iova".into(), Json::UInt(*iova)));
            obj.push(("len".into(), Json::UInt(*len)));
            obj.push(("dir".into(), Json::Str(dir.to_string())));
        }
        EventKind::DmaUnmap { iova, len } => {
            obj.push(("iova".into(), Json::UInt(*iova)));
            obj.push(("len".into(), Json::UInt(*len)));
        }
        EventKind::IotlbInvalidate { pages, wait_cycles } => {
            obj.push(("pages".into(), Json::UInt(*pages)));
            obj.push(("wait_cycles".into(), Json::UInt(*wait_cycles)));
        }
        EventKind::PoolGrow { class, bytes } => {
            obj.push(("class".into(), Json::UInt(*class)));
            obj.push(("bytes".into(), Json::UInt(*bytes)));
        }
        EventKind::PoolShrink { bytes } => {
            obj.push(("bytes".into(), Json::UInt(*bytes)));
        }
        EventKind::FallbackAcquire { iova, len } => {
            obj.push(("iova".into(), Json::UInt(*iova)));
            obj.push(("len".into(), Json::UInt(*len)));
        }
        EventKind::AttackBlocked {
            iova,
            access,
            reason,
        } => {
            obj.push(("iova".into(), Json::UInt(*iova)));
            obj.push(("access".into(), Json::Str(access.to_string())));
            obj.push(("reason".into(), Json::Str(reason.to_string())));
        }
        EventKind::LockContention { lock, spin_cycles } => {
            obj.push(("lock".into(), Json::Str(lock.to_string())));
            obj.push(("spin_cycles".into(), Json::UInt(*spin_cycles)));
        }
        EventKind::SanitizerViolation { rule, iova, detail } => {
            obj.push(("rule".into(), Json::Str(rule.to_string())));
            obj.push(("iova".into(), Json::UInt(*iova)));
            obj.push(("detail".into(), Json::Str(detail.to_string())));
        }
        EventKind::LockAcquire { lock } => {
            obj.push(("lock".into(), Json::Str(lock.to_string())));
        }
        EventKind::LockRelease { lock } => {
            obj.push(("lock".into(), Json::Str(lock.to_string())));
        }
        EventKind::SharedAccess { var, write } => {
            obj.push(("var".into(), Json::Str(var.to_string())));
            obj.push(("write".into(), Json::Bool(*write)));
        }
    }
    Json::Obj(obj)
}

fn need_u64(j: &Json, k: &str) -> Result<u64, String> {
    j.get(k)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing/invalid '{k}'"))
}

fn need_str(j: &Json, k: &str) -> Result<String, String> {
    j.get(k)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing/invalid '{k}'"))
}

/// Parses an `event` JSON-lines value back into an [`Event`] (inverse of
/// [`event_line`]).
pub fn event_from_json(j: &Json) -> Result<Event, String> {
    if j.get("type").and_then(Json::as_str) != Some("event") {
        return Err("not an event line".into());
    }
    let kind = match need_str(j, "event")?.as_str() {
        "DmaMap" => EventKind::DmaMap {
            iova: need_u64(j, "iova")?,
            len: need_u64(j, "len")?,
            dir: Cow::Owned(need_str(j, "dir")?),
        },
        "DmaUnmap" => EventKind::DmaUnmap {
            iova: need_u64(j, "iova")?,
            len: need_u64(j, "len")?,
        },
        "IotlbInvalidate" => EventKind::IotlbInvalidate {
            pages: need_u64(j, "pages")?,
            wait_cycles: need_u64(j, "wait_cycles")?,
        },
        "PoolGrow" => EventKind::PoolGrow {
            class: need_u64(j, "class")?,
            bytes: need_u64(j, "bytes")?,
        },
        "PoolShrink" => EventKind::PoolShrink {
            bytes: need_u64(j, "bytes")?,
        },
        "FallbackAcquire" => EventKind::FallbackAcquire {
            iova: need_u64(j, "iova")?,
            len: need_u64(j, "len")?,
        },
        "AttackBlocked" => EventKind::AttackBlocked {
            iova: need_u64(j, "iova")?,
            access: Cow::Owned(need_str(j, "access")?),
            reason: Cow::Owned(need_str(j, "reason")?),
        },
        "LockContention" => EventKind::LockContention {
            lock: Cow::Owned(need_str(j, "lock")?),
            spin_cycles: need_u64(j, "spin_cycles")?,
        },
        "SanitizerViolation" => EventKind::SanitizerViolation {
            rule: Cow::Owned(need_str(j, "rule")?),
            iova: need_u64(j, "iova")?,
            detail: Cow::Owned(need_str(j, "detail")?),
        },
        "LockAcquire" => EventKind::LockAcquire {
            lock: Cow::Owned(need_str(j, "lock")?),
        },
        "LockRelease" => EventKind::LockRelease {
            lock: Cow::Owned(need_str(j, "lock")?),
        },
        "SharedAccess" => EventKind::SharedAccess {
            var: Cow::Owned(need_str(j, "var")?),
            write: match j.get("write") {
                Some(Json::Bool(b)) => *b,
                _ => return Err("missing/invalid 'write'".into()),
            },
        },
        other => return Err(format!("unknown event kind '{other}'")),
    };
    Ok(Event {
        seq: need_u64(j, "seq")?,
        at: Cycles(need_u64(j, "at")?),
        core: need_u64(j, "core")? as u16,
        device: match j.get("device") {
            Some(Json::Null) | None => None,
            Some(v) => Some(v.as_u64().ok_or("invalid 'device'")? as u16),
        },
        cause: match j.get("cause") {
            Some(Json::Null) | None => None,
            Some(v) => Some(v.as_u64().ok_or("invalid 'cause'")?),
        },
        kind,
    })
}

/// Exports a run header, every metric and every event as a JSON-lines
/// document (one object per line, trailing newline).
///
/// The header surfaces the tracer's retention stats
/// (`trace_retained` / `trace_sampled_out` / `trace_dropped` /
/// `trace_sample_period`) so every trajectory file states how complete
/// its event record is.
pub fn export_jsonl(
    run: &[(&str, Json)],
    snap: &RegistrySnapshot,
    events: &[Event],
    trace: &TraceStats,
) -> String {
    let mut header = vec![("type".to_string(), Json::Str("run".into()))];
    header.extend(run.iter().map(|(k, v)| (k.to_string(), v.clone())));
    header.push(("trace_retained".into(), Json::UInt(trace.retained)));
    header.push(("trace_sampled_out".into(), Json::UInt(trace.sampled_out)));
    header.push(("trace_dropped".into(), Json::UInt(trace.dropped)));
    header.push((
        "trace_sample_period".into(),
        Json::UInt(trace.sample_period),
    ));
    let mut out = Json::Obj(header).encode();
    out.push('\n');
    for line in metric_lines(snap) {
        out.push_str(&line.encode());
        out.push('\n');
    }
    for e in events {
        out.push_str(&event_line(e).encode());
        out.push('\n');
    }
    out
}

/// Parses a JSON-lines document into its constituent values.
pub fn parse_jsonl(s: &str) -> Result<Vec<Json>, String> {
    s.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Json::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Renders the snapshot as an aligned text table: counters and gauges as
/// `metric value` rows, histograms with count/mean/p50/p99 (upper-bound
/// and interpolated tail). When `trace` is given, trailing rows report
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
    for (k, h) in &snap.histograms {
        rows.push((
            k.to_string(),
            format!(
                "count={} mean={:.1} p50<={} p99<={} p99~={:.1}",
                h.count,
                h.mean(),
                h.percentile(0.50),
                h.percentile(0.99),
                h.percentile_interp(0.99)
            ),
        ));
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
    use crate::trace::Tracer;

    fn sample_events() -> Vec<Event> {
        let t = Tracer::default();
        let m = t.record(
            Cycles(10),
            0,
            Some(0),
            EventKind::DmaMap {
                iova: 0x1000,
                len: 1500,
                dir: Cow::Borrowed("from_device"),
            },
        );
        let inv = t.record_caused(
            Cycles(20),
            0,
            Some(0),
            m,
            EventKind::IotlbInvalidate {
                pages: 1,
                wait_cycles: 300,
            },
        );
        t.record_caused(
            Cycles(30),
            0,
            Some(0),
            inv,
            EventKind::DmaUnmap {
                iova: 0x1000,
                len: 1500,
            },
        );
        t.record(
            Cycles(40),
            1,
            Some(7),
            EventKind::AttackBlocked {
                iova: 0xdead_b000,
                access: Cow::Borrowed("read"),
                reason: Cow::Borrowed("not_mapped"),
            },
        );
        t.record(
            Cycles(50),
            2,
            None,
            EventKind::LockContention {
                lock: Cow::Borrowed("invalq"),
                spin_cycles: 120,
            },
        );
        t.record(
            Cycles(60),
            2,
            None,
            EventKind::LockAcquire {
                lock: Cow::Borrowed("invalq"),
            },
        );
        t.record(
            Cycles(61),
            2,
            None,
            EventKind::SharedAccess {
                var: Cow::Borrowed("invalq.commands"),
                write: true,
            },
        );
        t.record(
            Cycles(62),
            2,
            None,
            EventKind::LockRelease {
                lock: Cow::Borrowed("invalq"),
            },
        );
        t.record(
            Cycles(70),
            0,
            Some(0),
            EventKind::SanitizerViolation {
                rule: Cow::Borrowed("double_unmap"),
                iova: 0x1000,
                detail: Cow::Borrowed("iova 0x1000 already unmapped"),
            },
        );
        t.events()
    }

    #[test]
    fn jsonl_roundtrip_lossless() {
        let r = Registry::new();
        r.counter(MetricKey::new("pool", "acquires", Some(0)))
            .add(42);
        r.gauge(MetricKey::new("pool", "in_flight", Some(0)))
            .set(-3);
        let h = r.histogram(MetricKey::new("dma", "map_cycles", Some(0)));
        for v in [0, 1, 100, 5000] {
            h.record(v);
        }
        let events = sample_events();
        let stats = TraceStats {
            retained: events.len() as u64,
            sampled_out: 7,
            dropped: 0,
            sample_period: 1,
        };
        let doc = export_jsonl(
            &[("workload", Json::Str("tcp_stream_rx".into()))],
            &r.snapshot(),
            &events,
            &stats,
        );
        let lines = parse_jsonl(&doc).unwrap();
        assert_eq!(lines.len(), 1 + 3 + events.len());

        // The run header surfaces the tracer's retention stats.
        let header = &lines[0];
        assert_eq!(
            header.get("trace_retained").and_then(Json::as_u64),
            Some(events.len() as u64)
        );
        assert_eq!(
            header.get("trace_sampled_out").and_then(Json::as_u64),
            Some(7)
        );
        assert_eq!(header.get("trace_dropped").and_then(Json::as_u64), Some(0));
        assert_eq!(
            header.get("trace_sample_period").and_then(Json::as_u64),
            Some(1)
        );

        // Byte-for-byte stability through a parse/re-encode cycle.
        let reencoded: String = lines.iter().map(|l| format!("{}\n", l.encode())).collect();
        assert_eq!(doc, reencoded);

        // Events decode back to structurally equal values.
        let decoded: Vec<Event> = lines
            .iter()
            .filter(|l| l.get("type").and_then(Json::as_str) == Some("event"))
            .map(|l| event_from_json(l).unwrap())
            .collect();
        assert_eq!(decoded, events);
    }

    #[test]
    fn table_renders_all_metrics() {
        let r = Registry::new();
        r.counter(MetricKey::new("a", "count", None)).add(5);
        r.histogram(MetricKey::new("b", "sizes", Some(1)))
            .record(64);
        let table = render_table(&r.snapshot(), None);
        assert!(table.contains("a.count"));
        assert!(table.contains("b.sizes{dev1}"));
        assert!(table.contains("count=1"));
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
