//! Metric names, units and the printed forms of a run's result.
//!
//! `BENCHMARK.json` declares the same names and units; `tests/manifest.rs`
//! fails when the two lists differ.

use netsim::EngineKind;
use obs::Json;

/// A metric's value. Counts stay integers so that they compare exactly;
/// floats print with round-trip precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A count, or [`NA`].
    Int(i64),
    /// A measured or derived real number.
    Float(f64),
}

/// "Not observable on this workload": the entry point hides the stack the
/// number lives in, or the workload has no such operation. A real zero is
/// always printed as 0.
pub const NA: Value = Value::Int(-1);

impl Value {
    /// A count.
    pub fn count(n: u64) -> Value {
        Value::Int(n as i64)
    }

    /// `Some(x)` as a float, `None` as [`NA`].
    pub fn float_or_na(x: Option<f64>) -> Value {
        x.map_or(NA, Value::Float)
    }

    /// `num / den`, or [`NA`] when there is nothing to divide by.
    pub fn ratio(num: u64, den: u64) -> Value {
        if den == 0 {
            NA
        } else {
            Value::Float(num as f64 / den as f64)
        }
    }

    fn json(self) -> Json {
        match self {
            Value::Int(i) => Json::Int(i),
            Value::Float(f) => Json::Float(f),
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x:?}"),
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Value.
    pub value: Value,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: Value, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Engines whose throughput is an end-to-end metric: every engine that
/// runs on every workload (`eiovar+` does not; see `KNOWN_BROKEN`).
pub const GBPS_ENGINES: [EngineKind; 7] = [
    EngineKind::NoIommu,
    EngineKind::Copy,
    EngineKind::IdentityMinus,
    EngineKind::IdentityPlus,
    EngineKind::EiovarDefer,
    EngineKind::LinuxDefer,
    EngineKind::LinuxStrict,
];

/// The engines most per-engine layer metrics are reported for: the
/// paper's design and the two strict zero-copy designs it is measured
/// against.
pub const FOCUS: [EngineKind; 3] = [
    EngineKind::Copy,
    EngineKind::IdentityPlus,
    EngineKind::LinuxStrict,
];

/// The result of one process: what the last output line says.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations of one round: engines × cores × items per core.
    pub attempted: u64,
    /// Operations of engines that failed a check in any round.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), m.value.json()),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::UInt(self.attempted)),
            ("failed".into(), Json::UInt(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .encode()
    }

    /// Every metric by name with its unit, one per line.
    pub fn metric_lines(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("{:<width$}  {} {}\n", m.name, m.value, m.unit));
        }
        out
    }
}
