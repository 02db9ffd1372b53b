//! Machine-readable counterexamples: a schedule that reproduces an
//! invariant violation, plus the formatted cause-chain trace of the run
//! that found it.
//!
//! Counterexamples serialize to JSON (via the in-tree [`obs::Json`]) so
//! the deferred-invalidation witness can be committed as a fixture and
//! replayed by tests and CI.

use crate::oracle::{ViolationClass, ViolationReport};
use obs::{Event, Json};

/// One scheduling decision: grant `tid`, which was parked at `label`
/// (a [`crate::exec::YieldInfo::label`] string). Labels are stored so a
/// replay can detect when the code under test diverged from the fixture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The logical thread granted the step.
    pub tid: usize,
    /// The yield-point label the thread was parked at when granted.
    pub label: String,
}

/// A violating schedule with its evidence.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The engine's name in the paper's figures (`EngineKind::name`).
    pub strategy: String,
    /// `"window"` or `"subpage"`.
    pub kind: String,
    /// The scheduling decisions, in order.
    pub schedule: Vec<Step>,
    /// The oracle's description of the violation.
    pub detail: String,
    /// Formatted telemetry trace of the violating run (cause chains
    /// included via event seq back-references).
    pub trace: Vec<String>,
}

impl Counterexample {
    /// Builds a counterexample from a finished run's evidence.
    pub fn new(
        strategy: &str,
        violation: &ViolationReport,
        schedule: &[Step],
        events: &[Event],
    ) -> Counterexample {
        Counterexample {
            strategy: strategy.to_string(),
            kind: match violation.class {
                ViolationClass::Window => "window".to_string(),
                ViolationClass::Subpage => "subpage".to_string(),
            },
            schedule: schedule.to_vec(),
            detail: violation.detail.clone(),
            trace: format_trace(events),
        }
    }

    /// Serializes to the fixture JSON layout.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("strategy".into(), Json::Str(self.strategy.clone())),
            ("kind".into(), Json::Str(self.kind.clone())),
            (
                "schedule".into(),
                Json::Arr(
                    self.schedule
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("tid".into(), Json::UInt(s.tid as u64)),
                                ("label".into(), Json::Str(s.label.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("detail".into(), Json::Str(self.detail.clone())),
            (
                "trace".into(),
                Json::Arr(self.trace.iter().map(|l| Json::Str(l.clone())).collect()),
            ),
        ])
    }

    /// Parses the fixture JSON layout.
    pub fn from_json(j: &Json) -> Result<Counterexample, String> {
        let strategy = j
            .get("strategy")
            .and_then(Json::as_str)
            .ok_or("missing strategy")?
            .to_string();
        let kind = j
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing kind")?
            .to_string();
        let Some(Json::Arr(steps)) = j.get("schedule") else {
            return Err("missing schedule".into());
        };
        let mut schedule = Vec::new();
        for s in steps {
            let tid = s
                .get("tid")
                .and_then(Json::as_u64)
                .ok_or("step missing tid")? as usize;
            let label = s
                .get("label")
                .and_then(Json::as_str)
                .ok_or("step missing label")?
                .to_string();
            schedule.push(Step { tid, label });
        }
        let detail = j
            .get("detail")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let trace = match j.get("trace") {
            Some(Json::Arr(lines)) => lines
                .iter()
                .filter_map(|l| l.as_str().map(str::to_string))
                .collect(),
            _ => Vec::new(),
        };
        Ok(Counterexample {
            strategy,
            kind,
            schedule,
            detail,
            trace,
        })
    }

    /// Renders the counterexample for terminal output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "counterexample [{}]: {} violation\n  {}\n  schedule ({} steps):\n",
            self.strategy,
            self.kind,
            self.detail,
            self.schedule.len()
        ));
        for (i, s) in self.schedule.iter().enumerate() {
            out.push_str(&format!("    {i:>3}. t{} @ {}\n", s.tid, s.label));
        }
        out.push_str(&format!("  trace ({} events):\n", self.trace.len()));
        for l in &self.trace {
            out.push_str(&format!("    {l}\n"));
        }
        out
    }
}

/// Formats telemetry events as `#seq [cycles] coreN kind (cause #seq)`
/// lines — the cause back-references let a reader walk the chain from the
/// stale device access back to the `DmaUnmap` that should have fenced it.
pub fn format_trace(events: &[Event]) -> Vec<String> {
    events
        .iter()
        .map(|e| format!("#{} {} :: {:?}", e.seq, e, e.kind))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ViolationClass;

    #[test]
    fn json_roundtrip_preserves_schedule() {
        let cx = Counterexample {
            strategy: "defer".into(),
            kind: "window".into(),
            schedule: vec![
                Step {
                    tid: 0,
                    label: "op:start".into(),
                },
                Step {
                    tid: 2,
                    label: "lock:iommu-invalidation-queue".into(),
                },
            ],
            detail: "stale write".into(),
            trace: vec!["#1 ...".into()],
        };
        let j = cx.to_json();
        let back = Counterexample::from_json(&Json::parse(&j.encode()).unwrap()).unwrap();
        assert_eq!(back.schedule, cx.schedule);
        assert_eq!(back.kind, "window");
        assert_eq!(back.strategy, "defer");
        assert_eq!(back.trace.len(), 1);
    }

    #[test]
    fn violation_class_maps_to_kind() {
        let v = ViolationReport {
            class: ViolationClass::Window,
            mapper: 0,
            probe: "p".into(),
            window_open: false,
            detail: "d".into(),
        };
        let cx = Counterexample::new("defer", &v, &[], &[]);
        assert_eq!(cx.kind, "window");
    }
}
