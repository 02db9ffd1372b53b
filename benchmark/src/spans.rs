//! Host-time spans the benchmark records around its own calls into each
//! layer. Spans stay in memory while the run measures and are written out
//! (one JSON object per line, each with its parent and its self time) only
//! when it ends.

use obs::Json;
use std::time::Instant;

/// One closed or open span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran (`round`, `engine:copy`, `probe:memsim.host_ns_per_copy`…).
    pub name: String,
    /// Index of the span that caused this one; `None` for the root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, likewise (0 while open).
    pub end_ns: u64,
    /// Calls into the layer that the span covers.
    pub calls: u64,
}

/// The in-memory span log of one process.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn enter(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns: 0,
            calls: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, noting how many calls it covered, and returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, id: usize, calls: u64) -> u64 {
        let end_ns = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.calls = calls;
        end_ns - s.start_ns
    }

    /// Duration of closed span `id` in seconds.
    pub fn secs(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// The log as JSON lines, one span per line.
    pub fn to_json_lines(&self) -> String {
        // A span's self time is its duration minus what its children cover.
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered[id]);
            let parent = match s.parent {
                Some(p) => Json::UInt(p as u64),
                None => Json::Null,
            };
            let line = Json::Obj(vec![
                ("id".into(), Json::UInt(id as u64)),
                ("parent".into(), parent),
                ("name".into(), Json::Str(s.name.clone())),
                ("start_ns".into(), Json::UInt(s.start_ns)),
                ("end_ns".into(), Json::UInt(s.end_ns)),
                ("self_ns".into(), Json::UInt(self_ns)),
                ("calls".into(), Json::UInt(s.calls)),
            ]);
            out.push_str(&line.encode());
            out.push('\n');
        }
        out
    }
}
