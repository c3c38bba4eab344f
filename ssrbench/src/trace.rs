//! In-memory span recorder for the traced run.
//!
//! Spans are taken in the benchmark's own code around its calls into each
//! layer, kept in memory while the workload runs and written out once at
//! the end.  A span's layer is the prefix of its name before the first
//! `.` (`cpu.build_core` belongs to `cpu`).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use ssr_engine::json::Json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Worker index (0 is the driving thread).
    pub thread: usize,
    /// Request or job this span belongs to, when it has one.
    pub group: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the span's boundaries (kernel stat deltas, ...).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span store shared by every thread of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a traced worker panicked")
    }

    /// Opens a span and returns its id; close it with [`Tracer::close`].
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<usize>,
        thread: usize,
        group: Option<u64>,
    ) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            parent,
            thread,
            group,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        spans.len() - 1
    }

    /// Closes span `id`, attaching `counts`.
    pub fn close(&self, id: usize, counts: Vec<(&'static str, f64)>) {
        let end_ns = self.now_ns();
        let mut spans = self.lock();
        spans[id].end_ns = end_ns;
        spans[id].counts = counts;
    }

    /// Runs `f` inside a top-level span with no counts.
    pub fn span<T>(&self, name: &'static str, thread: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, None, thread, None);
        let out = f();
        self.close(id, Vec::new());
        out
    }

    /// Records an already-measured interval as a span; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        group: u64,
        from: Instant,
        to: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut spans = self.lock();
        spans.push(Span {
            name,
            parent,
            thread: 0,
            group: Some(group),
            start_ns: at(from),
            end_ns: at(to),
            counts: Vec::new(),
        });
        spans.len() - 1
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Total duration (ms) of the spans named `name`.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::ms).sum()
}

/// Durations (ms) of the spans named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Self time per layer (ms): each span's duration minus the part its
/// children cover, summed by layer.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ms = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ms[parent] += span.ms();
        }
    }
    let mut by_layer = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ms) {
        *by_layer.entry(span.layer()).or_insert(0.0) += (span.ms() - children).max(0.0);
    }
    by_layer
}

/// The spans as a JSON document (written at the end of the traced run).
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut fields = vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.to_owned())),
                    ("thread", Json::Num(s.thread as f64)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ];
                if let Some(parent) = s.parent {
                    fields.push(("parent", Json::Num(parent as f64)));
                }
                if let Some(group) = s.group {
                    fields.push(("group", Json::Num(group as f64)));
                }
                if !s.counts.is_empty() {
                    fields.push((
                        "counts",
                        Json::Obj(
                            s.counts
                                .iter()
                                .map(|(k, v)| ((*k).to_owned(), Json::Num(*v)))
                                .collect(),
                        ),
                    ));
                }
                Json::obj(fields)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            parent,
            thread: 0,
            group: None,
            start_ns,
            end_ns,
            counts: Vec::new(),
        };
        let spans = vec![
            span("engine.harness", None, 0, 10_000_000),
            span("cpu.build_core", Some(0), 0, 6_000_000),
            span("sim.compile", Some(0), 6_000_000, 9_000_000),
        ];
        let layers = self_ms_by_layer(&spans);
        assert!((layers["engine"] - 1.0).abs() < 1e-9);
        assert!((layers["cpu"] - 6.0).abs() < 1e-9);
        assert!((layers["sim"] - 3.0).abs() < 1e-9);
    }
}
