//! In-memory spans around the benchmark's calls into the program's layers.
//!
//! A span is a name, start, end, parent span and request id: every call the
//! benchmark makes into a public function of a layer (`service.query`,
//! `core.formulate`, `linprog.solve`, ...) is wrapped in one, under a root
//! span per request.  Spans are kept per client thread, merged when the run
//! ends and written as a Chrome trace-event file (load it in Perfetto).  A
//! layer's self time is the time its spans cover minus the part their child
//! spans cover.  With tracing off, [`SpanBuf::span`] is one branch and a
//! direct call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `linprog.solve`; the part before the dot is the
    /// layer (crate module) the call enters.
    pub name: &'static str,
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span (`None` for a request's root span).
    pub parent: Option<u64>,
    /// Shared by every span of one query or solve.
    pub request: u64,
    /// Client thread that recorded the span.
    pub thread: u32,
    /// Nanoseconds since the run's time origin.
    pub start_nanos: u64,
    /// Nanoseconds since the run's time origin.
    pub end_nanos: u64,
}

impl Span {
    /// The layer this span's call belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }
}

/// A per-thread span buffer.  Ids are `thread << 40 | sequence`, so buffers
/// never need to coordinate.
#[derive(Debug)]
pub struct SpanBuf {
    enabled: bool,
    origin: Instant,
    thread: u32,
    next: u64,
    open: Vec<(u64, u64)>,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// A buffer for client `thread`, timing against `origin`.
    pub fn new(enabled: bool, origin: Instant, thread: u32) -> SpanBuf {
        SpanBuf { enabled, origin, thread, next: 0, open: Vec::new(), spans: Vec::new() }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.  The first span opened while no
    /// other span is open starts a new request; nested calls become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanBuf) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        self.next += 1;
        let id = (u64::from(self.thread) << 40) | self.next;
        let parent = self.open.last().copied();
        let request = parent.map_or(id, |(_, request)| request);
        self.open.push((id, request));
        let start_nanos = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end_nanos = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans.push(Span {
            name,
            id,
            parent: parent.map(|(p, _)| p),
            request,
            thread: self.thread,
            start_nanos,
            end_nanos,
        });
        out
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Forgets spans left open above `depth` by a call that panicked.
    pub fn unwind_to(&mut self, depth: usize) {
        self.open.truncate(depth);
    }

    /// Takes the recorded spans.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct LayerRow {
    /// Spans recorded in the layer.
    pub spans: u64,
    /// Summed span durations, nanoseconds.
    pub total_nanos: u64,
    /// Summed self time (duration minus child coverage), nanoseconds.
    pub self_nanos: u64,
}

/// Self time and counts per layer, and per span name.
pub fn layer_table(
    spans: &[Span],
) -> (BTreeMap<&'static str, LayerRow>, BTreeMap<&'static str, LayerRow>) {
    let mut child_nanos: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *child_nanos.entry(parent).or_default() += span.nanos();
        }
    }
    let mut layers: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    let mut calls: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for span in spans {
        let own = span.nanos().saturating_sub(child_nanos.get(&span.id).copied().unwrap_or(0));
        for row in [layers.entry(span.layer()).or_default(), calls.entry(span.name).or_default()] {
            row.spans += 1;
            row.total_nanos += span.nanos();
            row.self_nanos += own;
        }
    }
    (layers, calls)
}

/// Renders the per-layer self-time table.
pub fn render_layer_table(spans: &[Span]) -> String {
    let (layers, calls) = layer_table(spans);
    let mut out =
        String::from("layer / call                          spans    total ms     self ms\n");
    for (layer, row) in &layers {
        let _ = writeln!(
            out,
            "{layer:<34} {:>8} {:>11.3} {:>11.3}",
            row.spans,
            row.total_nanos as f64 / 1e6,
            row.self_nanos as f64 / 1e6
        );
        for (name, call) in calls.iter().filter(|(name, _)| name.split('.').next() == Some(layer)) {
            let _ = writeln!(
                out,
                "  {name:<32} {:>8} {:>11.3} {:>11.3}",
                call.spans,
                call.total_nanos as f64 / 1e6,
                call.self_nanos as f64 / 1e6
            );
        }
    }
    out
}

/// Chrome trace-event JSON (complete events, one track per client thread;
/// the request id and parent ride in `args`).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, span) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
            if i == 0 { "" } else { "," },
            span.name,
            span.layer(),
            span.thread,
            span.start_nanos as f64 / 1e3,
            span.nanos() as f64 / 1e3,
            span.id,
            span.parent.map_or("null".to_string(), |p| p.to_string()),
            span.request,
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_requests_are_shared() {
        let mut buf = SpanBuf::new(true, Instant::now(), 0);
        buf.span("bench.request", |buf| {
            buf.span("core.formulate", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            buf.span("linprog.solve", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        buf.span("bench.request", |_| {});
        let spans = buf.take();
        assert_eq!(spans.len(), 4);
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
        let children: Vec<_> = spans.iter().filter(|s| s.parent == Some(root.id)).collect();
        assert_eq!(children.len(), 2);
        assert!(children.iter().all(|c| c.request == root.request));
        let (layers, _) = layer_table(&spans);
        let bench = &layers["bench"];
        assert_eq!(bench.spans, 2);
        assert!(bench.self_nanos < bench.total_nanos);
        assert!(layers["core"].self_nanos >= 2_000_000);
        assert!(chrome_trace(&spans).contains("\"request\""));
    }

    #[test]
    fn disabled_buffers_record_nothing() {
        let mut buf = SpanBuf::new(false, Instant::now(), 0);
        assert_eq!(buf.span("service.query", |_| 7), 7);
        assert!(buf.take().is_empty());
    }
}
