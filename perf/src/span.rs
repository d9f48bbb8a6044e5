//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! request it belongs to. They are kept in memory while the traced
//! pass runs and written out once, when it is over.

use std::fmt::Write as _;
use std::time::Instant;

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span wraps (e.g. `sql.parse`).
    pub name: &'static str,
    /// Nanoseconds from the recorder's origin to the start.
    pub start: u64,
    /// Nanoseconds from the recorder's origin to the end.
    pub end: u64,
    /// Index of the causing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Request the span belongs to.
    pub request: u32,
}

impl Span {
    /// End minus start.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span store with one clock origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans, so recording does not
    /// allocate while requests are being timed.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32, request: u32) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close the span `id` and return its duration in nanoseconds.
    pub fn end(&mut self, id: u32) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end = end;
        span.duration()
    }

    /// Record `call` as a child span of `parent`.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let value = call();
        self.end(id);
        value
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part its child spans
/// cover. Children of one parent never overlap here (one thread
/// records them in sequence), so that part is the sum of their
/// durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let parent = &mut own[span.parent as usize];
            *parent = parent.saturating_sub(span.duration());
        }
    }
    own
}

/// Durations, in nanoseconds and ascending, of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    let mut out: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect();
    out.sort_unstable();
    out
}

/// Render the trace as JSON: a name table, then one row per span
/// (`[name index, start ns, end ns, parent span or -1, request]`), then
/// the per-layer metrics derived from it.
pub fn to_json(
    workload: &str,
    seed: u64,
    spans: &[Span],
    metrics: &[(&'static str, f64)],
) -> String {
    let mut names: Vec<&'static str> = Vec::new();
    let mut out = String::with_capacity(64 + spans.len() * 40);
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \
         \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request\"],\n\"spans\": ["
    );
    for (i, span) in spans.iter().enumerate() {
        let name = match names.iter().position(|n| *n == span.name) {
            Some(at) => at,
            None => {
                names.push(span.name);
                names.len() - 1
            }
        };
        let parent = if span.parent == NO_PARENT {
            -1
        } else {
            i64::from(span.parent)
        };
        let _ = write!(
            out,
            "{}[{name},{},{},{parent},{}]",
            if i == 0 { "\n" } else { ",\n" },
            span.start,
            span.end,
            span.request
        );
    }
    out.push_str("\n],\n\"names\": [");
    for (i, name) in names.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\"", if i == 0 { "" } else { ", " });
    }
    out.push_str("],\n\"metrics\": {");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\": {value}", if i == 0 { "" } else { ", " });
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("request", 0, 100, NO_PARENT),
            span("replay", 10, 90, 0),
            span("sql.parse", 20, 50, 1),
            span("cache.get", 50, 60, 1),
            span("service.get_plan", 90, 95, 0),
        ];
        assert_eq!(self_times(&spans), vec![15, 40, 30, 10, 5]);
        // A grandchild is charged to its parent only.
        assert_eq!(self_times(&spans)[0], 100 - 80 - 5);
    }

    #[test]
    fn recorder_nests_and_orders() {
        let mut recorder = Recorder::with_capacity(4);
        let root = recorder.begin("request", NO_PARENT, 3);
        let value = recorder.record("sql.parse", root, 3, || 42);
        recorder.end(root);
        assert_eq!(value, 42);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].request), (root, 3));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(durations(spans, "sql.parse"), vec![spans[1].duration()]);
    }

    #[test]
    fn json_has_one_row_per_span() {
        let spans = [span("request", 0, 9, NO_PARENT), span("sql.parse", 1, 4, 0)];
        let json = to_json("warm_hit", 7, &spans, &[("sql.parse_us", 0.003)]);
        assert!(json.contains("[0,0,9,-1,0]") && json.contains("[1,1,4,0,0]"));
        assert!(json.contains("\"names\": [\"request\", \"sql.parse\"]"));
        assert!(json.contains("\"sql.parse_us\": 0.003"));
    }
}
