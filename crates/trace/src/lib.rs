//! # sdp-trace — structured tracing for the optimizer stack
//!
//! A zero-dependency span/event layer shared by `sdp-core` and
//! `sdp-service`. Design constraints, in order:
//!
//! 1. **Determinism.** The optimizer's enumeration is a pure function
//!    of the query and the budget, and traces must be too: the
//!    *canonical* rendering of a trace ([`canonical_dump`]) is
//!    byte-identical from run to run for the same query and fault
//!    schedule. Two rules make that hold: wall-clock timestamps live
//!    in a dedicated [`Event::wall_micros`] slot that canonical
//!    rendering ignores, and what a level creates is staged with it
//!    (for a `jcr` event, the stamp of the moment —
//!    [`Tracer::wall_micros`]) and emitted in creation order at the
//!    level barrier, so a level that rolls back leaves no events.
//! 2. **Near-zero cost when disabled.** A [`Tracer`] over the no-op
//!    [`NullSink`] (or no sink at all) answers [`Tracer::enabled`]
//!    with `false` from an inlined `Option`/bool check, and every
//!    emission site builds its payload behind that check
//!    ([`Tracer::emit_with`]), so a disabled tracer costs one branch
//!    per site. The instrumentation is always compiled in: there is no
//!    cargo feature to build it out, and none is needed.
//! 3. **No dependencies.** Events render themselves to the canonical
//!    line format and to `chrome://tracing`-compatible JSON
//!    ([`chrome_trace`]) with hand-rolled, fully deterministic
//!    formatting — no serde.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A single field value attached to an [`Event`].
///
/// The canonical rendering of every variant is deterministic:
/// integers and booleans print exactly, strings print verbatim, and
/// floats print via Rust's shortest-roundtrip `{:?}` formatting so
/// bit-identical floats always render to identical bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counters, sizes, set bitmaps).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (costs, cardinalities). Rendered via `{:?}`.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Text (labels, error messages, fingerprints).
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:?}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => f.write_str(v),
        }
    }
}

impl Value {
    /// The value as an unsigned integer, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, when it is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v.as_str()),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

/// One structured trace event: a static name plus ordered key/value
/// fields, with an optional wall-clock stamp.
///
/// `wall_micros` (microseconds since the emitting [`Tracer`]'s epoch)
/// is deliberately *outside* `fields`: it is the only
/// non-deterministic part of an event, used by [`chrome_trace`] for
/// timeline placement and ignored by [`Event::canonical`] so
/// determinism tests can compare dumps byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name, e.g. `"level"` or `"degrade"`.
    pub name: &'static str,
    /// Ordered key/value payload. Order is part of the canonical form.
    pub fields: Vec<(&'static str, Value)>,
    /// Microseconds since the tracer epoch at emission. Zero until the
    /// event passes through [`Tracer::emit`]. Non-canonical.
    pub wall_micros: u64,
}

impl Event {
    /// Start a new event with no fields.
    pub fn new(name: &'static str) -> Event {
        Event {
            name,
            fields: Vec::new(),
            wall_micros: 0,
        }
    }

    /// Append a field (builder style). Field order is preserved and is
    /// part of the canonical rendering.
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Event {
        self.fields.push((key, value.into()));
        self
    }

    /// The first value recorded under `key`, if any — the lookup sink
    /// adapters (e.g. the flight recorder) use to project events into
    /// typed records without scanning `fields` by hand.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Deterministic one-line rendering: `name key=value key=value`.
    /// Excludes [`Event::wall_micros`].
    pub fn canonical(&self) -> String {
        let mut line = String::from(self.name);
        for (key, value) in &self.fields {
            line.push(' ');
            line.push_str(key);
            line.push('=');
            line.push_str(&value.to_string());
        }
        line
    }
}

/// Destination for trace events. Implementations must be cheap to
/// probe via [`TraceSink::enabled`]: emission sites check it before
/// building payloads.
pub trait TraceSink: Send + Sync {
    /// Accept one event. Called only when [`TraceSink::enabled`] is
    /// true (probing and recording race benignly; sinks must tolerate
    /// records after flipping to disabled).
    fn record(&self, event: Event);

    /// Whether this sink currently wants events. Defaults to `true`.
    fn enabled(&self) -> bool {
        true
    }
}

/// The no-op sink: discards everything, reports itself disabled, so
/// emission sites skip payload construction entirely.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// In-memory sink: a bounded ring of events (oldest dropped first)
/// behind a mutex, with a dropped-event counter.
#[derive(Debug, Default)]
pub struct MemorySink {
    inner: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl Default for Ring {
    fn default() -> Self {
        Ring {
            events: VecDeque::new(),
            capacity: usize::MAX,
            dropped: 0,
        }
    }
}

impl MemorySink {
    /// Unbounded sink (bounded only by memory).
    pub fn unbounded() -> MemorySink {
        MemorySink::default()
    }

    /// Ring sink holding at most `capacity` events; older events are
    /// dropped (and counted) once full.
    pub fn with_capacity(capacity: usize) -> MemorySink {
        MemorySink {
            inner: Mutex::new(Ring {
                events: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
            }),
        }
    }

    /// Copy of all buffered events, in arrival order.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner.lock().unwrap().events.iter().cloned().collect()
    }

    /// Drain and return all buffered events, in arrival order.
    pub fn take(&self) -> Vec<Event> {
        self.inner.lock().unwrap().events.drain(..).collect()
    }

    /// Number of events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: Event) {
        let mut ring = self.inner.lock().unwrap();
        if ring.events.len() >= ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }
}

/// Fans each event out to every inner sink (cloning the event).
pub struct TeeSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl TeeSink {
    /// Tee over the given sinks. An empty tee is permanently disabled.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> TeeSink {
        TeeSink { sinks }
    }
}

impl fmt::Debug for TeeSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TeeSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl TraceSink for TeeSink {
    fn record(&self, event: Event) {
        for sink in &self.sinks {
            if sink.enabled() {
                sink.record(event.clone());
            }
        }
    }

    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }
}

/// Cloneable emission handle: an optional shared sink plus the epoch
/// wall timestamps are measured from.
///
/// A disabled tracer ([`Tracer::disabled`], also [`Default`]) carries
/// no sink; [`Tracer::enabled`] is then a single `Option` check and
/// [`Tracer::emit_with`] never runs its closure, which is what makes
/// instrumented-but-untraced runs near-free.
#[derive(Clone)]
pub struct Tracer {
    sink: Option<Arc<dyn TraceSink>>,
    epoch: Instant,
}

impl Tracer {
    /// Tracer feeding the given sink, with its epoch set to now.
    pub fn new(sink: Arc<dyn TraceSink>) -> Tracer {
        Tracer {
            sink: Some(sink),
            epoch: Instant::now(),
        }
    }

    /// Tracer with no sink: every probe is false, every emit a no-op.
    pub fn disabled() -> Tracer {
        Tracer {
            sink: None,
            epoch: Instant::now(),
        }
    }

    /// Whether events would currently reach a sink.
    #[inline]
    pub fn enabled(&self) -> bool {
        match &self.sink {
            Some(sink) => sink.enabled(),
            None => false,
        }
    }

    /// Microseconds since this tracer's epoch (for staging events
    /// whose emission is deferred to a barrier).
    pub fn wall_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Record `event`, stamping [`Event::wall_micros`] if unset.
    pub fn emit(&self, mut event: Event) {
        if let Some(sink) = &self.sink {
            if sink.enabled() {
                if event.wall_micros == 0 {
                    event.wall_micros = self.wall_micros();
                }
                sink.record(event);
            }
        }
    }

    /// Build and record an event only if a sink wants it. This is the
    /// preferred emission form: the closure (and thus all payload
    /// allocation) is skipped entirely when tracing is off.
    #[inline]
    pub fn emit_with(&self, build: impl FnOnce() -> Event) {
        if self.enabled() {
            self.emit(build());
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// Render events to the canonical dump: one [`Event::canonical`] line
/// per event, `\n`-separated, with a trailing newline when non-empty.
/// Byte-identical from run to run for deterministic traces.
pub fn canonical_dump(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.canonical());
        out.push('\n');
    }
    out
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn json_value_into(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::F64(v) if v.is_finite() => out.push_str(&format!("{v:?}")),
        Value::F64(v) => {
            // NaN / infinities are not valid JSON numbers.
            out.push('"');
            out.push_str(&format!("{v:?}"));
            out.push('"');
        }
        Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Value::Str(v) => {
            out.push('"');
            json_escape_into(out, v);
            out.push('"');
        }
    }
}

/// Render events as a `chrome://tracing` / Perfetto-compatible JSON
/// array of instant events (`"ph":"i"`), with `ts` taken from each
/// event's wall stamp and fields under `args`.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut out = String::from("[\n");
    for (i, event) in events.iter().enumerate() {
        out.push_str("  {\"name\":\"");
        json_escape_into(&mut out, event.name);
        out.push_str("\",\"ph\":\"i\",\"s\":\"p\",\"pid\":1,\"tid\":1,\"ts\":");
        out.push_str(&event.wall_micros.to_string());
        out.push_str(",\"args\":{");
        for (j, (key, value)) in event.fields.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape_into(&mut out, key);
            out.push_str("\":");
            json_value_into(&mut out, value);
        }
        out.push_str("}}");
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_line_excludes_wall_stamp() {
        let mut a = Event::new("level").with("n", 3u64).with("cost", 1.5f64);
        let mut b = a.clone();
        a.wall_micros = 10;
        b.wall_micros = 99;
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical(), "level n=3 cost=1.5");
    }

    #[test]
    fn field_lookup_and_value_accessors() {
        let ev = Event::new("request")
            .with("fingerprint", "ab12")
            .with("plans_costed", 7u64);
        assert_eq!(
            ev.field("fingerprint").and_then(Value::as_str),
            Some("ab12")
        );
        assert_eq!(ev.field("plans_costed").and_then(Value::as_u64), Some(7));
        assert_eq!(ev.field("plans_costed").and_then(Value::as_str), None);
        assert!(ev.field("missing").is_none());
    }

    #[test]
    fn null_sink_reports_disabled() {
        let tracer = Tracer::new(Arc::new(NullSink));
        assert!(!tracer.enabled());
        let mut built = false;
        tracer.emit_with(|| {
            built = true;
            Event::new("never")
        });
        assert!(!built);
    }

    #[test]
    fn memory_sink_records_in_order() {
        let sink = Arc::new(MemorySink::unbounded());
        let tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>);
        assert!(tracer.enabled());
        tracer.emit(Event::new("a"));
        tracer.emit(Event::new("b").with("k", "v"));
        let events = sink.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].canonical(), "b k=v");
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn memory_sink_ring_drops_oldest() {
        let sink = MemorySink::with_capacity(2);
        sink.record(Event::new("a"));
        sink.record(Event::new("b"));
        sink.record(Event::new("c"));
        let names: Vec<_> = sink.snapshot().iter().map(|e| e.name).collect();
        assert_eq!(names, ["b", "c"]);
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn tee_fans_out_and_skips_disabled() {
        let a = Arc::new(MemorySink::unbounded());
        let b = Arc::new(MemorySink::unbounded());
        let tee = TeeSink::new(vec![
            Arc::clone(&a) as Arc<dyn TraceSink>,
            Arc::new(NullSink) as Arc<dyn TraceSink>,
            Arc::clone(&b) as Arc<dyn TraceSink>,
        ]);
        assert!(tee.enabled());
        tee.record(Event::new("x"));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert!(!TeeSink::new(Vec::new()).enabled());
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let mut ev = Event::new("q\"uote")
            .with("s", "a\\b\n")
            .with("f", f64::INFINITY)
            .with("n", 7u64)
            .with("flag", true);
        ev.wall_micros = 42;
        let json = chrome_trace(&[ev]);
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"name\":\"q\\\"uote\""));
        assert!(json.contains("\"ts\":42"));
        assert!(json.contains("\"s\":\"a\\\\b\\n\""));
        assert!(json.contains("\"f\":\"inf\""));
        assert!(json.contains("\"n\":7"));
        assert!(json.contains("\"flag\":true"));
        assert!(json.trim_end().ends_with(']'));
    }

    #[test]
    fn canonical_dump_lines() {
        let events = vec![Event::new("a"), Event::new("b").with("x", 1u64)];
        assert_eq!(canonical_dump(&events), "a\nb x=1\n");
        assert_eq!(canonical_dump(&[]), "");
    }
}
