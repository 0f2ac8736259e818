#![warn(missing_docs)]
//! # grover-obs
//!
//! Zero-dependency structured telemetry for the Grover toolchain, in the
//! spirit of `tracing`'s span/event model but hand-rolled like the rest of
//! the workspace:
//!
//! * a [`Span`] is a named, timed region with an optional parent and typed
//!   key/value attributes — a kernel launch, a tuning run, a pass
//!   execution;
//! * an *event* is a point-in-time record attached to a span — a
//!   per-buffer pass decision, a measurement retry, a worker-utilization
//!   sample;
//! * a [`Recorder`] consumes both. Every method has a no-op default, so
//!   the production default ([`NoopRecorder`], via the [`NOOP`] static)
//!   costs one virtual call returning immediately — instrumented code
//!   guards any attribute *construction* behind [`Recorder::enabled`].
//!
//! Two real recorders ship: [`MemoryRecorder`] keeps an in-process
//! snapshot for tests and programmatic inspection, and [`JsonlRecorder`]
//! streams one JSON object per line to any writer (the CLI's
//! `--trace-out` file). Both are thread-safe: the interpreter's worker
//! pool and the tuner's race threads record concurrently.
//!
//! ```
//! use grover_obs::{MemoryRecorder, Recorder};
//!
//! let rec = MemoryRecorder::new();
//! let span = rec.span_start("launch", None);
//! rec.span_attr(span, "kernel", "mt".into());
//! rec.event("worker", Some(span), &[("groups", 4u64.into())]);
//! rec.span_end(span);
//!
//! let snap = rec.snapshot();
//! let launch = snap.span("launch").unwrap();
//! assert_eq!(launch.attr_str("kernel"), Some("mt"));
//! assert!(launch.duration.is_some());
//! ```

pub mod json;

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifier of a span within one recorder. `0` is reserved for the
/// no-op recorder (it never allocates ids).
pub type SpanId = u64;

/// A 128-bit request-scoped trace identifier, rendered as 32 lowercase
/// hex digits (the `x-grover-trace-id` wire format). `0` is not a valid
/// trace id — [`TraceId::parse`] rejects it and [`TraceId::mint`] never
/// produces it — so recorders can treat "all-zero" as "absent".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(pub u128);

impl TraceId {
    /// Mint a fresh id: 128 bits mixed from the wall clock, a process-wide
    /// counter and two independently-keyed SipHash rounds (`RandomState`).
    /// Collision-resistant enough for correlating traces; not a secret.
    pub fn mint() -> TraceId {
        use std::collections::hash_map::RandomState;
        use std::hash::{BuildHasher, Hasher};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let mut h1 = RandomState::new().build_hasher();
        h1.write_u128(now);
        h1.write_u64(n);
        let hi = h1.finish();
        let mut h2 = RandomState::new().build_hasher();
        h2.write_u64(hi);
        h2.write_u64(n);
        h2.write_u128(now);
        let lo = h2.finish();
        let id = ((hi as u128) << 64) | lo as u128;
        TraceId(if id == 0 { 1 } else { id })
    }

    /// The 32-hex-digit wire form.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse the 32-hex-digit wire form (case-insensitive). Rejects any
    /// other length, non-hex characters and the all-zero id.
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        match u128::from_str_radix(s, 16) {
            Ok(0) | Err(_) => None,
            Ok(v) => Some(TraceId(v)),
        }
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The request-scoped trace context a serving edge threads through the
/// layers below it: the minted (or inbound) trace id plus the span every
/// nested span should parent under.
#[derive(Clone, Copy, Debug)]
pub struct TraceCtx {
    /// The request's trace id.
    pub trace: TraceId,
    /// The span to parent nested work under (e.g. the `serve.request`
    /// span).
    pub parent: SpanId,
}

/// A typed attribute value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Render as JSON (strings escaped, non-finite floats as `null`).
    pub fn to_json(&self) -> String {
        match self {
            Value::Str(s) => json::escape(s),
            Value::I64(v) => v.to_string(),
            Value::U64(v) => v.to_string(),
            Value::F64(v) => json::number(*v),
            Value::Bool(v) => if *v { "true" } else { "false" }.to_string(),
        }
    }

    /// The value as `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as `&str`, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

/// Consumer of spans and events. All methods default to no-ops so a
/// disabled recorder pays nothing; implementations must be thread-safe
/// (`Send + Sync`) — spans may start, annotate and end on different
/// threads.
pub trait Recorder: Send + Sync {
    /// Whether this recorder actually consumes records. Instrumented code
    /// checks this before *constructing* attributes (which may allocate);
    /// the recording calls themselves are safe to make regardless.
    fn enabled(&self) -> bool {
        false
    }

    /// Open a span. Wall-time starts now.
    fn span_start(&self, _name: &str, _parent: Option<SpanId>) -> SpanId {
        0
    }

    /// Attach an attribute to an open span.
    fn span_attr(&self, _span: SpanId, _key: &str, _value: Value) {}

    /// Close a span. Wall-time stops now.
    fn span_end(&self, _span: SpanId) {}

    /// Record a point-in-time event, optionally attached to a span.
    fn event(&self, _name: &str, _span: Option<SpanId>, _attrs: &[(&str, Value)]) {}

    /// Bind `span` (and, transitively, every span started under it *after*
    /// this call, plus every event attached to them) to a trace id.
    /// Recorders that persist records propagate the id parent→child at
    /// [`Recorder::span_start`], so a serving edge only tags its root
    /// span. Defaults to a no-op.
    fn set_trace(&self, _span: SpanId, _trace: TraceId) {}

    /// The trace id `span` is bound to (directly or by inheritance), for
    /// recorders that track traces. Defaults to `None`.
    fn trace_of(&self, _span: SpanId) -> Option<TraceId> {
        None
    }

    /// Flush any buffered records to their destination. Long-running
    /// processes (the `grover-serve` server) call this on graceful
    /// shutdown and at checkpoints; recorders that buffer (e.g.
    /// [`JsonlRecorder`] over a `BufWriter`) must make everything
    /// recorded so far durable. Defaults to a no-op.
    fn flush(&self) {}
}

/// Discards everything ([`Recorder::enabled`] is `false`).
#[derive(Default, Clone, Copy, Debug)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// The shared no-op recorder instance: the default for every
/// instrumented API that takes a `&dyn Recorder`.
pub static NOOP: NoopRecorder = NoopRecorder;

/// One finished (or still-open) span, as captured by [`MemoryRecorder`].
#[derive(Clone, Debug)]
pub struct Span {
    /// Recorder-unique id.
    pub id: SpanId,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Span name (e.g. `launch`, `tune`, `grover.pass`).
    pub name: String,
    /// The trace this span belongs to — set via [`Recorder::set_trace`]
    /// on this span or inherited from the parent at start.
    pub trace: Option<TraceId>,
    /// Start offset from the recorder's creation.
    pub start: Duration,
    /// Wall-time from start to [`Recorder::span_end`]; `None` while open.
    pub duration: Option<Duration>,
    /// Typed attributes, in recording order.
    pub attrs: Vec<(String, Value)>,
}

impl Span {
    /// Look up an attribute by key (last write wins).
    pub fn attr(&self, key: &str) -> Option<&Value> {
        self.attrs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Attribute as `u64`.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attr(key).and_then(Value::as_u64)
    }

    /// Attribute as `&str`.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        self.attr(key).and_then(Value::as_str)
    }
}

/// One event, as captured by [`MemoryRecorder`].
#[derive(Clone, Debug)]
pub struct Event {
    /// Event name.
    pub name: String,
    /// Span it was attached to, if any.
    pub span: Option<SpanId>,
    /// Trace inherited from the attached span at recording time.
    pub trace: Option<TraceId>,
    /// Typed attributes, in recording order.
    pub attrs: Vec<(String, Value)>,
}

impl Event {
    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&Value> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Everything a [`MemoryRecorder`] has seen, cloned out for inspection.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// All spans, in start order (open spans have `duration: None`).
    pub spans: Vec<Span>,
    /// All events, in recording order.
    pub events: Vec<Event>,
}

impl Snapshot {
    /// First span with this name.
    pub fn span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// All spans with this name.
    pub fn spans_named(&self, name: &str) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// All events with this name.
    pub fn events_named(&self, name: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.name == name).collect()
    }
}

#[derive(Default)]
struct MemoryState {
    spans: Vec<Span>,
    events: Vec<Event>,
}

/// Buffers every span and event in memory; [`MemoryRecorder::snapshot`]
/// clones them out. Intended for tests and programmatic inspection of
/// small traces.
pub struct MemoryRecorder {
    epoch: Instant,
    next_id: AtomicU64,
    state: Mutex<MemoryState>,
}

impl Default for MemoryRecorder {
    fn default() -> MemoryRecorder {
        MemoryRecorder::new()
    }
}

impl MemoryRecorder {
    /// An empty recorder; time zero is now.
    pub fn new() -> MemoryRecorder {
        MemoryRecorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            state: Mutex::new(MemoryState::default()),
        }
    }

    /// Clone out everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let s = self.state.lock().expect("recorder poisoned");
        Snapshot {
            spans: s.spans.clone(),
            events: s.events.clone(),
        }
    }
}

fn own_attrs(attrs: &[(&str, Value)]) -> Vec<(String, Value)> {
    attrs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

impl Recorder for MemoryRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let mut s = self.state.lock().expect("recorder poisoned");
        let trace = parent
            .and_then(|p| s.spans.iter().rev().find(|sp| sp.id == p))
            .and_then(|sp| sp.trace);
        s.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            trace,
            start,
            duration: None,
            attrs: Vec::new(),
        });
        id
    }

    fn span_attr(&self, span: SpanId, key: &str, value: Value) {
        let mut s = self.state.lock().expect("recorder poisoned");
        if let Some(sp) = s.spans.iter_mut().find(|sp| sp.id == span) {
            sp.attrs.push((key.to_string(), value));
        }
    }

    fn span_end(&self, span: SpanId) {
        let now = self.epoch.elapsed();
        let mut s = self.state.lock().expect("recorder poisoned");
        if let Some(sp) = s.spans.iter_mut().find(|sp| sp.id == span) {
            if sp.duration.is_none() {
                sp.duration = Some(now.saturating_sub(sp.start));
            }
        }
    }

    fn event(&self, name: &str, span: Option<SpanId>, attrs: &[(&str, Value)]) {
        let mut s = self.state.lock().expect("recorder poisoned");
        let trace = span
            .and_then(|p| s.spans.iter().rev().find(|sp| sp.id == p))
            .and_then(|sp| sp.trace);
        s.events.push(Event {
            name: name.to_string(),
            span,
            trace,
            attrs: own_attrs(attrs),
        });
    }

    fn set_trace(&self, span: SpanId, trace: TraceId) {
        let mut s = self.state.lock().expect("recorder poisoned");
        if let Some(sp) = s.spans.iter_mut().rev().find(|sp| sp.id == span) {
            sp.trace = Some(trace);
        }
    }

    fn trace_of(&self, span: SpanId) -> Option<TraceId> {
        let s = self.state.lock().expect("recorder poisoned");
        s.spans
            .iter()
            .rev()
            .find(|sp| sp.id == span)
            .and_then(|sp| sp.trace)
    }
}

struct OpenSpan {
    name: String,
    parent: Option<SpanId>,
    trace: Option<TraceId>,
    start: Instant,
    attrs: Vec<(String, Value)>,
}

struct JsonlState<W> {
    out: W,
    open: HashMap<SpanId, OpenSpan>,
}

/// Streams the trace as JSON Lines: one self-contained object per line.
///
/// * spans (written at `span_end`):
///   `{"type":"span","span_id":N,"name":"...","start_us":N,"dur_us":N,"trace_id":"..."|null,"parent_id":N|null,"attrs":{...}}`
/// * events (written immediately):
///   `{"type":"event","name":"...","span_id":N|null,"trace_id":"..."|null,"attrs":{...}}`
///
/// Every line carries `type`, `name` and `attrs` — the stable keys the CI
/// trace validator checks. Write errors are swallowed: telemetry must
/// never take down the run it observes.
pub struct JsonlRecorder<W: Write + Send> {
    epoch: Instant,
    next_id: AtomicU64,
    state: Mutex<JsonlState<W>>,
}

impl<W: Write + Send> JsonlRecorder<W> {
    /// Record into `out` (wrap files in a `BufWriter`).
    pub fn new(out: W) -> JsonlRecorder<W> {
        JsonlRecorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            state: Mutex::new(JsonlState {
                out,
                open: HashMap::new(),
            }),
        }
    }
}

fn attrs_json(attrs: &[(String, Value)]) -> String {
    let mut obj = json::Obj::new();
    for (k, v) in attrs {
        obj = obj.raw(k, &v.to_json());
    }
    obj.finish()
}

/// Render one JSONL span line — the exact format [`JsonlRecorder`] emits.
/// Shared with out-of-crate recorders (the serve flight recorder) so every
/// JSONL surface stays byte-compatible. The returned string has no
/// trailing newline.
pub fn span_line(
    id: SpanId,
    name: &str,
    parent: Option<SpanId>,
    trace: Option<TraceId>,
    start_us: u64,
    dur_us: u64,
    attrs: &[(String, Value)],
) -> String {
    let mut obj = json::Obj::new()
        .str("type", "span")
        .u64("span_id", id)
        .str("name", name)
        .u64("start_us", start_us)
        .u64("dur_us", dur_us);
    obj = match trace {
        Some(t) => obj.str("trace_id", &t.to_hex()),
        None => obj.null("trace_id"),
    };
    obj = match parent {
        Some(p) => obj.u64("parent_id", p),
        None => obj.null("parent_id"),
    };
    obj.raw("attrs", &attrs_json(attrs)).finish()
}

/// Render one JSONL event line (see [`span_line`]); no trailing newline.
pub fn event_line(
    name: &str,
    span: Option<SpanId>,
    trace: Option<TraceId>,
    attrs: &[(String, Value)],
) -> String {
    let mut obj = json::Obj::new().str("type", "event").str("name", name);
    obj = match span {
        Some(p) => obj.u64("span_id", p),
        None => obj.null("span_id"),
    };
    obj = match trace {
        Some(t) => obj.str("trace_id", &t.to_hex()),
        None => obj.null("trace_id"),
    };
    obj.raw("attrs", &attrs_json(attrs)).finish()
}

impl<W: Write + Send> Recorder for JsonlRecorder<W> {
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut s = self.state.lock().expect("recorder poisoned");
        let trace = parent.and_then(|p| s.open.get(&p)).and_then(|sp| sp.trace);
        s.open.insert(
            id,
            OpenSpan {
                name: name.to_string(),
                parent,
                trace,
                start: Instant::now(),
                attrs: Vec::new(),
            },
        );
        id
    }

    fn span_attr(&self, span: SpanId, key: &str, value: Value) {
        let mut s = self.state.lock().expect("recorder poisoned");
        if let Some(sp) = s.open.get_mut(&span) {
            sp.attrs.push((key.to_string(), value));
        }
    }

    fn span_end(&self, span: SpanId) {
        let mut s = self.state.lock().expect("recorder poisoned");
        let Some(sp) = s.open.remove(&span) else {
            return;
        };
        let mut line = span_line(
            span,
            &sp.name,
            sp.parent,
            sp.trace,
            sp.start.duration_since(self.epoch).as_micros() as u64,
            sp.start.elapsed().as_micros() as u64,
            &sp.attrs,
        );
        line.push('\n');
        // One `write_all` per line: the emission itself is atomic, so even
        // a writer shared beyond this recorder's lock never sees torn
        // lines.
        let _ = s.out.write_all(line.as_bytes());
    }

    fn event(&self, name: &str, span: Option<SpanId>, attrs: &[(&str, Value)]) {
        let mut s = self.state.lock().expect("recorder poisoned");
        let trace = span.and_then(|p| s.open.get(&p)).and_then(|sp| sp.trace);
        let mut line = event_line(name, span, trace, &own_attrs(attrs));
        line.push('\n');
        let _ = s.out.write_all(line.as_bytes());
    }

    fn set_trace(&self, span: SpanId, trace: TraceId) {
        let mut s = self.state.lock().expect("recorder poisoned");
        if let Some(sp) = s.open.get_mut(&span) {
            sp.trace = Some(trace);
        }
    }

    fn trace_of(&self, span: SpanId) -> Option<TraceId> {
        let s = self.state.lock().expect("recorder poisoned");
        s.open.get(&span).and_then(|sp| sp.trace)
    }

    fn flush(&self) {
        if let Ok(mut s) = self.state.lock() {
            let _ = s.out.flush();
        }
    }
}

/// Dropping the recorder flushes, so a trace file is never truncated
/// mid-line by a normal exit; for long-running servers call
/// [`Recorder::flush`] explicitly at shutdown/checkpoints as well, since
/// `Drop` cannot run on an abrupt kill.
impl<W: Write + Send> Drop for JsonlRecorder<W> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// RAII helper: opens a span on creation, closes it on drop. Borrow-based,
/// so it nests naturally inside one stage; pass raw [`SpanId`]s across
/// threads or stages instead.
pub struct SpanGuard<'a> {
    rec: &'a dyn Recorder,
    id: SpanId,
}

impl<'a> SpanGuard<'a> {
    /// Open `name` under `parent` on `rec`.
    pub fn open(rec: &'a dyn Recorder, name: &str, parent: Option<SpanId>) -> SpanGuard<'a> {
        SpanGuard {
            rec,
            id: rec.span_start(name, parent),
        }
    }

    /// The underlying span id (e.g. to parent child spans).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Attach an attribute.
    pub fn attr(&self, key: &str, value: impl Into<Value>) {
        self.rec.span_attr(self.id, key, value.into());
    }

    /// Record an event attached to this span.
    pub fn event(&self, name: &str, attrs: &[(&str, Value)]) {
        self.rec.event(name, Some(self.id), attrs);
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.rec.span_end(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_free() {
        assert!(!NOOP.enabled());
        let id = NOOP.span_start("x", None);
        assert_eq!(id, 0);
        NOOP.span_attr(id, "k", 1u64.into());
        NOOP.event("e", Some(id), &[]);
        NOOP.span_end(id);
    }

    #[test]
    fn memory_recorder_captures_hierarchy() {
        let rec = MemoryRecorder::new();
        let root = rec.span_start("tune", None);
        let child = rec.span_start("launch", Some(root));
        rec.span_attr(child, "kernel", "mt".into());
        rec.event("worker", Some(child), &[("groups", 3u64.into())]);
        rec.span_end(child);
        rec.span_end(root);

        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let launch = snap.span("launch").unwrap();
        assert_eq!(launch.parent, Some(root));
        assert_eq!(launch.attr_str("kernel"), Some("mt"));
        assert!(launch.duration.is_some());
        let ev = &snap.events_named("worker")[0];
        assert_eq!(ev.attr("groups").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn memory_recorder_is_thread_safe() {
        let rec = MemoryRecorder::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let rec = &rec;
                s.spawn(move || {
                    for i in 0..50 {
                        let id = rec.span_start("w", None);
                        rec.span_attr(id, "t", (t as u64).into());
                        rec.event("tick", Some(id), &[("i", (i as u64).into())]);
                        rec.span_end(id);
                    }
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 200);
        assert_eq!(snap.events.len(), 200);
        assert!(snap.spans.iter().all(|s| s.duration.is_some()));
    }

    #[test]
    fn jsonl_emits_one_object_per_line() {
        let buf: Vec<u8> = Vec::new();
        let rec = JsonlRecorder::new(buf);
        let root = rec.span_start("tune", None);
        rec.span_attr(root, "device", "SNB".into());
        rec.event(
            "decision",
            Some(root),
            &[("np", 1.3f64.into()), ("choice", "without".into())],
        );
        rec.span_end(root);

        let out = {
            let s = rec.state.lock().unwrap();
            String::from_utf8(s.out.clone()).unwrap()
        };
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"type\":"), "{line}");
            assert!(line.contains("\"name\":"), "{line}");
            assert!(line.contains("\"attrs\":{"), "{line}");
        }
        assert!(lines[0].contains("\"type\":\"event\""));
        assert!(lines[1].contains("\"type\":\"span\""));
        assert!(lines[1].contains("\"device\":\"SNB\""));
    }

    #[test]
    fn dropped_recorder_leaves_only_complete_json_lines() {
        // Regression: a `JsonlRecorder` over a `BufWriter<File>` must
        // flush on drop, otherwise a trace from a shutting-down process
        // ends mid-line. Write well past the BufWriter's 8 KiB default
        // buffer so an unflushed tail would be visible.
        let path = std::env::temp_dir().join(format!(
            "grover-obs-flush-test-{}.jsonl",
            std::process::id()
        ));
        let events = 500usize;
        {
            let f = std::fs::File::create(&path).unwrap();
            let rec = JsonlRecorder::new(std::io::BufWriter::new(f));
            for i in 0..events {
                rec.event(
                    "tick",
                    None,
                    &[("i", (i as u64).into()), ("pad", "x".repeat(40).into())],
                );
            }
        } // drop: must flush
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events, "all events durable after drop");
        for line in lines {
            json::parse(line).unwrap_or_else(|e| panic!("incomplete line `{line}`: {e}"));
        }
    }

    #[test]
    fn explicit_flush_makes_records_durable_without_drop() {
        let path = std::env::temp_dir().join(format!(
            "grover-obs-flush2-test-{}.jsonl",
            std::process::id()
        ));
        let f = std::fs::File::create(&path).unwrap();
        let rec = JsonlRecorder::new(std::io::BufWriter::new(f));
        rec.event("one", None, &[]);
        rec.flush();
        // Recorder still alive — the file must already be complete.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        json::parse(text.lines().next().unwrap()).unwrap();
        drop(rec);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_id_roundtrips_and_rejects_garbage() {
        let t = TraceId::mint();
        assert_eq!(TraceId::parse(&t.to_hex()), Some(t));
        assert_eq!(t.to_hex().len(), 32);
        assert_ne!(TraceId::mint(), TraceId::mint());
        for bad in [
            "",
            "xyz",
            "0123",
            "0123456789abcdef0123456789abcdeg",  // non-hex
            "00000000000000000000000000000000",  // zero reserved
            "0123456789abcdef0123456789abcdef0", // 33 chars
            " 123456789abcdef0123456789abcdef",  // space
        ] {
            assert_eq!(TraceId::parse(bad), None, "{bad:?}");
        }
        // Case-insensitive parse.
        assert_eq!(
            TraceId::parse("00000000000000000000000000000ABC"),
            Some(TraceId(0xabc))
        );
    }

    #[test]
    fn memory_recorder_inherits_trace_parent_to_child_and_events() {
        let rec = MemoryRecorder::new();
        let trace = TraceId::mint();
        let root = rec.span_start("serve.request", None);
        rec.set_trace(root, trace);
        let tune = rec.span_start("tune", Some(root));
        let launch = rec.span_start("launch", Some(tune));
        rec.event("decision", Some(tune), &[]);
        rec.event("orphan", None, &[]);
        rec.span_end(launch);
        rec.span_end(tune);
        rec.span_end(root);

        assert_eq!(rec.trace_of(launch), Some(trace));
        let snap = rec.snapshot();
        for name in ["serve.request", "tune", "launch"] {
            assert_eq!(snap.span(name).unwrap().trace, Some(trace), "{name}");
        }
        assert_eq!(snap.events_named("decision")[0].trace, Some(trace));
        assert_eq!(snap.events_named("orphan")[0].trace, None);
    }

    #[test]
    fn jsonl_lines_carry_trace_span_and_parent_ids() {
        let rec = JsonlRecorder::new(Vec::new());
        let trace = TraceId(0xdead_beef);
        let root = rec.span_start("serve.request", None);
        rec.set_trace(root, trace);
        let child = rec.span_start("launch", Some(root));
        rec.event("worker", Some(child), &[]);
        rec.span_end(child);
        rec.span_end(root);

        let out = {
            let s = rec.state.lock().unwrap();
            String::from_utf8(s.out.clone()).unwrap()
        };
        let hex = trace.to_hex();
        for line in out.lines() {
            let v = json::parse(line).unwrap();
            assert_eq!(v.str_of("trace_id"), Some(hex.as_str()), "{line}");
            assert!(v.get("span_id").is_some(), "{line}");
            // Only the `_id` keys: the bare `id`/`parent`/`span` spellings
            // are gone.
            for old in ["id", "parent", "span"] {
                assert!(v.get(old).is_none(), "`{old}` in {line}");
            }
        }
        let spans: Vec<_> = out
            .lines()
            .map(|l| json::parse(l).unwrap())
            .filter(|v| v.str_of("type") == Some("span"))
            .collect();
        assert_eq!(spans.len(), 2);
        // Child's parent_id names the root's span_id.
        assert_eq!(spans[0].u64_of("parent_id"), spans[1].u64_of("span_id"));
        assert_eq!(spans[1].get("parent_id"), Some(&json::Json::Null));
    }

    /// A writer that panics unless every single `write` call it receives
    /// is one (or more) complete, newline-terminated JSON lines — a torn
    /// line (an emission split across two `write` calls) fails the test
    /// even though the test never inspects the final buffer.
    struct WholeLineWriter {
        lines: std::sync::Arc<AtomicU64>,
    }

    impl Write for WholeLineWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let text = std::str::from_utf8(buf).expect("utf-8 write");
            assert!(
                text.ends_with('\n'),
                "torn write (no trailing newline): {text:?}"
            );
            for line in text.lines() {
                json::parse(line).unwrap_or_else(|e| panic!("torn JSON line `{line}`: {e}"));
                self.lines.fetch_add(1, Ordering::Relaxed);
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn concurrent_writers_never_tear_jsonl_lines() {
        let lines = std::sync::Arc::new(AtomicU64::new(0));
        let rec = JsonlRecorder::new(WholeLineWriter {
            lines: lines.clone(),
        });
        std::thread::scope(|s| {
            for t in 0..8 {
                let rec = &rec;
                s.spawn(move || {
                    for i in 0..100 {
                        let id = rec.span_start("w", None);
                        rec.set_trace(id, TraceId::mint());
                        rec.span_attr(id, "pad", "y".repeat(64).into());
                        rec.event(
                            "tick",
                            Some(id),
                            &[("t", (t as u64).into()), ("i", (i as u64).into())],
                        );
                        rec.span_end(id);
                    }
                });
            }
        });
        // 8 threads × 100 iterations × (1 event + 1 span) lines.
        assert_eq!(lines.load(Ordering::Relaxed), 1600);
    }

    #[test]
    fn span_guard_closes_on_drop() {
        let rec = MemoryRecorder::new();
        {
            let g = SpanGuard::open(&rec, "launch", None);
            g.attr("groups", 4u64);
            g.event("worker", &[]);
        }
        let snap = rec.snapshot();
        assert!(snap.span("launch").unwrap().duration.is_some());
    }
}
