//! The span/event tracer: JSONL records buffered per thread, drained to a
//! pluggable sink.
//!
//! With no sink installed and the flight recorder disarmed ([`enabled`] is
//! false) every call site collapses to one relaxed atomic load — spans
//! return a no-op guard, events return immediately.  Install a sink
//! ([`install_sink`]) or arm the flight recorder ([`crate::flight::arm`])
//! to turn record production on process-wide; records reach the sink only
//! while one is installed, and reach the flight ring only while it is
//! armed.
//!
//! Records are flat JSON objects, one per line:
//!
//! ```text
//! {"type":"span_open","id":7,"parent":3,"name":"solve","thread":2,"ts_us":123,...}
//! {"type":"span_close","id":7,"name":"solve","thread":2,"ts_us":456,"dur_us":333}
//! {"type":"event","name":"solver.heartbeat","parent":7,"thread":2,"ts_us":300,...}
//! ```
//!
//! `id` is process-unique; `parent` is the id of the innermost span open on
//! the emitting thread (0 for roots).  `ts_us` counts microseconds since the
//! first trace record of the process.  Span guards may be moved across
//! threads; the close record is emitted wherever the guard is dropped, and
//! open/close records pair by `id` (what [`crate::check_trace`] verifies).

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// Recomputes the [`enabled`] gate: records are produced while a sink is
/// installed *or* the flight recorder is armed ([`crate::flight::arm`]).
pub(crate) fn refresh_enabled() {
    ENABLED.store(
        SINK_ACTIVE.load(Ordering::SeqCst) || crate::flight::armed(),
        Ordering::SeqCst,
    );
}

/// How many buffered lines a thread accumulates before draining to the sink.
const FLUSH_THRESHOLD: usize = 128;

/// Where drained trace lines go.  Implementations must tolerate concurrent
/// `write` calls from several threads.
pub trait TraceSink: Send + Sync {
    /// Appends the given JSONL lines (no trailing newlines included).
    fn write(&self, lines: &[String]);
    /// Flushes any buffering the sink itself does.
    fn flush(&self) {}
}

/// A [`TraceSink`] appending lines to a file (JSONL).
pub struct JsonlFileSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlFileSink {
    /// Creates (truncating) the trace file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlFileSink> {
        Ok(JsonlFileSink {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl TraceSink for JsonlFileSink {
    fn write(&self, lines: &[String]) {
        let mut out = self.out.lock().expect("trace file lock");
        for line in lines {
            let _ = writeln!(out, "{line}");
        }
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("trace file lock").flush();
    }
}

/// A [`TraceSink`] collecting lines in memory (for tests).
#[derive(Default)]
pub struct MemorySink {
    lines: Mutex<Vec<String>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A copy of the collected lines.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("memory sink lock").clone()
    }

    /// The collected lines joined as one JSONL document.
    pub fn contents(&self) -> String {
        self.lines().join("\n")
    }
}

impl TraceSink for MemorySink {
    fn write(&self, lines: &[String]) {
        self.lines
            .lock()
            .expect("memory sink lock")
            .extend_from_slice(lines);
    }
}

fn sink_slot() -> &'static Mutex<Option<Arc<dyn TraceSink>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<dyn TraceSink>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

type SharedBuffer = Arc<Mutex<Vec<String>>>;
type BufferRegistry = Mutex<Vec<Weak<Mutex<Vec<String>>>>>;

/// Every live thread buffer, so [`flush`] can drain threads other than the
/// caller's (e.g. worker threads at `velvd` shutdown).
fn buffer_registry() -> &'static BufferRegistry {
    static REGISTRY: OnceLock<BufferRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

struct ThreadTrace {
    id: u64,
    buffer: SharedBuffer,
    stack: RefCell<Vec<u64>>,
}

impl ThreadTrace {
    fn new() -> ThreadTrace {
        let buffer: SharedBuffer = Arc::new(Mutex::new(Vec::new()));
        let mut registry = buffer_registry().lock().expect("trace buffer registry");
        registry.retain(|weak| weak.strong_count() > 0);
        registry.push(Arc::downgrade(&buffer));
        drop(registry);
        ThreadTrace {
            id: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            buffer,
            stack: RefCell::new(Vec::new()),
        }
    }
}

impl Drop for ThreadTrace {
    fn drop(&mut self) {
        drain_buffer(&self.buffer);
    }
}

thread_local! {
    static THREAD: ThreadTrace = ThreadTrace::new();
}

fn drain_buffer(buffer: &SharedBuffer) {
    let lines: Vec<String> = {
        let mut locked = buffer.lock().expect("trace buffer lock");
        std::mem::take(&mut *locked)
    };
    if lines.is_empty() {
        return;
    }
    let sink = sink_slot().lock().expect("trace sink lock").clone();
    if let Some(sink) = sink {
        sink.write(&lines);
    }
}

fn emit(line: String) {
    crate::flight::record(&line);
    if !SINK_ACTIVE.load(Ordering::Relaxed) {
        // Flight-only mode: the ring has the record; skip the sink buffers.
        return;
    }
    // `try_with`: a record emitted while this thread's TLS is already being
    // torn down is silently dropped instead of panicking.
    let _ = THREAD.try_with(|thread| {
        let full = {
            let mut buffer = thread.buffer.lock().expect("trace buffer lock");
            buffer.push(line);
            buffer.len() >= FLUSH_THRESHOLD
        };
        if full {
            drain_buffer(&thread.buffer);
        }
    });
}

/// Whether trace records are being produced — a sink is installed or the
/// flight recorder is armed.  One relaxed load; the gate every
/// instrumentation site checks first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs the process-wide trace sink and turns tracing on.  Replacing an
/// existing sink flushes it first.
pub fn install_sink(sink: Arc<dyn TraceSink>) {
    flush();
    *sink_slot().lock().expect("trace sink lock") = Some(sink);
    SINK_ACTIVE.store(true, Ordering::SeqCst);
    refresh_enabled();
}

/// Stops feeding the sink, drains every thread buffer into it, flushes it,
/// and uninstalls it.  Tracing stays on if the flight recorder is armed
/// (records then go to the ring only).
pub fn uninstall_sink() {
    SINK_ACTIVE.store(false, Ordering::SeqCst);
    refresh_enabled();
    flush();
    *sink_slot().lock().expect("trace sink lock") = None;
}

/// Drains every live thread buffer into the installed sink and flushes the
/// sink.  Called at graceful shutdown so killed runs keep their telemetry
/// tail; cheap when tracing is off.
pub fn flush() {
    let buffers: Vec<SharedBuffer> = {
        let mut registry = buffer_registry().lock().expect("trace buffer registry");
        registry.retain(|weak| weak.strong_count() > 0);
        registry.iter().filter_map(Weak::upgrade).collect()
    };
    for buffer in buffers {
        drain_buffer(&buffer);
    }
    let sink = sink_slot().lock().expect("trace sink lock").clone();
    if let Some(sink) = sink {
        sink.flush();
    }
}

/// A typed field value attached to spans and events.
#[derive(Clone, Debug)]
pub enum FieldValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
}

impl FieldValue {
    fn render_into(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => out.push_str(&v.to_string()),
            FieldValue::I64(v) => out.push_str(&v.to_string()),
            FieldValue::F64(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            FieldValue::Str(s) => {
                out.push('"');
                crate::json::escape_into(out, s);
                out.push('"');
            }
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

fn push_fields(out: &mut String, fields: &[(&str, FieldValue)]) {
    for (key, value) in fields {
        out.push_str(",\"");
        crate::json::escape_into(out, key);
        out.push_str("\":");
        value.render_into(out);
    }
}

/// The id of the innermost span open on this thread, or 0.  Capture it
/// before spawning a thread and pass it to [`span_child_of`] to keep the
/// parent/child chain across the spawn.
pub fn current_span_id() -> u64 {
    if !enabled() {
        return 0;
    }
    THREAD
        .try_with(|thread| thread.stack.borrow().last().copied().unwrap_or(0))
        .unwrap_or(0)
}

/// An open span; emits the matching `span_close` record (with duration) on
/// drop.  Obtained from [`span`], [`span_fields`] or [`span_child_of`]; a
/// guard with id 0 is the disabled no-op.
#[must_use = "a span measures the scope holding its guard"]
pub struct SpanGuard {
    id: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    /// The span id (0 when tracing was disabled at open time).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let _ = THREAD.try_with(|thread| {
            // LIFO pop when possible; scan-remove tolerates guards moved
            // across threads or dropped out of order.
            let mut stack = thread.stack.borrow_mut();
            if stack.last() == Some(&self.id) {
                stack.pop();
            } else if let Some(position) = stack.iter().position(|&id| id == self.id) {
                stack.remove(position);
            }
            drop(stack);
            let duration = self
                .start
                .map(|s| s.elapsed().as_micros() as u64)
                .unwrap_or(0);
            let line = format!(
                "{{\"type\":\"span_close\",\"id\":{},\"name\":\"{}\",\"thread\":{},\"ts_us\":{},\"dur_us\":{}}}",
                self.id,
                self.name,
                thread.id,
                now_us(),
                duration
            );
            emit(line);
        });
    }
}

fn open_span(name: &'static str, parent: Option<u64>, fields: &[(&str, FieldValue)]) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: 0,
            name,
            start: None,
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD.try_with(|thread| {
        let parent = parent.unwrap_or_else(|| thread.stack.borrow().last().copied().unwrap_or(0));
        thread.stack.borrow_mut().push(id);
        let mut line = format!(
            "{{\"type\":\"span_open\",\"id\":{id},\"parent\":{parent},\"name\":\"{name}\",\"thread\":{},\"ts_us\":{}",
            thread.id,
            now_us()
        );
        push_fields(&mut line, fields);
        line.push('}');
        emit(line);
    });
    SpanGuard {
        id,
        name,
        start: Some(Instant::now()),
    }
}

/// Opens a span nested under the innermost open span of this thread.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: 0,
            name,
            start: None,
        };
    }
    open_span(name, None, &[])
}

/// Opens a span with attached fields.
#[inline]
pub fn span_fields(name: &'static str, fields: &[(&str, FieldValue)]) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: 0,
            name,
            start: None,
        };
    }
    open_span(name, None, fields)
}

/// Opens a span with an explicit parent id (0 for a root) — the cross-thread
/// variant; see [`current_span_id`].
pub fn span_child_of(name: &'static str, parent: u64, fields: &[(&str, FieldValue)]) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: 0,
            name,
            start: None,
        };
    }
    open_span(name, Some(parent), fields)
}

/// Emits a point event, parented to the innermost open span of this thread.
pub fn event(name: &str, fields: &[(&str, FieldValue)]) {
    if !enabled() {
        return;
    }
    let _ = THREAD.try_with(|thread| {
        let parent = thread.stack.borrow().last().copied().unwrap_or(0);
        let mut line = String::from("{\"type\":\"event\",\"name\":\"");
        crate::json::escape_into(&mut line, name);
        line.push_str(&format!(
            "\",\"parent\":{parent},\"thread\":{},\"ts_us\":{}",
            thread.id,
            now_us()
        ));
        push_fields(&mut line, fields);
        line.push('}');
        emit(line);
    });
}
