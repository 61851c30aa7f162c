//! In-memory spans around the benchmark's calls into each layer.
//!
//! The traced run records one span per call (or per batch of `ops`
//! calls, for calls too short to time one by one): name, start, end,
//! parent and thread. Spans stay in memory while the run measures and
//! are written out as JSON lines when it ends. The per-layer metrics
//! are read back from them by name.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    thread: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    ops: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    epoch();
    ON.store(true, Ordering::Relaxed);
}

fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Runs `f` inside a span called `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_n(name, 1, f)
}

/// Runs `f` — a batch of `ops` calls — inside one span called `name`.
/// With recording off, just runs `f`.
pub fn span_n<R>(name: &'static str, ops: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    STACK.with(|s| s.borrow_mut().pop());
    let base = epoch();
    let span = Span {
        id,
        parent,
        thread: THREAD.with(|t| *t),
        name,
        start_ns: start.duration_since(base).as_nanos() as u64,
        end_ns: end.duration_since(base).as_nanos() as u64,
        ops,
    };
    SPANS.lock().expect("span store poisoned").push(span);
    out
}

/// Per-op durations (ns) of every recorded span called `name`.
pub fn per_op_ns(name: &str) -> Vec<f64> {
    SPANS
        .lock()
        .expect("span store poisoned")
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / s.ops.max(1) as f64)
        .collect()
}

/// A table of span count, total and self time per span name: a span's
/// self time is its duration minus what its child spans cover.
pub fn rollup_table() -> Vec<String> {
    let mut lines = vec![format!(
        "{:<36} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    )];
    for (name, (count, total, own)) in rollup() {
        lines.push(format!(
            "{name:<36} {count:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    lines
}

fn rollup() -> BTreeMap<&'static str, (u64, u64, u64)> {
    let spans = SPANS.lock().expect("span store poisoned");
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans.iter() {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += own;
    }
    out
}

/// Writes every span as one JSON line; returns how many.
pub fn write(path: &Path) -> std::io::Result<usize> {
    let spans = SPANS.lock().expect("span store poisoned");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"ops\":{}}}",
            s.id, s.parent, s.thread, s.name, s.start_ns, s.end_ns, s.ops
        )?;
    }
    out.flush()?;
    Ok(spans.len())
}

/// Records a span measured by other means (e.g. between two markers a
/// sink saw), under the current span if any.
pub fn record(name: &'static str, start: Instant, end: Instant, ops: u64) {
    if !enabled() {
        return;
    }
    let base = epoch();
    let span = Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: STACK.with(|s| s.borrow().last().copied().unwrap_or(0)),
        thread: THREAD.with(|t| *t),
        name,
        start_ns: start.saturating_duration_since(base).as_nanos() as u64,
        end_ns: end.saturating_duration_since(base).as_nanos() as u64,
        ops,
    };
    SPANS.lock().expect("span store poisoned").push(span);
}
