//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end, the span that encloses it on the
//! same thread, and an optional batch id (so a staged batch and the event
//! that made it visible can be joined). Spans are kept in memory and
//! written out once, when the run ends. With tracing off, `span` returns
//! an inert guard and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// One recorded span; `start_ns`/`end_ns` count from the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub thread: u64,
    pub name: &'static str,
    pub batch: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Closes its span when dropped.
pub struct Guard {
    open: Option<Open>,
}

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    batch: Option<u64>,
    start: Instant,
}

pub fn span(name: &'static str) -> Guard {
    span_batch(name, None)
}

/// A span tagged with the batch it serves.
pub fn span_batch(name: &'static str, batch: Option<u64>) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Guard {
        open: Some(Open {
            id,
            parent,
            name,
            batch,
            start: Instant::now(),
        }),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| s.borrow_mut().pop());
        push(Span {
            id: open.id,
            parent: open.parent,
            thread: THREAD.with(|t| *t),
            name: open.name,
            batch: open.batch,
            start_ns: ns_since_epoch(open.start),
            end_ns: ns_since_epoch(end),
        });
    }
}

/// A zero-length span at `at`, e.g. the moment a batch became visible.
pub fn event_at(name: &'static str, batch: Option<u64>, at: Instant) {
    if !enabled() {
        return;
    }
    let t = ns_since_epoch(at);
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: None,
        thread: THREAD.with(|t| *t),
        name,
        batch,
        start_ns: t,
        end_ns: t,
    });
}

fn push(span: Span) {
    SPANS.lock().expect("span store poisoned").push(span);
}

/// Takes every span recorded so far, leaving the store empty.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Per-name totals: `(count, total_ms, self_ms)`. Self time is a span's
/// duration minus the time its child spans cover; children of one span
/// run on its thread and never overlap, so their durations add up.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur as f64 / 1e6;
        e.2 += own as f64 / 1e6;
    }
    out
}

/// Writes the span file: a header line, one line per span-name summary,
/// then one JSON line per span.
pub fn write_file(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96 + 1024);
    out.push_str(header);
    out.push('\n');
    for (name, (count, total, own)) in summarize(spans) {
        let _ = writeln!(
            out,
            "{{\"summary\":\"{name}\",\"count\":{count},\"total_ms\":{total:.6},\"self_ms\":{own:.6}}}"
        );
    }
    for s in spans {
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.thread,
            s.name,
            s.start_ns,
            s.end_ns
        );
        if let Some(b) = s.batch {
            let _ = write!(out, ",\"batch\":{b}");
        }
        out.push_str("}\n");
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
