//! Hierarchical spans: RAII guards recording into thread-local buffers.
//!
//! Each thread that records spans registers one buffer in a global
//! registry on first use; the buffer outlives the thread (it is held
//! by an `Arc`), so spans recorded by short-lived pool workers survive
//! until [`take_spans`] collects them. Guards are strictly nested by
//! construction (RAII), so each thread's `(seq, depth)` order is its
//! span tree — no re-sorting by wall time is ever needed.

use std::borrow::Cow;
use std::fmt::Display;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Global span gate. Off by default: every instrumentation point then
/// costs one relaxed load and a branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span recording on or off process-wide.
pub fn enable_spans(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether span recording is currently enabled.
#[inline]
pub fn spans_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide monotonic epoch all span timestamps are relative
/// to (fixed at the first span-related call).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch (monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One finished span (or instant event) as recorded by a guard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Category (fixed per instrumentation site: `"runtime"`, `"log"`,
    /// `"replay"`, `"cache"`, `"race"`, `"lint"`, `"pool"`, …).
    pub cat: &'static str,
    /// Span name; `Cow` so hot sites can pass `&'static str`.
    pub name: Cow<'static, str>,
    /// Recording thread's stable id (one Chrome track per tid).
    pub tid: u64,
    /// Per-thread start-order sequence number; sorting by `(tid, seq)`
    /// reconstructs each thread's open order exactly.
    pub seq: u64,
    /// Nesting depth at start (0 = top level on its thread).
    pub depth: u32,
    /// Start, in nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 allowed; unused for instants).
    pub dur_ns: u64,
    /// `true` for point events ([`instant`]) with no duration.
    pub instant: bool,
    /// Key/value annotations (e.g. `("cache", "miss")` on replays).
    /// `Cow` so hot sites can annotate without allocating.
    pub args: Vec<(&'static str, Cow<'static, str>)>,
}

/// Per-thread recording state, kept alive past thread exit by the
/// global registry.
struct ThreadBuf {
    tid: u64,
    name: Mutex<Option<String>>,
    /// Number of currently open spans on this thread. Only the owning
    /// thread mutates it; atomics keep the struct `Sync`.
    depth: AtomicU32,
    /// Start-order counter.
    seq: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static BUF: Arc<ThreadBuf> = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(0);
        let name = std::thread::current().name().map(str::to_owned);
        let buf = Arc::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            name: Mutex::new(name),
            depth: AtomicU32::new(0),
            seq: AtomicU64::new(0),
            records: Mutex::new(Vec::new()),
        });
        registry().lock().unwrap().push(Arc::clone(&buf));
        buf
    };
}

/// Names the current thread's Chrome track (e.g. `"pool-worker-3"`).
pub fn set_thread_name(name: impl Into<String>) {
    BUF.with(|b| *b.name.lock().unwrap() = Some(name.into()));
}

/// An RAII span guard; the span is recorded when the guard drops.
/// A guard created while spans are disabled is a free no-op.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard(Option<ActiveSpan>);

struct ActiveSpan {
    buf: Arc<ThreadBuf>,
    cat: &'static str,
    name: Cow<'static, str>,
    seq: u64,
    depth: u32,
    start_ns: u64,
    args: Vec<(&'static str, Cow<'static, str>)>,
}

impl SpanGuard {
    /// Attaches a key/value annotation (no-op on a disabled guard).
    pub fn arg(&mut self, key: &'static str, value: impl Display) {
        if let Some(a) = &mut self.0 {
            a.args.push((key, Cow::Owned(value.to_string())));
        }
    }

    /// Attaches a static annotation without allocating — for hot sites
    /// (cache probes, warm replays) where formatting would dominate.
    pub fn arg_str(&mut self, key: &'static str, value: &'static str) {
        if let Some(a) = &mut self.0 {
            a.args.push((key, Cow::Borrowed(value)));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(a) = self.0.take() {
            let end = now_ns();
            a.buf.depth.fetch_sub(1, Ordering::Relaxed);
            a.buf.records.lock().unwrap().push(SpanRecord {
                cat: a.cat,
                name: a.name,
                tid: a.buf.tid,
                seq: a.seq,
                depth: a.depth,
                start_ns: a.start_ns,
                dur_ns: end.saturating_sub(a.start_ns),
                instant: false,
                args: a.args,
            });
        }
    }
}

fn start(cat: &'static str, name: Cow<'static, str>) -> SpanGuard {
    let buf = BUF.with(Arc::clone);
    let depth = buf.depth.fetch_add(1, Ordering::Relaxed);
    let seq = buf.seq.fetch_add(1, Ordering::Relaxed);
    SpanGuard(Some(ActiveSpan { buf, cat, name, seq, depth, start_ns: now_ns(), args: Vec::new() }))
}

/// Opens a span with a static name. Free when spans are disabled.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !spans_enabled() {
        return SpanGuard(None);
    }
    start(cat, Cow::Borrowed(name))
}

/// Opens a span with a computed name. Callers should build the name
/// only after checking [`spans_enabled`] if it is expensive.
#[inline]
pub fn span_dyn(cat: &'static str, name: String) -> SpanGuard {
    if !spans_enabled() {
        return SpanGuard(None);
    }
    start(cat, Cow::Owned(name))
}

/// Records a completed span retroactively, from `start_ns` (a
/// [`now_ns`] reading taken when the work began) to now.
///
/// For hot sites that only want a span on one outcome — e.g. cache
/// probes, where a hit should cost a single clock read and only a
/// miss leaves a span. The caller must not open or close other spans
/// on this thread between the `start_ns` reading and this call, or
/// the record's `seq` no longer follows start order.
pub fn record_span_since(cat: &'static str, name: &'static str, start_ns: u64) {
    if !spans_enabled() {
        return;
    }
    let end = now_ns();
    BUF.with(|buf| {
        let seq = buf.seq.fetch_add(1, Ordering::Relaxed);
        buf.records.lock().unwrap().push(SpanRecord {
            cat,
            name: Cow::Borrowed(name),
            tid: buf.tid,
            seq,
            depth: buf.depth.load(Ordering::Relaxed),
            start_ns,
            dur_ns: end.saturating_sub(start_ns),
            instant: false,
            args: Vec::new(),
        });
    });
}

/// Records a point event (Chrome `"i"` phase) at the current time.
pub fn instant(cat: &'static str, name: &'static str) {
    if !spans_enabled() {
        return;
    }
    BUF.with(|buf| {
        let seq = buf.seq.fetch_add(1, Ordering::Relaxed);
        buf.records.lock().unwrap().push(SpanRecord {
            cat,
            name: Cow::Borrowed(name),
            tid: buf.tid,
            seq,
            // Instants sit *inside* all currently open spans.
            depth: buf.depth.load(Ordering::Relaxed),
            start_ns: now_ns(),
            dur_ns: 0,
            instant: true,
            args: Vec::new(),
        });
    });
}

/// Drains every thread's finished spans, sorted by `(tid, seq)` — the
/// order the Chrome writer requires. Spans still open (their guards
/// alive) are not included; they are recorded when their guards drop.
pub fn take_spans() -> Vec<SpanRecord> {
    let bufs: Vec<Arc<ThreadBuf>> = registry().lock().unwrap().clone();
    let mut out = Vec::new();
    for buf in bufs {
        out.append(&mut buf.records.lock().unwrap());
    }
    out.sort_by_key(|r| (r.tid, r.seq));
    out
}

/// Discards every recorded span (used by tests and `stats reset`).
pub fn reset_spans() {
    let bufs: Vec<Arc<ThreadBuf>> = registry().lock().unwrap().clone();
    for buf in bufs {
        buf.records.lock().unwrap().clear();
    }
}

/// `(tid, name)` for every registered thread that has a name.
pub fn thread_names() -> Vec<(u64, String)> {
    let mut out: Vec<(u64, String)> = registry()
        .lock()
        .unwrap()
        .iter()
        .filter_map(|b| b.name.lock().unwrap().clone().map(|n| (b.tid, n)))
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share the process-global enable gate, so they run in
    // one test to avoid cross-test interference.
    #[test]
    fn spans_record_nesting_and_args_and_disable_is_free() {
        reset_spans();
        enable_spans(false);
        {
            let _off = span("t", "disabled");
        }
        assert!(take_spans().is_empty(), "disabled spans record nothing");

        enable_spans(true);
        {
            let _outer = span("t", "outer");
            instant("t", "mark");
            {
                let mut inner = span_dyn("t", format!("inner-{}", 1));
                inner.arg("k", 7);
            }
        }
        enable_spans(false);
        let spans = take_spans();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer recorded");
        let inner = spans.iter().find(|s| s.name == "inner-1").expect("inner recorded");
        let mark = spans.iter().find(|s| s.name == "mark").expect("instant recorded");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(mark.depth, 1);
        assert!(mark.instant);
        assert!(inner.seq > outer.seq, "seq follows start order");
        assert_eq!(inner.args, vec![("k", Cow::from("7"))]);
        // Containment: inner starts at/after outer and ends at/before.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        assert!(take_spans().is_empty(), "take_spans drains");
    }

    #[test]
    fn thread_names_are_registered() {
        std::thread::Builder::new()
            .name("obs-test-thread".into())
            .spawn(|| set_thread_name("obs-renamed"))
            .unwrap()
            .join()
            .unwrap();
        assert!(thread_names().iter().any(|(_, n)| n == "obs-renamed"));
    }
}
