//! # ppd-obs — the unified instrumentation layer
//!
//! Low-overhead observability for every phase of the debugger: RAII
//! **spans** recorded into lock-free-on-the-hot-path thread-local
//! buffers, and a **metrics** registry of counters / gauges /
//! fixed-bucket histograms. Each sink is a view over the span stream or
//! over counts that have exactly one owner, such as a [`Registry`]:
//!
//! - a Chrome trace-event JSON writer ([`chrome`]) whose output loads
//!   in Perfetto / `chrome://tracing`, one track per thread (so one
//!   track per pool worker);
//! - a JSON metrics snapshot ([`metrics::Snapshot::to_json`]);
//! - an [`openmetrics`] text exposition of any [`Registry`]
//!   (`--metrics-out`, Prometheus-scrapeable);
//! - a structured query [`journal`] — one JSONL record per Controller
//!   query with its latency and the cost deltas named in
//!   [`journal::COSTS`].
//!
//! Beside them sits an always-on [`flight`] recorder — a fixed ring of
//! the last ~1k coarse events, dumped on panic (black-box trace).
//!
//! ## Cost model
//!
//! Span recording is globally gated by a single [`AtomicBool`]
//! (relaxed load): with spans **disabled** — the default — every
//! instrumentation point is one load and a branch, so the instrumented
//! hot paths (runtime prelog/postlog writes, replay, cache probes,
//! race scans, pool tasks) run at full speed. With spans **enabled**,
//! each span costs two monotonic-clock reads and one push into the
//! recording thread's own buffer (a thread-private `Mutex` that is
//! only contended during final collection).
//!
//! Metrics handles ([`metrics::Counter`], [`metrics::Gauge`],
//! [`metrics::Histogram`]) are plain shared atomics: always on, no
//! gate needed.
//!
//! [`AtomicBool`]: std::sync::atomic::AtomicBool
//!
//! ## Example
//!
//! ```
//! // Spans nest by RAII; the Chrome writer emits one slice per span.
//! ppd_obs::enable_spans(true);
//! {
//!     let _outer = ppd_obs::span("demo", "outer");
//!     let mut inner = ppd_obs::span("demo", "inner");
//!     inner.arg("detail", 42);
//! }
//! ppd_obs::enable_spans(false);
//! let records = ppd_obs::take_spans();
//! assert_eq!(records.len(), 2);
//! let json = ppd_obs::chrome::trace_json(&records, &ppd_obs::thread_names());
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod flight;
pub mod journal;
pub mod metrics;
pub mod openmetrics;
pub mod span;

pub use flight::{FlightEvent, FlightRecorder};
pub use journal::{Journal, QueryRecord};
pub use metrics::{global, Counter, Gauge, Histogram, Registry, Snapshot};
pub use openmetrics::Exposition;
pub use span::{
    enable_spans, instant, now_ns, record_span_since, reset_spans, set_thread_name, span, span_dyn,
    spans_enabled, take_spans, thread_names, SpanGuard, SpanRecord,
};
