//! Metrics: counters, gauges, and fixed-log-bucket histograms.
//!
//! A [`Registry`] is a cheaply clonable handle to a named metric set.
//! Handles returned by [`Registry::counter`] / [`gauge`](Registry::gauge)
//! / [`histogram`](Registry::histogram) are plain shared atomics — the
//! name lookup happens once at registration, never on the hot path.
//! A process-wide [`global`] registry exists for code without a natural
//! owner; subsystems that need isolated counters (one replay engine per
//! Controller, say) create their own.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of power-of-two histogram buckets: bucket `i` counts values
/// `v` with `bit_width(v) == i`, i.e. `[2^(i-1), 2^i)`, so the range
/// covers 0 through `u64::MAX` with no allocation ever.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (for `stats reset`).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A settable signed gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.set(0);
    }
}

#[derive(Debug)]
struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A fixed-log-bucket histogram (no allocation on record).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        let i = (u64::BITS - v.leading_zeros()) as usize; // bit width, 0..=64
        self.0.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Upper bound (`2^i - 1` form) of the bucket containing the `q`
    /// quantile, `0.0 <= q <= 1.0`; 0 when empty. Accuracy is one
    /// power of two — enough to spot tail behaviour.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
            }
        }
        u64::MAX
    }

    /// Non-empty `(bucket_upper_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| (if i >= 64 { u64::MAX } else { (1u64 << i) - 1 }, c))
            })
            .collect()
    }

    /// Resets all buckets and totals.
    pub fn reset(&self) {
        self.0.count.store(0, Ordering::Relaxed);
        self.0.sum.store(0, Ordering::Relaxed);
        for b in &self.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named set of metrics; clones share the same underlying set.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Gets or creates the counter `name`. If `name` is registered as a
    /// different kind, returns a detached handle (recorded values are
    /// then simply invisible to snapshots — misuse never panics).
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().unwrap();
        match m.entry(name.to_owned()).or_insert_with(|| Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c.clone(),
            _ => Counter::default(),
        }
    }

    /// Gets or creates the gauge `name` (same kind-mismatch policy as
    /// [`counter`](Registry::counter)).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().unwrap();
        match m.entry(name.to_owned()).or_insert_with(|| Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::default(),
        }
    }

    /// Gets or creates the histogram `name` (same kind-mismatch policy
    /// as [`counter`](Registry::counter)).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().unwrap();
        match m.entry(name.to_owned()).or_insert_with(|| Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::default(),
        }
    }

    /// Resets every metric to zero (counts and buckets; names stay
    /// registered).
    pub fn reset(&self) {
        for metric in self.metrics.lock().unwrap().values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Renders the registry in OpenMetrics / Prometheus text format
    /// under `prefix` (see [`crate::openmetrics::Exposition`]).
    pub fn to_openmetrics(&self, prefix: &str) -> String {
        let mut exp = crate::openmetrics::Exposition::new(prefix);
        exp.add_snapshot(&self.snapshot());
        exp.render()
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.lock().unwrap();
        Snapshot {
            entries: m
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => SnapValue::Counter(c.get()),
                        Metric::Gauge(g) => SnapValue::Gauge(g.get()),
                        Metric::Histogram(h) => SnapValue::Histogram {
                            count: h.count(),
                            sum: h.sum(),
                            mean: h.mean(),
                            p50: h.quantile_bound(0.50),
                            p95: h.quantile_bound(0.95),
                            p99: h.quantile_bound(0.99),
                            buckets: h.nonzero_buckets(),
                        },
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// The process-wide registry.
pub fn global() -> Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new).clone()
}

/// One snapshotted metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(i64),
    /// A histogram's aggregates (quantiles are power-of-two bounds).
    Histogram {
        /// Recorded values.
        count: u64,
        /// Sum of recorded values.
        sum: u64,
        /// Mean of recorded values.
        mean: f64,
        /// Median upper bound.
        p50: u64,
        /// 95th-percentile upper bound.
        p95: u64,
        /// 99th-percentile upper bound.
        p99: u64,
        /// Non-empty `(bucket_upper_bound, count)` pairs, bound-sorted.
        buckets: Vec<(u64, u64)>,
    },
}

/// A point-in-time view of a [`Registry`], in name order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` pairs, sorted by name.
    pub entries: Vec<(String, SnapValue)>,
}

impl Snapshot {
    /// Single-line JSON rendering:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut hists = String::new();
        for (name, value) in &self.entries {
            match value {
                SnapValue::Counter(v) => {
                    if !counters.is_empty() {
                        counters.push(',');
                    }
                    let _ = write!(counters, "{}:{v}", json_string(name));
                }
                SnapValue::Gauge(v) => {
                    if !gauges.is_empty() {
                        gauges.push(',');
                    }
                    let _ = write!(gauges, "{}:{v}", json_string(name));
                }
                SnapValue::Histogram { count, sum, mean, p50, p95, p99, .. } => {
                    if !hists.is_empty() {
                        hists.push(',');
                    }
                    let _ = write!(
                        hists,
                        "{}:{{\"count\":{count},\"sum\":{sum},\"mean\":{mean:.1},\
                         \"p50\":{p50},\"p95\":{p95},\"p99\":{p99}}}",
                        json_string(name)
                    );
                }
            }
        }
        format!(
            "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{hists}}}}}"
        )
    }
}

/// Escapes `s` as a JSON string literal (with quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_string(&mut out, s);
    out
}

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("a.count");
        c.add(3);
        c.inc();
        reg.gauge("b.level").set(-7);
        // A second lookup shares the same cell.
        assert_eq!(reg.counter("a.count").get(), 4);
        let snap = reg.snapshot();
        assert_eq!(
            snap.entries,
            vec![
                ("a.count".into(), SnapValue::Counter(4)),
                ("b.level".into(), SnapValue::Gauge(-7)),
            ]
        );
        reg.reset();
        assert_eq!(reg.counter("a.count").get(), 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1007);
        // p50 of {0,1,1,2,3,1000}: rank 3 lands in the width-1 bucket.
        assert_eq!(h.quantile_bound(0.5), 1);
        assert_eq!(h.quantile_bound(1.0), 1023);
        assert_eq!(h.quantile_bound(0.0), 0);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), 6);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_bound(0.5), 0);
    }

    #[test]
    fn histogram_extremes_do_not_panic() {
        let h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.quantile_bound(1.0), u64::MAX);
    }

    #[test]
    fn kind_mismatch_returns_detached_handle() {
        let reg = Registry::new();
        reg.counter("x").add(2);
        let g = reg.gauge("x"); // wrong kind: detached
        g.set(99);
        assert_eq!(reg.counter("x").get(), 2);
    }

    #[test]
    fn snapshot_json_shape() {
        let reg = Registry::new();
        reg.counter("hits").add(5);
        reg.gauge("bytes").set(1024);
        reg.histogram("lat_ns").record(7);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"counters\":{\"hits\":5}"), "{json}");
        assert!(json.contains("\"gauges\":{\"bytes\":1024}"), "{json}");
        assert!(json.contains("\"lat_ns\":{\"count\":1"), "{json}");
        assert!(!json.contains('\n'), "single line for log-friendliness");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
