//! Collected metrics of one run: printed as `name value unit` lines for
//! people, and as the one-line JSON result the benchmark contract asks
//! for.

use crate::spec::Spec;
use crate::stats::{median, quiet, reportable_tail, Histogram, QUIET};
use crate::trace::{Recorder, BENCH, LAYERS};
use crate::Pass;
use ppd_obs::SpanRecord;
use std::fmt::Write as _;

/// Every metric one run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted, warm-up passes included.
    pub attempted: u64,
    /// Operations that failed or disagreed with their oracle.
    pub failed: u64,
    /// Metric name → (value, unit, note), in insertion order.
    lines: Vec<(String, f64, String, String)>,
    /// The traced run's spans (empty when untraced).
    pub spans: Vec<SpanRecord>,
}

impl Report {
    /// Adds a pass's operation and failure counts.
    pub fn count(&mut self, p: &Pass<'_>) {
        self.attempted += p.attempted;
        self.failed += p.failed;
    }

    /// Records a metric (replacing an earlier value of the same name).
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.set_noted(name, value, unit, String::new());
    }

    /// Records a metric with a note printed beside it (sample counts).
    pub fn set_noted(&mut self, name: impl Into<String>, value: f64, unit: &str, note: String) {
        let name = name.into();
        self.lines.retain(|l| l.0 != name);
        self.lines.push((name, value, unit.to_owned(), note));
    }

    /// A recorded metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.lines.iter().find(|l| l.0 == name).map(|l| l.1)
    }

    /// The untraced run's end-to-end metrics. Set-up is the median of
    /// its repetitions; pass, prepare and op times are the quiet
    /// percentile ([`quiet`]) across passes of each pass's value — for
    /// ops, each pass's median op latency. Medians across passes and the
    /// pooled op tail, with their sample counts, are printed beside them.
    pub fn end_to_end(
        &mut self,
        setups: &[f64],
        walls: &[f64],
        prepares: &[f64],
        op_medians: &[f64],
        ops: &Histogram,
    ) {
        let across =
            |xs: &[f64]| format!("(p{QUIET} of {} passes; median {:.4})", xs.len(), median(xs));
        self.set_noted("setup_s", median(setups), "s", format!("(median of {})", setups.len()));
        self.set_noted("pass_ms", quiet(walls), "ms", across(walls));
        self.set_noted("prepare_ms", quiet(prepares), "ms", across(prepares));
        self.set_noted("op_us_p50", quiet(op_medians), "us", across(op_medians));
        self.set_noted(
            "op_us_pooled_p50",
            ops.percentile(50.0),
            "us",
            format!("(n={})", ops.len()),
        );
        if let Some(p) = reportable_tail(ops.len() as usize).filter(|&p| p > 50.0) {
            let beyond = (ops.len() as f64 * (100.0 - p) / 100.0).round();
            self.set_noted(
                format!("op_us_pooled_p{p}"),
                ops.percentile(p),
                "us",
                format!("(n={}, {beyond} beyond)", ops.len()),
            );
        }
        self.set("peak_rss_mb", peak_rss_mb(), "MiB");
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.set_noted(
            "fail_ratio",
            ratio,
            "ratio",
            format!("({}/{})", self.failed, self.attempted),
        );
    }

    /// The traced run's attribution: each layer's self time as a share
    /// of traced pass time, what no layer span covers, the tracing
    /// overhead, and every traced call's time per pass.
    pub fn per_layer(&mut self, rec: &Recorder, walls: &[f64], traced: &[f64]) {
        let total_ms: f64 = traced.iter().sum();
        let by_cat = rec.self_ns_by_cat();
        let mut covered = 0.0;
        for layer in LAYERS {
            let ms = by_cat.get(layer).copied().unwrap_or(0) as f64 / 1e6;
            covered += ms;
            self.set(format!("{layer}.self_pct"), 100.0 * ms / total_ms, "%");
        }
        self.set("trace.unattributed_pct", 100.0 * (total_ms - covered) / total_ms, "%");
        self.set_noted(
            "trace.overhead_pct",
            100.0 * (quiet(traced) / quiet(walls) - 1.0),
            "%",
            format!("(p{QUIET} traced {:.3} ms vs untraced {:.3} ms)", quiet(traced), quiet(walls)),
        );
        let passes = traced.len().max(1) as f64;
        for ((cat, name), (calls, ns)) in rec.totals_by_call() {
            if cat != BENCH {
                self.set_noted(
                    format!("span.{cat}.{name}_ms"),
                    ns as f64 / 1e6 / passes,
                    "ms",
                    format!("(per pass, {calls} calls over {passes} passes)"),
                );
            }
        }
    }

    /// `name value unit` lines, one per metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value, unit, note) in &self.lines {
            let _ = writeln!(out, "{name} {value} {unit} {note}");
        }
        out
    }

    /// The contract's result line: `correct`, `attempted`, `failed`, and
    /// the metrics `BENCHMARK.json` declares for this kind of run —
    /// end-to-end untraced, per-layer traced.
    ///
    /// # Errors
    ///
    /// Names a declared metric this run did not produce, or produced as
    /// a non-finite number.
    pub fn result_json(&self, spec: &Spec, traced: bool) -> Result<String, String> {
        let declared: Vec<(&str, &str)> = if traced {
            spec.per_layer.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect()
        } else {
            spec.end_to_end.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect()
        };
        let mut metrics = Vec::new();
        for (name, unit) in declared {
            let value = self.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                ppd_obs::metrics::json_string(name),
                ppd_obs::metrics::json_string(unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB; `NaN` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_carries_exactly_the_declared_metrics() {
        let spec = crate::spec::spec();
        let mut r = Report { attempted: 5, ..Report::default() };
        for m in &spec.end_to_end {
            r.set(m.name.clone(), 1.25, "x");
        }
        r.set("not_declared", 3.0, "x");
        let json = r.result_json(&spec, false).unwrap();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0,"));
        assert!(!json.contains("not_declared"));
        for m in &spec.end_to_end {
            assert!(json.contains(&format!("\"{}\": {{\"value\": 1.25", m.name)), "{json}");
        }
        r.set("setup_s", f64::NAN, "s");
        assert!(r.result_json(&spec, false).is_err());
        assert!(r.result_json(&spec, true).is_err(), "per-layer metrics were never set");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
