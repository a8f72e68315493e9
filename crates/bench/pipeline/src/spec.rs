//! The benchmark's declaration, `BENCHMARK.json` at the repository
//! root: workloads, end-to-end metrics with their regression bounds,
//! and per-layer metrics. Compiled in, so the binary and the file that
//! gates changes cannot disagree.

use serde::Deserialize;

/// `BENCHMARK.json`, as committed.
pub const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

/// One workload.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: String,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Deserialize)]
pub struct EndToEnd {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// One per-layer metric (no bound).
#[derive(Debug, Clone, Deserialize)]
pub struct PerLayer {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
}

/// The parts of `BENCHMARK.json` the binary uses (other keys are
/// ignored).
#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    /// Seconds one run measures unless told otherwise.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// Metrics of the untraced run.
    pub end_to_end: Vec<EndToEnd>,
    /// Metrics of the traced run.
    pub per_layer: Vec<PerLayer>,
}

impl EndToEnd {
    /// Whether a move from `from` to `to` is in the better direction.
    pub fn improves(&self, from: f64, to: f64) -> bool {
        if self.better == "higher" {
            to > from
        } else {
            to < from
        }
    }
}

/// Parses the compiled-in `BENCHMARK.json`.
///
/// # Panics
///
/// Panics if the committed file is malformed — a build of this package
/// with a broken declaration is a bug, caught by the smoke test.
pub fn spec() -> Spec {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_is_well_formed() {
        let s = spec();
        assert!((2..=8).contains(&s.workloads.len()));
        assert!(s.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        let largest = s.end_to_end.iter().map(|m| m.bound).fold(0.0, f64::max);
        for m in &s.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        }
        assert_eq!(s.end_to_end.iter().find(|m| m.name == "setup_s").unwrap().bound, largest);
        let mut names: Vec<&str> = s
            .end_to_end
            .iter()
            .map(|m| m.name.as_str())
            .chain(s.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are unique");
    }
}
