//! `pipeline --compare PARENT_DIR CHANGE_DIR`: verdicts for a change
//! from two sets of saved runs.
//!
//! Each directory holds the `--json` files of untraced runs, at least
//! ten per workload, made alternately with the other side and paired by
//! seed. For every workload and end-to-end metric:
//!
//! - **unresolved** when either side's spread (IQR ÷ median) is wider
//!   than the metric's bound — unless every change run reads better than
//!   every parent run — or there are fewer than ten pairs;
//! - **improved** when the change is better in at least nine tenths of
//!   the pairs (ties count for neither) and the medians differ by more
//!   than the parent's IQR;
//! - **regressed** when the change's median is worse than the parent's
//!   by more than the bound;
//! - **unchanged** otherwise.
//!
//! A workload whose failure ratio (failed ÷ attempted) rose is
//! rejected whatever its metrics say.

use crate::spec::{EndToEnd, Spec};
use crate::stats::{median, quartiles, relative_iqr};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Pairs needed before any verdict but "unresolved".
pub const MIN_PAIRS: usize = 10;

/// One metric value in a saved run.
#[derive(Debug, Clone, Deserialize)]
pub struct Value {
    /// The measured value.
    pub value: f64,
}

/// One saved run (`pipeline --json FILE`).
#[derive(Debug, Clone, Deserialize)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed; runs pair up across sides by seed.
    pub seed: u64,
    /// Whether this was a traced run (ignored here).
    pub trace: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric name → value.
    pub metrics: BTreeMap<String, Value>,
}

/// A verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the gain rule.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// Within the bound.
    Unchanged,
    /// Too noisy, or too few runs, to tell.
    Unresolved,
}

/// One workload × metric comparison.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Metric name.
    pub metric: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Change median relative to parent median, in percent.
    pub delta_pct: f64,
}

/// One workload's comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Pairs (runs sharing a seed) found.
    pub pairs: usize,
    /// Failure ratios, parent and change.
    pub fail_ratio: (f64, f64),
    /// One cell per end-to-end metric.
    pub cells: Vec<Cell>,
}

impl Row {
    /// Whether the change failed more often than the parent.
    pub fn rejected(&self) -> bool {
        self.fail_ratio.1 > self.fail_ratio.0
    }

    /// Whether any metric regressed, or the row was rejected.
    pub fn blocks(&self) -> bool {
        self.rejected() || self.cells.iter().any(|c| c.verdict == Verdict::Regressed)
    }
}

/// Reads every untraced `*.json` run in `dir`.
///
/// # Errors
///
/// Unreadable directories or files, and files that are not saved runs.
pub fn load_dir(dir: &Path) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("read {}: {e}", dir.display()))?.path();
        if path.extension().is_some_and(|x| x == "json") {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let run: Run = serde_json::from_str(&text)
                .map_err(|e| format!("parse {}: {e}", path.display()))?;
            if !run.trace {
                runs.push(run);
            }
        }
    }
    Ok(runs)
}

fn fail_ratio(runs: &[&Run]) -> f64 {
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    failed as f64 / attempted.max(1) as f64
}

fn judge(m: &EndToEnd, parent: &[&Run], change: &[&Run]) -> Cell {
    let values = |runs: &[&Run]| -> Vec<f64> {
        runs.iter().filter_map(|r| r.metrics.get(&m.name)).map(|v| v.value).collect()
    };
    let (pv, cv) = (values(parent), values(change));
    let (pm, cm) = (median(&pv), median(&cv));
    let delta_pct = 100.0 * (cm - pm) / pm;
    let cell = |verdict| Cell { metric: m.name.clone(), verdict, delta_pct };
    let pairs: Vec<(f64, f64)> = parent
        .iter()
        .filter_map(|p| {
            let c = change.iter().find(|c| c.seed == p.seed)?;
            Some((p.metrics.get(&m.name)?.value, c.metrics.get(&m.name)?.value))
        })
        .collect();
    if pairs.len() < MIN_PAIRS || pv.len() != parent.len() || cv.len() != change.len() {
        return cell(Verdict::Unresolved);
    }
    let worst_change = cv.iter().copied().reduce(|a, b| if m.improves(a, b) { a } else { b });
    let best_parent = pv.iter().copied().reduce(|a, b| if m.improves(a, b) { b } else { a });
    let all_better = match (worst_change, best_parent) {
        (Some(w), Some(b)) => m.improves(b, w),
        _ => false,
    };
    let noisy = |xs: &[f64]| relative_iqr(xs).is_none_or(|s| s > m.bound);
    if (noisy(&pv) || noisy(&cv)) && !all_better {
        return cell(Verdict::Unresolved);
    }
    let wins = pairs.iter().filter(|(p, c)| m.improves(*p, *c)).count();
    let parent_iqr = quartiles(&pv).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    if wins * 10 >= pairs.len() * 9 && m.improves(pm, cm) && (cm - pm).abs() > parent_iqr {
        cell(Verdict::Improved)
    } else if m.improves(cm, pm) && (cm - pm).abs() > m.bound * pm.abs() {
        cell(Verdict::Regressed)
    } else {
        cell(Verdict::Unchanged)
    }
}

/// Compares the two sides workload by workload.
pub fn compare(spec: &Spec, parent: &[Run], change: &[Run]) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in &spec.workloads {
        let p: Vec<&Run> = parent.iter().filter(|r| r.workload == w.name).collect();
        let c: Vec<&Run> = change.iter().filter(|r| r.workload == w.name).collect();
        if p.is_empty() && c.is_empty() {
            continue;
        }
        let pairs = p.iter().filter(|r| c.iter().any(|x| x.seed == r.seed)).count();
        rows.push(Row {
            workload: w.name.clone(),
            pairs,
            fail_ratio: (fail_ratio(&p), fail_ratio(&c)),
            cells: spec.end_to_end.iter().map(|m| judge(m, &p, &c)).collect(),
        });
    }
    rows
}

/// One line per workload: its overall status, then each metric's
/// verdict with the change in its median.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    for row in rows {
        let status = if row.rejected() {
            format!("REJECTED (fail ratio {} -> {})", row.fail_ratio.0, row.fail_ratio.1)
        } else if row.blocks() {
            "REGRESSED".into()
        } else {
            "ok".into()
        };
        let _ = write!(out, "{:<12} {:>3} pairs  {status:<10}", row.workload, row.pairs);
        for c in &row.cells {
            let v = format!("{:?}", c.verdict).to_lowercase();
            let _ = write!(out, "  {} {v} {:+.1}%", c.metric, c.delta_pct);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, failed: u64, metrics: &[(&str, f64)]) -> Run {
        Run {
            workload: workload.into(),
            seed,
            trace: false,
            attempted: 100,
            failed,
            metrics: metrics.iter().map(|(n, v)| (n.to_string(), Value { value: *v })).collect(),
        }
    }

    /// Ten runs per side of every end-to-end metric, the change's values
    /// from `f(metric, parent_value)`; parent values wobble ±1%.
    fn sides(f: impl Fn(&str, f64, u64) -> f64) -> (Spec, Vec<Run>, Vec<Run>) {
        let spec = crate::spec::spec();
        let w = spec.workloads[0].name.clone();
        let mut parent = Vec::new();
        let mut change = Vec::new();
        for seed in 0..10u64 {
            let wobble = 1.0 + (seed as f64 - 4.5) / 450.0;
            let base: Vec<(String, f64)> =
                spec.end_to_end.iter().map(|m| (m.name.clone(), 100.0 * wobble)).collect();
            let b: Vec<(&str, f64)> = base.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            parent.push(run(&w, seed, 0, &b));
            let c: Vec<(&str, f64)> =
                base.iter().map(|(n, v)| (n.as_str(), f(n, *v, seed))).collect();
            change.push(run(&w, seed, 0, &c));
        }
        (spec, parent, change)
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows[0].cells.iter().find(|c| c.metric == metric).unwrap().verdict
    }

    #[test]
    fn identical_sides_are_unchanged() {
        let (spec, p, c) = sides(|_, v, _| v);
        let rows = compare(&spec, &p, &c);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].cells.iter().all(|c| c.verdict == Verdict::Unchanged), "{rows:?}");
        assert!(!rows[0].blocks());
    }

    #[test]
    fn a_consistent_gain_beyond_the_parent_iqr_is_improved() {
        let (spec, p, c) = sides(|n, v, _| if n == "pass_ms" { v * 0.9 } else { v });
        let rows = compare(&spec, &p, &c);
        assert_eq!(verdict(&rows, "pass_ms"), Verdict::Improved);
        assert_eq!(verdict(&rows, "setup_s"), Verdict::Unchanged);
    }

    #[test]
    fn a_gain_in_fewer_than_nine_tenths_of_pairs_is_not_improved() {
        let (spec, p, c) =
            sides(|n, v, seed| if n == "pass_ms" && seed < 8 { v * 0.9 } else { v * 1.001 });
        assert_eq!(verdict(&compare(&spec, &p, &c), "pass_ms"), Verdict::Unchanged);
    }

    #[test]
    fn worsening_beyond_the_bound_is_regressed() {
        let (spec, p, c) = sides(|n, v, _| if n == "pass_ms" { v * 1.5 } else { v });
        let rows = compare(&spec, &p, &c);
        assert_eq!(verdict(&rows, "pass_ms"), Verdict::Regressed);
        assert!(rows[0].blocks());
        assert!(render(&rows).contains("REGRESSED"));
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let (spec, p, c) =
            sides(
                |n, v, seed| {
                    if n == "pass_ms" {
                        v * if seed % 2 == 0 { 0.5 } else { 1.6 }
                    } else {
                        v
                    }
                },
            );
        assert_eq!(verdict(&compare(&spec, &p, &c), "pass_ms"), Verdict::Unresolved);
    }

    #[test]
    fn too_few_pairs_is_unresolved() {
        let (spec, mut p, mut c) = sides(|_, v, _| v);
        p.truncate(9);
        c.truncate(9);
        let rows = compare(&spec, &p, &c);
        assert!(rows[0].cells.iter().all(|c| c.verdict == Verdict::Unresolved));
    }

    #[test]
    fn any_rise_in_failures_rejects_the_workload() {
        let (spec, p, mut c) = sides(|_, v, _| v);
        c[3].failed = 1;
        let rows = compare(&spec, &p, &c);
        assert!(rows[0].rejected());
        assert!(render(&rows).contains("REJECTED"));
    }
}
