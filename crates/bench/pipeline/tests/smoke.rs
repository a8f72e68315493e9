//! Every workload at a tiny fixed pass count: each metric
//! `BENCHMARK.json` declares is emitted and finite, and no operation
//! fails.

use ppd_pipeline_bench::{run, spec::spec, Options};

fn smoke(workload: &str, nonzero: &[&str]) {
    let spec = spec();
    for trace in [false, true] {
        let mut opts = Options::new(workload, 7);
        opts.passes = Some(1);
        opts.setup_reps = 1;
        opts.trace = trace;
        let report = run(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert_eq!(report.failed, 0, "{workload}: {}", report.render());
        assert!(report.attempted > 0, "{workload}");
        let json = report.result_json(&spec, trace).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(json.starts_with("{\"correct\": true,"), "{json}");
        let declared: Vec<&str> = if trace {
            spec.per_layer.iter().map(|m| m.name.as_str()).collect()
        } else {
            spec.end_to_end.iter().map(|m| m.name.as_str()).collect()
        };
        for name in declared {
            let v = report.get(name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert!(v.is_finite(), "{workload}: {name} = {v}");
        }
        if trace {
            assert!(!report.spans.is_empty(), "{workload}: the traced run recorded spans");
            for name in nonzero {
                let v = report.get(name).unwrap_or(0.0);
                assert!(v > 0.0, "{workload}: {name} should be exercised, got {v}");
            }
        } else {
            for m in &spec.end_to_end {
                assert!(report.get(&m.name).unwrap() > 0.0, "{workload}: {} is never 0", m.name);
            }
        }
    }
}

#[test]
fn exec_log() {
    smoke("exec_log", &["runtime.self_pct", "runtime.slowdown", "log.store_bytes", "log.segments"]);
}

#[test]
fn postmortem() {
    smoke(
        "postmortem",
        &[
            "log.self_pct",
            "core.self_pct",
            "log.entries_decoded",
            "log.open_index_pct",
            "core.replay_pct",
        ],
    );
}

#[test]
fn interactive() {
    smoke(
        "interactive",
        &["core.self_pct", "core.replays", "obs.journal_records", "obs.journal_bytes"],
    );
}

#[test]
fn races() {
    smoke("races", &["graph.self_pct", "graph.pairs_naive", "graph.pairs_absint", "graph.edges"]);
}

#[test]
fn every_declared_workload_exists() {
    for w in spec().workloads {
        assert!(ppd_pipeline_bench::workloads::NAMES.contains(&w.name.as_str()), "{}", w.name);
    }
}
