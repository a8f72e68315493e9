//! Regenerates every evaluation table and figure of EXPERIMENTS.md.
//!
//! Run with: `cargo run -p ppd-bench --bin experiments --release`
//! (a debug build works but inflates absolute times).
//!
//! ```text
//! --only e4,e6,e7     run a subset of experiments (ids: e2..e11 f41 f53 f61;
//!                     an unknown id exits 2 and lists the known ones)
//! --jobs N | -j N     thread ceiling for the E7 scaling sweep (default 8)
//! --e10-bytes N       cap the E10 store-size sweep at N file bytes
//!                     (default: the full sweep up to 1 GB; CI uses a
//!                     small cap)
//! --json FILE         also write the E4/E6/E7 tables as machine-readable
//!                     JSON (the BENCH_parallel.json committed at the root).
//!                     When E9 runs, its §7 overhead report is additionally
//!                     written to BENCH_overhead.json beside FILE, and when
//!                     E10 runs, its segmented-store report is written to
//!                     BENCH_logstream.json beside FILE — so
//!                     `--only e9,e10 --json BENCH_overhead.json` produces
//!                     both artifacts. When E11 runs alongside E9, its
//!                     telemetry-overhead report is spliced into
//!                     BENCH_overhead.json under `"telemetry"`.
//! ```

use ppd_bench::experiments as ex;
use ppd_bench::Table;
use std::collections::HashMap;

/// Experiments whose tables are emitted by `--json` — the perf-trajectory
/// set: race-scan cost (E4), flowback latency (E6), parallel scaling (E7).
const JSON_IDS: &[&str] = &["e4", "e6", "e7"];

fn main() {
    let mut only: Option<Vec<String>> = None;
    let mut jobs: usize = 8;
    let mut json: Option<String> = None;
    let mut e10_bytes: u64 = u64::MAX;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--only" => {
                only = Some(value("--only").split(',').map(|s| s.trim().to_lowercase()).collect());
            }
            "--jobs" | "-j" => {
                jobs = value("--jobs").parse::<usize>().unwrap_or_else(|_| {
                    eprintln!("error: --jobs wants a number");
                    std::process::exit(2);
                });
                jobs = jobs.max(1);
            }
            "--json" => json = Some(value("--json")),
            "--e10-bytes" => {
                e10_bytes = value("--e10-bytes").parse::<u64>().unwrap_or_else(|_| {
                    eprintln!("error: --e10-bytes wants a number");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("error: unknown flag `{other}`");
                eprintln!(
                    "usage: experiments [--only e4,e9,e11] [--jobs N] [--e10-bytes N] [--json FILE]"
                );
                std::process::exit(2);
            }
        }
    }

    // E9, E10 and E11 also return a JSON report body.
    type Run = Box<dyn Fn() -> (Table, Option<String>)>;
    let table = |f: fn() -> Table| -> Run { Box::new(move || (f(), None)) };
    let suite: Vec<(&str, Run)> = vec![
        ("e2", table(ex::e2_log_vs_trace)),
        ("e3", table(ex::e3_granularity_sweep)),
        ("e4", table(ex::e4_race_detection)),
        ("e5", table(ex::e5_varset)),
        ("e6", table(ex::e6_flowback_latency)),
        ("e7", Box::new(move || (ex::e7_parallel_scaling(jobs), None))),
        ("e8", table(ex::e8_array_logging)),
        ("e9", Box::new(|| report(ex::e9_overhead_meter()))),
        ("e10", Box::new(move || report(ex::e10_logstream(e10_bytes)))),
        ("e11", Box::new(|| report(ex::e11_telemetry()))),
        ("f41", table(ex::f41_figure)),
        ("f53", table(ex::f53_figure)),
        ("f61", table(ex::f61_figure)),
    ];
    if let Some(ids) = &only {
        let unknown: Vec<&str> = ids
            .iter()
            .map(String::as_str)
            .filter(|x| !suite.iter().any(|(id, _)| id == x))
            .collect();
        if !unknown.is_empty() {
            let known: Vec<&str> = suite.iter().map(|(id, _)| *id).collect();
            eprintln!(
                "error: unknown experiment id(s) {}; known ids: {}",
                unknown.join(", "),
                known.join(", ")
            );
            std::process::exit(2);
        }
    }

    println!("# PPD evaluation — regenerated tables\n");
    println!("(Miller & Choi, PLDI 1988; shapes, not absolute numbers, are the claim.)\n");
    let mut json_tables: Vec<String> = Vec::new();
    let mut reports: HashMap<&str, String> = HashMap::new();
    for (id, run) in &suite {
        if only.as_ref().is_some_and(|ids| !ids.iter().any(|x| x == id)) {
            continue;
        }
        let (table, report) = run();
        println!("{}", table.render());
        println!();
        if json.is_some() && JSON_IDS.contains(id) {
            json_tables.push(format!("{}:{}", quoted(id), table.to_json()));
        }
        if let Some(report) = report {
            reports.insert(id, report);
        }
    }
    if let Some(path) = json {
        if !json_tables.is_empty() {
            let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            let body = format!(
                "{{\"generator\":\"ppd-bench experiments\",\"host_parallelism\":{host},\
                 \"e7_jobs_ceiling\":{jobs},\"tables\":{{{}}}}}\n",
                json_tables.join(",")
            );
            write_or_die(&path, &body);
            eprintln!("wrote {path} ({} table(s))", json_tables.len());
        }
        // E9 and E11 share BENCH_overhead.json: E11's telemetry body
        // splices in under "telemetry" when both ran, and gets a thin
        // standalone wrapper when it ran alone.
        let overhead_body = match (reports.get("e9"), reports.get("e11")) {
            (Some(e9), Some(e11)) => {
                let head = e9.trim_end().strip_suffix('}').expect("E9 body is a JSON object");
                Some(format!("{head},\"telemetry\":{}}}\n", e11.trim_end()))
            }
            (Some(e9), None) => Some(e9.clone()),
            (None, Some(e11)) => Some(format!(
                "{{\"generator\":\"ppd-bench experiments (overhead)\",\"telemetry\":{}}}\n",
                e11.trim_end()
            )),
            (None, None) => None,
        };
        if let Some(report) = overhead_body {
            let overhead = std::path::Path::new(&path)
                .with_file_name("BENCH_overhead.json")
                .to_string_lossy()
                .into_owned();
            write_or_die(&overhead, &report);
            eprintln!("wrote {overhead} (overhead report)");
        }
        if let Some(report) = reports.get("e10") {
            let logstream = std::path::Path::new(&path)
                .with_file_name("BENCH_logstream.json")
                .to_string_lossy()
                .into_owned();
            write_or_die(&logstream, report);
            eprintln!("wrote {logstream} (E10 segmented-store report)");
        }
    }
}

/// Wraps an experiment's table and JSON report as a suite result.
fn report((table, json): (Table, String)) -> (Table, Option<String>) {
    (table, Some(json))
}

/// Writes `body` to `path`, exiting non-zero on failure.
fn write_or_die(path: &str, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Wraps a known-safe id in JSON quotes.
fn quoted(id: &str) -> String {
    format!("\"{id}\"")
}
