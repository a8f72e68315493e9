//! `pipeline` — E12, the end-to-end PPD pipeline benchmark.
//!
//! ```text
//! pipeline --workload NAME --seed N [--seconds S | --passes N] [--trace 0|1]
//!          [--json FILE] [--trace-out FILE]
//! pipeline --compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! A run prints every metric as `name value unit`, then, as its last
//! line, the JSON result: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`)
//! that `BENCHMARK.json` declares. `--json` saves the result with its
//! workload and seed for `--compare`; `--trace-out` writes the traced
//! run's spans as Chrome trace-event JSON.

use ppd_pipeline_bench::{compare, run, spec, Options};
use std::process::ExitCode;

const USAGE: &str = "usage: pipeline --workload NAME --seed N [--seconds S | --passes N] \
                     [--trace 0|1] [--json FILE] [--trace-out FILE]\n       \
                     pipeline --compare PARENT_DIR CHANGE_DIR";

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("pipeline: {msg}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        let [_, parent, change] = args.as_slice() else { return Err(USAGE.into()) };
        let parent = compare::load_dir(parent.as_ref())?;
        let change = compare::load_dir(change.as_ref())?;
        let rows = compare::compare(&spec::spec(), &parent, &change);
        print!("{}", compare::render(&rows));
        let blocked = rows.iter().any(compare::Row::blocks);
        return Ok(if blocked { ExitCode::FAILURE } else { ExitCode::SUCCESS });
    }

    let (mut workload, mut seed) = (None, None);
    let (mut seconds, mut passes, mut trace) = (None, None, false);
    let (mut json, mut trace_out) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().cloned().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        let number = |v: String| v.parse::<f64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(number(value()?)?),
            "--passes" => passes = Some(number(value()?)? as usize),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--json" => json = Some(value()?),
            "--trace-out" => trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let seed = seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
    let mut opts = Options::new(&workload, seed);
    opts.trace = trace;
    opts.passes = passes;
    if let Some(s) = seconds {
        opts.seconds = s;
    }

    let report = run(&opts)?;
    print!("{}", report.render());
    let result = report.result_json(&spec::spec(), trace)?;
    if let Some(path) = json {
        let saved = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, {}\n",
            ppd_obs::metrics::json_string(&workload),
            &result[1..]
        );
        std::fs::write(&path, saved).map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = trace_out {
        let json = ppd_obs::chrome::trace_json(&report.spans, &[(1, "pipeline".into())]);
        std::fs::write(&path, json).map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}
