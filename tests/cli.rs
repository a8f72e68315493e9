//! Integration tests for the `ppd` command-line tool, exercising the
//! binary end to end on the sample programs in `programs/`.

use std::process::{Command, Stdio};

fn ppd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ppd"))
}

fn run_ppd(args: &[&str]) -> (String, String, bool) {
    let out = ppd().args(args).stdin(Stdio::null()).output().expect("ppd binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn check_summarizes_a_program() {
    let (stdout, _, ok) = run_ppd(&["check", "programs/bank.ppd"]);
    assert!(ok);
    assert!(stdout.contains("2 process(es)"), "{stdout}");
    assert!(stdout.contains("e-blocks"), "{stdout}");
}

#[test]
fn run_reports_failure_with_line() {
    let (stdout, _, ok) = run_ppd(&["run", "programs/overdraw.ppd", "--inputs", "95"]);
    assert!(!ok, "failing program exits nonzero");
    assert!(stdout.contains("FAILED in Teller"), "{stdout}");
    assert!(stdout.contains("assertion failed"), "{stdout}");
    assert!(stdout.contains("(line"), "{stdout}");
}

#[test]
fn run_succeeds_with_good_input() {
    let (stdout, _, ok) = run_ppd(&["run", "programs/overdraw.ppd", "--inputs", "50"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("completed"), "{stdout}");
    assert!(stdout.contains("[Teller] 44"), "balance 100-50-6: {stdout}");
}

#[test]
fn races_detects_the_bank_race_and_exits_nonzero() {
    let (stdout, _, ok) = run_ppd(&["races", "programs/bank.ppd", "--schedules", "3"]);
    assert!(!ok);
    assert!(stdout.contains("write/write race on `accounts[0]`"), "{stdout}");
}

#[test]
fn races_stats_output_matches_golden() {
    // The race reports and the per-stage pair chain, byte for byte, at
    // one worker and at eight.
    for name in ["bank", "lintdemo", "phils", "bounds"] {
        let golden = std::fs::read_to_string(format!("tests/golden/{name}.races_stats.txt"))
            .expect("golden file");
        for jobs in ["1", "8"] {
            let program = format!("programs/{name}.ppd");
            let args = ["races", &program, "--stats", "--schedules", "3", "--jobs", jobs];
            let (stdout, stderr, _) = run_ppd(&args);
            assert_eq!(stdout, golden, "{name} at --jobs {jobs} drifted from its golden\n{stderr}");
        }
    }
}

#[test]
fn races_clean_program_exits_zero() {
    let (stdout, _, ok) =
        run_ppd(&["races", "programs/overdraw.ppd", "--inputs", "50", "--schedules", "3"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("race-free"), "{stdout}");
}

#[test]
fn deadlock_is_reported_with_semaphore_names() {
    let (stdout, _, ok) = run_ppd(&["run", "programs/phils.ppd"]);
    assert!(!ok);
    assert!(stdout.contains("DEADLOCK"), "{stdout}");
    assert!(stdout.contains("fork0") && stdout.contains("fork1"), "{stdout}");
}

#[test]
fn dot_outputs_digraphs() {
    for what in ["static", "parallel", "dynamic"] {
        let (stdout, stderr, ok) = run_ppd(&["dot", "programs/bank.ppd", "--what", what]);
        assert!(ok, "{what}: {stderr}");
        assert!(stdout.contains("digraph"), "{what}: {stdout}");
    }
}

#[test]
fn breakpoint_halts_run() {
    // Line 8: the unprotected increment in TellerB... (line numbers are
    // 1-based in programs/bank.ppd; pick the lock line in TellerA).
    let (stdout, _, ok) = run_ppd(&["run", "programs/bank.ppd", "--break", "8"]);
    assert!(ok, "breakpoint halt exits zero: {stdout}");
    assert!(stdout.contains("breakpoint in"), "{stdout}");
}

#[test]
fn debug_repl_flows_back_from_failure() {
    let mut child = ppd()
        .args(["debug", "programs/overdraw.ppd", "--inputs", "95"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    use std::io::Write;
    child.stdin.as_mut().unwrap().write_all(b"graph\nback 7\nquit\n").unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("debugging from: assert"), "{stdout}");
    assert!(stdout.contains("balance = balance - amount - charge"), "{stdout}");
}

#[test]
fn debug_stats_flag_reports_replay_engine_counters() {
    // Non-interactive (stdin closed): stats print after the initial
    // query and again at exit.
    let (stdout, _, ok) = run_ppd(&["debug", "programs/bank.ppd", "--stats"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("replay-engine stats after initial query"), "{stdout}");
    assert!(stdout.contains("replays performed"), "{stdout}");
    assert!(stdout.contains("hit rate"), "{stdout}");
    assert!(stdout.contains("log entries scanned"), "{stdout}");
}

#[test]
fn debug_repl_stats_command_prints_counters() {
    let mut child = ppd()
        .args(["debug", "programs/overdraw.ppd", "--inputs", "95"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    use std::io::Write;
    child.stdin.as_mut().unwrap().write_all(b"back 7\nstats\nquit\n").unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("replays performed"), "{stdout}");
    assert!(stdout.contains("cache hits"), "{stdout}");
}

#[test]
fn lint_allowlist_script_stays_in_sync() {
    // The CI gate: every example program's diagnostic codes must match
    // programs/lint-allow.txt exactly, so lint changes are forced to
    // update the allowlist (and reviewers see the drift).
    let out = Command::new("bash")
        .arg("scripts/lint_programs.sh")
        .env("PPD", env!("CARGO_BIN_EXE_ppd"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("bash runs");
    assert!(
        out.status.success(),
        "lint_programs.sh failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn unknown_command_prints_usage() {
    let (_, stderr, ok) = run_ppd(&["frobnicate", "programs/bank.ppd"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn missing_file_is_an_error() {
    let (_, stderr, ok) = run_ppd(&["check", "programs/nope.ppd"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn compile_error_is_reported() {
    let dir = std::env::temp_dir().join("ppd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.ppd");
    std::fs::write(&bad, "process M { undeclared = 1; }").unwrap();
    let (_, stderr, ok) = run_ppd(&["check", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("compile error"), "{stderr}");
    assert!(stderr.contains("undeclared"), "{stderr}");
}

#[test]
fn save_and_load_execution_record() {
    let dir = std::env::temp_dir().join("ppd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("exec.json");
    let path_s = path.to_str().unwrap();
    let (stdout, _, ok) =
        run_ppd(&["run", "programs/overdraw.ppd", "--inputs", "95", "--save", path_s]);
    assert!(!ok, "program failed (that's the point)");
    assert!(stdout.contains("execution saved"), "{stdout}");

    // Offline debugging from the saved record, without re-running.
    let mut child = ppd()
        .args(["debug", "programs/overdraw.ppd", "--load", path_s])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write;
    child.stdin.as_mut().unwrap().write_all(b"graph\nquit\n").unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("loaded execution"), "{stdout}");
    assert!(stdout.contains("debugging from: assert"), "{stdout}");
}

#[test]
fn log_pack_inspect_verify_round_trip() {
    let dir = std::env::temp_dir().join("ppd_cli_test").join("log-pack");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap().to_owned();
    let (stdout, stderr, ok) = run_ppd(&["log", "pack", "programs/bank.ppd", &dir_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("packed"), "{stdout}");
    let (stdout, _, ok) = run_ppd(&["log", "inspect", &dir_s]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("entries decoded while inspecting: 0 (footers only)"), "{stdout}");
    let (stdout, _, ok) = run_ppd(&["log", "verify", &dir_s]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("ok:"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn log_verify_flags_payload_corruption() {
    let dir = std::env::temp_dir().join("ppd_cli_test").join("log-corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap().to_owned();
    let (_, stderr, ok) = run_ppd(&["log", "pack", "programs/bank.ppd", &dir_s]);
    assert!(ok, "{stderr}");
    // Flip a payload byte in the first segment of process 0.
    let victim = dir.join("p0000-s000000.seg");
    let mut bytes = std::fs::read(&victim).expect("segment exists");
    bytes[12] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();
    let (_, stderr, ok) = run_ppd(&["log", "verify", &dir_s]);
    assert!(!ok, "corrupt store must fail verification");
    assert!(stderr.contains("payload crc mismatch"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn races_over_log_dir_match_in_memory() {
    // The CI smoke check in test form: probing schedules through
    // on-disk stores must print byte-identical findings.
    let dir = std::env::temp_dir().join("ppd_cli_test").join("races-dir");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap().to_owned();
    let (baseline, _, ok1) = run_ppd(&["races", "programs/bank.ppd", "--schedules", "3"]);
    let (via_disk, _, ok2) =
        run_ppd(&["races", "programs/bank.ppd", "--schedules", "3", "--log-dir", &dir_s]);
    assert_eq!(ok1, ok2);
    assert_eq!(baseline, via_disk, "race findings diverged between memory and disk");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_log_dir_streams_then_reloads() {
    let dir = std::env::temp_dir().join("ppd_cli_test").join("run-dir");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap().to_owned();
    let (stdout, _, ok) =
        run_ppd(&["run", "programs/overdraw.ppd", "--inputs", "50", "--log-dir", &dir_s]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("logs streamed to"), "{stdout}");
    // Same command again: the store exists, so the run is replayed from
    // disk instead of re-executed.
    let (stdout, _, ok) =
        run_ppd(&["run", "programs/overdraw.ppd", "--inputs", "50", "--log-dir", &dir_s]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("loaded segmented log store from"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dot_pdg_outputs_full_static_graph() {
    let (stdout, _, ok) = run_ppd(&["dot", "programs/bank.ppd", "--what", "pdg"]);
    assert!(ok);
    assert!(stdout.contains("digraph static_TellerA"), "{stdout}");
    assert!(stdout.contains("style=dashed"), "{stdout}");
}

#[test]
fn debug_trace_out_writes_chrome_trace_with_all_layers() {
    let dir = std::env::temp_dir().join("ppd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let path_s = path.to_str().unwrap();
    let (_, stderr, ok) = run_ppd(&["debug", "programs/lintdemo.ppd", "--trace-out", path_s]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("span(s) written to"), "{stderr}");
    let trace = std::fs::read_to_string(&path).expect("trace file written");
    assert!(trace.starts_with("{\"traceEvents\":[\n"), "bad envelope: {trace}");
    assert!(trace.trim_end().ends_with("]}"), "unterminated envelope");
    // The timeline must show every debugging-phase subsystem: the
    // runtime's logging, replay (cold replays miss the cache, so both
    // layers appear), and the race scan --trace-out triggers.
    for cat in ["runtime", "replay", "cache", "race"] {
        assert!(trace.contains(&format!("\"cat\":\"{cat}\"")), "layer {cat} missing:\n{trace}");
    }
    assert!(trace.contains("\"pid\":1"), "{trace}");
    assert!(trace.contains("\"ph\":\"X\""), "{trace}");
}

#[test]
fn debug_stats_json_emits_metrics_snapshot() {
    let (stdout, _, ok) = run_ppd(&["debug", "programs/bank.ppd", "--stats", "--format", "json"]);
    assert!(ok, "{stdout}");
    // The snapshot is one JSON object per `--stats` print, exposing the
    // raw metrics registry sections and the core counters by name.
    let line = stdout.lines().find(|l| l.starts_with('{')).expect("json snapshot line");
    for key in ["\"counters\"", "\"gauges\"", "\"histograms\""] {
        assert!(line.contains(key), "missing {key}: {line}");
    }
    for metric in ["\"replay.replays\"", "\"cache.hits\"", "\"query.latency_ns\""] {
        assert!(line.contains(metric), "missing {metric}: {line}");
    }
}

#[test]
fn debug_repl_stats_reset_zeroes_counters_but_keeps_cache_warm() {
    let mut child = ppd()
        .args(["debug", "programs/overdraw.ppd", "--inputs", "95"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write;
    child.stdin.as_mut().unwrap().write_all(b"back 7\nstats reset\nstats\nquit\n").unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stats reset (cached traces kept warm)"), "{stdout}");
    // The post-reset `stats` print starts from zero queries/replays…
    let after = stdout.split("stats reset").nth(1).expect("output after reset");
    assert!(after.contains("replays performed     0"), "{after}");
    // …while the memoized traces stay resident for warm re-queries.
    assert!(!after.contains("cached traces         0 (0 bytes)"), "cache was dropped: {after}");
}

#[test]
fn debug_journal_feeds_obs_report_bit_for_bit() {
    let dir = std::env::temp_dir().join("ppd_cli_test").join("journal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("j.jsonl");
    let journal_s = journal.to_str().unwrap();
    let (stdout, stderr, ok) =
        run_ppd(&["debug", "programs/bank.ppd", "--stats", "--journal", journal_s]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("journal: 1 record(s) appended"), "{stderr}");
    let (report, rerr, rok) = run_ppd(&["obs", "report", journal_s]);
    assert!(rok, "{rerr}");
    // The acceptance invariant: the report's aggregate block reproduces
    // the session's own `--stats` lines bit-for-bit (every counted site
    // fires inside a journaled query on this deterministic run).
    for prefix in [
        "replays performed     ",
        "cache hits / misses   ",
        "evictions             ",
        "trace events          ",
        "log entries scanned   ",
        "queries               ",
    ] {
        let stats_line = stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("missing `{prefix}` in --stats: {stdout}"));
        assert!(
            report.lines().any(|l| l == stats_line),
            "report does not reproduce `{stats_line}`:\n{report}"
        );
    }
    // And the JSON form parses as one object with the same totals.
    let (json_report, _, jok) = run_ppd(&["obs", "report", journal_s, "--format", "json"]);
    assert!(jok);
    assert!(json_report.trim().starts_with('{'), "{json_report}");
    assert!(json_report.contains("\"queries\":1"), "{json_report}");
    assert!(json_report.contains("\"by_kind\":[{\"kind\":\"start_at\""), "{json_report}");
}

#[test]
fn metrics_out_writes_openmetrics_families() {
    let dir = std::env::temp_dir().join("ppd_cli_test").join("metrics");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store");
    let metrics = dir.join("m.txt");
    let (_, stderr, ok) = run_ppd(&[
        "debug",
        "programs/bank.ppd",
        "--log-dir",
        store.to_str().unwrap(),
        "--compress",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(text.ends_with("# EOF\n"), "missing EOF terminator: {text}");
    // Global log counters, engine registry families, histogram pieces,
    // and the per-segment heatmap (with file/proc/seq labels) all land
    // in one exposition.
    for needle in [
        "# TYPE ppd_log_segment_entries_decoded counter",
        "ppd_log_segment_entries_decoded_total ",
        "# TYPE ppd_query_latency_ns histogram",
        "ppd_query_latency_ns_bucket{le=\"+Inf\"} ",
        "ppd_query_latency_ns_approx{quantile=\"0.95\"} ",
        "# TYPE ppd_replay_replays counter",
        "ppd_log_segment_heat_entries_decoded_total{file=\"p0000-s000000.seg\",proc=\"0\",seq=\"0\"} ",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}

#[test]
fn flight_out_dumps_and_pretty_prints() {
    let dir = std::env::temp_dir().join("ppd_cli_test").join("flight");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("f.json");
    let dump_s = dump.to_str().unwrap();
    let (_, stderr, ok) = run_ppd(&["run", "programs/bank.ppd", "--flight-out", dump_s]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("flight:"), "{stderr}");
    let text = std::fs::read_to_string(&dump).unwrap();
    assert!(text.starts_with("{\"format\":\"ppd-flight\",\"version\":1"), "{text}");
    let (pretty, perr, pok) = run_ppd(&["obs", "flight", dump_s]);
    assert!(pok, "{perr}");
    assert!(pretty.contains("flight dump"), "{pretty}");
    // The always-on ring saw the CLI command and the runtime finishing.
    assert!(pretty.contains("[cli     ] command"), "{pretty}");
    assert!(pretty.contains("execute_done"), "{pretty}");
}

#[test]
fn log_inspect_format_json_reports_per_segment_stats() {
    let dir = std::env::temp_dir().join("ppd_cli_test").join("inspect-json");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap().to_owned();
    let (_, stderr, ok) = run_ppd(&[
        "log",
        "pack",
        "programs/bank.ppd",
        &dir_s,
        "--compress",
        "--segment-bytes",
        "4096",
    ]);
    assert!(ok, "{stderr}");
    let (stdout, _, ok) = run_ppd(&["log", "inspect", &dir_s, "--format", "json"]);
    assert!(ok, "{stdout}");
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    for needle in [
        "\"processes\":2",
        "\"compression_ratio\":",
        "\"entries_by_kind\":{\"prelog\":",
        "\"segments\":[{\"file\":\"p0000-s000000.seg\",\"proc\":0,\"seq\":0,\"version\":2",
        "\"blocks\":",
        "\"recovered_tails\":[]",
        "\"entries_decoded_while_inspecting\":0",
    ] {
        assert!(line.contains(needle), "missing `{needle}` in: {line}");
    }
}
