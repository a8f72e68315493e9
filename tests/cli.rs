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
fn debug_transcripts_match_golden() {
    // `graph`, then back/forward/slice/expand on every unexpanded call or
    // loop node, then `graph` and `dot` again: the listed edges, byte for
    // byte and in order, at one worker and at eight.
    let cases: [(&str, &[&str]); 4] = [
        ("overdraw", &["programs/overdraw.ppd", "--inputs", "95"]),
        ("bank_loops", &["programs/bank.ppd", "--strategy", "loops"]),
        ("workqueue_loops", &["programs/workqueue.ppd", "--strategy", "loops"]),
        ("stencil_loops", &["programs/stencil.ppd", "--strategy", "loops"]),
    ];
    for (name, args) in cases {
        let script = std::fs::read(format!("tests/fixtures/{name}.debug.in")).expect("script");
        let golden =
            std::fs::read_to_string(format!("tests/golden/{name}.debug.txt")).expect("golden file");
        for jobs in ["1", "8"] {
            let mut child = ppd()
                .arg("debug")
                .args(args)
                .args(["--jobs", jobs])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn");
            use std::io::Write;
            child.stdin.take().unwrap().write_all(&script).unwrap();
            let out = child.wait_with_output().unwrap();
            assert!(out.status.success(), "{name} at --jobs {jobs} failed");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(stdout, golden, "{name} at --jobs {jobs} drifted from its golden");
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
    let dir = std::env::temp_dir().join("ppd_cli_test").join("offline-debug");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    let (stdout, _, ok) =
        run_ppd(&["run", "programs/overdraw.ppd", "--inputs", "95", "--log-dir", dir_s]);
    assert!(!ok, "program failed (that's the point)");
    assert!(stdout.contains("logs streamed to"), "{stdout}");

    // Offline debugging from the saved store, without re-running.
    let mut child = ppd()
        .args(["debug", "programs/overdraw.ppd", "--log-dir", dir_s])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write;
    child.stdin.as_mut().unwrap().write_all(b"graph\nquit\n").unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("loaded segmented log store from"), "{stdout}");
    assert!(stdout.contains("debugging from: assert"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_and_load_are_unknown_flags() {
    // A log directory is the one saved form of a run; `log pack` parses
    // flags as `run` does but takes only its own.
    let pack = ["log", "pack", "programs/bank.ppd", "never-written/", "--jobs", "2"];
    for args in [
        &["run", "programs/bank.ppd", "--save", "saved.json"][..],
        &["run", "programs/bank.ppd", "--load", "saved.json"][..],
        &pack[..],
    ] {
        let out = ppd().args(args).stdin(Stdio::null()).output().expect("ppd runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown flag") && stderr.contains("usage:"), "{stderr}");
    }
    assert!(!std::path::Path::new("never-written").exists());
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

/// Packs `programs/bank.ppd` under `--strategy loops` into a fresh
/// store named `name`, then flips three bytes in the middle of the
/// stored frame of the payload block holding entry `pos` of `proc`.
/// Returns the store directory, the damaged segment's file name and the
/// block's index.
fn damaged_bank_store(
    name: &str,
    proc: u32,
    pos: impl Fn(&ppd::log::IntervalIndex) -> usize,
) -> (String, String, usize) {
    let dir = std::env::temp_dir().join("ppd_cli_test").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap().to_owned();
    let (_, stderr, ok) =
        run_ppd(&["log", "pack", "programs/bank.ppd", &dir_s, "--strategy", "loops"]);
    assert!(ok, "{stderr}");
    let (file, block, at) = {
        let seg = ppd::log::SegmentedLog::open(&dir).expect("store opens");
        let pos = pos(&seg.index()) as u64;
        let proc = ppd::lang::ProcId(proc);
        let meta = seg
            .segments(proc)
            .find(|m| m.base_seq <= pos && pos < m.base_seq + m.entry_count)
            .expect("a segment holds the entry");
        let off = meta.entry_offset((pos - meta.base_seq) as usize).unwrap();
        let (b, block) = meta
            .blocks()
            .iter()
            .enumerate()
            .find(|(_, b)| b.uncomp_off <= off && off < b.uncomp_off + b.uncomp_len)
            .expect("a block holds the entry");
        let at = meta.payload_start() + (block.stored_off + block.stored_len / 2) as usize;
        (meta.file.clone(), b, at)
    };
    let path = dir.join(&file);
    let mut bytes = std::fs::read(&path).unwrap();
    for byte in &mut bytes[at..at + 3] {
        *byte ^= 0x5a;
    }
    std::fs::write(&path, bytes).unwrap();
    (dir_s, file, block)
}

#[test]
fn debug_on_a_damaged_payload_is_a_positioned_error() {
    // bank completes, so debugging starts from process 0's last
    // top-level interval: damage the block holding its prelog.
    let (dir, file, block) = damaged_bank_store("damaged-start", 0, |index| {
        index.top_level(ppd::lang::ProcId(0)).last().expect("process 0 logged").prelog_pos
    });
    let out = ppd()
        .args(["debug", "programs/bank.ppd", "--strategy", "loops", "--log-dir", &dir])
        .stdin(Stdio::null())
        .output()
        .expect("ppd binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&file) && stderr.contains(&format!("block {block}")), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let (_, stderr, ok) = run_ppd(&["log", "verify", &dir]);
    assert!(!ok && stderr.contains("payload crc mismatch"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn debug_state_on_a_damaged_store_prints_the_error() {
    // Process 1's log is damaged; debugging starts (from process 0)
    // and `state`, which reads every process, reports the damage.
    let (dir, file, block) = damaged_bank_store("damaged-state", 1, |_| 0);
    let mut child = ppd()
        .args(["debug", "programs/bank.ppd", "--strategy", "loops", "--log-dir", &dir])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    use std::io::Write;
    child.stdin.take().unwrap().write_all(b"state\nquit\n").unwrap();
    let out = child.wait_with_output().unwrap();
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "{stderr}");
    assert!(stdout.contains(&format!("corrupt segment {file}: block {block}")), "{stdout}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_stdout_ends_quietly() {
    // Enough e-blocks that `ppd check` prints more than a pipe holds, so
    // it is still writing when the reader goes away after one line.
    let dir = std::env::temp_dir().join("ppd_cli_test").join("closed-stdout");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("many_functions.ppd");
    let mut source: String =
        (0..4000).map(|i| format!("int f{i}(int x) {{ return x + {i}; }}\n")).collect();
    source.push_str("process M { int y = f0(1); print(y); }\n");
    std::fs::write(&file, source).unwrap();
    let mut child = ppd()
        .arg("check")
        .arg(&file)
        .current_dir(&dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut first = String::new();
    {
        use std::io::BufRead;
        let mut reader = std::io::BufReader::new(child.stdout.take().unwrap());
        reader.read_line(&mut first).unwrap();
    } // the read end closes here
    assert!(first.starts_with("ok:"), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status.code());
    assert!(!dir.join("ppd-flight-panic.json").exists(), "a closed pipe is not a crash");
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
    let outcome =
        |stdout: &str| stdout.lines().find(|l| l.starts_with("outcome:")).map(str::to_owned);
    let (stdout, _, ok) =
        run_ppd(&["run", "programs/overdraw.ppd", "--inputs", "50", "--log-dir", &dir_s]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("logs streamed to"), "{stdout}");
    let from_run = outcome(&stdout).expect("an outcome line");
    // Same command again: the store exists, so the run is replayed from
    // disk instead of re-executed, with the same outcome.
    let (stdout, _, ok) =
        run_ppd(&["run", "programs/overdraw.ppd", "--inputs", "50", "--log-dir", &dir_s]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("loaded segmented log store from"), "{stdout}");
    assert_eq!(outcome(&stdout), Some(from_run));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_save_writes_the_record_of_a_loaded_run() {
    // The store a run writes is its saved record: loading it prints the
    // outcome of the run that wrote it, and loading leaves it unchanged.
    let dir = std::env::temp_dir().join("ppd_cli_test").join("save-loaded");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store");
    let store_s = store.to_str().unwrap().to_owned();
    let outcome =
        |stdout: &str| stdout.lines().find(|l| l.starts_with("outcome:")).map(str::to_owned);
    let (stdout, stderr, ok) = run_ppd(&["run", "programs/bank.ppd", "--log-dir", &store_s]);
    assert!(ok && stdout.contains("logs streamed to"), "{stdout}{stderr}");
    let from_run = outcome(&stdout).expect("an outcome line");
    let record = || ["run.json", "pgraph.bin"].map(|name| std::fs::read(store.join(name)).ok());
    let written = record();
    assert!(written.iter().all(Option::is_some), "the run wrote both record files");
    for _ in 0..2 {
        let (stdout, stderr, ok) = run_ppd(&["run", "programs/bank.ppd", "--log-dir", &store_s]);
        assert!(ok, "{stderr}");
        assert!(stdout.contains("loaded segmented log store from"), "{stdout}");
        assert_eq!(outcome(&stdout), Some(from_run.clone()));
        assert!(record() == written, "loading changed the record");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn debug_on_a_hostile_graph_record_is_an_error_not_a_panic() {
    // A record whose checksum holds but whose graph has an edge ending
    // at node 99999 of 12 (saved through the library, which checks
    // nothing on write): loading refuses it, naming the file, before
    // the race scan could index past the nodes.
    use ppd::core::{Execution, PpdSession, RunConfig};
    use ppd::graph::{SyncEdgeLabel, SyncNodeId};
    let dir = std::env::temp_dir().join("ppd_cli_test").join("hostile-graph");
    let _ = std::fs::remove_dir_all(&dir);
    let source = std::fs::read_to_string("programs/bank.ppd").unwrap();
    let strategy = ppd::analysis::EBlockStrategy::per_subroutine();
    let mut execution =
        PpdSession::prepare(&source, strategy).unwrap().execute(RunConfig::default());
    execution.pgraph.add_sync_edge(SyncNodeId(1), SyncNodeId(99999), SyncEdgeLabel::Semaphore);
    execution.save_dir(&dir, 0, ppd::log::SegmentFormat::default()).unwrap();
    assert!(Execution::load_dir(&dir).is_err());
    // The script comes from a file, not a pipe: `debug` exits on the
    // load error without reading it, which a pipe writer could see as
    // a broken pipe.
    let script = dir.with_extension("debug.in");
    std::fs::write(&script, b"races\nquit\n").unwrap();
    let out = ppd()
        .args(["debug", "programs/bank.ppd", "--log-dir", dir.to_str().unwrap()])
        .stdin(std::fs::File::open(&script).unwrap())
        .output()
        .expect("ppd binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("pgraph.bin") && stderr.contains("n99999"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    // A directory written before `pgraph.bin` existed is a saved run
    // that does not load: `run` reports the missing file instead of
    // running over the store.
    std::fs::remove_file(dir.join("pgraph.bin")).unwrap();
    let (stdout, stderr, ok) =
        run_ppd(&["run", "programs/bank.ppd", "--log-dir", dir.to_str().unwrap()]);
    assert!(!ok && stderr.contains("pgraph.bin"), "{stdout}{stderr}");
    assert!(!dir.join("pgraph.bin").exists(), "the run did not write into the old store");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&script);
}

#[test]
fn hostile_manifest_process_count_is_an_error_not_a_panic() {
    // A manifest listing 2^64 - 1 processes over a two-process store:
    // every reader refuses it with the positioned error for the first
    // process without a segment, instead of sizing tables by the count.
    let dir = std::env::temp_dir().join("ppd_cli_test").join("hostile-manifest");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap().to_owned();
    let (_, stderr, ok) = run_ppd(&["run", "programs/bank.ppd", "--log-dir", &dir_s]);
    assert!(ok, "{stderr}");
    let manifest = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(
        &manifest,
        text.replace(r#""processes":2"#, r#""processes":18446744073709551615"#),
    )
    .unwrap();
    let script = dir.with_extension("debug.in");
    std::fs::write(&script, b"quit\n").unwrap();
    for args in [
        vec!["log", "inspect", &dir_s],
        vec!["log", "verify", &dir_s],
        vec!["debug", "programs/bank.ppd", "--log-dir", &dir_s],
    ] {
        let out = ppd()
            .args(&args)
            .stdin(std::fs::File::open(&script).unwrap())
            .output()
            .expect("ppd binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("p0002-s000000.seg"), "{args:?}: {stderr}");
        assert!(stderr.contains("process 2 has no segment files"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&script);
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

/// A packed `bank` store, a debug session's journal and flight dump in
/// a fresh directory `name`, for the commands that read them.
fn front_door_fixtures(name: &str) -> (std::path::PathBuf, String, String, String) {
    let dir = std::env::temp_dir().join("ppd_cli_test").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |file: &str| dir.join(file).to_str().unwrap().to_owned();
    let (store, journal, dump) = (path("store"), path("j.jsonl"), path("f.json"));
    let (_, stderr, ok) = run_ppd(&["log", "pack", "programs/bank.ppd", &store]);
    assert!(ok, "{stderr}");
    let debug = ["debug", "programs/bank.ppd", "--journal", &journal, "--flight-out", &dump];
    let (_, stderr, ok) = run_ppd(&debug);
    assert!(ok, "{stderr}");
    (dir, store, journal, dump)
}

/// Runs `ppd args`, asserting it exits 2 with the usage text on stderr.
fn assert_usage_error(args: &[&str]) -> String {
    let out = ppd().args(args).stdin(Stdio::null()).output().expect("ppd runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn every_command_rejects_an_unknown_flag_before_any_work() {
    let (dir, store, journal, dump) = front_door_fixtures("front-door-unknown");
    let unpacked = dir.join("never-packed");
    let unpacked = unpacked.to_str().unwrap();
    let file = "programs/bank.ppd";
    let commands: [&[&str]; 11] = [
        &["check", file],
        &["lint", file],
        &["run", file],
        &["debug", file],
        &["races", file],
        &["dot", file],
        &["log", "pack", file, unpacked],
        &["log", "inspect", &store],
        &["log", "verify", &store],
        &["obs", "report", &journal],
        &["obs", "flight", &dump],
    ];
    for command in commands {
        let args = [command, &["--bogus", "1"]].concat();
        let stderr = assert_usage_error(&args);
        assert!(stderr.contains("unknown flag `--bogus`"), "{args:?}: {stderr}");
    }
    assert!(!std::path::Path::new(unpacked).exists(), "log pack ran before rejecting the flag");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flag_the_command_does_not_read_is_rejected() {
    let (dir, store, _, dump) = front_door_fixtures("front-door-unread");
    let file = "programs/bank.ppd";
    for args in [
        &["log", "verify", &store, "--seed", "1"][..],
        &["obs", "flight", &dump, "--bogus", "1"],
        &["races", file, "--seed", "1"],
        &["check", file, "--schedules", "3"],
        &["lint", file, "--jobs", "2"],
        &["run", file, "--format", "json"],
    ] {
        let stderr = assert_usage_error(args);
        let flag = args[args.len() - 2];
        assert!(stderr.contains(&format!("unknown flag `{flag}`")), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_format_and_what_values_exit_2_before_any_work() {
    let (dir, store, journal, _) = front_door_fixtures("front-door-values");
    let file = "programs/bank.ppd";
    for args in [
        &["debug", file, "--stats", "--format", "sarif"][..],
        &["log", "inspect", &store, "--format", "sarif"],
        &["obs", "report", &journal, "--format", "sarif"],
        &["check", file, "--format", "yaml"],
        &["lint", file, "--format", "yaml"],
    ] {
        let stderr = assert_usage_error(args);
        let format = args[args.len() - 1];
        assert!(stderr.contains(&format!("unknown --format `{format}`")), "{stderr}");
    }
    let stderr = assert_usage_error(&["dot", file, "--what", "bogus"]);
    assert!(
        stderr.contains("unknown --what `bogus` (static | pdg | parallel | dynamic)"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The trace-event document `--trace-out` writes, as far as the tests
/// read it (the vendored deserializer ignores the other keys).
#[allow(non_snake_case)]
#[derive(serde::Deserialize)]
struct ChromeTrace {
    traceEvents: Vec<ChromeEvent>,
}

#[derive(serde::Deserialize)]
struct ChromeEvent {
    ph: String,
    name: String,
}

#[test]
fn trace_out_works_on_the_store_journal_and_dump_commands() {
    let (dir, store, journal, dump) = front_door_fixtures("front-door-trace");
    let packed = dir.join("packed");
    let packed = packed.to_str().unwrap();
    for (name, command) in [
        ("verify", &["log", "verify", &store][..]),
        ("inspect", &["log", "inspect", &store]),
        ("pack", &["log", "pack", "programs/bank.ppd", packed]),
        ("report", &["obs", "report", &journal]),
        ("flight", &["obs", "flight", &dump]),
    ] {
        let trace = dir.join(format!("{name}.trace.json"));
        let args = [command, &["--trace-out", trace.to_str().unwrap()]].concat();
        let (_, stderr, ok) = run_ppd(&args);
        assert!(ok, "{args:?}: {stderr}");
        assert!(stderr.contains("span(s) written to"), "{args:?}: {stderr}");
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        let parsed: ChromeTrace = serde_json::from_str(&text).expect("a Chrome trace");
        if name == "verify" {
            // Verify opens the store first: its `log` layer shows up.
            assert!(
                parsed.traceEvents.iter().any(|e| e.ph == "X" && e.name == "segment_open"),
                "{text}"
            );
            assert!(text.contains("\"name\":\"segment_open\",\"cat\":\"log\""), "{text}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn log_verify_metrics_out_writes_an_exposition() {
    let (dir, store, _, _) = front_door_fixtures("front-door-metrics");
    let metrics = dir.join("m.txt");
    let (stdout, stderr, ok) =
        run_ppd(&["log", "verify", &store, "--metrics-out", metrics.to_str().unwrap()]);
    assert!(ok && stdout.contains("ok:"), "{stdout}{stderr}");
    let text = std::fs::read_to_string(&metrics).expect("exposition written");
    assert!(text.ends_with("# EOF\n"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn log_pack_prints_the_compile_error_excerpt_as_check_does() {
    let dir = std::env::temp_dir().join("ppd_cli_test").join("pack-compile-error");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.ppd");
    std::fs::write(&bad, "process M { undeclared = 1; }").unwrap();
    let bad = bad.to_str().unwrap();
    let (_, check_err, ok) = run_ppd(&["check", bad]);
    assert!(!ok && check_err.contains(&format!("--> {bad}:1:")), "{check_err}");
    let store = dir.join("store");
    let (_, pack_err, ok) = run_ppd(&["log", "pack", bad, store.to_str().unwrap()]);
    assert!(!ok);
    assert_eq!(pack_err, check_err, "log pack reports a compile error as check does");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failing_command_still_writes_its_views() {
    // The epilogue runs after every command, a compile error included.
    let dir = std::env::temp_dir().join("ppd_cli_test").join("views-on-failure");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.ppd");
    std::fs::write(&bad, "process M { undeclared = 1; }").unwrap();
    let path = |file: &str| dir.join(file).to_str().unwrap().to_owned();
    let (trace, metrics, flight) = (path("t.json"), path("m.txt"), path("f.json"));
    let (_, stderr, ok) = run_ppd(&[
        "check",
        bad.to_str().unwrap(),
        "--trace-out",
        &trace,
        "--metrics-out",
        &metrics,
        "--flight-out",
        &flight,
    ]);
    assert!(!ok && stderr.contains("compile error"), "{stderr}");
    for file in [&trace, &metrics, &flight] {
        assert!(std::path::Path::new(file).exists(), "{file} not written: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unwritable_journal_fails_before_the_run() {
    let journal = std::env::temp_dir().join("ppd_cli_test").join("no-such-dir").join("j.jsonl");
    let (stdout, stderr, ok) =
        run_ppd(&["debug", "programs/bank.ppd", "--journal", journal.to_str().unwrap()]);
    assert!(!ok && stderr.contains("cannot create journal"), "{stderr}");
    assert_eq!(stdout, "", "the program ran before the journal opened");
}

#[test]
fn obs_report_saturates_overflowing_journal_sums() {
    // Two copies of a real journal line whose latency, bytes and cache
    // hits are each u64::MAX: every total saturates instead of wrapping
    // (or panicking in a debug build).
    let (dir, _, journal, _) = front_door_fixtures("report-overflow");
    let line = std::fs::read_to_string(&journal).unwrap().lines().next().unwrap().to_owned();
    let mut hostile = line.clone();
    for field in ["\"latency_ns\":", "\"bytes_read\":", "\"cache_hits\":"] {
        let at = hostile.find(field).expect("field present") + field.len();
        let end = at + hostile[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        hostile.replace_range(at..end, "18446744073709551615");
    }
    std::fs::write(&journal, format!("{hostile}\n{hostile}\n")).unwrap();
    let out = ppd().args(["obs", "report", &journal, "--format", "json"]).output().unwrap();
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    for needle in [
        "\"queries\":2",
        "\"total\":18446744073709551615}",
        "\"cache_hits\":18446744073709551615",
        "\"bytes_read\":18446744073709551615",
        "\"hit_rate_pct\":100.0000",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in {stdout}");
    }
    let (report, stderr, ok) = run_ppd(&["obs", "report", &journal]);
    assert!(ok, "{stderr}");
    assert!(report.contains("(18446744073709551615 total)"), "{report}");
    assert!(report.contains("(100.0% hit rate)"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_text_is_the_command_reference() {
    // `ppd` alone prints the usage text, which the binary's module doc
    // and the README quote verbatim.
    let stderr = assert_usage_error(&[]);
    let usage = &stderr[stderr.find("usage:").unwrap()..];
    let source = std::fs::read_to_string("src/bin/ppd.rs").unwrap();
    let module_doc: String = source
        .lines()
        .filter_map(|l| l.strip_prefix("//!"))
        .map(|l| format!("{}\n", l.strip_prefix(' ').unwrap_or(l)))
        .collect();
    assert!(module_doc.contains(usage), "src/bin/ppd.rs's module doc drifted from:\n{usage}");
    let readme = std::fs::read_to_string("README.md").unwrap();
    assert!(readme.contains(usage), "README.md drifted from:\n{usage}");
}
