//! Pins the runtime's observable behaviour, run by run, in one golden
//! file (`tests/golden/runtime_runs.txt`).
//!
//! Every corpus program, every `programs/*.ppd` and a few generated
//! programs run under each e-block strategy the CLI offers (plus §7
//! element logging) and three schedules. One line per run records the
//! outcome, the step count, the log's entry counts by kind, an FNV-1a
//! digest of the saved log directory (segments, `pgraph.bin`,
//! `run.json`) and a digest of every interval's replays with the log
//! entries they consumed. A refactor of the interpreter that changes
//! any message wake-up, clock tick, log record or replay read moves at
//! least one digest.
//!
//! Regenerate with `PPD_UPDATE_GOLDEN=1 cargo test --test
//! runtime_golden` only after an intentional behaviour change.

use ppd::analysis::EBlockStrategy;
use ppd::core::{Execution, PpdSession, ReplayEngine, RunConfig};
use ppd::lang::corpus;
use ppd::log::SegmentFormat;
use ppd::runtime::{SchedulerSpec, VecTracer};
use std::fmt::Write as _;
use std::path::Path;

/// Mailbox and channel messaging in one program: two workers share a
/// channel (a channel send wakes both), blocking and asynchronous sends
/// go to both kinds of queue, and a `chan` parameter resolves at run
/// time.
const MAILBOX_AND_CHANNEL: &str = r#"
chan work;
chan results;
shared int total;
shared int hits;
shared int seen[4];

int relay(chan src, chan dst) {
    int x;
    recv(src, x);
    send(dst, x * 2);
    return x + total;
}

process Boss {
    int i;
    int r;
    int ack;
    for (i = 0; i < 3; i = i + 1) {
        asend(work, i + 1);
        send(Helper, i);
        total = total + hits;
    }
    for (i = 0; i < 3; i = i + 1) {
        recv(results, r);
        total = total + r;
        seen[i] = r;
    }
    recv(ack);
    print(total + ack);
}

process WorkerA {
    int a;
    a = relay(work, results);
    a = a + relay(work, results);
}

process WorkerB {
    int b;
    b = relay(work, results);
}

process Helper {
    int i;
    int m;
    int sum;
    for (i = 0; i < 3; i = i + 1) {
        recv(m);
        hits = hits + m;
        sum = sum + m + seen[i];
    }
    send(Boss, sum);
}
"#;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(b"\n");
    }
}

fn programs() -> Vec<(String, String, Vec<Vec<i64>>)> {
    let mut out = Vec::new();
    for p in corpus::all() {
        let inputs = match p.name {
            "flowback_demo" => vec![vec![42, 10]],
            "fig41" => vec![vec![5, 3, 2]],
            _ => vec![],
        };
        out.push((p.name.to_owned(), p.source.to_owned(), inputs));
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("programs/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("ppd"))
        .collect();
    files.sort();
    for path in files {
        let name = path.file_stem().expect("file name").to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).expect("program reads");
        let inputs = match name.as_str() {
            "overdraw" => vec![vec![95]],
            "bounds" => vec![vec![3]],
            _ => vec![],
        };
        out.push((format!("programs/{name}"), source, inputs));
    }
    out.push(("gen_prodcons(5)".into(), corpus::gen_prodcons(5), vec![]));
    out.push(("gen_token_ring(2)".into(), corpus::gen_token_ring(2), vec![]));
    out.push(("gen_deep_calls(4)".into(), corpus::gen_deep_calls(4), vec![vec![9]]));
    out.push(("mailbox_and_channel".into(), MAILBOX_AND_CHANNEL.into(), vec![]));
    out
}

fn strategies() -> Vec<(&'static str, EBlockStrategy)> {
    vec![
        ("subroutine", EBlockStrategy::per_subroutine()),
        ("loops", EBlockStrategy::with_loops(4)),
        ("split", EBlockStrategy::with_split(4)),
        ("merge", EBlockStrategy::with_leaf_merge(8)),
        ("elements", EBlockStrategy::with_loops(4).with_element_logged_arrays()),
    ]
}

/// Digest of a saved run's directory: every file's name and bytes, in
/// name order.
fn dir_digest(execution: &Execution, dir: &Path) -> u64 {
    let _ = std::fs::remove_dir_all(dir);
    execution.save_dir(dir, 0, SegmentFormat::default()).expect("save_dir");
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .expect("saved dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut h = Fnv::new();
    for name in names {
        h.text(&name);
        h.write(&std::fs::read(dir.join(&name)).expect("saved file"));
    }
    let _ = std::fs::remove_dir_all(dir);
    h.0
}

/// Replays every interval of every process with nested e-blocks
/// substituted, and every top-level or still-open one also faithfully
/// (nested calls expanded) and what-if with no change, and digests the
/// traces, outcomes and log entries consumed.
fn replay_digest(session: &PpdSession, execution: &Execution) -> (u64, u64, usize) {
    let engine = ReplayEngine::new(session, execution);
    let index = execution.logs.index();
    let mut h = Fnv::new();
    let mut consumed = 0;
    let mut intervals = 0;
    for p in 0..execution.logs.process_count() {
        let proc = ppd::lang::ProcId(p as u32);
        for iv in index.intervals(proc) {
            intervals += 1;
            h.text(&format!("{iv:?}"));
            match engine.replay_interval(iv) {
                Ok(events) => events.iter().for_each(|e| h.text(&format!("{e:?}"))),
                Err(e) => h.text(&format!("substitute error: {e}")),
            }
        }
        let mut whole = index.top_level(proc);
        whole.extend(index.open_intervals(proc));
        for iv in whole {
            h.text(&format!("{iv:?}"));
            let mut tracer = VecTracer::default();
            match engine.faithful(iv, &mut tracer) {
                Ok(r) => {
                    consumed += r.log_entries_consumed;
                    h.text(&format!("{:?} {:?} {}", r.outcome, r.output, r.steps));
                    tracer.events.iter().for_each(|e| h.text(&format!("{e:?}")));
                }
                Err(e) => h.text(&format!("faithful error: {e}")),
            }
            match engine.what_if(iv, &[]) {
                Ok(w) => {
                    h.text(&format!("{:?} {:?}", w.result.outcome, w.result.output));
                    w.events.iter().for_each(|e| h.text(&format!("{e:?}")));
                }
                Err(e) => h.text(&format!("what-if error: {e}")),
            }
        }
    }
    let stats = engine.stats();
    h.text(&format!("{} {} {}", stats.replays, stats.trace_events, stats.log_entries_scanned));
    (h.0, consumed, intervals)
}

fn run_line(
    out: &mut String,
    label: &str,
    session: &PpdSession,
    config: RunConfig,
    dir: &Path,
) -> Execution {
    let execution = session.execute(config);
    let kinds: Vec<String> =
        execution.logs.counts_by_kind().iter().map(|(k, n)| format!("{k}:{n}")).collect();
    let store = dir_digest(&execution, dir);
    let (replay, consumed, intervals) = replay_digest(session, &execution);
    let _ = writeln!(
        out,
        "{label}: {:?} steps={} entries=[{}] store={store:016x} intervals={intervals} \
         consumed={consumed} replay={replay:016x}",
        execution.outcome,
        execution.steps,
        kinds.join(",")
    );
    execution
}

#[test]
fn runtime_runs_match_golden() {
    let dir = std::env::temp_dir().join(format!("ppd_runtime_golden_{}", std::process::id()));
    let schedules = [
        ("rr", SchedulerSpec::RoundRobin),
        ("seed7", SchedulerSpec::Random { seed: 7 }),
        ("seed11", SchedulerSpec::Random { seed: 11 }),
    ];
    let mut out = String::new();
    for (name, source, inputs) in programs() {
        for (sname, strategy) in strategies() {
            let session = PpdSession::prepare(&source, strategy).expect("program prepares");
            // One process has one interleaving: a seed changes nothing.
            let runs = if session.rp().procs.len() == 1 { 1 } else { schedules.len() };
            for &(schedule_name, scheduler) in &schedules[..runs] {
                let config =
                    RunConfig { scheduler, inputs: inputs.clone(), ..RunConfig::default() };
                let label = format!("{name} {sname} {schedule_name}");
                run_line(&mut out, &label, &session, config, &dir);
            }
            // A user-intervention halt halfway through the round-robin
            // run: replays of the open intervals stop where it did.
            let config = RunConfig { inputs: inputs.clone(), ..RunConfig::default() };
            let mut tracer = VecTracer::default();
            session.execute_traced(config.clone(), &mut tracer);
            if let Some(event) = tracer.events.get(tracer.events.len() / 2) {
                let halt = RunConfig { breakpoints: vec![event.stmt], ..config };
                let label = format!("{name} {sname} halt@{}", event.stmt.0);
                run_line(&mut out, &label, &session, halt, &dir);
            }
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/runtime_runs.txt");
    if std::env::var_os("PPD_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &out).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    for (got, want) in out.lines().zip(expected.lines()) {
        assert_eq!(got, want, "a run drifted from tests/golden/runtime_runs.txt");
    }
    assert_eq!(
        out.lines().count(),
        expected.lines().count(),
        "tests/golden/runtime_runs.txt lists a different set of runs"
    );
}
