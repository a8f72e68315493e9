//! Determinism and integrity suite for the out-of-core segmented log
//! store.
//!
//! Everything the debugger answers over an on-disk store — dynamic
//! graphs, flowback, slices, races — must be bit-identical to the
//! in-memory execution it was saved from, across the corpus, the
//! `programs/` directory, proptest-randomized schedules, and generated
//! programs. The interval index rebuilt from segment footers must equal
//! the index a full entry scan builds, and opening a store must decode
//! zero entries (the no-rescan acceptance criterion).

mod common;

use common::{expand_all, fingerprint, workloads, Gen};
use ppd::analysis::{EBlockId, EBlockStrategy};
use ppd::core::{Controller, Execution, PpdSession, RunConfig};
use ppd::graph::detect_races;
use ppd::lang::{corpus, ProcId, Value, VarId};
use ppd::log::{IntervalIndex, IntervalRef, LogEntry, LogStore, SegmentFormat, SegmentWriter};
use ppd::runtime::{ExecConfig, Machine, NullTracer, SchedulerSpec};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Every on-disk payload layout the store can read.
const FORMATS: [(&str, SegmentFormat); 2] =
    [("v2raw", SegmentFormat::V2Raw), ("v2z", SegmentFormat::V2Compressed)];

/// Fresh per-test store directory under the system temp dir.
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ppd-logstream-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small capacity so every workload spans multiple segments per process.
const SEG_BYTES: usize = 512;

/// Full debug transcript: start + expand everything + flowback +
/// slice + races — every answer a user could compare between the
/// in-memory and the reopened-from-disk execution.
fn transcript(session: &PpdSession, execution: &Execution) -> Vec<String> {
    let mut c = Controller::new(session, execution);
    let mut out = Vec::new();
    match c.start() {
        Ok(root) => {
            expand_all(&mut c);
            out.push(fingerprint(&c));
            out.push(format!("flowback: {:?}", c.flowback(root)));
            out.push(format!("slice: {:?}", c.backward_slice(root)));
        }
        Err(e) => out.push(format!("start failed: {e}")),
    }
    let races: Vec<String> = c.races().into_iter().map(|r| r.description).collect();
    out.push(format!("races: {races:?}"));
    out
}

/// Saves `execution` to `dir` and reloads it, asserting the reload is
/// segment-backed and per-process bit-identical before returning it.
fn save_and_reload(name: &str, execution: &Execution, dir: &Path) -> Execution {
    execution.save_dir(dir, SEG_BYTES, SegmentFormat::default()).expect("save_dir succeeds");
    let loaded = Execution::load_dir(dir).expect("load_dir succeeds");
    assert!(loaded.logs.is_segmented(), "{name}: reload must be segment-backed");
    for p in 0..execution.logs.process_count() {
        let pid = ProcId(p as u32);
        assert_eq!(
            loaded.logs.log(pid).entries,
            execution.logs.log(pid).entries,
            "{name}: proc {p} entries diverged across the disk round-trip"
        );
    }
    loaded
}

#[test]
fn on_disk_transcripts_match_in_memory_across_corpus_and_programs() {
    for (name, session, config) in workloads() {
        let dir = tmp_dir(&format!("transcript-{name}"));
        let execution = session.execute(config);
        let loaded = save_and_reload(&name, &execution, &dir);
        assert_eq!(
            transcript(&session, &execution),
            transcript(&session, &loaded),
            "{name}: on-disk transcript diverged from in-memory"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The graph-record round trip: for the corpus, `programs/` and the
/// generators, each under six schedules, loading a saved run and saving
/// it again gives byte-identical records (decode, then re-encode) and
/// the same races. Every recorded edge points forward (the check that
/// keeps a loaded graph acyclic) and node times never decrease (what
/// keeps the delta-coded times one byte long).
#[test]
fn graph_record_round_trips_across_corpus_programs_and_generators() {
    let mut sources: Vec<(String, String)> =
        corpus::all().into_iter().map(|p| (p.name.to_owned(), p.source.to_owned())).collect();
    for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/programs")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("ppd") {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            sources.push((name, std::fs::read_to_string(&path).unwrap()));
        }
    }
    let generated = [
        ("gen_loop_heavy", corpus::gen_loop_heavy(9)),
        ("gen_deep_calls", corpus::gen_deep_calls(5)),
        ("gen_racy_workers", corpus::gen_racy_workers(4, 8)),
        ("gen_prodcons", corpus::gen_prodcons(20)),
        ("gen_bank", corpus::gen_bank(20)),
        ("gen_token_ring", corpus::gen_token_ring(10)),
        ("gen_quicksort", corpus::gen_quicksort(12)),
        ("gen_wide_vars", corpus::gen_wide_vars(8)),
    ];
    sources.extend(generated.into_iter().map(|(name, src)| (name.to_owned(), src)));
    let schedules = [
        SchedulerSpec::RoundRobin,
        SchedulerSpec::PreferLowest,
        SchedulerSpec::PreferHighest,
        SchedulerSpec::RunToBlock,
        SchedulerSpec::Random { seed: 1 },
        SchedulerSpec::Random { seed: 2 },
    ];
    let (mut graphs, mut edges) = (0, 0);
    let record = |dir: &Path| {
        ["pgraph.bin", "run.json"].map(|name| std::fs::read(dir.join(name)).expect("record file"))
    };
    for (name, source) in &sources {
        let session = PpdSession::prepare(source, EBlockStrategy::per_subroutine())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for scheduler in schedules {
            // Three for every `input()` of every process: `overdraw`
            // and `bounds` then complete.
            let config =
                RunConfig { scheduler, inputs: vec![vec![3; 8]; 8], ..RunConfig::default() };
            let execution = session.execute(config);
            let (first, second) = (tmp_dir(&format!("graph-{name}")), tmp_dir("graph-again"));
            execution.save_dir(&first, 0, SegmentFormat::default()).expect("save_dir succeeds");
            let loaded = Execution::load_dir(&first).expect("load_dir succeeds");
            loaded.save_dir(&second, 0, SegmentFormat::default()).expect("save_dir succeeds");
            assert!(record(&first) == record(&second), "{name} {scheduler:?}: record changed");
            let (g, h) = (&execution.pgraph, &loaded.pgraph);
            assert_eq!(
                detect_races(g, execution.ordering(), None),
                detect_races(h, loaded.ordering(), None),
                "{name} {scheduler:?}"
            );
            assert!(g.nodes().windows(2).all(|w| w[0].time <= w[1].time), "{name}");
            assert!(g.internal_edges().iter().all(|e| e.from < e.to), "{name}");
            assert!(g.sync_edges().iter().all(|e| e.from < e.to), "{name}");
            graphs += 1;
            edges += g.internal_edges().len() + g.sync_edges().len();
            let _ = std::fs::remove_dir_all(&first);
            let _ = std::fs::remove_dir_all(&second);
        }
    }
    assert_eq!(graphs, sources.len() * schedules.len());
    assert!(edges > 5_000, "only {edges} edges in {graphs} graphs");
}

#[test]
fn footer_index_matches_rebuilt_index() {
    for (name, session, config) in workloads() {
        let dir = tmp_dir(&format!("index-{name}"));
        let execution = session.execute(config);
        execution.save_dir(&dir, SEG_BYTES, SegmentFormat::default()).expect("save_dir succeeds");
        let loaded = Execution::load_dir(&dir).expect("load_dir succeeds");
        let seg = loaded.logs.segmented().expect("segment-backed").clone();
        // The index the footers give us, without touching a payload…
        let from_footers = seg.index();
        assert_eq!(seg.entries_decoded(), 0, "{name}: footer index decoded entries");
        // …must equal the index a full scan of the original builds.
        let rebuilt = IntervalIndex::build(&execution.logs);
        assert_eq!(from_footers.process_count(), rebuilt.process_count(), "{name}");
        for p in 0..rebuilt.process_count() {
            let pid = ProcId(p as u32);
            assert_eq!(
                from_footers.intervals(pid),
                rebuilt.intervals(pid),
                "{name}: proc {p} interval lists diverged"
            );
            assert_eq!(
                from_footers.open_intervals(pid),
                rebuilt.open_intervals(pid),
                "{name}: proc {p} open intervals diverged"
            );
            assert_eq!(
                from_footers.top_level(pid),
                rebuilt.top_level(pid),
                "{name}: proc {p} top-level intervals diverged"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The no-rescan acceptance criterion: opening a store and answering
/// structural queries decodes zero entries; only touching a payload
/// decodes, and only that process's share.
#[test]
fn opening_a_store_decodes_no_entries() {
    let session =
        PpdSession::prepare(corpus::PRODUCER_CONSUMER.source, EBlockStrategy::per_subroutine())
            .expect("corpus program compiles");
    let execution = session.execute(RunConfig::default());
    let dir = tmp_dir("no-rescan");
    execution.save_dir(&dir, 256, SegmentFormat::default()).expect("save_dir succeeds");
    let loaded = Execution::load_dir(&dir).expect("load_dir succeeds");
    let seg = loaded.logs.segmented().expect("segment-backed").clone();
    assert!(seg.total_entries() > 0);
    let idx = seg.index();
    for p in 0..loaded.logs.process_count() {
        let pid = ProcId(p as u32);
        let _ = idx.open_intervals(pid);
        let _ = idx.interval_count(pid);
    }
    assert_eq!(seg.entries_decoded(), 0, "structural queries must not decode entries");
    let n0 = loaded.logs.log(ProcId(0)).entries.len() as u64;
    assert_eq!(seg.entries_decoded(), n0, "touching proc 0 decodes exactly its entries");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Entries a replay of `interval` reads: those from its prelog up to
/// its postlog (or the end of the log, if it is still open) that lie
/// outside its nested intervals, plus one postlog per nested interval —
/// counted from the index alone.
fn consumed_entries(index: &IntervalIndex, interval: IntervalRef, log_len: usize) -> u64 {
    let end = interval.postlog_pos.unwrap_or(log_len);
    let nested: usize = index
        .direct_children(interval)
        .iter()
        .map(|c| c.postlog_pos.expect("nested intervals of a replay are closed") - c.prelog_pos)
        .sum();
    (end - interval.prelog_pos - nested) as u64
}

/// On a segment store, replay decodes exactly the entries it consumes:
/// the halted interval's own entries and one postlog per nested
/// interval at `start`, then the same for the interval an `expand`
/// replays — never a nested interval's interior, and fewer entries than
/// the process logged.
#[test]
fn replay_decodes_only_the_entries_it_consumes() {
    // Process H1 folds 8 rounds of 4 updates into the shared array, each
    // round and each inner loop its own loop e-block, then fails: the
    // halted body interval holds one nested round loop, which holds 8
    // inner loops.
    let body = |base: u32| {
        format!(
            "    int r;\n    int k;\n    int j;\n    int s = 0;\n    \
             for (r = 0; r < 8; r = r + 1) {{\n        for (k = 0; k < 4; k = k + 1) {{ \
             j = {base} + (r * 13 + k * 7) % 32; hist[j] = hist[j] + k; }}\n    }}\n"
        )
    };
    let source = format!(
        "shared int hist[64];\nprocess H0 {{\n{}    print(hist[0]);\n}}\n\
         process H1 {{\n{}    assert(s < 0);\n}}\n",
        body(0),
        body(32)
    );
    let session =
        PpdSession::prepare(&source, EBlockStrategy::with_loops(4)).expect("program compiles");
    let execution = session.execute(RunConfig::default());
    assert!(execution.outcome.is_failure(), "{:?}", execution.outcome);
    for (tag, format) in FORMATS {
        let dir = tmp_dir(&format!("decode-count-{tag}"));
        execution.save_dir(&dir, SEG_BYTES, format).expect("save_dir succeeds");
        let loaded = Execution::load_dir(&dir).expect("load_dir succeeds");
        let seg = loaded.logs.segmented().expect("segment-backed").clone();
        let index = loaded.logs.index();
        let proc = ProcId(1);
        let log_len: usize = seg.segments(proc).map(|m| m.entry_count as usize).sum();
        let halted = *index.open_intervals(proc).last().expect("H1 halted inside its body");

        let mut c = Controller::new(&session, &loaded);
        c.start().expect("debugging starts");
        let after_start = seg.entries_decoded();
        assert_eq!(after_start, consumed_entries(&index, halted, log_len), "{tag}: start");
        assert!(after_start < log_len as u64, "{tag}: start decoded the whole process");

        let round_loop = index.direct_children(halted);
        assert_eq!(round_loop.len(), 1, "{tag}: the body nests one round loop");
        assert_eq!(index.direct_children(round_loop[0]).len(), 8, "{tag}: 8 inner loops");
        let node = *c.unexpanded().first().expect("the round loop is expandable");
        c.expand(node).expect("expand replays the round loop");
        assert_eq!(
            seg.entries_decoded() - after_start,
            consumed_entries(&index, round_loop[0], log_len),
            "{tag}: expand"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The reference for [`ppd::log::LogCursor::skip_nested_interval`]: the
/// linear scan it replaced, from `pos` forward to the next prelog of
/// `eblock`, then on to the postlog of that instance. Returns the
/// postlog and the position after it, or `None` and the end of the log
/// if either is missing.
fn linear_skip(
    entries: &[LogEntry],
    mut pos: usize,
    eblock: EBlockId,
) -> (Option<LogEntry>, usize) {
    let instance = loop {
        match entries.get(pos) {
            None => return (None, pos),
            Some(LogEntry::Prelog { eblock: b, instance, .. }) if *b == eblock => {
                pos += 1;
                break *instance;
            }
            Some(_) => pos += 1,
        }
    };
    while let Some(e) = entries.get(pos) {
        pos += 1;
        if matches!(e, LogEntry::Postlog { eblock: b, instance: i, .. } if *b == eblock && *i == instance)
        {
            return (Some(e.clone()), pos);
        }
    }
    (None, pos)
}

/// A well-formed nested log of one process, driven by `bytes`: prelogs
/// of three e-blocks (so recursion through one e-block is common),
/// postlogs closing the innermost open interval, and snapshot, input
/// and receive entries between them. Whatever is still open at the end
/// is the open tail.
fn nested_log(bytes: &[u8]) -> LogStore {
    let p = ProcId(0);
    let mut store = LogStore::new(1);
    let mut open: Vec<(EBlockId, u64)> = Vec::new();
    let mut next_instance = [0u64; 3];
    for (t, &b) in bytes.iter().enumerate() {
        let (time, v) = (t as u64 + 1, t as i64);
        let entry = match (b % 8, open.last().copied()) {
            (0..=2, _) => {
                let eblock = EBlockId(u32::from(b / 8 % 3));
                let instance = next_instance[eblock.0 as usize];
                next_instance[eblock.0 as usize] += 1;
                open.push((eblock, instance));
                LogEntry::Prelog { eblock, instance, values: vec![(VarId(0), Value::Int(v))], time }
            }
            (3..=5, Some((eblock, instance))) => {
                open.pop();
                let values = vec![(VarId(0), Value::Int(-v))];
                LogEntry::Postlog { eblock, instance, values, ret: None, time }
            }
            (6, _) => {
                LogEntry::SharedSnapshot { at: None, values: vec![(VarId(1), Value::Int(v))], time }
            }
            _ if b % 2 == 0 => LogEntry::Input { value: v, time },
            _ => LogEntry::Receive { value: v, time },
        };
        store.push(p, entry);
    }
    store
}

/// Streaming-sink parity: a run that streams segments to disk as it
/// executes must reopen to the same logs, transcripts and races as the
/// purely in-memory run of the same schedule.
#[test]
fn streamed_runs_match_in_memory_runs() {
    for (name, session, config) in workloads() {
        let dir = tmp_dir(&format!("streamed-{name}"));
        let in_memory = session.execute(config.clone());
        let streamed = session
            .execute_streaming_with(config, &dir, SEG_BYTES, false)
            .expect("streaming run succeeds");
        assert!(streamed.logs.is_segmented(), "{name}");
        assert_eq!(streamed.outcome, in_memory.outcome, "{name}: outcomes diverged");
        assert_eq!(
            transcript(&session, &in_memory),
            transcript(&session, &streamed),
            "{name}: streamed transcript diverged from in-memory"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A streamed run keeps no in-memory copy of its log: the machine
/// returns no `LogStore`, and the store it wrote reopens to exactly the
/// entries of the in-memory run of the same schedule, raw or compressed.
#[test]
fn streamed_run_keeps_no_in_memory_log() {
    for (name, session, config) in workloads() {
        let in_memory = session.execute(config.clone());
        for (tag, format) in FORMATS {
            let dir = tmp_dir(&format!("no-copy-{name}-{tag}"));
            let mut exec = ExecConfig {
                scheduler: config.scheduler,
                inputs: config.inputs.clone(),
                breakpoints: config.breakpoints.clone(),
                log_dir: Some(dir.clone()),
                segment_bytes: SEG_BYTES,
                compress: format == SegmentFormat::V2Compressed,
                ..ExecConfig::default()
            };
            if let Some(max) = config.max_steps {
                exec.max_steps = max;
            }
            let machine =
                Machine::new(session.rp(), session.analyses(), Some(session.plan()), exec);
            let result = machine.run(&mut NullTracer);
            assert_eq!(result.sink_error, None, "{name}/{tag}");
            assert!(result.logs.is_none(), "{name}/{tag}: a streamed run kept its log in memory");
            let reopened = LogStore::open_dir(&dir).expect("streamed store opens");
            assert_eq!(reopened.process_count(), in_memory.logs.process_count(), "{name}/{tag}");
            for p in 0..reopened.process_count() {
                let pid = ProcId(p as u32);
                assert_eq!(
                    reopened.log(pid).entries,
                    in_memory.logs.log(pid).entries,
                    "{name}/{tag}: proc {p} streamed entries diverged from in-memory"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Truncated-tail recovery end to end: killing the tail segment of one
/// process still loads (with a warning), and the surviving log is a
/// prefix of the original.
#[test]
fn truncated_tail_still_loads_with_warning() {
    let session = PpdSession::prepare(corpus::QUICKSORT.source, EBlockStrategy::per_subroutine())
        .expect("corpus program compiles");
    let execution = session.execute(RunConfig::default());
    let dir = tmp_dir("truncated-tail");
    execution.save_dir(&dir, 256, SegmentFormat::default()).expect("save_dir succeeds");
    // Truncate the highest-seq segment file of some process mid-file.
    let mut segs: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".seg"))
        .collect();
    segs.sort();
    let victim = dir.join(segs.last().expect("at least one segment"));
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
    let loaded = Execution::load_dir(&dir).expect("tail truncation must be recoverable");
    let seg = loaded.logs.segmented().expect("segment-backed").clone();
    assert_eq!(seg.warnings().len(), 1, "{:?}", seg.warnings());
    for p in 0..execution.logs.process_count() {
        let pid = ProcId(p as u32);
        let got = &loaded.logs.log(pid).entries;
        let full = &execution.logs.log(pid).entries;
        assert!(got.len() <= full.len(), "proc {p}");
        assert_eq!(got.as_slice(), &full[..got.len()], "proc {p} is not a prefix");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bit-identical query transcripts across raw and compressed stores of
/// the same execution: the payload layout must never leak into a
/// debugger answer.
#[test]
fn transcripts_identical_across_v2raw_and_v2_compressed() {
    for (name, session, config) in workloads() {
        let execution = session.execute(config);
        let base = transcript(&session, &execution);
        for (tag, format) in FORMATS {
            let dir = tmp_dir(&format!("fmt-{tag}-{name}"));
            execution.save_dir(&dir, SEG_BYTES, format).expect("save_dir succeeds");
            let loaded = Execution::load_dir(&dir).expect("load_dir succeeds");
            for p in 0..execution.logs.process_count() {
                let pid = ProcId(p as u32);
                assert_eq!(
                    loaded.logs.log(pid).entries,
                    execution.logs.log(pid).entries,
                    "{name}/{tag}: proc {p} entries diverged"
                );
            }
            assert_eq!(
                base,
                transcript(&session, &loaded),
                "{name}/{tag}: transcript diverged from in-memory"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Live-tail recovery parity: a writer that flushed but never sealed
/// (the still-running-program shape) leaves only unsealed tails, and the
/// recovered store answers every query identically in both formats.
#[test]
fn recovered_live_tails_answer_queries_identically_across_formats() {
    let session = PpdSession::prepare(corpus::QUICKSORT.source, EBlockStrategy::per_subroutine())
        .expect("corpus program compiles");
    let execution = session.execute(RunConfig::default());
    let base = transcript(&session, &execution);
    let nprocs = execution.logs.process_count();
    for (tag, format) in FORMATS {
        let dir = tmp_dir(&format!("live-{tag}"));
        let mut w = SegmentWriter::create(&dir, nprocs, 1 << 20, format)
            .expect("writer creates")
            .with_block_bytes(64);
        for p in 0..nprocs {
            let pid = ProcId(p as u32);
            for e in &execution.logs.log(pid).entries {
                w.append(pid, e);
            }
        }
        w.flush(); // flushed, never sealed: every segment is a live tail
        drop(w);
        let logs = LogStore::open_dir(&dir).expect("live store opens");
        let seg = logs.segmented().expect("segment-backed").clone();
        assert_eq!(
            seg.recovered_entries(),
            execution.logs.total_entries() as u64,
            "{tag}: every flushed entry is recoverable"
        );
        assert!(!logs.recovery_warnings().is_empty(), "{tag}: recovery warns");
        // Execution is deterministic: a re-run carries the same record,
        // whose in-memory logs are then swapped for the recovered ones.
        let mut recovered = session.execute(RunConfig::default());
        recovered.logs = logs;
        assert_eq!(
            base,
            transcript(&session, &recovered),
            "{tag}: recovered-tail transcript diverged from in-memory"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Truncating a compressed v2 segment mid-block (inside a stored frame)
/// and at a frame boundary both recover an exact prefix of the
/// in-memory log — never garbage, never a non-prefix.
#[test]
fn compressed_truncation_recovers_exact_prefix() {
    let session = PpdSession::prepare(corpus::QUICKSORT.source, EBlockStrategy::per_subroutine())
        .expect("corpus program compiles");
    let execution = session.execute(RunConfig::default());
    let nprocs = execution.logs.process_count();
    // The victim: the process with the most entries.
    let victim_proc =
        (0..nprocs).max_by_key(|&p| execution.logs.log(ProcId(p as u32)).entries.len()).unwrap();
    for cut_mid_frame in [true, false] {
        // One big segment per process, framed into many tiny blocks so
        // the cut lands well inside the frame sequence.
        let dir = tmp_dir(&format!("zcut-{cut_mid_frame}"));
        let mut w = SegmentWriter::create(&dir, nprocs, 1 << 20, SegmentFormat::V2Compressed)
            .expect("writer creates")
            .with_block_bytes(64);
        for p in 0..nprocs {
            let pid = ProcId(p as u32);
            for e in &execution.logs.log(pid).entries {
                w.append(pid, e);
            }
        }
        w.finish().expect("finish seals");
        let probe = ppd::log::SegmentedLog::open(&dir).expect("probe opens");
        let meta = probe.segments(ProcId(victim_proc as u32)).next().expect("one segment").clone();
        assert!(meta.block_count() >= 3, "expected many small frames, got {}", meta.block_count());
        let block = meta.blocks().last().copied().expect("blocks");
        drop(probe);
        // Cut inside the last stored frame (mid-block), or exactly at
        // its start (a frame boundary, splitting the record stream
        // mid-record sequence): both must drop that frame's entries
        // and keep every earlier one.
        let cut = meta.payload_start()
            + block.stored_off as usize
            + if cut_mid_frame { (block.stored_len as usize) / 2 } else { 0 };
        let victim = dir.join(&meta.file);
        let bytes = std::fs::read(&victim).unwrap();
        assert!(cut < bytes.len());
        std::fs::write(&victim, &bytes[..cut]).unwrap();
        let loaded = LogStore::open_dir(&dir).expect("truncated store recovers");
        let seg = loaded.segmented().expect("segment-backed").clone();
        assert_eq!(seg.warnings().len(), 1, "{:?}", seg.warnings());
        let got = &loaded.log(ProcId(victim_proc as u32)).entries;
        let full = &execution.logs.log(ProcId(victim_proc as u32)).entries;
        assert!(!got.is_empty(), "earlier frames must survive the cut");
        assert!(got.len() < full.len(), "truncation must lose the cut frame's entries");
        assert_eq!(got.as_slice(), &full[..got.len()], "recovered tail is not a prefix");
        // Untouched processes stay complete.
        for p in 0..nprocs {
            if p != victim_proc {
                let pid = ProcId(p as u32);
                assert_eq!(loaded.log(pid).entries, execution.logs.log(pid).entries);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Regression: a directory whose manifest lists a process that has no
/// segment files at all must fail with a positioned store error, not
/// panic or silently produce an empty log.
#[test]
fn zero_segment_process_is_a_positioned_store_error() {
    let session =
        PpdSession::prepare(corpus::PRODUCER_CONSUMER.source, EBlockStrategy::per_subroutine())
            .expect("corpus program compiles");
    let execution = session.execute(RunConfig::default());
    let dir = tmp_dir("zero-seg");
    execution.save_dir(&dir, SEG_BYTES, SegmentFormat::default()).expect("save_dir succeeds");
    let victim = execution.logs.process_count() - 1;
    let prefix = format!("p{victim:04}-");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.as_ref().unwrap().file_name().to_string_lossy().into_owned();
        if name.starts_with(&prefix) && name.ends_with(".seg") {
            std::fs::remove_file(entry.unwrap().path()).unwrap();
        }
    }
    let err = Execution::load_dir(&dir).expect_err("missing process must be an error");
    assert!(matches!(err, ppd::core::PpdError::Store(_)), "wrong error kind: {err:?}");
    let msg = err.to_string();
    assert!(
        msg.contains("no segment files") && msg.contains(&format!("process {victim}")),
        "unpositioned error: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Randomized schedules and generated programs (proptest)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Under proptest-randomized schedules, the disk round-trip changes
    /// no debugger answer.
    #[test]
    fn randomized_schedules_round_trip_through_disk(
        choice in any::<u8>(),
        seed in 0u64..10_000,
    ) {
        let (source, inputs): (&str, Vec<Vec<i64>>) = match choice % 4 {
            0 => (corpus::PRODUCER_CONSUMER.source, vec![]),
            1 => (corpus::FIG_6_1.source, vec![]),
            2 => (corpus::FLOWBACK_DEMO.source, vec![vec![42, 10]]),
            _ => (corpus::QUICKSORT.source, vec![]),
        };
        let session = PpdSession::prepare(source, EBlockStrategy::per_subroutine())
            .expect("corpus program compiles");
        let execution = session.execute(RunConfig {
            scheduler: SchedulerSpec::Random { seed },
            inputs,
            ..RunConfig::default()
        });
        let dir = tmp_dir(&format!("prop-{}-{seed}", choice % 4));
        let loaded = save_and_reload("randomized", &execution, &dir);
        prop_assert_eq!(
            transcript(&session, &execution),
            transcript(&session, &loaded),
            "seed {} diverged across the disk round-trip",
            seed
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Generated programs round-trip too — the store format carries
    /// arbitrary entry shapes, not just the corpus's.
    #[test]
    fn generated_programs_round_trip_through_disk(bytes in proptest::collection::vec(any::<u8>(), 4..64)) {
        let source = Gen::new(&bytes).program();
        let session = PpdSession::prepare(&source, EBlockStrategy::per_subroutine())
            .expect("generated program compiles");
        let execution = session.execute(RunConfig::default());
        let dir = tmp_dir(&format!("gen-{:02x}{:02x}-{}", bytes[0], bytes[1], bytes.len()));
        let loaded = save_and_reload("generated", &execution, &dir);
        prop_assert_eq!(
            transcript(&session, &execution),
            transcript(&session, &loaded),
            "generated program diverged across the disk round-trip"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The index jump lands where the linear scan did: from every cursor
    /// position of a random nested log, and for every e-block (including
    /// one never logged), `skip_nested_interval` returns the same postlog
    /// and leaves the cursor at the same position — over the in-memory
    /// log and over raw and compressed segment stores of it.
    #[test]
    fn index_jump_matches_linear_scan(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let mem = nested_log(&bytes);
        let entries = mem.log(ProcId(0)).entries.clone();
        let mut stores = vec![mem];
        let dirs: Vec<PathBuf> = FORMATS
            .iter()
            .map(|(tag, format)| {
                let dir = tmp_dir(&format!("jump-{tag}-{}-{:?}", bytes.len(), bytes.first()));
                stores[0].write_dir(&dir, 64, *format).expect("write_dir succeeds");
                dir
            })
            .collect();
        for dir in &dirs {
            stores.push(LogStore::open_dir(dir).expect("store opens"));
        }
        for store in &stores {
            for pos in 0..=entries.len() {
                for eb in 0..4 {
                    let eblock = EBlockId(eb);
                    let mut cursor = store.cursor(ProcId(0), pos);
                    let got = cursor.skip_nested_interval(eblock).expect("store is intact");
                    prop_assert_eq!(
                        (got, cursor.position()),
                        linear_skip(&entries, pos, eblock),
                        "pos {} eblock {} segmented {}",
                        pos,
                        eb,
                        store.is_segmented()
                    );
                }
            }
        }
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
