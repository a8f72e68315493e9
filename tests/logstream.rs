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

use common::Gen;
use ppd::analysis::EBlockStrategy;
use ppd::core::{Controller, Execution, PpdSession, RunConfig};
use ppd::lang::{corpus, ProcId};
use ppd::log::{IntervalIndex, LogStore, SegmentFormat, SegmentWriter};
use ppd::runtime::SchedulerSpec;
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

/// The corpus + `programs/` workload sweep (mirrors the parallel
/// backend determinism suite).
fn workloads() -> Vec<(String, PpdSession, RunConfig)> {
    let mut out = Vec::new();
    let corpus_set: Vec<(&str, &str, Vec<Vec<i64>>)> = vec![
        ("flowback_demo", corpus::FLOWBACK_DEMO.source, vec![vec![42, 10]]),
        ("producer_consumer", corpus::PRODUCER_CONSUMER.source, vec![]),
        ("fig41", corpus::FIG_4_1.source, vec![vec![5, 3, 2]]),
        ("fig61", corpus::FIG_6_1.source, vec![]),
        ("quicksort", corpus::QUICKSORT.source, vec![]),
    ];
    for (name, source, inputs) in corpus_set {
        let session = PpdSession::prepare(source, EBlockStrategy::per_subroutine())
            .expect("corpus program compiles");
        out.push((name.to_owned(), session, RunConfig { inputs, ..RunConfig::default() }));
    }
    for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/programs"))
        .expect("programs/ exists")
    {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("ppd") {
            continue;
        }
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).expect("program reads");
        let session = PpdSession::prepare(&source, EBlockStrategy::per_subroutine())
            .expect("programs/ compiles");
        let inputs = if name == "overdraw" { vec![vec![95]] } else { vec![] };
        out.push((name, session, RunConfig { inputs, ..RunConfig::default() }));
    }
    out
}

/// A total, order-stable description of the dynamic graph.
fn fingerprint(controller: &Controller<'_>) -> String {
    use std::fmt::Write as _;
    let graph = controller.graph();
    let mut out = String::new();
    for n in graph.nodes() {
        let mut preds: Vec<String> =
            graph.dependence_preds(n.id).iter().map(|(p, k)| format!("{}:{k:?}", p.0)).collect();
        preds.sort();
        let _ = writeln!(
            out,
            "#{} {:?} {} proc{} seq{} {:?} <- [{}]",
            n.id.0,
            n.kind,
            n.label,
            n.proc.0,
            n.seq,
            n.value,
            preds.join(", ")
        );
    }
    out
}

/// Full debug transcript: start + expand everything + flowback +
/// slice + races — every answer a user could compare between the
/// in-memory and the reopened-from-disk execution.
fn transcript(session: &PpdSession, execution: &Execution) -> Vec<String> {
    let mut c = Controller::new(session, execution);
    let mut out = Vec::new();
    match c.start() {
        Ok(root) => {
            loop {
                let pending = c.unexpanded();
                let before = c.graph().len();
                for node in pending {
                    let _ = c.expand(node);
                }
                if c.graph().len() == before {
                    break;
                }
            }
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
