//! `postmortem` — debugging a halted run from its on-disk store.
//!
//! Set-up streams one long run to disk twice, raw and lzb-compressed:
//! a wide shared histogram updated in loop e-blocks by eight processes,
//! one of which (chosen by the seed) fails its final check, halting the
//! program. The raw store is ~17 MB. Each pass prepares the program and
//! then loads a store cold four times, alternating formats: open the
//! segments, index them, start a controller, replay the halted
//! interval, present the first fragment and expand one node. That is
//! the log read path plus cold replay, with no execution; it reads what
//! `exec_log` writes, so a format change that trades write cost for
//! read cost shows up on one of the two. The unit operation is one
//! load → first-flowback sequence.

use super::{prepare_all, Fingerprint, Program, Rng, Workload};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Recorder;
use crate::Pass;
use ppd_analysis::EBlockStrategy;
use ppd_core::{Controller, Execution, PpdError, PpdSession};
use ppd_lang::ProcId;
use ppd_runtime::SchedulerSpec;
use std::path::{Path, PathBuf};

const PROCS: u32 = 8;
/// Histogram cells per process; every round snapshots the process's slice.
const CELLS: u32 = 512;
/// Cells updated per round.
const TOUCH: u32 = 16;
const ROUNDS: u32 = 256;
/// Segment payload capacity: many segments, so open cost is visible.
const SEGMENT_BYTES: usize = 32 << 10;
/// Cold loads per pass, alternating raw and lzb.
const LOADS: usize = 4;

/// `PROCS` processes each fold `ROUNDS` rounds of scattered updates
/// into their own `CELLS`-wide slice of one shared array — one loop
/// e-block instance per round, each logging the slice. Process `fail`
/// then sums its slice and asserts the impossible, halting the run.
fn failing_histogram(fail: u32) -> String {
    let mut src = format!("shared int hist[{}];\n", PROCS * CELLS);
    for i in 0..PROCS {
        let base = i * CELLS;
        let halt = if i == fail {
            format!(
                "    for (k = 0; k < {CELLS}; k = k + 1) {{ s = s + hist[{base} + k]; }}\n    \
                 assert(s < 0);\n"
            )
        } else {
            String::new()
        };
        src.push_str(&format!(
            "process H{i} {{\n    int r;\n    int k;\n    int j;\n    int s = 0;\n    \
             for (r = 0; r < {ROUNDS}; r = r + 1) {{\n        \
             for (k = 0; k < {TOUCH}; k = k + 1) {{ j = (r * 13 + k * 7) % {CELLS}; \
             hist[{base} + j] = hist[{base} + j] + (k % 7); }}\n    }}\n{halt}    \
             print(hist[{base}]);\n}}\n"
        ));
    }
    src
}

/// What one load → first-flowback sequence saw.
struct Flowback {
    /// Kept alive so its teardown stays out of the timing.
    _exec: Execution,
    fingerprint: u64,
    total_entries: u64,
    decoded: u64,
    inflated: u64,
    bytes_read: u64,
    replays: u64,
    trace_events: u64,
    scanned: u64,
    hit_rate: f64,
}

fn first_flowback(
    rec: &Recorder,
    s: &PpdSession,
    format: &str,
    dir: &Path,
) -> Result<Flowback, PpdError> {
    let (load, index) =
        if format == "lzb" { ("load_dir.lzb", "index.lzb") } else { ("load_dir.raw", "index.raw") };
    let exec = rec.span("log", load, || Execution::load_dir(dir))?;
    rec.span("log", index, || exec.logs.index());
    let mut fp = Fingerprint::default();
    let stats = {
        let mut c = rec.span("core", "controller_new", || Controller::new(s, &exec));
        let root = rec.span("core", "start", || c.start())?;
        let mut shown = rec.span("core", "present", || c.present(root, 3));
        shown.sort_unstable(); // ties in `seq` come out in hash-set order
        let node = c.unexpanded().first().copied();
        let node = node.ok_or_else(|| PpdError::Debugging("nothing to expand".into()))?;
        let expanded = rec.span("core", "expand", || c.expand(node))?;
        fp.add((&c.graph().node(root).label, &shown, expanded.nodes.len(), c.graph().len()));
        let stats = rec.span("core", "stats", || c.stats());
        rec.span("core", "drop_controller", || drop(c));
        stats
    };
    let seg = exec.logs.segmented().ok_or_else(|| PpdError::Store("not segment-backed".into()))?;
    Ok(Flowback {
        fingerprint: fp.value(),
        total_entries: seg.total_entries(),
        decoded: seg.entries_decoded(),
        inflated: seg.blocks_decompressed(),
        bytes_read: seg.bytes_read(),
        replays: stats.replays,
        trace_events: stats.trace_events,
        scanned: stats.log_entries_scanned,
        hit_rate: stats.hit_rate(),
        _exec: exec,
    })
}

pub struct Postmortem {
    program: Program,
    stores: [(&'static str, PathBuf); 2],
    passes: u64,
    /// Oracle failures found during set-up, reported by the first check.
    setup_failures: Vec<String>,
    /// The last pass's sequences, with their format and latency (µs).
    results: Vec<(&'static str, f64, Result<Flowback, PpdError>)>,
    /// Every sequence must reproduce the first one's fingerprint.
    reference: Option<u64>,
    /// Latencies per format, all passes.
    latency_us: [Vec<f64>; 2],
    /// Per store: segments and file bytes.
    store: [(u64, u64); 2],
    /// The halted run: steps, log entries, log bytes, parallel-graph edges.
    run: (u64, u64, u64, u64),
    /// Last checked pass, per sequence on average: decoded entries,
    /// inflated blocks, bytes read, total entries, replays, trace
    /// events, scanned entries, hit rate.
    counters: [f64; 8],
}

impl Postmortem {
    pub fn setup(rng: &mut Rng, dir: &Path) -> Result<Postmortem, String> {
        let fail = rng.below(PROCS as usize) as u32;
        let program =
            Program::new("histogram_halt", failing_histogram(fail), EBlockStrategy::with_loops(4));
        let session = program.prepare(&Recorder::off())?;
        let cfg = program.config(SchedulerSpec::RoundRobin);
        let mem = session.execute(cfg.clone());
        let mut setup_failures = Vec::new();
        if !mem.outcome.is_failure() {
            setup_failures.push(format!("the run did not halt by failure: {:?}", mem.outcome));
        }
        let stores = [("raw", dir.join("raw")), ("lzb", dir.join("lzb"))];
        let mut store = [(0, 0); 2];
        for (k, (format, path)) in stores.iter().enumerate() {
            let _ = std::fs::remove_dir_all(path);
            let streamed = session
                .execute_streaming_with(cfg.clone(), path, SEGMENT_BYTES, *format == "lzb")
                .map_err(|e| format!("stream the {format} store: {e}"))?;
            let seg = streamed.logs.segmented().ok_or("streamed logs are not segment-backed")?;
            store[k] = (
                (0..seg.process_count())
                    .map(|q| seg.segments(ProcId(q as u32)).count() as u64)
                    .sum(),
                seg.total_file_bytes(),
            );
            // Oracle: the reopened store holds exactly the in-memory logs.
            let same = streamed.outcome == mem.outcome
                && streamed.output == mem.output
                && (0..mem.logs.process_count()).all(|q| {
                    let q = ProcId(q as u32);
                    streamed.logs.log(q) == mem.logs.log(q)
                });
            if !same {
                setup_failures.push(format!("{format} store differs from the in-memory run"));
            }
        }
        let run = (
            mem.steps,
            mem.logs.total_entries() as u64,
            mem.logs.total_bytes() as u64,
            mem.pgraph.internal_edges().len() as u64,
        );
        Ok(Postmortem {
            program,
            stores,
            passes: 0,
            setup_failures,
            results: Vec::new(),
            reference: None,
            latency_us: [Vec::new(), Vec::new()],
            store,
            run,
            counters: [0.0; 8],
        })
    }
}

impl Workload for Postmortem {
    fn pass(&mut self, p: &mut Pass<'_>) {
        let rec = p.rec;
        let sessions = prepare_all(std::slice::from_ref(&self.program), p);
        let Some(s) = &sessions[0] else { return };
        for k in 0..LOADS {
            let (format, dir) = &self.stores[(self.passes as usize + k) % 2];
            let r = p.op(|| first_flowback(rec, s, format, dir));
            let us = *p.ops.last().expect("op recorded");
            self.results.push((format, us, r));
        }
        rec.span("analysis", "drop_sessions", || drop(sessions));
        self.passes += 1;
    }

    fn check(&mut self, p: &mut Pass<'_>) {
        for f in self.setup_failures.drain(..) {
            p.fail(f);
        }
        let mut sums = [0.0; 8];
        let mut n = 0.0;
        for (format, us, r) in self.results.drain(..) {
            match r {
                Err(e) => p.fail(format!("first flowback ({format}): {e}")),
                Ok(f) => {
                    let reference = *self.reference.get_or_insert(f.fingerprint);
                    p.expect(f.fingerprint == reference, || {
                        format!("first flowback ({format}) differs from the first one seen")
                    });
                    let vals = [
                        f.decoded as f64,
                        f.inflated as f64,
                        f.bytes_read as f64,
                        f.total_entries as f64,
                        f.replays as f64,
                        f.trace_events as f64,
                        f.scanned as f64,
                        f.hit_rate,
                    ];
                    for (s, v) in sums.iter_mut().zip(vals) {
                        *s += v;
                    }
                    n += 1.0;
                    self.latency_us[usize::from(format == "lzb")].push(us);
                }
            }
        }
        if n > 0.0 {
            self.counters = sums.map(|s| s / n);
        }
    }

    fn details(&mut self, out: &mut Report) {
        for (k, (format, _)) in self.stores.iter().enumerate() {
            let lat = &self.latency_us[k];
            out.set_noted(
                format!("first_flowback_ms.{format}"),
                median(lat) / 1e3,
                "ms",
                format!("(median of {})", lat.len()),
            );
        }
        out.set("store_bytes", (self.store[0].1 + self.store[1].1) as f64, "B");
    }

    fn layer_metrics(&mut self, rec: &Recorder, out: &mut Report) {
        super::prepare_metrics(std::slice::from_ref(&self.program), out);
        let (steps, entries, bytes, edges) = self.run;
        out.set("runtime.steps", steps as f64, "count");
        out.set("runtime.log_entries", entries as f64, "count");
        out.set("runtime.log_bytes", bytes as f64, "B");
        out.set("graph.edges", edges as f64, "count");
        out.set("log.segments", (self.store[0].0 + self.store[1].0) as f64, "count");
        out.set("log.store_bytes", (self.store[0].1 + self.store[1].1) as f64, "B");
        let [decoded, inflated, bytes_read, total, replays, events, scanned, hit_rate] =
            self.counters;
        out.set("log.entries_decoded", decoded, "count");
        out.set("log.blocks_inflated", inflated, "count");
        out.set("log.bytes_read", bytes_read, "B");
        out.set("log.decoded_ratio", decoded / total, "ratio");
        out.set("core.replays", replays, "count");
        out.set("core.trace_events", events, "count");
        out.set("core.log_entries_scanned", scanned, "count");
        out.set("core.cache_hit_rate", hit_rate, "ratio");
        // Where one first flowback's time goes: opening and indexing the
        // store (log) vs the controller's replay and graph (core).
        let totals = rec.totals_by_call();
        let ns = |cat: &str, names: &[&str]| -> f64 {
            totals
                .iter()
                .filter(|((c, n), _)| *c == cat && names.iter().any(|&m| n.starts_with(m)))
                .map(|(_, (_, ns))| *ns as f64)
                .sum()
        };
        let log = ns("log", &["load_dir", "index"]);
        let core = ns(
            "core",
            &["controller_new", "start", "present", "expand", "stats", "drop_controller"],
        );
        out.set("log.open_index_pct", 100.0 * log / (log + core), "%");
        out.set("core.replay_pct", 100.0 * core / (log + core), "%");
    }
}
