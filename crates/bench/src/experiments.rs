//! The experiment implementations. Each function runs one experiment and
//! returns a [`Table`]; `cargo run -p ppd-bench --bin experiments` prints
//! them all. EXPERIMENTS.md records representative output.

use crate::table::Table;
use crate::timing::{fmt_duration, median_of, overhead_pct, time_once};
use crate::workloads::{self, Workload};
use ppd_analysis::{BitVarSet, EBlockStrategy, ListVarSet, VarSetRepr};
use ppd_core::Controller;
use ppd_graph::{
    detect_races, detect_races_naive, detect_races_par, stage_pairs, TransitiveClosure,
    VectorClocks,
};
use ppd_lang::{BodyId, ProcId, VarId};
use ppd_runtime::CountingTracer;
use std::time::Duration;

/// Number of timing repetitions (median taken).
const REPS: usize = 9;

// ---------------------------------------------------------------------
// E1: execution-time overhead of logging (§7: "less than 15%")
// ---------------------------------------------------------------------

/// E1 — runtime with logging (and with logging + parallel graph) vs the
/// uninstrumented baseline.
pub fn e1_logging_overhead() -> Table {
    let mut t = Table::new(
        "E1 — execution-phase logging overhead (paper §7: tracing added < 15%)",
        &["workload", "baseline", "+logs", "log ovh %", "+logs+pgraph", "total ovh %"],
    );
    let mut log_ovhs = Vec::new();
    for w in workloads::overhead_suite() {
        let session = w.prepare(EBlockStrategy::with_leaf_merge(24));
        let base = median_of(REPS, || session.measure_run(w.config(), false, false));
        let logged = median_of(REPS, || session.measure_run(w.config(), true, false));
        let full = median_of(REPS, || session.measure_run(w.config(), true, true));
        let log_ovh = overhead_pct(base, logged);
        log_ovhs.push(log_ovh);
        t.row(vec![
            w.name.clone(),
            fmt_duration(base),
            fmt_duration(logged),
            format!("{log_ovh:+.1}%"),
            fmt_duration(full),
            format!("{:+.1}%", overhead_pct(base, full)),
        ]);
    }
    let mean = log_ovhs.iter().sum::<f64>() / log_ovhs.len() as f64;
    t.note(format!(
        "mean logging overhead {mean:.1}% (paper claims < 15% for hand-annotated \
         programs; e-blocks use §5.4 iterative leaf merging, threshold 24)"
    ));
    t.note("`+logs+pgraph` additionally builds the §6.1 parallel dynamic graph during execution.");
    t
}

// ---------------------------------------------------------------------
// E2: log volume vs full-trace volume (§3.1 need-to-generate)
// ---------------------------------------------------------------------

/// E2 — bytes the object code logs vs bytes an EXDAMS-style
/// trace-everything debugger would write.
pub fn e2_log_vs_trace() -> Table {
    let mut t = Table::new(
        "E2 — log volume vs full-trace volume (§3.1 need-to-generate)",
        &["workload", "events", "trace bytes", "log entries", "log bytes", "trace/log"],
    );
    for w in workloads::overhead_suite() {
        let session = w.prepare(EBlockStrategy::with_leaf_merge(24));
        let mut counter = CountingTracer::default();
        let exec = session.execute_traced(w.config(), &mut counter);
        assert!(exec.outcome.is_success() || exec.outcome.is_failure());
        let log_bytes = exec.logs.total_bytes().max(1);
        t.row(vec![
            w.name.clone(),
            counter.events.to_string(),
            counter.bytes.to_string(),
            exec.logs.total_entries().to_string(),
            log_bytes.to_string(),
            format!("{:.1}x", counter.bytes as f64 / log_bytes as f64),
        ]);
    }
    t.note("Trace bytes = what tracing every event during execution would cost;");
    t.note("log bytes = what incremental tracing actually wrote (prelogs, postlogs, snapshots).");
    t
}

// ---------------------------------------------------------------------
// E3: e-block granularity trade-off (§5.4)
// ---------------------------------------------------------------------

/// E3 — the §5.4 trade-off: smaller e-blocks cost more at execution
/// time but answer debug-phase queries faster (and vice versa).
pub fn e3_granularity_sweep() -> Table {
    let mut t = Table::new(
        "E3 — e-block granularity trade-off (§5.4)",
        &["strategy", "e-blocks", "exec ovh %", "log bytes", "first-query latency"],
    );
    let w = workloads::loop_heavy(2500);
    let strategies: Vec<(&str, EBlockStrategy)> = vec![
        ("leaf-merge(10) [coarsest]", EBlockStrategy::with_leaf_merge(10)),
        ("per-subroutine", EBlockStrategy::per_subroutine()),
        ("loops(3)", EBlockStrategy::with_loops(3)),
        (
            "loops(3)+merge(10)",
            EBlockStrategy {
                loop_eblocks: Some(3),
                merge_leaves: Some(10),
                ..EBlockStrategy::per_subroutine()
            },
        ),
    ];
    for (name, strategy) in strategies {
        let session = w.prepare(strategy);
        let base = median_of(REPS, || session.measure_run(w.config(), false, false));
        let logged = median_of(REPS, || session.measure_run(w.config(), true, false));
        let exec = session.execute(w.config());
        let first_query = median_of(3, || {
            let mut controller = Controller::new(&session, &exec);
            controller.start_at(ProcId(0)).expect("debugging starts")
        });
        t.row(vec![
            name.to_owned(),
            session.plan().eblocks().len().to_string(),
            format!("{:+.1}%", overhead_pct(base, logged)),
            exec.logs.total_bytes().to_string(),
            fmt_duration(first_query),
        ]);
    }
    t.note("First-query latency = time for the Controller to replay the halt interval and");
    t.note("present the first dynamic-graph fragment. Loop e-blocks let it skip the hot loop.");
    t
}

// ---------------------------------------------------------------------
// E4: ordering + all-pairs race detection cost (§7)
// ---------------------------------------------------------------------

/// Total `(variable, value)` pairs recorded in shared-variable snapshot
/// entries across all process logs.
fn snapshot_values(logs: &ppd_log::LogStore) -> usize {
    (0..logs.process_count())
        .flat_map(|p| &logs.log(ProcId(p as u32)).entries)
        .map(|e| match e {
            ppd_log::LogEntry::SharedSnapshot { values, .. } => values.len(),
            _ => 0,
        })
        .sum()
}

/// E4 — the §7 concern: the cost of ordering events and of finding all
/// conflicting edge pairs — naive vs indexed vs GMOD/GREF-pruned vs
/// MHP-pruned vs typed vs interval-pruned — and closure vs vector
/// clocks for the ordering oracle.
pub fn e4_race_detection() -> Table {
    let mut t = Table::new(
        "E4 — event ordering & all-pairs race detection (§7)",
        &[
            "workload",
            "edges",
            "races",
            "closure",
            "vclock",
            "naive",
            "pruned",
            "mhp",
            "typed",
            "absint",
            "pairs n/i/p/m/t/a",
            "cands g/m/t/a",
            "snap skipped",
        ],
    );
    let sweep: Vec<Workload> = [(2u32, 8u32), (4, 8), (6, 8), (8, 8)]
        .into_iter()
        .map(|(n, iters)| workloads::racy_workers(n, iters))
        .chain([workloads::handoff(2, 8), workloads::handoff(4, 8)])
        .chain([workloads::typed_pipeline(2, 6), workloads::typed_pipeline(4, 6)])
        .chain([workloads::disjoint_sweep(2, 16), workloads::disjoint_sweep(4, 16)])
        .chain([workloads::deadlock_pair()])
        .collect();
    for w in sweep {
        let session = w.prepare(EBlockStrategy::per_subroutine());
        let cands = &session.analyses().race_candidates;
        let mhp_cands = &session.analyses().mhp_candidates;
        let typed_cands = &session.analyses().typed_candidates;
        let absint_cands = &session.analyses().absint_candidates;
        let exec = session.execute(w.config());
        let g = &exec.pgraph;
        let t_closure = median_of(REPS, || TransitiveClosure::compute(g));
        let t_vclock = median_of(REPS, || VectorClocks::compute(g));
        let ord = VectorClocks::compute(g);
        let t_naive = median_of(REPS, || detect_races_naive(g, &ord));
        let t_pruned = median_of(REPS, || detect_races(g, &ord, Some(cands)));
        let t_mhp = median_of(REPS, || detect_races(g, &ord, Some(mhp_cands)));
        let t_typed = median_of(REPS, || detect_races(g, &ord, Some(typed_cands)));
        let t_absint = median_of(REPS, || detect_races(g, &ord, Some(absint_cands)));
        let races = detect_races_naive(g, &ord);
        let stages = [cands, mhp_cands, typed_cands, absint_cands];
        for (stage, c) in ["GMOD/GREF", "MHP", "typed-channel", "interval"].into_iter().zip(stages)
        {
            assert_eq!(
                races,
                detect_races(g, &ord, Some(c)),
                "{stage} pruning changed the race set"
            );
        }
        let pairs = stage_pairs(g, &stages);
        let f = &pairs.filtered;
        assert!(f[3] <= f[2], "absint examined more pairs than typed");
        // Snapshot entries the MHP trim avoided: same program prepared
        // without the trim logs this many more (variable, value) pairs.
        let untrimmed = ppd_core::PpdSession::prepare_with(
            &w.source,
            EBlockStrategy::per_subroutine(),
            ppd_analysis::AnalysisConfig {
                mhp_snapshot_trim: false,
                ..ppd_analysis::AnalysisConfig::default()
            },
        )
        .expect("workload compiles");
        let full = snapshot_values(&untrimmed.execute(w.config()).logs);
        let skipped = full - snapshot_values(&exec.logs);
        t.row(vec![
            w.name.clone(),
            g.internal_edges().len().to_string(),
            races.len().to_string(),
            fmt_duration(t_closure),
            fmt_duration(t_vclock),
            fmt_duration(t_naive),
            fmt_duration(t_pruned),
            fmt_duration(t_mhp),
            fmt_duration(t_typed),
            fmt_duration(t_absint),
            format!("{}/{}/{}/{}/{}/{}", pairs.naive, pairs.indexed, f[0], f[1], f[2], f[3]),
            format!(
                "{}/{}/{}/{}",
                cands.len(),
                mhp_cands.len(),
                typed_cands.len(),
                absint_cands.len()
            ),
            skipped.to_string(),
        ]);
    }
    t.note("closure/vclock: time to build the §6.1 happened-before oracle;");
    t.note("naive/pruned/mhp/typed/absint: all-pairs conflict scan vs the GMOD/GREF");
    t.note("race-candidate index (`ppd lint` PPD001) vs the same index refined by the");
    t.note("static may-happen-in-parallel fixpoint, then by per-payload-type channel");
    t.note("sync groups from `ppd check`, then by flow-sensitive interval analysis");
    t.note("(element-granular array regions). pairs n/i/p/m/t/a: distinct cross-process");
    t.note("edge pairs examined per stage — identical races every time — all counted in");
    t.note("one enumeration of the staged scan (`stage_pairs`). cands g/m/t/a:");
    t.note("static candidate-index sizes after each filter; on the disjoint_* sweeps the");
    t.note("interval stage proves the per-process array slices disjoint and empties the");
    t.note("index, the static counterpart of the cell-granular dynamic scan. The");
    t.note("deadlock row scans the partial graph of a deadlocked run (every schedule of");
    t.note("the corpus receive cycle deadlocks; `ppd lint` reports it statically as");
    t.note("PPD008). snap skipped: shared-snapshot values the MHP trim proved");
    t.note("statically ordered and kept out of the logs.");
    t
}

// ---------------------------------------------------------------------
// E5: bit-mask vs list variable sets (§7)
// ---------------------------------------------------------------------

/// A dataflow-shaped kernel: iterate union propagation along a block
/// chain until fixpoint, then run an all-pairs intersection scan — the
/// two set workloads the debugging-phase algorithms perform.
fn set_kernel<S: VarSetRepr>(nvars: usize, nblocks: usize) -> usize {
    // Gen sets: block i touches vars i..i+8 (mod nvars).
    let mut sets: Vec<S> = (0..nblocks)
        .map(|i| {
            S::from_iter(nvars, (0..8u32).map(|k| VarId((i as u32 * 3 + k * 7) % nvars as u32)))
        })
        .collect();
    // Union propagation to fixpoint (reaching-definitions shape).
    let mut changed = true;
    while changed {
        changed = false;
        for i in 1..nblocks {
            let prev = sets[i - 1].clone();
            changed |= sets[i].union_with(&prev);
        }
    }
    // All-pairs intersection scan (race-detection shape).
    let mut hits = 0usize;
    for i in 0..nblocks {
        for j in (i + 1)..nblocks {
            if sets[i].intersects(&sets[j]) {
                hits += 1;
            }
        }
    }
    hits + sets[nblocks - 1].len()
}

/// E5 — "using bit-mask representations for sets of variables (as
/// opposed to a list structure) can have a large payoff" (§7).
pub fn e5_varset() -> Table {
    let mut t = Table::new(
        "E5 — variable-set representation ablation (§7)",
        &["universe", "blocks", "bit-mask", "list", "speedup"],
    );
    for (nvars, nblocks) in [(64usize, 64usize), (256, 128), (1024, 192)] {
        let bit = median_of(REPS, || set_kernel::<BitVarSet>(nvars, nblocks));
        let list = median_of(REPS, || set_kernel::<ListVarSet>(nvars, nblocks));
        // Sanity: identical results.
        assert_eq!(
            set_kernel::<BitVarSet>(nvars, nblocks),
            set_kernel::<ListVarSet>(nvars, nblocks)
        );
        t.row(vec![
            nvars.to_string(),
            nblocks.to_string(),
            fmt_duration(bit),
            fmt_duration(list),
            format!("{:.1}x", list.as_secs_f64() / bit.as_secs_f64()),
        ]);
    }
    t.note("Kernel = union propagation to fixpoint + all-pairs intersection scan,");
    t.note("the set workloads of reaching definitions and race detection.");
    t
}

// ---------------------------------------------------------------------
// E6: incremental tracing vs full re-execution (§5.1/§5.3)
// ---------------------------------------------------------------------

/// E6 — time to answer the first flowback query by replaying one
/// e-block, vs re-executing the entire program with full tracing, plus
/// the replay engine's cold/warm split: the same query repeated on a
/// warm Controller is served from the memoized trace cache.
pub fn e6_flowback_latency() -> Table {
    let mut t = Table::new(
        "E6 — incremental tracing vs full re-execution (§5.1, §5.3), cold vs warm queries",
        &[
            "workload",
            "intervals",
            "cold query",
            "warm query",
            "warm speedup",
            "hit rate",
            "full re-exec + trace",
            "speedup",
        ],
    );
    for depth in [8u32, 16, 32, 64] {
        let w = workloads::deep_calls(depth);
        let session = w.prepare(EBlockStrategy::per_subroutine());
        let exec = session.execute(w.config());
        let intervals = exec.logs.intervals(ProcId(0)).len();
        // Cold: a fresh Controller replays the halt interval from the log.
        let cold = median_of(REPS, || {
            let mut controller = Controller::new(&session, &exec);
            controller.start_at(ProcId(0)).expect("starts")
        });
        // Warm: the same query repeated on one Controller — the replay
        // engine serves the memoized trace, so no e-block re-runs.
        let mut warm_controller = Controller::new(&session, &exec);
        warm_controller.start_at(ProcId(0)).expect("starts");
        let warm = median_of(REPS, || warm_controller.start_at(ProcId(0)).expect("starts"));
        let stats = warm_controller.stats();
        let full = median_of(REPS, || {
            let mut counter = CountingTracer::default();
            session.execute_traced(w.config(), &mut counter);
            counter.events
        });
        t.row(vec![
            w.name.clone(),
            intervals.to_string(),
            fmt_duration(cold),
            fmt_duration(warm),
            format!("{:.1}x", cold.as_secs_f64() / warm.as_secs_f64()),
            format!("{:.0}%", 100.0 * stats.hit_rate()),
            fmt_duration(full),
            format!("{:.1}x", full.as_secs_f64() / cold.as_secs_f64()),
        ]);
    }
    t.note("Cold query = fresh Controller: replay the halt interval under postlog");
    t.note("substitution (§5.2); warm query = same Controller again: the memoized");
    t.note("trace is reused, zero new replays. Full re-exec regenerates every event");
    t.note("of every call level.");
    t
}

// ---------------------------------------------------------------------
// E7: parallel debugging backend scaling (replay fan-out, race scan)
// ---------------------------------------------------------------------

/// Worker-thread sweep for E7: powers of two up to `max`, plus `max`.
fn jobs_sweep(max: usize) -> Vec<usize> {
    let mut v = vec![1];
    let mut j = 2;
    while j < max {
        v.push(j);
        j *= 2;
    }
    if max > 1 {
        v.push(max);
    }
    v
}

/// E7 — scaling of the parallel debugging backend at the default sweep
/// (1/2/4/8 worker threads).
pub fn e7_parallel_scaling() -> Table {
    e7_parallel_scaling_with(8)
}

/// A dense synthetic parallel dynamic graph for the race-scan row:
/// `procs` unsynchronized processes, each with `syncs_per_proc + 1`
/// internal edges reading and writing a few hot shared variables —
/// every conflicting cross-process pair is a candidate.
fn dense_graph(procs: u32, syncs_per_proc: u32, vars: u32) -> ppd_graph::ParallelGraph {
    use ppd_graph::{SyncEdgeLabel, SyncNodeKind};
    let mut g = ppd_graph::ParallelGraph::new(vars as usize);
    let mut t = 0u64;
    let mut nodes: Vec<Vec<ppd_graph::SyncNodeId>> = Vec::new();
    for p in 0..procs {
        t += 1;
        nodes.push(vec![g.start_process(ProcId(p), t)]);
    }
    for s in 0..syncs_per_proc {
        for p in 0..procs {
            g.record_write(ProcId(p), VarId((s + p) % vars));
            g.record_read(ProcId(p), VarId((s * 7 + p + 1) % vars));
            t += 1;
            let kind = if (s + p) % 2 == 0 { SyncNodeKind::V } else { SyncNodeKind::P };
            nodes[p as usize].push(g.sync_point(ProcId(p), kind, None, t));
        }
    }
    // Loose barriers between adjacent processes order all but the
    // near-diagonal pairs, so the scan does its full pairwise work but
    // the merged race set stays small — the realistic shape for a
    // mostly-synchronized run.
    for s in 0..syncs_per_proc as usize {
        for p in 0..procs.saturating_sub(1) as usize {
            if s + 1 < nodes[p].len() && s + 1 < nodes[p + 1].len() {
                g.add_sync_edge(nodes[p][s], nodes[p + 1][s + 1], SyncEdgeLabel::Semaphore);
                g.add_sync_edge(nodes[p + 1][s], nodes[p][s + 1], SyncEdgeLabel::Semaphore);
            }
        }
    }
    for p in 0..procs {
        t += 1;
        g.end_process(ProcId(p), t);
    }
    g
}

/// E7 with an explicit thread ceiling (the bench binary's `--jobs`):
/// cold flowback prefetch (work-stealing e-block replay), warm prefetch
/// (sharded concurrent trace cache) and the Definition 6.4 race scan,
/// each timed at every thread count in the sweep.
pub fn e7_parallel_scaling_with(max_jobs: usize) -> Table {
    let mut t = Table::new(
        "E7 — parallel backend scaling: replay fan-out, trace cache, race scan",
        &[
            "jobs",
            "cold prefetch",
            "speedup",
            "eff %",
            "warm prefetch",
            "race scan",
            "speedup",
            "eff %",
        ],
    );
    // Replay workload: several processes, each an e-block interval with
    // hundreds of logged iterations — the independent replays of §5
    // "need-to-generate", heavy enough to amortize thread start-up.
    let w = workloads::racy_workers(8, 256);
    let session = w.prepare(EBlockStrategy::per_subroutine());
    let exec = session.execute(w.config());
    let interval_count = {
        let c = Controller::new(&session, &exec);
        c.all_intervals().len()
    };
    // Race-scan workload: a dense synthetic parallel dynamic graph
    // (tens of thousands of candidate pairs).
    let sg = dense_graph(8, 96, 8);
    let ord = VectorClocks::compute(&sg);
    let races_seq = detect_races(&sg, &ord, None);

    let mut cold_base = Duration::ZERO;
    let mut scan_base = Duration::ZERO;
    for jobs in jobs_sweep(max_jobs.max(1)) {
        let cold = median_of(REPS, || {
            let mut c = Controller::new(&session, &exec);
            c.set_jobs(jobs);
            c.prefetch_all().expect("prefetch succeeds")
        });
        let mut warm_c = Controller::new(&session, &exec);
        warm_c.set_jobs(jobs);
        warm_c.prefetch_all().expect("prefetch succeeds");
        let warm = median_of(REPS, || warm_c.prefetch_all().expect("prefetch succeeds"));
        let races_par = detect_races_par(&sg, &ord, None, jobs);
        assert_eq!(races_seq, races_par, "parallel scan changed the race set");
        let scan = median_of(REPS, || detect_races_par(&sg, &ord, None, jobs));
        if jobs == 1 {
            cold_base = cold;
            scan_base = scan;
        }
        let cold_speedup = cold_base.as_secs_f64() / cold.as_secs_f64().max(f64::EPSILON);
        let scan_speedup = scan_base.as_secs_f64() / scan.as_secs_f64().max(f64::EPSILON);
        t.row(vec![
            jobs.to_string(),
            fmt_duration(cold),
            format!("{cold_speedup:.2}x"),
            format!("{:.0}%", 100.0 * cold_speedup / jobs as f64),
            fmt_duration(warm),
            fmt_duration(scan),
            format!("{scan_speedup:.2}x"),
            format!("{:.0}%", 100.0 * scan_speedup / jobs as f64),
        ]);
    }
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    t.note(format!(
        "host parallelism: {host} hardware thread(s). Speedup/efficiency are \
         relative to jobs=1; curves above the host's thread count cannot rise."
    ));
    t.note(format!(
        "cold prefetch = fresh Controller replaying all {interval_count} e-block intervals \
         through the work-stealing pool; warm prefetch = same query again, served"
    ));
    t.note("entirely from the sharded concurrent trace cache; race scan =");
    t.note(format!(
        "`detect_races_par` over a dense synthetic graph ({} internal edges, \
         {} races). Parallel results are asserted identical to sequential each run.",
        sg.internal_edges().len(),
        races_seq.len()
    ));
    t
}

// ---------------------------------------------------------------------
// E8: whole-array snapshots vs §7 "record all uses" element logging
// ---------------------------------------------------------------------

/// E8 — the paper's two answers to aliased data, compared: conservative
/// whole-array USED/DEFINED snapshots vs element-granular read logging.
pub fn e8_array_logging() -> Table {
    let mut t = Table::new(
        "E8 — whole-array snapshots vs element-granular logging (§7 aliasing)",
        &["workload", "mode", "exec ovh %", "log bytes", "first-query latency"],
    );
    let quicksort = Workload {
        name: "quicksort(192)".into(),
        source: ppd_lang::corpus::gen_quicksort(192),
        inputs: vec![],
    };
    for w in [&quicksort] {
        for (mode, strategy) in [
            ("whole-array", EBlockStrategy::per_subroutine()),
            ("element-logged", EBlockStrategy::per_subroutine().with_element_logged_arrays()),
        ] {
            let session = w.prepare(strategy);
            let base = median_of(REPS, || session.measure_run(w.config(), false, false));
            let logged = median_of(REPS, || session.measure_run(w.config(), true, false));
            let exec = session.execute(w.config());
            let first_query = median_of(3, || {
                let mut controller = Controller::new(&session, &exec);
                controller.start_at(ProcId(0)).expect("debugging starts")
            });
            t.row(vec![
                w.name.clone(),
                mode.to_owned(),
                format!("{:+.1}%", overhead_pct(base, logged)),
                exec.logs.total_bytes().to_string(),
                fmt_duration(first_query),
            ]);
        }
    }
    t.note("Whole-array mode snapshots the full array in every recursive interval's");
    t.note("prelog/postlog; element mode logs each array-element read individually —");
    t.note("the trade-off the paper's §7 pointer discussion anticipates.");
    t
}

// ---------------------------------------------------------------------
// E9: the §7 overhead meter — measured ratio vs the paper's claim
// ---------------------------------------------------------------------

/// The paper's §7 headline number: logging "increased the execution
/// time of the test programs by less than 15%".
const PAPER_CLAIM_PCT: f64 = 15.0;

/// Budget for the instrumentation layer itself: spans enabled with no
/// sink attached must not slow a warm flowback query by more than this.
const SPAN_BUDGET_PCT: f64 = 5.0;

/// E9 uses more repetitions than the rest of the suite: it compares
/// millisecond-scale runs whose ratio the report asserts against the
/// paper's claim, so run-to-run noise matters more here.
const E9_REPS: usize = 15;

/// Formats a nanosecond count with [`fmt_duration`].
fn fmt_ns(ns: u64) -> String {
    fmt_duration(Duration::from_nanos(ns))
}

/// E9 — the §7 overhead meter. Every overhead-suite workload runs with
/// logging on vs. off (the ratio, from unperturbed [`measure_run`]
/// pairs), then once more under the [`ppd_runtime::LogMeter`], which
/// times and sizes every prelog/postlog/snapshot write and attributes
/// it to its e-block. The companion JSON body (`BENCH_overhead.json`)
/// records the per-workload ratios and per-e-block attribution and
/// asserts them against the paper's < 15% claim.
///
/// [`measure_run`]: ppd_core::PpdSession::measure_run
pub fn e9_overhead_meter_full() -> (Table, String) {
    let mut t = Table::new(
        "E9 — §7 logging-overhead meter: measured ratio + per-e-block attribution",
        &[
            "workload",
            "baseline",
            "+logs",
            "ovh %",
            "log time",
            "log bytes",
            "records",
            "pre/post/snap time",
            "costliest e-block",
        ],
    );
    let mut ovhs: Vec<f64> = Vec::new();
    let mut wl_json: Vec<String> = Vec::new();
    for w in workloads::overhead_suite() {
        let session = w.prepare(EBlockStrategy::with_leaf_merge(24));
        let base = median_of(E9_REPS, || session.measure_run(w.config(), false, false));
        let logged = median_of(E9_REPS, || session.measure_run(w.config(), true, false));
        let ovh = overhead_pct(base, logged);
        ovhs.push(ovh);
        // One metered run: the clock reads perturb it, so it supplies
        // the attribution (where the logging time went), never the ratio.
        let (outcome, meter) = session.execute_metered(w.config());
        assert!(outcome.is_success() || outcome.is_failure(), "metered run must finish");
        let prelog_ns: u64 = meter.per_eblock.values().map(|c| c.prelog_ns).sum();
        let postlog_ns: u64 = meter.per_eblock.values().map(|c| c.postlog_ns).sum();
        let prelog_bytes: u64 = meter.per_eblock.values().map(|c| c.prelog_bytes).sum();
        let postlog_bytes: u64 = meter.per_eblock.values().map(|c| c.postlog_bytes).sum();
        let top = meter.per_eblock.iter().max_by_key(|(_, c)| c.prelog_ns + c.postlog_ns);
        let top_cell = top
            .map(|(id, c)| {
                let eb = session.plan().eblock(*id);
                format!(
                    "{id} [{}] {}",
                    session.rp().body_name(eb.region.body()),
                    fmt_ns(c.prelog_ns + c.postlog_ns)
                )
            })
            .unwrap_or_else(|| "-".into());
        let top_json = top
            .map(|(id, c)| {
                let eb = session.plan().eblock(*id);
                format!(
                    "{{\"id\":{},\"body\":{},\"prelog_ns\":{},\"postlog_ns\":{},\
                     \"prelog_bytes\":{},\"postlog_bytes\":{}}}",
                    ppd_obs::metrics::json_string(&id.to_string()),
                    ppd_obs::metrics::json_string(session.rp().body_name(eb.region.body())),
                    c.prelog_ns,
                    c.postlog_ns,
                    c.prelog_bytes,
                    c.postlog_bytes
                )
            })
            .unwrap_or_else(|| "null".into());
        t.row(vec![
            w.name.clone(),
            fmt_duration(base),
            fmt_duration(logged),
            format!("{ovh:+.1}%"),
            fmt_ns(meter.total_ns()),
            meter.total_bytes().to_string(),
            meter.total_count().to_string(),
            format!(
                "{} / {} / {}",
                fmt_ns(prelog_ns),
                fmt_ns(postlog_ns),
                fmt_ns(meter.snapshot_ns)
            ),
            top_cell,
        ]);
        wl_json.push(format!(
            "{{\"name\":{},\"baseline_ns\":{},\"logged_ns\":{},\"overhead_pct\":{:.2},\
             \"log_ns\":{},\"log_bytes\":{},\"log_records\":{},\
             \"prelog_ns\":{prelog_ns},\"postlog_ns\":{postlog_ns},\"snapshot_ns\":{},\
             \"prelog_bytes\":{prelog_bytes},\"postlog_bytes\":{postlog_bytes},\
             \"snapshot_bytes\":{},\"eblocks_metered\":{},\"top_eblock\":{top_json}}}",
            ppd_obs::metrics::json_string(&w.name),
            base.as_nanos(),
            logged.as_nanos(),
            ovh,
            meter.total_ns(),
            meter.total_bytes(),
            meter.total_count(),
            meter.snapshot_ns,
            meter.snapshot_bytes,
            meter.per_eblock.len(),
        ));
    }
    let mean = ovhs.iter().sum::<f64>() / ovhs.len().max(1) as f64;
    let max = ovhs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let median = {
        let mut sorted = ovhs.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2]
    };
    let span_ovh = span_self_overhead();
    t.note(format!(
        "logging overhead mean {mean:.1}%, median {median:.1}%, max {max:.1}% (paper §7 \
         claims < {PAPER_CLAIM_PCT:.0}%); ratios from unperturbed runs, attribution from one"
    ));
    t.note("metered run (`ExecConfig::meter_logging`): each prelog/postlog/snapshot write");
    t.note("is individually timed and sized, then charged to its e-block.");
    t.note(format!(
        "span self-overhead (spans enabled, no sink) on an E6-style warm query: \
         {span_ovh:+.1}% (budget < {SPAN_BUDGET_PCT:.0}%)."
    ));
    let json = format!(
        "{{\"generator\":\"ppd-bench experiments (E9 overhead meter)\",\
         \"paper_claim_pct\":{PAPER_CLAIM_PCT:.1},\"span_budget_pct\":{SPAN_BUDGET_PCT:.1},\
         \"workloads\":[{}],\"mean_overhead_pct\":{mean:.2},\
         \"median_overhead_pct\":{median:.2},\"max_overhead_pct\":{max:.2},\
         \"within_paper_claim\":{},\"span_self_overhead_pct\":{span_ovh:.2},\
         \"span_within_budget\":{}}}\n",
        wl_json.join(","),
        mean < PAPER_CLAIM_PCT,
        span_ovh < SPAN_BUDGET_PCT
    );
    (t, json)
}

/// E9, table only (the experiment-suite entry point).
pub fn e9_overhead_meter() -> Table {
    e9_overhead_meter_full().0
}

/// Cost of the observability layer itself: an E6-style warm flowback
/// query (served from the memoized trace cache, so span emission is a
/// meaningful fraction of the work) with spans disabled vs. enabled
/// with no sink attached.
fn span_self_overhead() -> f64 {
    // The query is µs-scale and the quantity is a per-query delta of
    // ~100 ns, so samples are interleaved (off, on, off, on, …): two
    // back-to-back blocks would measure CPU warm-up drift instead.
    const SPAN_REPS: usize = 101;
    let w = workloads::deep_calls(32);
    let session = w.prepare(EBlockStrategy::per_subroutine());
    let exec = session.execute(w.config());
    let mut controller = Controller::new(&session, &exec);
    controller.start_at(ProcId(0)).expect("debugging starts");
    let mut offs: Vec<Duration> = Vec::with_capacity(SPAN_REPS);
    let mut ons: Vec<Duration> = Vec::with_capacity(SPAN_REPS);
    for _ in 0..SPAN_REPS {
        ppd_obs::enable_spans(false);
        offs.push(time_once(|| controller.start_at(ProcId(0)).expect("starts")).1);
        ppd_obs::enable_spans(true);
        ons.push(time_once(|| controller.start_at(ProcId(0)).expect("starts")).1);
    }
    ppd_obs::enable_spans(false);
    ppd_obs::reset_spans();
    offs.sort_unstable();
    ons.sort_unstable();
    overhead_pct(offs[SPAN_REPS / 2], ons[SPAN_REPS / 2])
}

// ---------------------------------------------------------------------
// E11: telemetry overhead — flight ring, query journal
// ---------------------------------------------------------------------

/// E11 compares µs-scale warm queries like [`span_self_overhead`], so
/// it interleaves the same large rep count.
const E11_REPS: usize = 101;

/// Events per micro-benchmark batch for the per-event telemetry costs.
const E11_BATCH: u64 = 4096;

/// E11 — cost of the production-telemetry layer itself, held to the
/// same §7 envelope as the logging it observes (`PAPER_CLAIM_PCT`, < 15%):
///
/// - the E6-representative **cold** flowback query with a journal
///   attached vs. bare (interleaved minima; the journal adds a
///   baseline capture, one record build and one flushed JSONL write
///   per query) — this is the asserted envelope number;
/// - the fully-cached **warm** query as the honest worst case: a ~2 µs
///   query against a ~0.7 µs flushed write (reported, not asserted —
///   no real session is 100% warm-hit);
/// - the per-event cost of a flight-recorder ring write and of a
///   journal append alone.
///
/// The companion JSON body rides into `BENCH_overhead.json` under
/// `"telemetry"` and asserts both the envelope and that summing the
/// journal reproduces the engine's own `--stats` counters exactly
/// (the `ppd obs report` acceptance invariant).
pub fn e11_telemetry_full() -> (Table, String) {
    let mut t = Table::new(
        "E11 — telemetry overhead: always-on flight ring + query journal",
        &["probe", "baseline", "instrumented", "ovh %", "per event"],
    );
    let w = workloads::deep_calls(32);
    let session = w.prepare(EBlockStrategy::per_subroutine());
    let exec = session.execute(w.config());
    // Cold probe (the asserted one): a fresh Controller replays the
    // halt interval from the log — E6's representative query. The
    // journaled samples write into their own scratch journal.
    let scratch_path =
        std::env::temp_dir().join(format!("ppd-e11-cold-{}.jsonl", std::process::id()));
    let scratch = ppd_obs::Journal::create(&scratch_path).expect("temp journal is writable");
    let mut cold_offs: Vec<Duration> = Vec::with_capacity(E11_REPS);
    let mut cold_ons: Vec<Duration> = Vec::with_capacity(E11_REPS);
    for _ in 0..E11_REPS {
        cold_offs.push(
            time_once(|| {
                let mut c = Controller::new(&session, &exec);
                c.start_at(ProcId(0)).expect("starts")
            })
            .1,
        );
        cold_ons.push(
            time_once(|| {
                let mut c = Controller::new(&session, &exec);
                c.set_journal(scratch.clone());
                c.start_at(ProcId(0)).expect("starts")
            })
            .1,
        );
    }
    let _ = std::fs::remove_file(&scratch_path);
    // Minimum-of-N, not median: scheduler noise on a shared host only
    // ever *adds* time, while the journal's flushed write is real work
    // that survives in the floor — so interleaved minima isolate the
    // telemetry cost where medians still drift with load.
    cold_offs.sort_unstable();
    cold_ons.sort_unstable();
    let (cold_base, cold_logged) = (cold_offs[0], cold_ons[0]);
    let cold_ovh = overhead_pct(cold_base, cold_logged);
    t.row(vec![
        "cold query, journal attached".into(),
        fmt_duration(cold_base),
        fmt_duration(cold_logged),
        format!("{cold_ovh:+.1}%"),
        "-".into(),
    ]);
    // Warm probe: two controllers over the same execution, one bare,
    // one journaled from its very first query — so the journal covers
    // every query the engine ever counted and its column sums must
    // reproduce the engine's own `--stats` totals.
    let journal_path = std::env::temp_dir().join(format!("ppd-e11-{}.jsonl", std::process::id()));
    let journal = ppd_obs::Journal::create(&journal_path).expect("temp journal is writable");
    let mut bare = Controller::new(&session, &exec);
    let mut journaled = Controller::new(&session, &exec);
    journaled.set_journal(journal.clone());
    bare.start_at(ProcId(0)).expect("debugging starts");
    journaled.start_at(ProcId(0)).expect("debugging starts");
    // Interleaved sampling, as in `span_self_overhead`: the quantity is
    // a per-query delta of a µs-scale query, so alternating samples
    // cancel CPU warm-up drift that two back-to-back blocks would keep.
    // The estimator is again minimum-of-N (see the cold probe above).
    let mut offs: Vec<Duration> = Vec::with_capacity(E11_REPS);
    let mut ons: Vec<Duration> = Vec::with_capacity(E11_REPS);
    for _ in 0..E11_REPS {
        offs.push(time_once(|| bare.start_at(ProcId(0)).expect("starts")).1);
        ons.push(time_once(|| journaled.start_at(ProcId(0)).expect("starts")).1);
    }
    offs.sort_unstable();
    ons.sort_unstable();
    let (base, logged) = (offs[0], ons[0]);
    let ovh = overhead_pct(base, logged);
    t.row(vec![
        "warm query (100% cache hit)".into(),
        fmt_duration(base),
        fmt_duration(logged),
        format!("{ovh:+.1}%"),
        "-".into(),
    ]);
    // Per-event micro-costs: a flight ring write, and a journal append.
    let flight_note_ns = {
        let (_, d) = time_once(|| {
            for _ in 0..E11_BATCH {
                ppd_obs::flight::note("bench", "e11_probe");
            }
        });
        d.as_nanos() as u64 / E11_BATCH
    };
    t.row(vec![
        "flight note (ring write)".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{flight_note_ns} ns"),
    ]);
    let journal_append_ns = {
        let rec = ppd_obs::QueryRecord { kind: "bench".into(), ..ppd_obs::QueryRecord::default() };
        let micro = ppd_obs::Journal::create(
            std::env::temp_dir().join(format!("ppd-e11-micro-{}.jsonl", std::process::id())),
        )
        .expect("temp journal is writable");
        let (_, d) = time_once(|| {
            for _ in 0..E11_BATCH {
                micro.append(&rec);
            }
        });
        let _ = std::fs::remove_file(micro.path());
        d.as_nanos() as u64 / E11_BATCH
    };
    t.row(vec![
        "journal append (JSONL line)".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{journal_append_ns} ns"),
    ]);
    // The acceptance invariant behind `ppd obs report`: summing the
    // journal's columns reproduces the engine's `--stats` aggregates.
    let stats = journaled.stats();
    let journal_text = std::fs::read_to_string(&journal_path).expect("journal readable");
    let sum = |field: &str| json_field_sum(&journal_text, field);
    let journal_matches_stats = journal.records() == stats.queries
        && sum("replays") == stats.replays
        && sum("trace_events") == stats.trace_events
        && sum("log_entries_scanned") == stats.log_entries_scanned
        && sum("cache_hits") == stats.cache_hits
        && sum("cache_misses") == stats.cache_misses
        && sum("cache_evictions") == stats.evictions;
    let _ = std::fs::remove_file(&journal_path);
    t.note(format!(
        "journal overhead {cold_ovh:+.1}% on the E6-representative cold query (envelope: \
         the paper's < {PAPER_CLAIM_PCT:.0}%); {ovh:+.1}% on a fully-cached ~µs warm query"
    ));
    t.note(format!(
        "(worst case — one flushed JSONL write against a ~2 µs query; reported, not asserted). \
         Flight ring write {flight_note_ns} ns/event, journal append {journal_append_ns} \
         ns/record."
    ));
    t.note(format!(
        "journal column sums reproduce the engine's --stats counters: {}.",
        if journal_matches_stats { "yes (bit-for-bit)" } else { "NO — invariant broken" }
    ));
    let json = format!(
        "{{\"generator\":\"ppd-bench experiments (E11 telemetry overhead)\",\
         \"paper_claim_pct\":{PAPER_CLAIM_PCT:.1},\
         \"workloads\":[{{\"name\":\"deep_calls32_cold_query\",\"baseline_ns\":{},\
         \"journaled_ns\":{},\"overhead_pct\":{cold_ovh:.2}}},\
         {{\"name\":\"deep_calls32_warm_query\",\"baseline_ns\":{},\
         \"journaled_ns\":{},\"overhead_pct\":{ovh:.2}}}],\
         \"flight_note_ns\":{flight_note_ns},\"journal_append_ns\":{journal_append_ns},\
         \"cold_query_overhead_pct\":{cold_ovh:.2},\"warm_query_overhead_pct\":{ovh:.2},\
         \"within_e9_envelope\":{},\
         \"journal_matches_stats\":{journal_matches_stats}}}",
        cold_base.as_nanos(),
        cold_logged.as_nanos(),
        base.as_nanos(),
        logged.as_nanos(),
        cold_ovh < PAPER_CLAIM_PCT,
    );
    (t, json)
}

/// E11, table only (the experiment-suite entry point).
pub fn e11_telemetry() -> Table {
    e11_telemetry_full().0
}

/// Sums every `"field":N` occurrence across a JSONL text — enough of a
/// parser for the journal's flat fixed-order records.
fn json_field_sum(text: &str, field: &str) -> u64 {
    let needle = format!("\"{field}\":");
    let mut total = 0u64;
    for line in text.lines() {
        if let Some(at) = line.find(&needle) {
            let rest = &line[at + needle.len()..];
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            total += digits.parse::<u64>().unwrap_or(0);
        }
    }
    total
}

// ---------------------------------------------------------------------
// Figure reproductions
// ---------------------------------------------------------------------

/// F4.1 — the worked dynamic-graph example, summarized as a table.
pub fn f41_figure() -> Table {
    let mut t = Table::new(
        "F4.1 — Figure 4.1 dynamic program dependence graph (inputs a=5, b=3, c=2)",
        &["node", "kind", "value", "dependence sources"],
    );
    let w = Workload {
        name: "fig41".into(),
        source: ppd_lang::corpus::FIG_4_1.source.into(),
        inputs: vec![vec![5, 3, 2]],
    };
    let session = w.prepare(EBlockStrategy::per_subroutine());
    let exec = session.execute(w.config());
    let mut controller = Controller::new(&session, &exec);
    controller.start_at(ProcId(0)).expect("starts");
    let graph = controller.graph();
    for n in graph.nodes() {
        let kind = format!("{:?}", n.kind).split([' ', '{']).next().unwrap_or("?").to_owned();
        let deps: Vec<String> = graph
            .dependence_preds(n.id)
            .iter()
            .map(|&(p, _)| graph.node(p).label.clone())
            .collect();
        t.row(vec![
            n.label.clone(),
            kind,
            n.value.as_ref().map(|v| v.to_string()).unwrap_or_default(),
            deps.join("; "),
        ]);
    }
    t.note("Matches the paper's figure: SubD is a sub-graph node fed by a, b and the");
    t.note("fictional %3 = a + b + c; the else-branch sqrt hangs off `d > 0` = false.");
    t
}

/// F5.3 — the simplified static graph and its synchronization units.
pub fn f53_figure() -> Table {
    let mut t = Table::new(
        "F5.3 — Figure 5.3 simplified static graph of foo3 / synchronization units",
        &["variant", "nodes", "branching", "edges", "sync units"],
    );
    let base = ppd_lang::corpus::FIG_5_3.compile();
    let analyses = ppd_analysis::Analyses::run(&base);
    let foo3 = BodyId::Func(base.func_by_name("foo3").unwrap());
    let g = ppd_graph::SimplifiedGraph::build(&base, &analyses, foo3);
    let branching = g.nodes.iter().filter(|n| !n.is_non_branching()).count();
    t.row(vec![
        "foo3 (paper text)".into(),
        g.nodes.len().to_string(),
        branching.to_string(),
        g.edges.len().to_string(),
        g.sync_units().len().to_string(),
    ]);

    // The figure's three-unit variant (call nodes in the elided arms).
    let with_calls = ppd_lang::compile(
        "shared int SV; void work1() { } void work2() { } \
         int foo3(int p, int q) { int a = 1; int b = 2; int c = 3; \
            if (p == 1) { if (q == 1) { c = a + b; } else { work1(); c = a - b; } } \
            else { SV = a + b + SV; work2(); } return c; } \
         process P1 { print(foo3(1, 1)); }",
    )
    .unwrap();
    let analyses2 = ppd_analysis::Analyses::run(&with_calls);
    let foo3b = BodyId::Func(with_calls.func_by_name("foo3").unwrap());
    let g2 = ppd_graph::SimplifiedGraph::build(&with_calls, &analyses2, foo3b);
    let branching2 = g2.nodes.iter().filter(|n| !n.is_non_branching()).count();
    t.row(vec![
        "foo3 + call nodes (figure)".into(),
        g2.nodes.len().to_string(),
        branching2.to_string(),
        g2.edges.len().to_string(),
        g2.sync_units().len().to_string(),
    ]);
    t.note("Definition 5.1: units start at non-branching nodes (ENTRY, sync ops, calls).");
    t.note("With the figure's call nodes restored, foo3 has exactly 3 synchronization units.");
    t
}

/// F6.1 — the parallel dynamic graph of the three-process example and
/// the §6.3 race analysis.
pub fn f61_figure() -> Table {
    let mut t = Table::new(
        "F6.1 — Figure 6.1 parallel dynamic graph and §6.3 race analysis",
        &["quantity", "value"],
    );
    let w = Workload {
        name: "fig61".into(),
        source: ppd_lang::corpus::FIG_6_1.source.into(),
        inputs: vec![],
    };
    let session = w.prepare(EBlockStrategy::per_subroutine());
    let exec = session.execute(w.config());
    let g = &exec.pgraph;
    t.row(vec!["sync nodes".into(), g.nodes().len().to_string()]);
    t.row(vec!["internal edges".into(), g.internal_edges().len().to_string()]);
    t.row(vec!["sync edges (message, unblock)".into(), g.sync_edges().len().to_string()]);
    let empty_edges = g.internal_edges().iter().filter(|e| e.events == 0).count();
    t.row(vec!["zero-event edges (paper's e4)".into(), empty_edges.to_string()]);
    let ord = VectorClocks::compute(g);
    let races = detect_races(g, &ord, None);
    for (i, r) in races.iter().enumerate() {
        t.row(vec![format!("race {}", i + 1), ppd_graph::race::describe_race(g, session.rp(), r)]);
    }
    // Ordered pair check.
    let e1 = g.edges_of_proc(ProcId(0))[0];
    let e3 = *g.edges_of_proc(ProcId(2)).last().unwrap();
    t.row(vec!["e1 -> e3 ordered by message?".into(), g.edge_precedes(&ord, e1, e3).to_string()]);
    t.note("Exactly the paper's §6.3: P1's write/read pair with P3 is ordered through");
    t.note("the message; both pairs involving P2's write race.");
    t
}

// ---------------------------------------------------------------------
// E10: out-of-core segmented store — open-and-first-query vs log size
// ---------------------------------------------------------------------

/// The tentpole target: opening a segmented store and answering the
/// first structural query must stay well under this, at any size.
const E10_BUDGET: Duration = Duration::from_secs(1);

/// Default E10 sweep: target store sizes in file bytes, up to 1 GB.
pub const E10_DEFAULT_SIZES: &[u64] = &[1 << 20, 8 << 20, 64 << 20, 256 << 20, 1 << 30];

/// Synthesizes a segmented store of roughly `target_bytes` *payload*
/// bytes: four processes writing interleaved
/// prelog/snapshot/input/postlog records through the streaming
/// [`ppd_log::SegmentWriter`], exactly as the runtime sink does.
/// Deterministic (seeded LCG values), so the raw and compressed
/// variants of one size tier hold the identical entry stream.
fn e10_write_store(
    dir: &std::path::Path,
    target_bytes: u64,
    format: ppd_log::SegmentFormat,
) -> ppd_log::SinkReport {
    use ppd_analysis::EBlockId;
    use ppd_lang::Value;
    use ppd_log::LogEntry;
    const PROCS: usize = 4;
    let mut w =
        ppd_log::SegmentWriter::create(dir, PROCS, 1 << 20, format).expect("create E10 store");
    let mut written = 0u64;
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        rng >> 33
    };
    let mut time = 0u64;
    let mut instance = [0u64; PROCS];
    while written < target_bytes {
        for (p, inst) in instance.iter_mut().enumerate() {
            let pid = ProcId(p as u32);
            let eb = EBlockId((*inst % 8) as u32);
            // Interval shape modeled on the corpus workloads: a prelog
            // carrying a dozen scalars (plus, every fourth interval, a
            // snapshotted array — the §7 whole-array mode), a shared
            // snapshot, an input read, a matching postlog.
            let mut values: Vec<(VarId, Value)> =
                (0..12).map(|j| (VarId(j), Value::Int(next() as i64))).collect();
            if *inst % 4 == 0 {
                values.push((VarId(12), Value::Array((0..64).map(|_| next() as i64).collect())));
            }
            time += 1;
            let pre = LogEntry::Prelog { eblock: eb, instance: *inst, values, time };
            let snap = LogEntry::SharedSnapshot {
                at: None,
                values: (0..6).map(|j| (VarId(j), Value::Int(next() as i64))).collect(),
                time: time + 1,
            };
            let input = LogEntry::Input { value: next() as i64, time: time + 2 };
            let post = LogEntry::Postlog {
                eblock: eb,
                instance: *inst,
                values: (0..6).map(|j| (VarId(j), Value::Int(next() as i64))).collect(),
                ret: None,
                time: time + 3,
            };
            time += 3;
            *inst += 1;
            for e in [&pre, &snap, &input, &post] {
                written += e.size_bytes() as u64;
                w.append(pid, e);
            }
        }
    }
    w.finish().expect("finish E10 store")
}

/// One E10 measurement over an existing store directory: cold open
/// (mmap + footer decode), footer-index build, and the first structural
/// queries — plus the full-decode contrast (what a rescan would cost)
/// and how many entries the fast path decoded (must be zero).
fn e10_measure(dir: &std::path::Path) -> (Duration, Duration, u64, Duration) {
    use ppd_analysis::EBlockId;
    let open_d = median_of(3, || {
        let s = ppd_log::SegmentedLog::open(dir).expect("open E10 store");
        std::hint::black_box(s.total_entries())
    });
    let mut decoded = u64::MAX;
    let first_query = median_of(3, || {
        let s = ppd_log::SegmentedLog::open(dir).expect("open E10 store");
        let idx = s.index();
        let mut found = 0usize;
        for p in 0..s.process_count() {
            let pid = ProcId(p as u32);
            found += idx.open_intervals(pid).len();
            found += usize::from(idx.interval_covering(pid, EBlockId(0), u64::MAX / 2).is_some());
        }
        decoded = s.entries_decoded();
        std::hint::black_box(found)
    });
    let (_, full_decode) = time_once(|| {
        let s = ppd_log::SegmentedLog::open(dir).expect("open E10 store");
        s.verify().expect("E10 store verifies")
    });
    (open_d, first_query, decoded, full_decode)
}

/// One measured E10 store, raw or compressed, ready for row formatting.
struct E10Row {
    store: String,
    format: &'static str,
    target_bytes: Option<u64>,
    file_bytes: u64,
    segments: usize,
    entries: u64,
    write_d: Duration,
    open_d: Duration,
    first_query: Duration,
    decoded: u64,
    full_decode: Duration,
}

impl E10Row {
    fn bytes_per_entry(&self) -> f64 {
        self.file_bytes as f64 / (self.entries.max(1)) as f64
    }

    fn table_row(&self, raw: Option<&E10Row>) -> Vec<String> {
        let vs_raw = raw
            .map(|r| format!(" ({:.2}x)", r.file_bytes as f64 / self.file_bytes as f64))
            .unwrap_or_default();
        vec![
            self.store.clone(),
            self.format.into(),
            format!("{}{vs_raw}", self.file_bytes),
            format!("{:.1}", self.bytes_per_entry()),
            self.entries.to_string(),
            fmt_duration(self.write_d),
            fmt_duration(self.open_d),
            fmt_duration(self.first_query),
            self.decoded.to_string(),
            fmt_duration(self.full_decode),
        ]
    }

    fn json_row(&self, raw: Option<&E10Row>, within: bool) -> String {
        let vs_raw = raw
            .map(|r| {
                format!(
                    ",\"bytes_vs_raw\":{:.3},\"first_query_x_raw\":{:.3}",
                    r.file_bytes as f64 / self.file_bytes as f64,
                    self.first_query.as_secs_f64() / r.first_query.as_secs_f64().max(1e-9),
                )
            })
            .unwrap_or_default();
        format!(
            "{{\"store\":{},\"format\":\"{}\",\"target_bytes\":{},\
             \"file_bytes\":{},\"bytes_per_entry\":{:.2},\"segments\":{},\"entries\":{},\
             \"write_ms\":{:.3},\"open_us\":{:.1},\"first_query_us\":{:.1},\
             \"entries_decoded\":{},\"full_decode_ms\":{:.3},\
             \"within_budget\":{within}{vs_raw}}}",
            ppd_obs::metrics::json_string(&self.store),
            self.format,
            self.target_bytes.map_or("null".into(), |t| t.to_string()),
            self.file_bytes,
            self.bytes_per_entry(),
            self.segments,
            self.entries,
            self.write_d.as_secs_f64() * 1e3,
            self.open_d.as_secs_f64() * 1e6,
            self.first_query.as_secs_f64() * 1e6,
            self.decoded,
            self.full_decode.as_secs_f64() * 1e3,
        )
    }
}

/// The two segment formats E10 contrasts, with row labels.
const E10_FORMATS: [(&str, ppd_log::SegmentFormat); 2] =
    [("raw", ppd_log::SegmentFormat::V2Raw), ("lzb", ppd_log::SegmentFormat::V2Compressed)];

/// E10 — out-of-core segmented log store: open-and-first-query latency
/// vs store size, raw v2 blocks against lzb-compressed v2 blocks.
/// Synthetic multi-process stores are streamed through the segment
/// writer up to `max_bytes` (the full sweep reaches 1 GB of payload),
/// then opened cold: mmap + CRC-checked footer decode rebuilds the
/// interval index from footer digests with **zero entries decoded**
/// and **zero blocks decompressed**. The `full decode` column is the
/// rescan the footers avoid (for compressed stores it decompresses
/// every block on the rayon pool). Real corpus runs (streamed by the
/// runtime sink in both formats, reopened via the same path) anchor
/// the synthetic rows and carry the §7-style value payloads where
/// compression pays: the acceptance gate is >= 2x bytes/entry
/// reduction on those with first-query latency within 1.5x of raw.
pub fn e10_logstream_full(max_bytes: u64) -> (Table, String) {
    let mut t = Table::new(
        "E10 — segmented log store: raw vs lzb-compressed blocks (budget: < 1 s open+query)",
        &[
            "store",
            "format",
            "file bytes",
            "B/entry",
            "entries",
            "write",
            "open",
            "open+first query",
            "decoded",
            "full decode",
        ],
    );
    let tmp = std::env::temp_dir().join(format!("ppd-e10-{}", std::process::id()));
    let mut rows_json: Vec<String> = Vec::new();
    let mut all_within = true;
    // Corpus acceptance tracking: worst compression ratio and worst
    // first-query slowdown across the streamed corpus runs.
    let mut corpus_min_ratio = f64::INFINITY;
    let mut corpus_max_fq_x = 0.0f64;
    for &target in E10_DEFAULT_SIZES.iter().filter(|&&s| s <= max_bytes) {
        let mib = target >> 20;
        let mut raw_row: Option<E10Row> = None;
        for (tag, format) in E10_FORMATS {
            let dir = tmp.join(format!("size-{target}-{tag}"));
            let _ = std::fs::remove_dir_all(&dir);
            let (report, write_d) = time_once(|| e10_write_store(&dir, target, format));
            let (open_d, first_query, decoded, full_decode) = e10_measure(&dir);
            let within = first_query < E10_BUDGET;
            all_within &= within;
            assert_eq!(decoded, 0, "footer-indexed first query must decode no entries");
            let row = E10Row {
                store: format!("{mib} MiB synthetic"),
                format: tag,
                target_bytes: Some(target),
                file_bytes: report.bytes,
                segments: report.segments as usize,
                entries: report.entries,
                write_d,
                open_d,
                first_query,
                decoded,
                full_decode,
            };
            t.row(row.table_row(raw_row.as_ref()));
            rows_json.push(row.json_row(raw_row.as_ref(), within));
            if raw_row.is_none() {
                raw_row = Some(row);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    // Anchor rows: real runs streamed by the runtime sink, once per
    // format. The `gate` workloads carry whole-array interval
    // snapshots (§7 whole-array mode) — the value-dominated log shape
    // the >= 2x acceptance target is measured on; the scalar-only
    // workloads ride along to show the raw-block escape keeps
    // incompressible counter logs from regressing.
    for (w, gate) in [
        (workloads::loop_heavy(400), false),
        (workloads::typed_pipeline(3, 120), false),
        (workloads::stencil_state(96, 120), true),
        (workloads::histogram_rounds(4, 48, 60), true),
    ] {
        let session = w.prepare(EBlockStrategy::with_loops(4));
        let mut raw_row: Option<E10Row> = None;
        for (tag, format) in E10_FORMATS {
            let compress = matches!(format, ppd_log::SegmentFormat::V2Compressed);
            let dir = tmp.join(format!("corpus-{}-{tag}", w.name));
            let _ = std::fs::remove_dir_all(&dir);
            let (streamed, write_d) =
                time_once(|| session.execute_streaming_with(w.config(), &dir, 1 << 14, compress));
            let streamed = streamed.expect("stream corpus run");
            let seg = streamed.logs.segmented().expect("segment-backed").clone();
            let (open_d, first_query, decoded, full_decode) = e10_measure(&dir);
            assert_eq!(decoded, 0, "corpus-run first query must decode no entries");
            let within = first_query < E10_BUDGET;
            all_within &= within;
            let row = E10Row {
                store: w.name.clone(),
                format: tag,
                target_bytes: None,
                file_bytes: seg.total_file_bytes(),
                segments: (0..seg.process_count())
                    .map(|p| seg.segments(ProcId(p as u32)).count())
                    .sum(),
                entries: seg.total_entries(),
                write_d,
                open_d,
                first_query,
                decoded,
                full_decode,
            };
            t.row(row.table_row(raw_row.as_ref()));
            let mut json = row.json_row(raw_row.as_ref(), within);
            json.insert_str(json.len() - 1, &format!(",\"snapshot_corpus\":{gate}"));
            rows_json.push(json);
            match &raw_row {
                None => raw_row = Some(row),
                Some(raw) => {
                    let ratio = raw.file_bytes as f64 / row.file_bytes as f64;
                    let fq_x =
                        row.first_query.as_secs_f64() / raw.first_query.as_secs_f64().max(1e-9);
                    if gate {
                        corpus_min_ratio = corpus_min_ratio.min(ratio);
                    }
                    corpus_max_fq_x = corpus_max_fq_x.max(fq_x);
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    t.note("`open` = mmap + CRC-checked footer decode; `open+first query` additionally");
    t.note("rebuilds the interval index from footer digests and answers open-interval +");
    t.note("covering queries for every process. `decoded` counts entries decoded by the");
    t.note("fast path (always 0: indexes come from footers, with no block decompressed);");
    t.note("`full decode` is the rescan the footers avoid — for lzb rows it inflates every");
    t.note("block on the rayon pool. Synthetic raw/lzb pairs hold identical entry streams;");
    t.note("the corpus rows are streamed by the runtime sink during real instrumented runs");
    t.note("(the lzb rows via --compress), then reopened the same way. `file bytes (Nx)`");
    t.note("on lzb rows is the bytes/entry reduction vs the raw row above. The stencil +");
    t.note("histogram rows carry §7 whole-array interval snapshots — the value-dominated");
    t.note("shape the >= 2x acceptance target is measured on; scalar counter logs (random");
    t.note("synthetic values, loop_heavy, typed_pipe) barely compress and ride the");
    t.note("raw-block escape instead of regressing.");
    let corpus_min_ratio = if corpus_min_ratio.is_finite() { corpus_min_ratio } else { 0.0 };
    let json = format!(
        "{{\"generator\":\"ppd-bench experiments (E10 segmented log store)\",\
         \"budget_ms\":{},\"max_bytes\":{max_bytes},\"rows\":[{}],\
         \"all_within_budget\":{all_within},\
         \"snapshot_corpus_bytes_per_entry_reduction_min\":{corpus_min_ratio:.3},\
         \"corpus_first_query_x_raw_max\":{corpus_max_fq_x:.3}}}\n",
        E10_BUDGET.as_millis(),
        rows_json.join(","),
    );
    (t, json)
}

/// E10, table only, full sweep (the experiment-suite entry point).
pub fn e10_logstream() -> Table {
    e10_logstream_full(u64::MAX).0
}

/// Every experiment, in presentation order.
pub fn all() -> Vec<Table> {
    vec![
        e1_logging_overhead(),
        e2_log_vs_trace(),
        e3_granularity_sweep(),
        e4_race_detection(),
        e5_varset(),
        e6_flowback_latency(),
        e7_parallel_scaling(),
        e8_array_logging(),
        e9_overhead_meter(),
        e10_logstream(),
        f41_figure(),
        f53_figure(),
        f61_figure(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_kernel_agrees_across_reprs() {
        assert_eq!(set_kernel::<BitVarSet>(64, 32), set_kernel::<ListVarSet>(64, 32));
    }

    #[test]
    fn figure_tables_have_content() {
        assert!(f61_figure().rows.len() >= 6);
        assert!(f41_figure().rows.len() >= 8);
        assert_eq!(f53_figure().rows.len(), 2);
    }

    #[test]
    fn e2_runs_quickly_on_one_workload() {
        // Smoke-test the E2 machinery on the smallest workload.
        let w = crate::workloads::loop_heavy(50);
        let session = w.prepare(EBlockStrategy::per_subroutine());
        let mut counter = CountingTracer::default();
        let exec = session.execute_traced(w.config(), &mut counter);
        assert!(exec.outcome.is_success());
        assert!(counter.bytes > exec.logs.total_bytes() as u64);
    }
}
