//! The `ppd` command-line debugger.
//!
//! ```text
//! ppd check  <file> [options]            static type inference, then summarize
//! ppd lint   <file> [options]            static race & misuse diagnostics
//! ppd run    <file> [options]            execute as instrumented object code
//! ppd debug  <file> [options]            run, then open the interactive debugger
//! ppd races  <file> [--schedules N]      probe N random schedules for races
//! ppd dot    <file> [options]            emit Graphviz (static | parallel | dynamic)
//! ppd log    pack <file> <dir> [options] run and stream logs into a segment store
//! ppd log    inspect <dir> [--format json]  segment/footer summary, no entry decode
//! ppd log    verify <dir>                full CRC + footer cross-check
//! ppd obs    report <journal> [--format json]  aggregate a --journal file:
//!            per-kind latency percentiles, bytes/query, cache hit-rate trend
//! ppd obs    flight <dump>               pretty-print a flight-recorder dump
//!
//! options:
//!   --seed N            seeded-random scheduler (default: round-robin)
//!   --inputs a,b,c      input stream for process 0 (repeatable: next process)
//!   --break LINE        breakpoint on a source line (repeatable)
//!   --strategy S        e-blocks: subroutine | loops | split | merge
//!   --what W            dot target: static | parallel | dynamic
//!   --deny              lint: exit nonzero on any diagnostic, not just errors
//!   --explain CODE      lint/check: print the documentation page for a
//!                       stable diagnostic code (PPDnnn / TYPnnn) and
//!                       exit; no file operand is needed
//!   --format F          check/lint output: text (default) | json | sarif
//!   --no-check          lint/debug: proceed even if `ppd check` reports
//!                       type errors (they gate both commands by default)
//!   --stats             debug: print replay-engine counters (cache hits,
//!                       replays, query timings) after the session; with
//!                       `--format json`, emit the raw metrics registry
//!                       as a JSON snapshot instead of the table.
//!                       races: also print, per schedule, how many edge
//!                       pairs each detector stage examined (naive →
//!                       indexed → pruned → mhp → typed → absint)
//!   --trace-out FILE    record hierarchical spans from every layer
//!                       (runtime logging, log codec, replay, cache,
//!                       race scan, lint passes, pool workers) and write
//!                       a Chrome trace-event JSON loadable in Perfetto
//!   --jobs N | -j N     worker threads for the race scan (races, and the
//!                       debugger's `races`; default: available
//!                       parallelism); lint runs its passes on one
//!                       thread, and replay prefetch is a library call
//!                       no command makes
//!   --log-dir DIR       run/debug: stream logs into a segmented on-disk
//!                       store in DIR during execution and debug over the
//!                       mmap-backed reopened store; if DIR already holds
//!                       a saved run, load it instead of executing.
//!                       races: stream every probed schedule through
//!                       DIR/seed-N before scanning it (results are
//!                       bit-identical to the in-memory path)
//!   --segment-bytes N   segment payload capacity for --log-dir and
//!                       `ppd log pack` (default 65536)
//!   --compress          run/debug/races/`ppd log pack`: compress segment
//!                       payloads block-by-block (LZ77 frames, ~256 KiB
//!                       blocks) as they are sealed; a replay inflates
//!                       only the blocks holding the entries it consumes
//!   --journal FILE      debug/races: append one JSONL record per
//!                       Controller query (kind, args, wall latency,
//!                       cache hits/misses/evictions, log entries
//!                       decoded, blocks inflated, bytes read); feed the
//!                       file to `ppd obs report`
//!   --metrics-out FILE  write an OpenMetrics/Prometheus text exposition
//!                       of every counter/gauge/histogram (debug/races
//!                       include the replay-engine registry and a
//!                       per-segment access heatmap) when the command
//!                       finishes
//!   --flight-out FILE   dump the always-on flight recorder (a fixed
//!                       ring of the last ~1k coarse events) to FILE at
//!                       exit; on panic the ring is dumped there (or to
//!                       ppd-flight-panic.json) automatically
//!
//! interactive debug commands include `stats` (counters so far) and
//! `stats reset` (zero them, keeping cached traces warm, to measure a
//! single query in a warm session).
//! ```

use ppd::analysis::EBlockStrategy;
use ppd::core::{shared_state_at, Controller, Execution, PpdSession, RunConfig};
use ppd::graph::{dot, DynNodeId, DynNodeKind};
use ppd::obs::journal::COSTS;
use ppd::runtime::{Outcome, SchedulerSpec};
use std::io::{self, BufRead, Write as _};
use std::process::ExitCode;

struct Options {
    file: String,
    scheduler: SchedulerSpec,
    inputs: Vec<Vec<i64>>,
    break_lines: Vec<u32>,
    strategy: EBlockStrategy,
    what: String,
    schedules: u64,
    deny: bool,
    explain: Option<String>,
    no_check: bool,
    format: String,
    stats: bool,
    trace_out: Option<String>,
    jobs: usize,
    log_dir: Option<String>,
    segment_bytes: usize,
    compress: bool,
    journal: Option<String>,
    metrics_out: Option<String>,
    flight_out: Option<String>,
}

/// Default `--jobs`: every hardware thread the host will give us.
fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ppd <check|lint|run|debug|races|dot> <file.ppd> \
         [--seed N] [--inputs a,b,c]... [--break LINE]... \
         [--strategy subroutine|loops|split|merge] [--what static|parallel|dynamic] \
         [--schedules N] \
         [--deny] [--explain CODE] [--no-check] [--format text|json|sarif] [--stats] \
         [--trace-out FILE] [--jobs N] \
         [--log-dir DIR] [--segment-bytes N] [--compress] \
         [--journal FILE] [--metrics-out FILE] [--flight-out FILE]\n       \
         ppd log <pack|inspect|verify> ... (see ppd log --help)\n       \
         ppd obs <report|flight> ... (see ppd obs --help)"
    );
    ExitCode::from(2)
}

impl Options {
    /// Options for `file` with every flag at its default.
    fn new(file: String) -> Options {
        Options {
            file,
            scheduler: SchedulerSpec::RoundRobin,
            inputs: Vec::new(),
            break_lines: Vec::new(),
            strategy: EBlockStrategy::per_subroutine(),
            what: "dynamic".into(),
            schedules: 10,
            deny: false,
            explain: None,
            no_check: false,
            format: "text".into(),
            stats: false,
            trace_out: None,
            jobs: default_jobs(),
            log_dir: None,
            segment_bytes: 0,
            compress: false,
            journal: None,
            metrics_out: None,
            flight_out: None,
        }
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(String, Options), String> {
    let cmd = args.next().ok_or("missing command")?;
    // `ppd lint --explain PPDnnn` takes no file operand: when the
    // operand position holds a flag, re-process it as one and leave the
    // file empty (`main` rejects the empty file unless `--explain` ran).
    let mut deferred_flag = None;
    let file = match args.next() {
        Some(f) if f.starts_with("--") => {
            deferred_flag = Some(f);
            String::new()
        }
        Some(f) => f,
        None => return Err("missing file".into()),
    };
    let mut opts = Options::new(file);
    parse_flags(&mut opts, deferred_flag.into_iter().chain(args), None)?;
    Ok((cmd, opts))
}

/// Parses `args` as flags into `opts`. With `only`, every other flag is
/// unknown.
fn parse_flags(
    opts: &mut Options,
    mut args: impl Iterator<Item = String>,
    only: Option<&[&str]>,
) -> Result<(), String> {
    while let Some(flag) = args.next() {
        if only.is_some_and(|only| !only.contains(&flag.as_str())) {
            return Err(format!("unknown flag `{flag}`"));
        }
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                let seed = value()?.parse().map_err(|_| "--seed wants a number")?;
                opts.scheduler = SchedulerSpec::Random { seed };
            }
            "--inputs" => {
                let stream: Result<Vec<i64>, _> =
                    value()?.split(',').map(|s| s.trim().parse()).collect();
                opts.inputs.push(stream.map_err(|_| "--inputs wants numbers")?);
            }
            "--break" => {
                opts.break_lines.push(value()?.parse().map_err(|_| "--break wants a line")?);
            }
            "--strategy" => {
                opts.strategy = match value()?.as_str() {
                    "subroutine" => EBlockStrategy::per_subroutine(),
                    "loops" => EBlockStrategy::with_loops(4),
                    "split" => EBlockStrategy::with_split(4),
                    "merge" => EBlockStrategy::with_leaf_merge(8),
                    other => return Err(format!("unknown strategy `{other}`")),
                };
            }
            "--what" => opts.what = value()?,
            "--schedules" => {
                opts.schedules = value()?.parse().map_err(|_| "--schedules wants a number")?;
            }
            "--deny" => opts.deny = true,
            "--explain" => opts.explain = Some(value()?),
            "--no-check" => opts.no_check = true,
            "--format" => opts.format = value()?,
            "--stats" => opts.stats = true,
            "--trace-out" => opts.trace_out = Some(value()?),
            "--jobs" | "-j" => {
                let n: usize = value()?.parse().map_err(|_| "--jobs wants a number")?;
                opts.jobs = n.max(1);
            }
            "--log-dir" => opts.log_dir = Some(value()?),
            "--segment-bytes" => {
                opts.segment_bytes =
                    value()?.parse().map_err(|_| "--segment-bytes wants a number")?;
            }
            "--compress" => opts.compress = true,
            "--journal" => opts.journal = Some(value()?),
            "--metrics-out" => opts.metrics_out = Some(value()?),
            "--flight-out" => opts.flight_out = Some(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    // The flight recorder is always on; the hook makes every panic
    // leave a black-box dump behind (default ppd-flight-panic.json,
    // or the --flight-out path once parsed below).
    ppd::obs::flight::install_panic_hook();
    exit_quietly_on_closed_stdout();
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("log") {
        raw.next();
        return cmd_log(raw);
    }
    if raw.peek().map(String::as_str) == Some("obs") {
        raw.next();
        return cmd_obs(raw);
    }
    let (cmd, opts) = match parse_args(raw) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if let Some(path) = &opts.flight_out {
        ppd::obs::flight::set_panic_dump_path(Some(path.into()));
    }
    ppd::obs::flight::note_with("cli", "command", format!("cmd={cmd} file={}", opts.file));
    if let Some(code) = &opts.explain {
        return cmd_explain(&cmd, code);
    }
    if opts.file.is_empty() {
        eprintln!("error: missing file");
        return usage();
    }
    let source = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };
    let session = match PpdSession::prepare(&source, opts.strategy) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("compile error: {e}");
            if let ppd::core::PpdError::Lang(lang) = &e {
                let file = ppd::lang::SourceFile::new(opts.file.clone(), source);
                let excerpt = file.render_excerpt(lang.span());
                if !excerpt.is_empty() {
                    eprintln!("{excerpt}");
                }
            }
            return ExitCode::FAILURE;
        }
    };
    if opts.trace_out.is_some() {
        ppd::obs::enable_spans(true);
    }
    let code = match cmd.as_str() {
        "check" => cmd_check(&session, &opts, &source),
        "lint" => check_gate(&session, &opts, &source)
            .unwrap_or_else(|| cmd_lint(&session, &opts, &source)),
        "run" => cmd_run(&session, &opts, true).1,
        "debug" => {
            check_gate(&session, &opts, &source).unwrap_or_else(|| cmd_debug(&session, &opts))
        }
        "races" => cmd_races(&session, &opts),
        "dot" => cmd_dot(&session, &opts, &source),
        _ => usage(),
    };
    if let Some(path) = &opts.trace_out {
        ppd::obs::enable_spans(false);
        let records = ppd::obs::take_spans();
        let json = ppd::obs::chrome::trace_json(&records, &ppd::obs::thread_names());
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("trace: {} span(s) written to {path}", records.len()),
            Err(e) => {
                eprintln!("error: cannot write trace to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // debug/races write --metrics-out themselves (they fold in the
    // replay-engine registry and the segment heatmap); every other
    // command exposes the global registry alone.
    if !matches!(cmd.as_str(), "debug" | "races") {
        if let Some(path) = &opts.metrics_out {
            if !write_metrics_out(path, None, &[]) {
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &opts.flight_out {
        let recorder = ppd::obs::flight::global();
        match std::fs::write(path, recorder.dump_json()) {
            Ok(()) => eprintln!("flight: {} event(s) written to {path}", recorder.recorded()),
            Err(e) => {
                eprintln!("error: cannot write flight dump to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    code
}

/// Ends the process quietly, with status 0, when printing fails
/// because the reader of stdout went away (`ppd check FILE | head`):
/// `println!` panics on the broken pipe, and that is the end of the
/// output, not a crash — no panic message, no flight dump. Every other
/// panic goes on to the flight recorder's hook.
fn exit_quietly_on_closed_stdout() {
    let next = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if msg.starts_with("failed printing to stdout") && msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        next(info);
    }));
}

/// Writes the OpenMetrics exposition for `--metrics-out`: the global
/// registry, optionally a replay-engine snapshot with the store's read
/// totals, and the per-segment access heatmap as labeled counter
/// families. Returns false (after printing) on I/O failure.
fn write_metrics_out(
    path: &str,
    engine: Option<ppd::obs::Snapshot>,
    heat: &[ppd::log::HeatRecord],
) -> bool {
    let mut exp = ppd::obs::Exposition::new("ppd");
    exp.add_snapshot(&ppd::obs::global().snapshot());
    if let Some(snap) = engine {
        exp.add_snapshot(&snap);
        // The store owns its read counts; the totals are its heatmap's.
        let total = |f: fn(&ppd::log::HeatRecord) -> u64| heat.iter().map(f).sum::<u64>();
        for (name, value) in [
            ("log.segment_entries_decoded", total(|h| h.entries_decoded)),
            ("log.segment_blocks_inflated", total(|h| h.blocks_inflated)),
            ("log.segment_bytes_read", total(|h| h.bytes_read)),
        ] {
            exp.counter(name, &format!("counter {name}"), &[], value);
        }
    }
    for h in heat {
        if h.entries_decoded == 0 && h.blocks_inflated == 0 && h.bytes_read == 0 {
            continue;
        }
        let proc = h.proc.to_string();
        let seq = h.seq.to_string();
        let labels = [("file", h.file.as_str()), ("proc", proc.as_str()), ("seq", seq.as_str())];
        exp.counter(
            "log.segment_heat_entries_decoded",
            "Entries decoded from this segment",
            &labels,
            h.entries_decoded,
        );
        exp.counter(
            "log.segment_heat_blocks_inflated",
            "Compressed blocks inflated from this segment",
            &labels,
            h.blocks_inflated,
        );
        exp.counter(
            "log.segment_heat_bytes_read",
            "Bytes read from this segment",
            &labels,
            h.bytes_read,
        );
    }
    match std::fs::write(path, exp.render()) {
        Ok(()) => {
            eprintln!("metrics: OpenMetrics exposition written to {path}");
            true
        }
        Err(e) => {
            eprintln!("error: cannot write metrics to {path}: {e}");
            false
        }
    }
}

/// `ppd lint --explain PPDnnn` / `ppd check --explain TYPnnn`: prints
/// the documentation page for a stable diagnostic code. Exit 2 on a
/// command that has no codes, 1 on an unknown code.
fn cmd_explain(cmd: &str, code: &str) -> ExitCode {
    let (page, known) = match cmd {
        "lint" => (ppd::analysis::lint::explain(code), ppd::analysis::lint::explained_codes()),
        "check" => (ppd::lang::types::explain(code), ppd::lang::types::explained_codes()),
        _ => {
            eprintln!(
                "error: --explain applies to `ppd lint` (PPDnnn codes) \
                 and `ppd check` (TYPnnn codes)"
            );
            return ExitCode::from(2);
        }
    };
    match page {
        Some(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("error: no documentation page for `{code}` (known: {})", known.join(", "));
            ExitCode::FAILURE
        }
    }
}

fn run_config(session: &PpdSession, opts: &Options) -> RunConfig {
    let breakpoints = opts
        .break_lines
        .iter()
        .flat_map(|&l| session.analyses().database.stmts_at_line(l))
        .collect();
    RunConfig {
        scheduler: opts.scheduler,
        inputs: opts.inputs.clone(),
        breakpoints,
        ..RunConfig::default()
    }
}

/// Converts the type checker's errors into lint-style diagnostics so the
/// text/json/sarif renderers can be shared with `ppd lint`. The checker
/// already emits them stable-sorted by `(span, code, message)` and
/// deduplicated; the conversion preserves that order.
fn type_error_diags(
    errors: &[ppd::lang::types::TypeError],
) -> Vec<ppd::analysis::lint::Diagnostic> {
    use ppd::analysis::lint::{Diagnostic, Severity};
    errors.iter().map(|e| Diagnostic::new(e.code(), Severity::Error, e.message(), e.span)).collect()
}

/// The `--no-check` gate: `ppd lint` and `ppd debug` refuse to run on a
/// program the type checker rejects — inferred channel payloads feed the
/// typed sync groups both commands rely on, so diagnostics computed from
/// an ill-typed program would be unreliable. Returns `Some(exit)` when
/// the gate trips.
fn check_gate(session: &PpdSession, opts: &Options, source: &str) -> Option<ExitCode> {
    if opts.no_check {
        return None;
    }
    let tc = ppd::lang::types::check(session.rp());
    if tc.is_ok() {
        return None;
    }
    let file = ppd::lang::SourceFile::new(opts.file.clone(), source.to_owned());
    for d in type_error_diags(&tc.errors) {
        eprintln!("{}\n", d.render(&file));
    }
    eprintln!(
        "error: {} type error(s); fix them or pass --no-check to proceed anyway",
        tc.errors.len()
    );
    Some(ExitCode::FAILURE)
}

fn cmd_check(session: &PpdSession, opts: &Options, source: &str) -> ExitCode {
    let rp = session.rp();
    let file = ppd::lang::SourceFile::new(opts.file.clone(), source.to_owned());
    let tc = ppd::lang::types::check(rp);
    let diags = type_error_diags(&tc.errors);
    match opts.format.as_str() {
        "text" | "human" => {
            for d in &diags {
                println!("{}\n", d.render(&file));
            }
            if !tc.is_ok() {
                println!("check: {} type error(s)", diags.len());
                return ExitCode::FAILURE;
            }
            println!(
                "ok: {} process(es), {} function(s), {} shared variable(s), \
                 {} semaphore(s)/lock(s), {} channel(s)",
                rp.procs.len(),
                rp.funcs.len(),
                rp.shared_count,
                rp.sems.len(),
                rp.chans.len()
            );
            for i in 0..rp.chans.len() {
                let c = ppd::lang::ChanId(i as u32);
                println!("  chan {}: carries `{}`", rp.chan_name(c), tc.info.chan_payload[i]);
            }
            println!(
                "preparatory phase: {} e-blocks, {} static-graph edges, {} sync units",
                session.plan().eblocks().len(),
                session.static_graph().edge_count(),
                session.analyses().sync_units.total()
            );
            for eb in session.plan().eblocks() {
                println!(
                    "  {}: {:?} region of {}",
                    eb.id,
                    match &eb.region {
                        ppd::analysis::Region::Body(_) => "body",
                        ppd::analysis::Region::Loop { .. } => "loop",
                        ppd::analysis::Region::Chunk { .. } => "chunk",
                    },
                    rp.body_name(eb.region.body())
                );
            }
            ExitCode::SUCCESS
        }
        "json" => match diags_json(&diags, &file) {
            Ok(json) => {
                println!("{json}");
                if tc.is_ok() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: cannot serialize diagnostics: {e}");
                ExitCode::FAILURE
            }
        },
        "sarif" => {
            println!("{}", ppd::sarif::to_sarif(&diags, &file));
            if tc.is_ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        other => {
            eprintln!("unknown --format `{other}` (text | json | sarif)");
            ExitCode::FAILURE
        }
    }
}

/// JSON shape of one diagnostic (stable output for tooling). Owned
/// fields: the vendored serde_derive stub does not handle generics.
#[derive(serde::Serialize)]
struct JsonDiagnostic {
    code: String,
    severity: String,
    message: String,
    file: String,
    line: u32,
    col: u32,
    notes: Vec<JsonNote>,
}

/// JSON shape of one diagnostic note.
#[derive(serde::Serialize)]
struct JsonNote {
    label: String,
    line: Option<u32>,
    col: Option<u32>,
}

/// Serializes diagnostics to the stable JSON shape shared by `ppd lint`
/// and `ppd check`.
fn diags_json(
    diags: &[ppd::analysis::lint::Diagnostic],
    file: &ppd::lang::SourceFile,
) -> Result<String, serde_json::Error> {
    let list: Vec<JsonDiagnostic> = diags
        .iter()
        .map(|d| {
            let (line, col) = file.line_col(d.span.start);
            JsonDiagnostic {
                code: d.code.to_owned(),
                severity: d.severity.to_string(),
                message: d.message.clone(),
                file: file.name().to_owned(),
                line,
                col,
                notes: d
                    .notes
                    .iter()
                    .map(|n| {
                        let pos = n.span.map(|s| file.line_col(s.start));
                        JsonNote {
                            label: n.label.clone(),
                            line: pos.map(|p| p.0),
                            col: pos.map(|p| p.1),
                        }
                    })
                    .collect(),
            }
        })
        .collect();
    serde_json::to_string_pretty(&list)
}

fn cmd_lint(session: &PpdSession, opts: &Options, source: &str) -> ExitCode {
    use ppd::analysis::lint::{run_default, Severity};
    let file = ppd::lang::SourceFile::new(opts.file.clone(), source);
    let diags = run_default(session.rp(), session.analyses());
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = diags.len() - errors;
    match opts.format.as_str() {
        "text" | "human" => {
            for d in &diags {
                println!("{}\n", d.render(&file));
            }
            if diags.is_empty() {
                println!("lint: no diagnostics");
            } else {
                println!("lint: {warnings} warning(s), {errors} error(s)");
            }
            // The static race-candidate prune chain: each stage is a
            // subset of the previous one, and the dynamic detector only
            // ever examines combinations surviving the last stage.
            let a = session.analyses();
            println!(
                "candidates: {} gmod/gref -> {} mhp -> {} typed -> {} absint",
                a.race_candidates.len(),
                a.mhp_candidates.len(),
                a.typed_candidates.len(),
                a.absint_candidates.len()
            );
        }
        "json" => match diags_json(&diags, &file) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("error: cannot serialize diagnostics: {e}");
                return ExitCode::FAILURE;
            }
        },
        "sarif" => {
            println!("{}", ppd::sarif::to_sarif(&diags, &file));
        }
        other => {
            eprintln!("unknown --format `{other}` (text | json | sarif)");
            return ExitCode::FAILURE;
        }
    }
    if errors > 0 || (opts.deny && !diags.is_empty()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_run(session: &PpdSession, opts: &Options, verbose: bool) -> (Execution, ExitCode) {
    // `--log-dir` on a store a previous run left there replays the
    // offline workflow: the execution phase already happened; debug its
    // saved record. Otherwise `--log-dir` streams the run through the
    // segmented on-disk store: debugging then works over the
    // mmap-backed, lazily decoded logs.
    let (execution, was_loaded) = if let Some(dir) = &opts.log_dir {
        let dir = std::path::Path::new(dir);
        if Execution::is_saved_run(dir) {
            match Execution::load_dir(dir) {
                Ok(execution) => {
                    if verbose {
                        println!("loaded segmented log store from {}", dir.display());
                        for w in execution.logs.recovery_warnings() {
                            eprintln!("warning: {w}");
                        }
                    }
                    (execution, true)
                }
                Err(e) => {
                    eprintln!("error: cannot open log dir {}: {e}", dir.display());
                    std::process::exit(1);
                }
            }
        } else {
            match session.execute_streaming_with(
                run_config(session, opts),
                dir,
                opts.segment_bytes,
                opts.compress,
            ) {
                Ok(execution) => {
                    if verbose {
                        println!("logs streamed to {}", dir.display());
                    }
                    (execution, false)
                }
                Err(e) => {
                    eprintln!("error: cannot stream logs to {}: {e}", dir.display());
                    std::process::exit(1);
                }
            }
        }
    } else {
        (session.execute(run_config(session, opts)), false)
    };
    if verbose && was_loaded {
        println!("outcome: {}", describe_outcome(session, &execution.outcome));
    } else if verbose {
        for &(p, v) in &execution.output {
            println!("[{}] {v}", session.rp().proc_name(p));
        }
        println!("outcome: {}", describe_outcome(session, &execution.outcome));
        println!(
            "logs: {} entries / {} bytes; parallel graph: {} nodes, {} internal edges",
            execution.logs.total_entries(),
            execution.logs.total_bytes(),
            execution.pgraph.nodes().len(),
            execution.pgraph.internal_edges().len(),
        );
    }
    let code = match execution.outcome {
        Outcome::Completed | Outcome::Breakpoint { .. } => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    };
    (execution, code)
}

fn describe_outcome(session: &PpdSession, outcome: &Outcome) -> String {
    let line = |stmt: &ppd::lang::StmtId| {
        session
            .analyses()
            .database
            .line_of(*stmt)
            .map(|l| format!(" (line {l})"))
            .unwrap_or_default()
    };
    match outcome {
        Outcome::Completed => "completed".into(),
        Outcome::Failed { proc, stmt, error } => {
            format!("FAILED in {}{}: {error}", session.rp().proc_name(*proc), line(stmt))
        }
        Outcome::Deadlock { blocked } => {
            use ppd::runtime::BlockReason;
            let who: Vec<String> = blocked
                .iter()
                .map(|(p, r, s)| {
                    let reason = match r {
                        BlockReason::Semaphore(sem) => {
                            format!("waiting on semaphore `{}`", session.rp().sem_name(*sem))
                        }
                        BlockReason::LockWait(sem) => {
                            format!("waiting on lock `{}`", session.rp().sem_name(*sem))
                        }
                        other => other.to_string(),
                    };
                    format!("{} {reason}{}", session.rp().proc_name(*p), line(s))
                })
                .collect();
            format!("DEADLOCK: {}", who.join("; "))
        }
        Outcome::StepLimit => "step limit exhausted".into(),
        Outcome::Breakpoint { proc, stmt } => {
            format!("breakpoint in {}{}", session.rp().proc_name(*proc), line(stmt))
        }
    }
}

fn cmd_races(session: &PpdSession, opts: &Options) -> ExitCode {
    let mut any = false;
    // One journal across all probed schedules; records from successive
    // seeds append to the same file.
    let journal = match opts.journal.as_deref().map(ppd::obs::Journal::create) {
        Some(Ok(j)) => Some(j),
        Some(Err(e)) => {
            eprintln!("error: cannot create journal {}: {e}", opts.journal.as_deref().unwrap());
            return ExitCode::FAILURE;
        }
        None => None,
    };
    let mut last_metrics = None;
    let mut last_heat = Vec::new();
    for seed in 0..opts.schedules {
        let cfg = RunConfig {
            scheduler: SchedulerSpec::Random { seed },
            inputs: opts.inputs.clone(),
            ..RunConfig::default()
        };
        // With `--log-dir`, every probed schedule round-trips through
        // the on-disk store before the scan — the printed results must
        // be bit-identical to the in-memory path (CI diffs them).
        let execution = match &opts.log_dir {
            Some(dir) => {
                let sub = std::path::Path::new(dir).join(format!("seed-{seed}"));
                match session.execute_streaming_with(cfg, &sub, opts.segment_bytes, opts.compress) {
                    Ok(e) => e,
                    Err(e) => {
                        eprintln!("error: cannot stream logs to {}: {e}", sub.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            None => session.execute(cfg),
        };
        // Surface log-recovery warnings exactly like `ppd debug --stats`
        // does rather than silently succeeding over a truncated store.
        for w in execution.logs.recovery_warnings() {
            println!("recovery: {w}");
        }
        let mut controller = Controller::new(session, &execution);
        controller.set_jobs(opts.jobs);
        if let Some(j) = &journal {
            controller.set_journal(j.clone());
        }
        let races = controller.races();
        if races.is_empty() {
            println!("seed {seed}: race-free ({})", describe_outcome(session, &execution.outcome));
        } else {
            any = true;
            println!("seed {seed}: {} race(s)", races.len());
            for r in races {
                println!("    {}", r.description);
            }
        }
        if opts.stats {
            // Every stage finds the identical race set; the counts show
            // how many edge pairs each static pruning layer removed.
            let stages: Vec<String> = controller
                .race_stage_pairs()
                .iter()
                .map(|(name, pairs)| format!("{name} {pairs}"))
                .collect();
            println!("    pairs examined: {}", stages.join(" -> "));
        }
        if opts.metrics_out.is_some() {
            last_metrics = Some(controller.metrics_snapshot());
            last_heat = execution.logs.access_heatmap();
        }
    }
    if let Some(j) = &journal {
        eprintln!("journal: {} record(s) appended to {}", j.records(), j.path().display());
    }
    if let Some(path) = &opts.metrics_out {
        if !write_metrics_out(path, last_metrics, &last_heat) {
            return ExitCode::FAILURE;
        }
    }
    if any {
        ExitCode::FAILURE
    } else {
        println!("all {} probed schedules race-free (Definition 6.4)", opts.schedules);
        ExitCode::SUCCESS
    }
}

fn cmd_dot(session: &PpdSession, opts: &Options, _source: &str) -> ExitCode {
    match opts.what.as_str() {
        "parallel" => {
            let (execution, _) = cmd_run(session, opts, false);
            println!("{}", dot::parallel_to_dot(&execution.pgraph, session.rp()));
        }
        "dynamic" => {
            let (execution, _) = cmd_run(session, opts, false);
            let mut controller = Controller::new(session, &execution);
            if let Err(e) = controller.start() {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
            println!("{}", dot::dynamic_to_dot(controller.graph()));
        }
        "static" => {
            // One simplified graph per body.
            for body in session.rp().bodies() {
                let g = ppd::graph::SimplifiedGraph::build(session.rp(), session.analyses(), body);
                println!("// {}", session.rp().body_name(body));
                println!("{}", dot::simplified_to_dot(&g));
            }
        }
        "pdg" => {
            for body in session.rp().bodies() {
                println!("{}", dot::static_to_dot(session.static_graph(), session.rp(), body));
            }
        }
        other => {
            eprintln!("unknown --what `{other}` (static | pdg | parallel | dynamic)");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn cmd_debug(session: &PpdSession, opts: &Options) -> ExitCode {
    let (execution, _) = cmd_run(session, opts, true);
    let mut controller = Controller::new(session, &execution);
    controller.set_jobs(opts.jobs);
    // Attach the journal before the first query so every Controller
    // query of the session lands in it (start() below is query #1).
    let journal = match opts.journal.as_deref().map(ppd::obs::Journal::create) {
        Some(Ok(j)) => {
            controller.set_journal(j.clone());
            Some(j)
        }
        Some(Err(e)) => {
            eprintln!("error: cannot create journal {}: {e}", opts.journal.as_deref().unwrap());
            return ExitCode::FAILURE;
        }
        None => None,
    };
    let root = match controller.start() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot start debugging: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("\ndebugging from: {}", controller.graph().node(root).label);
    if opts.trace_out.is_some() {
        // With a trace attached, exercise the race-scan layer once so
        // the exported timeline shows every debugging-phase subsystem.
        println!("races: {} (race scan recorded in trace)", controller.races().len());
    }
    if opts.stats {
        // Non-interactive runs (stdin closed) still see the counters for
        // the initial query before the REPL exits — and any log-recovery
        // warnings from an unsealed (crashed or still-running) store.
        for w in execution.logs.recovery_warnings() {
            println!("recovery: {w}");
        }
        println!("\nreplay-engine stats after initial query:\n{}", render_stats(&controller, opts));
    }
    println!(
        "commands: graph back <n> slice <n> forward <n> expand <n> races state stats \
         [reset] dot quit\n"
    );
    print!("ppd> ");
    let _ = io::stdout().flush();
    let stdin = io::stdin();
    for line in stdin.lock().lines() {
        let line = line.unwrap_or_default();
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        let arg = parts.next();
        let node = arg
            .and_then(|s| s.parse::<u32>().ok())
            .map(DynNodeId)
            .filter(|n| n.index() < controller.graph().len());
        match (cmd, node) {
            ("quit", _) | ("exit", _) => break,
            ("graph", _) => {
                for n in controller.graph().nodes() {
                    print_node(&controller, n.id);
                }
            }
            ("back", Some(n)) => {
                for (p, k) in controller.flowback(n) {
                    println!("  <-[{k:?}]- #{} {}", p.0, controller.graph().node(p).label);
                }
            }
            ("forward", Some(n)) => {
                for (sx, k) in controller.flow_forward(n) {
                    println!("  -[{k:?}]-> #{} {}", sx.0, controller.graph().node(sx).label);
                }
            }
            ("slice", Some(n)) => {
                for s in controller.backward_slice(n) {
                    print_node(&controller, s);
                }
            }
            ("expand", Some(n)) => match controller.expand(n) {
                Ok(report) => {
                    for added in report.nodes {
                        print_node(&controller, added);
                    }
                }
                Err(e) => println!("{e}"),
            },
            ("races", _) => {
                for r in controller.races() {
                    println!("  {}", r.description);
                }
            }
            ("stats", _) if arg == Some("reset") => {
                controller.reset_stats();
                println!("stats reset (cached traces kept warm)");
            }
            ("stats", _) => println!("{}", render_stats(&controller, opts)),
            ("state", _) => match shared_state_at(session, &execution, u64::MAX) {
                Ok(state) => {
                    for v in session.rp().shared_vars() {
                        println!("  {} = {}", session.rp().var_name(v), state[v.index()]);
                    }
                }
                Err(e) => println!("{e}"),
            },
            ("dot", _) => println!("{}", dot::dynamic_to_dot(controller.graph())),
            ("", _) => {}
            _ => println!("unknown command or bad node id"),
        }
        print!("ppd> ");
        let _ = io::stdout().flush();
    }
    if opts.stats {
        println!("\nreplay-engine stats at exit:\n{}", render_stats(&controller, opts));
    }
    if let Some(j) = &journal {
        eprintln!("journal: {} record(s) appended to {}", j.records(), j.path().display());
    }
    if let Some(path) = &opts.metrics_out {
        let heat = execution.logs.access_heatmap();
        if !write_metrics_out(path, Some(controller.metrics_snapshot()), &heat) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `--stats` rendering: the human table, or the raw metrics-registry
/// snapshot as single-line JSON under `--format json`.
fn render_stats(controller: &Controller<'_>, opts: &Options) -> String {
    if opts.format == "json" {
        controller.metrics_json()
    } else {
        controller.stats().render()
    }
}

// ---------------------------------------------------------------------
// `ppd log` — segmented-store tooling
// ---------------------------------------------------------------------

fn log_usage() -> ExitCode {
    eprintln!(
        "usage: ppd log pack <file.ppd> <dir> \
         [--seed N] [--inputs a,b,c]... [--strategy S] [--segment-bytes N] [--compress]\n       \
         ppd log inspect <dir> [--format text|json]\n       \
         ppd log verify <dir>"
    );
    ExitCode::from(2)
}

/// `ppd log pack | inspect | verify`: tooling over the segmented
/// on-disk store, dispatched before the generic argument parser (these
/// subcommands take a directory, not a source file).
fn cmd_log(mut args: impl Iterator<Item = String>) -> ExitCode {
    let Some(sub) = args.next() else { return log_usage() };
    match sub.as_str() {
        "pack" => cmd_log_pack(args),
        "inspect" => {
            let Some(dir) = args.next() else { return log_usage() };
            let mut format = "text".to_owned();
            while let Some(flag) = args.next() {
                match (flag.as_str(), args.next()) {
                    ("--format", Some(f)) => format = f,
                    _ => return log_usage(),
                }
            }
            cmd_log_inspect(&dir, &format)
        }
        "verify" => match args.next() {
            Some(dir) => cmd_log_verify(&dir),
            None => log_usage(),
        },
        _ => log_usage(),
    }
}

/// The flags `ppd log pack` takes, parsed as every command parses them.
const PACK_FLAGS: &[&str] = &["--seed", "--inputs", "--strategy", "--segment-bytes", "--compress"];

/// Runs a program into a segmented store at `dir`.
fn cmd_log_pack(mut args: impl Iterator<Item = String>) -> ExitCode {
    let (Some(file), Some(dir)) = (args.next(), args.next()) else { return log_usage() };
    let mut opts = Options::new(file);
    if let Err(e) = parse_flags(&mut opts, args, Some(PACK_FLAGS)) {
        eprintln!("error: {e}");
        return log_usage();
    }
    let file = &opts.file;
    let source = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let session = match PpdSession::prepare(&source, opts.strategy) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("compile error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir = std::path::Path::new(&dir);
    let config = run_config(&session, &opts);
    match session.execute_streaming_with(config, dir, opts.segment_bytes, opts.compress) {
        Ok(execution) => {
            let seg = execution.logs.segmented().expect("streamed store is segment-backed");
            println!(
                "packed {} entries into {} segment(s), {} file bytes, at {} \
                 (outcome: {})",
                seg.total_entries(),
                (0..seg.process_count())
                    .map(|p| seg.segments(ppd::lang::ProcId(p as u32)).count())
                    .sum::<usize>(),
                seg.total_file_bytes(),
                dir.display(),
                describe_outcome(&session, &execution.outcome)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Summarizes a store from its footers alone — no entry decode (the
/// final line proves it). `--format json` emits the same facts as one
/// machine-readable object with a per-segment array.
fn cmd_log_inspect(dir: &str, format: &str) -> ExitCode {
    let seg = match ppd::log::SegmentedLog::open(std::path::Path::new(dir)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match format {
        "text" | "human" => {}
        "json" => return cmd_log_inspect_json(dir, &seg),
        other => {
            eprintln!("unknown --format `{other}` (text | json)");
            return ExitCode::FAILURE;
        }
    }
    for w in seg.warnings() {
        eprintln!("warning: {w}");
    }
    println!(
        "{}: {} process(es), {} entries, {} logical bytes in {} file bytes{}",
        dir,
        seg.process_count(),
        seg.total_entries(),
        seg.total_logical_bytes(),
        seg.total_file_bytes(),
        if seg.fully_mapped() { " (mmap)" } else { " (heap)" },
    );
    let counts = seg.counts_by_kind();
    let kinds: Vec<String> = ppd::log::segment::KIND_NAMES
        .iter()
        .zip(counts)
        .filter(|&(_, n)| n > 0)
        .map(|(k, n)| format!("{k} {n}"))
        .collect();
    println!("entries by kind: {}", kinds.join(", "));
    let (payload, stored) = (seg.total_payload_bytes(), seg.total_stored_bytes());
    if stored > 0 && stored != payload {
        println!(
            "compression: {payload} payload bytes stored as {stored} ({:.2}x)",
            payload as f64 / stored as f64
        );
    }
    if seg.recovered_entries() > 0 {
        println!("recovered: {} entries from unsealed tail segment(s)", seg.recovered_entries());
    }
    for p in 0..seg.process_count() {
        let proc = ppd::lang::ProcId(p as u32);
        for m in seg.segments(proc) {
            let blocks = match m.block_count() {
                0 => String::new(),
                n => format!(
                    " in {} stored ({:.2}x, {n} block(s))",
                    m.stored_len,
                    m.payload_len as f64 / (m.stored_len.max(1)) as f64
                ),
            };
            println!(
                "  {}: v{}, base seq {}, {} entries, {} payload bytes{blocks}, time {}..{}",
                m.file, m.version, m.base_seq, m.entry_count, m.payload_len, m.min_time, m.max_time
            );
        }
        if let Some(t) = seg.recovered_tail(proc) {
            println!(
                "  {}: unsealed tail, {} entries recovered ({})",
                t.file(),
                t.entry_count(),
                t.detail()
            );
        }
    }
    println!("entries decoded while inspecting: {} (footers only)", seg.entries_decoded());
    ExitCode::SUCCESS
}

/// The `--format json` arm of `ppd log inspect`: store totals plus one
/// object per sealed segment and recovered tail. Built by hand (the
/// obs JSON string escaper) so the field order is stable for tooling.
fn cmd_log_inspect_json(dir: &str, seg: &ppd::log::SegmentedLog) -> ExitCode {
    use ppd::obs::metrics::json_string;
    let ratio = |payload: u64, stored: u64| -> String {
        if stored == 0 {
            "null".into()
        } else {
            format!("{:.4}", payload as f64 / stored as f64)
        }
    };
    let counts = seg.counts_by_kind();
    let kinds: Vec<String> = ppd::log::segment::KIND_NAMES
        .iter()
        .zip(counts)
        .map(|(k, n)| format!("{}:{n}", json_string(k)))
        .collect();
    let mut segments = Vec::new();
    let mut tails = Vec::new();
    for p in 0..seg.process_count() {
        let proc = ppd::lang::ProcId(p as u32);
        for m in seg.segments(proc) {
            segments.push(format!(
                "{{\"file\":{},\"proc\":{},\"seq\":{},\"version\":{},\"base_seq\":{},\
                 \"entries\":{},\"payload_bytes\":{},\"stored_bytes\":{},\"blocks\":{},\
                 \"compression_ratio\":{},\"min_time\":{},\"max_time\":{}}}",
                json_string(&m.file),
                m.proc,
                m.seq,
                m.version,
                m.base_seq,
                m.entry_count,
                m.payload_len,
                m.stored_len,
                m.block_count(),
                ratio(m.payload_len, m.stored_len),
                m.min_time,
                m.max_time,
            ));
        }
        if let Some(t) = seg.recovered_tail(proc) {
            tails.push(format!(
                "{{\"file\":{},\"proc\":{p},\"entries\":{},\"detail\":{}}}",
                json_string(t.file()),
                t.entry_count(),
                json_string(t.detail()),
            ));
        }
    }
    let warnings: Vec<String> = seg.warnings().iter().map(|w| json_string(w)).collect();
    println!(
        "{{\"dir\":{},\"processes\":{},\"entries\":{},\"logical_bytes\":{},\"file_bytes\":{},\
         \"payload_bytes\":{},\"stored_bytes\":{},\"compression_ratio\":{},\"mapped\":{},\
         \"recovered_entries\":{},\"entries_by_kind\":{{{}}},\"segments\":[{}],\
         \"recovered_tails\":[{}],\"warnings\":[{}],\"entries_decoded_while_inspecting\":{}}}",
        json_string(dir),
        seg.process_count(),
        seg.total_entries(),
        seg.total_logical_bytes(),
        seg.total_file_bytes(),
        seg.total_payload_bytes(),
        seg.total_stored_bytes(),
        ratio(seg.total_payload_bytes(), seg.total_stored_bytes()),
        seg.fully_mapped(),
        seg.recovered_entries(),
        kinds.join(","),
        segments.join(","),
        tails.join(","),
        warnings.join(","),
        seg.entries_decoded(),
    );
    ExitCode::SUCCESS
}

/// Full integrity pass: CRC re-check plus payload-vs-footer
/// cross-validation of every sealed segment.
fn cmd_log_verify(dir: &str) -> ExitCode {
    let seg = match ppd::log::SegmentedLog::open(std::path::Path::new(dir)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match seg.verify() {
        Ok(report) => {
            // Same `recovery:` surface as `ppd debug --stats` and
            // `ppd races`, so truncated-tail stores are never silent.
            for w in &report.warnings {
                println!("recovery: {w}");
            }
            println!(
                "ok: {} segment(s) verified, {} entries decoded and cross-checked \
                 against footers{}",
                report.segments,
                report.entries,
                if report.warnings.is_empty() {
                    String::new()
                } else {
                    format!(" ({} recovery warning(s))", report.warnings.len())
                },
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("corrupt: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// `ppd obs` — telemetry tooling (journal reports, flight dumps)
// ---------------------------------------------------------------------

fn obs_usage() -> ExitCode {
    eprintln!(
        "usage: ppd obs report <journal.jsonl> [--format text|json]\n       \
         ppd obs flight <dump.json>"
    );
    ExitCode::from(2)
}

/// `ppd obs report | flight`: offline profiling over the telemetry
/// artifacts (`--journal` JSONL files, `--flight-out` dumps).
fn cmd_obs(mut args: impl Iterator<Item = String>) -> ExitCode {
    let Some(sub) = args.next() else { return obs_usage() };
    match sub.as_str() {
        "report" => {
            let Some(path) = args.next() else { return obs_usage() };
            let mut format = "text".to_owned();
            while let Some(flag) = args.next() {
                match (flag.as_str(), args.next()) {
                    ("--format", Some(f)) => format = f,
                    _ => return obs_usage(),
                }
            }
            cmd_obs_report(&path, &format)
        }
        "flight" => match args.next() {
            Some(path) => cmd_obs_flight(&path),
            None => obs_usage(),
        },
        _ => obs_usage(),
    }
}

/// One parsed `--journal` line (schema `"v":1`); the costs are read
/// through the writer's own field table, [`COSTS`].
struct JournalLine {
    v: u64,
    kind: String,
    start_ns: u64,
    latency_ns: u64,
    costs: [u64; COSTS.len()],
}

impl JournalLine {
    /// The value of cost field `name` (one of [`COSTS`]).
    fn cost(&self, name: &str) -> u64 {
        COSTS.iter().zip(self.costs).find_map(|(c, v)| (*c == name).then_some(v)).unwrap_or(0)
    }
}

impl serde::Deserialize for JournalLine {
    fn from_content(c: &serde::Content) -> Result<Self, serde::DeError> {
        const TY: &str = "JournalLine";
        let m = c.as_map().ok_or_else(|| serde::DeError::msg("expected map for JournalLine"))?;
        let (v, kind) = (serde::field(m, "v", TY)?, serde::field(m, "kind", TY)?);
        // Required by the schema; the report rolls up by kind only.
        serde::field::<String>(m, "args", TY)?;
        let (start_ns, latency_ns) =
            (serde::field(m, "start_ns", TY)?, serde::field(m, "latency_ns", TY)?);
        let mut costs = [0; COSTS.len()];
        for (slot, name) in costs.iter_mut().zip(COSTS) {
            *slot = serde::field(m, name, TY)?;
        }
        Ok(JournalLine { v, kind, start_ns, latency_ns, costs })
    }
}

/// Exact percentile over a sorted sample: the smallest value with at
/// least `q` of the mass at or below it (nearest-rank).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Aggregates a query journal: per-kind latency percentiles, aggregate
/// totals (printed in the exact `--stats` line formats so a journal of
/// a deterministic session reproduces `ppd debug --stats` bit-for-bit),
/// bytes per query, and the cache hit-rate trend across the session.
fn cmd_obs_report(path: &str, format: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut records: Vec<JournalLine> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<JournalLine>(line) {
            Ok(r) if r.v == 1 => records.push(r),
            Ok(r) => {
                eprintln!("error: {path}:{}: unsupported journal version {}", i + 1, r.v);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: {path}:{}: bad journal line: {e}", i + 1);
                return ExitCode::FAILURE;
            }
        }
    }
    if records.is_empty() {
        eprintln!("error: {path}: no journal records");
        return ExitCode::FAILURE;
    }
    // Chronological order for the trend; records are appended in
    // completion order but nested sessions may interleave starts.
    records.sort_by_key(|r| r.start_ns);
    let n = records.len() as u64;
    let sum = |f: fn(&JournalLine) -> u64| records.iter().map(f).sum::<u64>();
    let (hits, misses) = (sum(|r| r.cost("cache_hits")), sum(|r| r.cost("cache_misses")));
    let latency_total = sum(|r| r.latency_ns);
    let bytes_total = sum(|r| r.cost("bytes_read"));
    let mut lat_sorted: Vec<u64> = records.iter().map(|r| r.latency_ns).collect();
    lat_sorted.sort_unstable();
    let (p50, p95, p99) = (
        percentile(&lat_sorted, 0.50),
        percentile(&lat_sorted, 0.95),
        percentile(&lat_sorted, 0.99),
    );
    // Hit-rate trend: first half of the session vs the second — a warm
    // cache shows up as a rising rate.
    let half = records.len() / 2;
    let rate = |rs: &[JournalLine]| -> f64 {
        let h: u64 = rs.iter().map(|r| r.cost("cache_hits")).sum();
        let m: u64 = rs.iter().map(|r| r.cost("cache_misses")).sum();
        if h + m == 0 {
            0.0
        } else {
            100.0 * h as f64 / (h + m) as f64
        }
    };
    let (early, late) = (rate(&records[..half]), rate(&records[half..]));
    // Per-kind rollup, by first appearance so the table is stable.
    let mut kinds: Vec<(String, Vec<u64>, u64)> = Vec::new();
    for r in &records {
        match kinds.iter_mut().find(|(k, _, _)| *k == r.kind) {
            Some((_, lats, bytes)) => {
                lats.push(r.latency_ns);
                *bytes += r.cost("bytes_read");
            }
            None => kinds.push((r.kind.clone(), vec![r.latency_ns], r.cost("bytes_read"))),
        }
    }
    for (_, lats, _) in &mut kinds {
        lats.sort_unstable();
    }
    if format == "json" {
        let by_kind: Vec<String> = kinds
            .iter()
            .map(|(k, lats, bytes)| {
                format!(
                    "{{\"kind\":{},\"queries\":{},\"latency_ns\":{{\"p50\":{},\"p95\":{},\
                     \"p99\":{},\"total\":{}}},\"bytes_read\":{bytes}}}",
                    ppd::obs::metrics::json_string(k),
                    lats.len(),
                    percentile(lats, 0.50),
                    percentile(lats, 0.95),
                    percentile(lats, 0.99),
                    lats.iter().sum::<u64>(),
                )
            })
            .collect();
        println!(
            "{{\"journal\":{},\"queries\":{n},\"latency_ns\":{{\"p50\":{p50},\"p95\":{p95},\
             \"p99\":{p99},\"total\":{latency_total}}},\"replays\":{},\"trace_events\":{},\
             \"log_entries_scanned\":{},\"cache_hits\":{hits},\"cache_misses\":{misses},\
             \"cache_evictions\":{},\"entries_decoded\":{},\"blocks_inflated\":{},\
             \"bytes_read\":{bytes_total},\"bytes_per_query\":{:.1},\
             \"hit_rate_pct\":{:.4},\"hit_rate_first_half_pct\":{early:.4},\
             \"hit_rate_second_half_pct\":{late:.4},\"by_kind\":[{}]}}",
            ppd::obs::metrics::json_string(path),
            sum(|r| r.cost("replays")),
            sum(|r| r.cost("trace_events")),
            sum(|r| r.cost("log_entries_scanned")),
            sum(|r| r.cost("cache_evictions")),
            sum(|r| r.cost("entries_decoded")),
            sum(|r| r.cost("blocks_inflated")),
            bytes_total as f64 / n as f64,
            if hits + misses == 0 { 0.0 } else { 100.0 * hits as f64 / (hits + misses) as f64 },
            by_kind.join(","),
        );
        return ExitCode::SUCCESS;
    }
    if format != "text" && format != "human" {
        eprintln!("unknown --format `{format}` (text | json)");
        return ExitCode::FAILURE;
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    println!("query journal report: {path}");
    println!();
    println!(
        "{:<14} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "kind", "queries", "p50 ms", "p95 ms", "p99 ms", "bytes"
    );
    for (k, lats, bytes) in &kinds {
        println!(
            "{k:<14} {:>7} {:>12.3} {:>12.3} {:>12.3} {bytes:>12}",
            lats.len(),
            ms(percentile(lats, 0.50)),
            ms(percentile(lats, 0.95)),
            ms(percentile(lats, 0.99)),
        );
    }
    println!();
    println!("latency p50 / p95 / p99   {:.3} / {:.3} / {:.3} ms", ms(p50), ms(p95), ms(p99));
    println!(
        "bytes read per query      {:.1} ({bytes_total} total)",
        bytes_total as f64 / n as f64
    );
    println!("blocks inflated           {}", sum(|r| r.cost("blocks_inflated")));
    println!("entries decoded           {}", sum(|r| r.cost("entries_decoded")));
    println!("hit rate trend            {early:.1}% (first half) -> {late:.1}% (second half)");
    println!();
    // The aggregate block mirrors `ppd debug --stats` line-for-line:
    // on a deterministic run, summing a session's journal reproduces
    // the session's own counters bit-for-bit.
    println!("aggregates (same layout as ppd debug --stats):");
    println!("replays performed     {}", sum(|r| r.cost("replays")));
    let hr = if hits + misses == 0 { 0.0 } else { 100.0 * hits as f64 / (hits + misses) as f64 };
    println!("cache hits / misses   {hits} / {misses} ({hr:.1}% hit rate)");
    println!("evictions             {}", sum(|r| r.cost("cache_evictions")));
    println!("trace events          {}", sum(|r| r.cost("trace_events")));
    println!("log entries scanned   {}", sum(|r| r.cost("log_entries_scanned")));
    println!(
        "queries               {n} in {:.3}ms",
        std::time::Duration::from_nanos(latency_total).as_secs_f64() * 1e3
    );
    ExitCode::SUCCESS
}

/// Flight-recorder dump shape (see `ppd_obs::flight`), parsed via the
/// vendored serde stub for `ppd obs flight`.
#[derive(serde::Deserialize)]
struct FlightDumpFile {
    format: String,
    version: u64,
    recorded: u64,
    dropped: u64,
    events: Vec<FlightDumpEvent>,
}

/// One event of a flight-recorder dump.
#[derive(serde::Deserialize)]
struct FlightDumpEvent {
    seq: u64,
    ts_ns: u64,
    tid: u64,
    cat: String,
    name: String,
    detail: String,
}

/// Pretty-prints a flight-recorder dump (from `--flight-out` or a
/// panic) as a chronological table.
fn cmd_obs_flight(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dump: FlightDumpFile = match serde_json::from_str(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {path} is not a flight dump: {e}");
            return ExitCode::FAILURE;
        }
    };
    if dump.format != "ppd-flight" {
        eprintln!("error: {path}: unknown dump format `{}`", dump.format);
        return ExitCode::FAILURE;
    }
    println!(
        "flight dump {path}: v{}, {} event(s) recorded, {} dropped, {} shown",
        dump.version,
        dump.recorded,
        dump.dropped,
        dump.events.len()
    );
    let mut events = dump.events;
    events.sort_by_key(|e| e.seq);
    let t0 = events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
    for e in &events {
        let detail = if e.detail.is_empty() { String::new() } else { format!("  {}", e.detail) };
        println!(
            "{:>6}  +{:>12.3}ms  t{:<3} [{:<8}] {}{detail}",
            e.seq,
            (e.ts_ns - t0) as f64 / 1e6,
            e.tid,
            e.cat,
            e.name,
        );
    }
    ExitCode::SUCCESS
}

fn print_node(controller: &Controller<'_>, id: DynNodeId) {
    let n = controller.graph().node(id);
    let tag = match &n.kind {
        DynNodeKind::Entry => "entry",
        DynNodeKind::Exit => "exit",
        DynNodeKind::Singular { .. } => "stmt",
        DynNodeKind::SubGraph { expanded: false, .. } => "call*",
        DynNodeKind::SubGraph { .. } => "call",
        DynNodeKind::Param { .. } => "param",
        DynNodeKind::LoopGraph { expanded: false, .. } => "loop*",
        DynNodeKind::LoopGraph { .. } => "loop",
    };
    let value = n.value.as_ref().map(|v| format!(" = {v}")).unwrap_or_default();
    println!("  #{:<3} [{tag:<5}] {}{value}", id.0, n.label);
}
