//! The `ppd` command-line debugger.
//!
//! Every command follows one grammar, `ppd <command> <operands>
//! [flags]`, and reads only the flags its row of `COMMANDS` names. Any
//! other flag, or a `--format`, `--what` or `--strategy` value outside
//! its choices, exits 2 with this usage text before any work (`ppd`
//! alone prints it):
//!
//! ```text
//! usage: ppd <command> <operands> [flags]
//!   check FILE [--strategy S] [--format text|json|sarif] [--explain CODE]
//!   lint FILE [--format text|json|sarif] [--deny] [--no-check] [--explain CODE]
//!   run FILE [run flags]
//!   debug FILE [run flags] [--no-check] [--stats] [--format text|json] [--jobs N]
//!       [--journal FILE]
//!   races FILE [--schedules N] [--inputs a,b,c...] [--strategy S] [--log-dir DIR]
//!       [--segment-bytes N] [--compress] [--stats] [--jobs N] [--journal FILE]
//!   dot FILE [--what static|pdg|parallel|dynamic] [run flags]
//!   log pack FILE DIR [--seed N] [--inputs a,b,c...] [--strategy S] [--segment-bytes N]
//!       [--compress]
//!   log inspect DIR [--format text|json]
//!   log verify DIR
//!   obs report JOURNAL [--format text|json]
//!   obs flight DUMP
//! run flags: [--seed N] [--inputs a,b,c...] [--break LINE...] [--strategy S]
//!       [--log-dir DIR] [--segment-bytes N] [--compress]
//! every command: [--trace-out FILE] [--metrics-out FILE] [--flight-out FILE]
//! S is subroutine|loops|split|merge and -j N is --jobs N; lint and check take
//! --explain CODE without FILE.
//! ```
//!
//! ```text
//! --seed N            seeded-random scheduler (default: round-robin)
//! --inputs a,b,c      input stream for process 0 (repeat for the next process)
//! --break LINE        breakpoint on a source line (repeatable)
//! --strategy S        e-block construction (§5.4; default: subroutine)
//! --what W            what `dot` draws (default: dynamic)
//! --schedules N       how many seeded schedules `races` probes (default 10)
//! --deny              lint: exit 1 on any diagnostic, not just on errors
//! --explain CODE      print the page of a PPDnnn (lint) or TYPnnn (check) code
//! --format F          output format (default: text); debug applies it to --stats
//! --no-check          lint/debug: proceed even if `ppd check` reports type errors
//! --stats             debug: replay-engine counters after the first query and at
//!                     exit (the raw registry under --format json); races: the edge
//!                     pairs each detector stage examined, per schedule
//! --jobs N            race-scan worker threads (default: available parallelism)
//! --log-dir DIR       stream the run into a segment store at DIR and debug over
//!                     it, or load the run a previous command saved there; races
//!                     streams each schedule through DIR/seed-N
//! --segment-bytes N   segment payload capacity (default 65536)
//! --compress          lzb-compress segment payloads block by block as they seal
//! --journal FILE      append one JSONL record per controller query for
//!                     `ppd obs report`
//! --trace-out FILE    write every layer's spans as a Chrome trace (Perfetto)
//! --metrics-out FILE  write an OpenMetrics exposition; debug/races add the
//!                     replay-engine registry and the per-segment heatmap
//! --flight-out FILE   dump the always-on flight recorder at exit; a panic dumps
//!                     it there too (default ppd-flight-panic.json)
//! ```
//!
//! Interactive debug commands include `stats` (counters so far) and
//! `stats reset` (zero them, keeping cached traces warm, to measure a
//! single query in a warm session).

use ppd::analysis::lint::Diagnostic;
use ppd::analysis::EBlockStrategy;
use ppd::core::{shared_state_at, Controller, Execution, PpdSession, RunConfig};
use ppd::graph::{dot, DynNodeId, DynNodeKind, StaticGraph};
use ppd::lang::SourceFile;
use ppd::obs::journal::COSTS;
use ppd::runtime::{Outcome, SchedulerSpec};
use std::io::{self, BufRead, Write as _};
use std::process::ExitCode;

/// The grammar, one row per command as the usage text prints it: the
/// command's name, its operands, then the flags it reads, each with its
/// value's placeholder, or for `--format` and `--what` the choices the
/// command accepts. `[run flags]` stands for [`RUN_FLAGS`], and every
/// command also reads [`OUTPUT_FLAGS`].
const COMMANDS: &[&str] = &[
    "check FILE [--strategy S] [--format text|json|sarif] [--explain CODE]",
    "lint FILE [--format text|json|sarif] [--deny] [--no-check] [--explain CODE]",
    "run FILE [run flags]",
    "debug FILE [run flags] [--no-check] [--stats] [--format text|json] [--jobs N] \
     [--journal FILE]",
    "races FILE [--schedules N] [--inputs a,b,c...] [--strategy S] [--log-dir DIR] \
     [--segment-bytes N] [--compress] [--stats] [--jobs N] [--journal FILE]",
    "dot FILE [--what static|pdg|parallel|dynamic] [run flags]",
    "log pack FILE DIR [--seed N] [--inputs a,b,c...] [--strategy S] [--segment-bytes N] \
     [--compress]",
    "log inspect DIR [--format text|json]",
    "log verify DIR",
    "obs report JOURNAL [--format text|json]",
    "obs flight DUMP",
];

/// The flags of the commands that execute the program under a schedule.
const RUN_FLAGS: &str = "[--seed N] [--inputs a,b,c...] [--break LINE...] [--strategy S] \
                         [--log-dir DIR] [--segment-bytes N] [--compress]";

/// The flags every command reads; the epilogue writes them.
const OUTPUT_FLAGS: &str = "[--trace-out FILE] [--metrics-out FILE] [--flight-out FILE]";

/// The `[...]` items of a row, in order.
fn bracketed(row: &'static str) -> impl Iterator<Item = &'static str> {
    row.split('[').skip(1).filter_map(|item| item.split(']').next())
}

/// The operands of command `name` and the specs of the flags it reads.
fn command(name: &str) -> Option<(Vec<&'static str>, Vec<&'static str>)> {
    COMMANDS.iter().find_map(|&row| {
        let head = row.split(" [").next().unwrap_or(row);
        let split = head.find(|c: char| c.is_ascii_uppercase()).unwrap_or(head.len());
        (head[..split].trim_end() == name).then(|| {
            let run = |f| if f == "run flags" { bracketed(RUN_FLAGS).collect() } else { vec![f] };
            let flags = bracketed(row).flat_map(run).chain(bracketed(OUTPUT_FLAGS));
            (head[split..].split_whitespace().collect(), flags.collect())
        })
    })
}

/// Prints the usage text, one wrapped line per row of [`COMMANDS`], and
/// returns exit 2.
fn usage() -> ExitCode {
    let rows: String = COMMANDS.iter().map(|row| format!("  {}\n", wrap(row))).collect();
    eprintln!(
        "usage: ppd <command> <operands> [flags]\n{rows}{}\n{}\n\
         S is subroutine|loops|split|merge and -j N is --jobs N; lint and check take\n\
         --explain CODE without FILE.",
        wrap(&format!("run flags: {RUN_FLAGS}")),
        wrap(&format!("every command: {OUTPUT_FLAGS}")),
    );
    ExitCode::from(2)
}

/// `text` broken before each `[` that would take a line past column 88.
fn wrap(text: &str) -> String {
    let mut out = String::new();
    let mut width = 0;
    for (i, item) in text.split(" [").enumerate() {
        let item = if i == 0 { item.to_owned() } else { format!(" [{item}") };
        if width + item.len() > 88 {
            out += "\n     ";
            width = 5;
        }
        width += item.len();
        out += &item;
    }
    out
}

/// A checked `--format` value.
#[derive(Clone, Copy, PartialEq, Default)]
enum Format {
    #[default]
    Text,
    Json,
    Sarif,
}

/// A checked `--what` value.
#[derive(Clone, Copy, Default)]
enum What {
    Static,
    Pdg,
    Parallel,
    #[default]
    Dynamic,
}

#[derive(Default)]
struct Options {
    operands: Vec<String>,
    scheduler: SchedulerSpec,
    inputs: Vec<Vec<i64>>,
    break_lines: Vec<u32>,
    strategy: EBlockStrategy,
    what: What,
    schedules: u64,
    deny: bool,
    explain: Option<String>,
    no_check: bool,
    format: Format,
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

impl Options {
    /// No operands, and every flag at its default.
    fn new() -> Options {
        // `--jobs` defaults to every hardware thread the host will give us.
        let jobs = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Options { schedules: 10, jobs, ..Options::default() }
    }
}

/// Parses `ppd <command> <operands> [flags]`: the command's operands,
/// then only the flags its row of [`COMMANDS`] names.
fn parse_args(args: impl Iterator<Item = String>) -> Result<(String, Options), String> {
    let mut args = args.peekable();
    let mut name = args.next().ok_or("missing command")?;
    if let Some(sub) = (name == "log" || name == "obs").then(|| args.next()).flatten() {
        name = format!("{name} {sub}");
    }
    let (operands, flags) = command(&name).ok_or(format!("unknown command `{name}`"))?;
    let mut opts = Options::new();
    while opts.operands.len() < operands.len() && args.peek().is_some_and(|a| !a.starts_with("--"))
    {
        opts.operands.extend(args.next());
    }
    while let Some(arg) = args.next() {
        let flag = if arg == "-j" { "--jobs" } else { arg.as_str() };
        let Some(&spec) = flags.iter().find(|spec| spec.split(' ').next() == Some(flag)) else {
            return Err(format!("unknown flag `{arg}` for `ppd {name}`"));
        };
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag {
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
            "--what" => {
                opts.what = match choice(spec, &value()?)? {
                    "static" => What::Static,
                    "pdg" => What::Pdg,
                    "parallel" => What::Parallel,
                    _ => What::Dynamic,
                };
            }
            "--schedules" => {
                opts.schedules = value()?.parse().map_err(|_| "--schedules wants a number")?;
            }
            "--deny" => opts.deny = true,
            "--explain" => opts.explain = Some(value()?),
            "--no-check" => opts.no_check = true,
            "--format" => {
                let format = value()?;
                // `human` is an older name for `text`.
                let format = if format == "human" { "text" } else { &format };
                opts.format = match choice(spec, format)? {
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    _ => Format::Text,
                };
            }
            "--stats" => opts.stats = true,
            "--trace-out" => opts.trace_out = Some(value()?),
            "--jobs" => {
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
            _ => return Err(format!("unknown flag `{arg}`")),
        }
    }
    if let Some(missing) = operands.get(opts.operands.len()).filter(|_| opts.explain.is_none()) {
        return Err(format!("missing {missing} for `ppd {name}`"));
    }
    Ok((name, opts))
}

/// `value` if it is one of the `a|b|c` choices that close `spec`.
fn choice(spec: &'static str, value: &str) -> Result<&'static str, String> {
    let (flag, choices) = spec.split_once(' ').unwrap_or((spec, ""));
    choices
        .split('|')
        .find(|&c| c == value)
        .ok_or_else(|| format!("unknown {flag} `{value}` ({})", choices.replace('|', " | ")))
}

fn main() -> ExitCode {
    // The flight recorder is always on; the hook makes every panic
    // leave a black-box dump behind (default ppd-flight-panic.json,
    // or the --flight-out path once parsed below).
    ppd::obs::flight::install_panic_hook();
    exit_quietly_on_closed_stdout();
    let (cmd, opts) = match parse_args(std::env::args().skip(1)) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if let Some(path) = &opts.flight_out {
        ppd::obs::flight::set_panic_dump_path(Some(path.into()));
    }
    let file = opts.operands.join(" ");
    ppd::obs::flight::note_with("cli", "command", format!("cmd={cmd} file={file}"));
    let mut views = Views::default();
    if let Some(path) = &opts.journal {
        match ppd::obs::Journal::create(path) {
            Ok(journal) => views.journal = Some(journal),
            Err(e) => {
                eprintln!("error: cannot create journal {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ppd::obs::enable_spans(opts.trace_out.is_some());
    let code = run(&cmd, &opts, &mut views);
    epilogue(&opts, &views, code)
}

/// Runs command `cmd`: the store, journal and dump commands on their
/// path, every other command on its prepared FILE.
fn run(cmd: &str, opts: &Options, views: &mut Views) -> ExitCode {
    if let Some(code) = &opts.explain {
        return cmd_explain(cmd, code);
    }
    let path = opts.operands[0].as_str();
    match cmd {
        "log inspect" => return cmd_log_inspect(path, opts.format),
        "log verify" => return cmd_log_verify(path),
        "obs report" => return cmd_obs_report(path, opts.format),
        "obs flight" => return cmd_obs_flight(path),
        _ => {}
    }
    let Some((session, file)) = prepare(path, opts.strategy) else { return ExitCode::FAILURE };
    let database = &session.analyses().database;
    if let Some(line) = opts.break_lines.iter().find(|&&l| database.stmts_at_line(l).is_empty()) {
        eprintln!("error: --break {line}: no statement starts on line {line}");
        return usage();
    }
    match cmd {
        "check" => cmd_check(&session, &file, opts),
        "lint" => {
            check_gate(&session, &file, opts).unwrap_or_else(|| cmd_lint(&session, &file, opts))
        }
        "run" => cmd_run(&session, opts, true).map_or(ExitCode::FAILURE, |(_, code)| code),
        "debug" => {
            check_gate(&session, &file, opts).unwrap_or_else(|| cmd_debug(&session, opts, views))
        }
        "races" => cmd_races(&session, opts, views),
        "dot" => cmd_dot(&session, opts),
        "log pack" => cmd_log_pack(&session, &opts.operands[1], opts),
        _ => usage(),
    }
}

/// The prepare step of every command on a FILE: read it, compile it
/// and run the preparatory phase, or print why not (a compile error
/// with its source excerpt).
fn prepare(path: &str, strategy: EBlockStrategy) -> Option<(PpdSession, SourceFile)> {
    let source = read(path)?;
    match PpdSession::prepare(&source, strategy) {
        Ok(session) => Some((session, SourceFile::new(path, source))),
        Err(e) => {
            eprintln!("compile error: {e}");
            if let ppd::core::PpdError::Lang(lang) = &e {
                let excerpt = SourceFile::new(path, source).render_excerpt(lang.span());
                if !excerpt.is_empty() {
                    eprintln!("{excerpt}");
                }
            }
            None
        }
    }
}

/// The text of file `path`, or `None` after saying why not.
fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).map_err(|e| eprintln!("error: cannot read {path}: {e}")).ok()
}

/// The segment store at `dir`, or `None` after saying why not.
fn open_store(dir: &str) -> Option<ppd::log::SegmentedLog> {
    ppd::log::SegmentedLog::open(std::path::Path::new(dir))
        .map_err(|e| eprintln!("error: {e}"))
        .ok()
}

/// What a command hands the epilogue besides its exit status: the
/// `--journal` it appended to, and for `debug` and `races` the
/// replay-engine snapshot and segment heatmap `--metrics-out` reports.
#[derive(Default)]
struct Views {
    journal: Option<ppd::obs::Journal>,
    engine: Option<ppd::obs::Snapshot>,
    heat: Vec<ppd::log::HeatRecord>,
}

impl Views {
    /// Keeps, under `--metrics-out`, the session's engine registry and
    /// the per-segment heatmap of the store it read.
    fn keep_session(&mut self, opts: &Options, controller: &Controller<'_>, run: &Execution) {
        if opts.metrics_out.is_some() {
            self.engine = Some(controller.metrics_snapshot());
            self.heat = run.logs.access_heatmap();
        }
    }

    /// The OpenMetrics exposition for `--metrics-out`: the global
    /// registry, then any replay-engine snapshot with the store's read
    /// totals, and the per-segment access heatmap as labeled counter
    /// families.
    fn exposition(&self) -> String {
        let mut exp = ppd::obs::Exposition::new("ppd");
        exp.add_snapshot(&ppd::obs::global().snapshot());
        if let Some(snap) = &self.engine {
            exp.add_snapshot(snap);
            // The store owns its read counts; the totals are its heatmap's.
            let total = |f: fn(&ppd::log::HeatRecord) -> u64| self.heat.iter().map(f).sum::<u64>();
            for (name, value) in [
                ("log.segment_entries_decoded", total(|h| h.entries_decoded)),
                ("log.segment_blocks_inflated", total(|h| h.blocks_inflated)),
                ("log.segment_bytes_read", total(|h| h.bytes_read)),
            ] {
                exp.counter(name, &format!("counter {name}"), &[], value);
            }
        }
        for h in &self.heat {
            if h.entries_decoded == 0 && h.blocks_inflated == 0 && h.bytes_read == 0 {
                continue;
            }
            let proc = h.proc.to_string();
            let seq = h.seq.to_string();
            let labels =
                [("file", h.file.as_str()), ("proc", proc.as_str()), ("seq", seq.as_str())];
            for (name, what, value) in [
                ("entries_decoded", "Entries decoded", h.entries_decoded),
                ("blocks_inflated", "Compressed blocks inflated", h.blocks_inflated),
                ("bytes_read", "Bytes read", h.bytes_read),
            ] {
                let name = format!("log.segment_heat_{name}");
                exp.counter(&name, &format!("{what} from this segment"), &labels, value);
            }
        }
        exp.render()
    }
}

/// Writes what every command can emit besides its own output: the
/// journal summary, `--trace-out`, `--metrics-out` and `--flight-out`.
/// Returns `code`, or failure when a file could not be written.
fn epilogue(opts: &Options, views: &Views, code: ExitCode) -> ExitCode {
    if let Some(j) = &views.journal {
        eprintln!("journal: {} record(s) appended to {}", j.records(), j.path().display());
    }
    let mut written = true;
    if let Some(path) = &opts.trace_out {
        ppd::obs::enable_spans(false);
        let records = ppd::obs::take_spans();
        let json = ppd::obs::chrome::trace_json(&records, &ppd::obs::thread_names());
        written &= write_view("trace", path, json, &format!("{} span(s)", records.len()));
    }
    if let Some(path) = &opts.metrics_out {
        written &= write_view("metrics", path, views.exposition(), "OpenMetrics exposition");
    }
    if let Some(path) = &opts.flight_out {
        let recorder = ppd::obs::flight::global();
        let dump = recorder.dump_json();
        written &= write_view("flight", path, dump, &format!("{} event(s)", recorder.recorded()));
    }
    if written {
        code
    } else {
        ExitCode::FAILURE
    }
}

/// Writes `contents` to `path` and says so on stderr, or why not.
fn write_view(what: &str, path: &str, contents: String, summary: &str) -> bool {
    match std::fs::write(path, contents) {
        Ok(()) => {
            eprintln!("{what}: {summary} written to {path}");
            true
        }
        Err(e) => {
            eprintln!("error: cannot write {what} to {path}: {e}");
            false
        }
    }
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

/// `ppd lint --explain PPDnnn` / `ppd check --explain TYPnnn`: prints
/// the documentation page for a stable diagnostic code, or exits 1 on
/// an unknown code.
fn cmd_explain(cmd: &str, code: &str) -> ExitCode {
    let (page, known) = if cmd == "lint" {
        (ppd::analysis::lint::explain(code), ppd::analysis::lint::explained_codes())
    } else {
        (ppd::lang::types::explain(code), ppd::lang::types::explained_codes())
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
fn type_error_diags(errors: &[ppd::lang::types::TypeError]) -> Vec<Diagnostic> {
    use ppd::analysis::lint::Severity;
    errors.iter().map(|e| Diagnostic::new(e.code(), Severity::Error, e.message(), e.span)).collect()
}

/// The `--no-check` gate: `ppd lint` and `ppd debug` refuse to run on a
/// program the type checker rejects — inferred channel payloads feed the
/// typed sync groups both commands rely on, so diagnostics computed from
/// an ill-typed program would be unreliable. Returns `Some(exit)` when
/// the gate trips.
fn check_gate(session: &PpdSession, file: &SourceFile, opts: &Options) -> Option<ExitCode> {
    let errors = &session.analyses().type_errors;
    if opts.no_check || errors.is_empty() {
        return None;
    }
    for d in type_error_diags(errors) {
        eprintln!("{}\n", d.render(file));
    }
    eprintln!(
        "error: {} type error(s); fix them or pass --no-check to proceed anyway",
        errors.len()
    );
    Some(ExitCode::FAILURE)
}

/// Prints `check`'s or `lint`'s diagnostics in `format`, each rendered
/// with its source excerpt as text.
fn emit_diagnostics(diags: &[Diagnostic], file: &SourceFile, format: Format) -> bool {
    match format {
        Format::Text => {
            for d in diags {
                println!("{}\n", d.render(file));
            }
        }
        Format::Json => match diags_json(diags, file) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("error: cannot serialize diagnostics: {e}");
                return false;
            }
        },
        Format::Sarif => println!("{}", ppd::sarif::to_sarif(diags, file)),
    }
    true
}

fn cmd_check(session: &PpdSession, file: &SourceFile, opts: &Options) -> ExitCode {
    let (rp, analyses) = (session.rp(), session.analyses());
    let diags = type_error_diags(&analyses.type_errors);
    if !emit_diagnostics(&diags, file, opts.format) {
        return ExitCode::FAILURE;
    }
    let code = if diags.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    if opts.format != Format::Text {
        return code;
    }
    let Some(types) = &analyses.types else {
        println!("check: {} type error(s)", diags.len());
        return code;
    };
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
        println!("  chan {}: carries `{}`", rp.chan_name(c), types.chan_payload[i]);
    }
    println!(
        "preparatory phase: {} e-blocks, {} static-graph edges, {} sync units",
        session.plan().eblocks().len(),
        StaticGraph::build(rp, analyses).edge_count(),
        analyses.sync_units.total()
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
    code
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
fn diags_json(diags: &[Diagnostic], file: &SourceFile) -> Result<String, serde_json::Error> {
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

fn cmd_lint(session: &PpdSession, file: &SourceFile, opts: &Options) -> ExitCode {
    use ppd::analysis::lint::{run_default, Severity};
    let diags = run_default(session.rp(), session.analyses());
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = diags.len() - errors;
    if !emit_diagnostics(&diags, file, opts.format) {
        return ExitCode::FAILURE;
    }
    if opts.format == Format::Text {
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
    if errors > 0 || (opts.deny && !diags.is_empty()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Executes the program (`run`, `debug`, `dot`). `--log-dir` on a store
/// a previous run left there replays the offline workflow: the
/// execution phase already happened; debug its saved record. Otherwise
/// `--log-dir` streams the run through the segmented on-disk store:
/// debugging then works over the mmap-backed, lazily decoded logs.
/// With `verbose`, prints the run's output and outcome. Returns the
/// execution and its exit status, or `None` (after printing) when the
/// store could not be opened or written.
fn cmd_run(session: &PpdSession, opts: &Options, verbose: bool) -> Option<(Execution, ExitCode)> {
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
                    return None;
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
                    return None;
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
    Some((execution, code))
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

fn cmd_races(session: &PpdSession, opts: &Options, views: &mut Views) -> ExitCode {
    let mut any = false;
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
        // One journal across all probed schedules; records from
        // successive seeds append to the same file.
        if let Some(j) = &views.journal {
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
        views.keep_session(opts, &controller, &execution);
    }
    if any {
        ExitCode::FAILURE
    } else {
        println!("all {} probed schedules race-free (Definition 6.4)", opts.schedules);
        ExitCode::SUCCESS
    }
}

fn cmd_dot(session: &PpdSession, opts: &Options) -> ExitCode {
    match opts.what {
        What::Parallel => {
            let Some((execution, _)) = cmd_run(session, opts, false) else {
                return ExitCode::FAILURE;
            };
            println!("{}", dot::parallel_to_dot(&execution.pgraph, session.rp()));
        }
        What::Dynamic => {
            let Some((execution, _)) = cmd_run(session, opts, false) else {
                return ExitCode::FAILURE;
            };
            let mut controller = Controller::new(session, &execution);
            if let Err(e) = controller.start() {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
            println!("{}", dot::dynamic_to_dot(controller.graph()));
        }
        What::Static => {
            // One simplified graph per body.
            for body in session.rp().bodies() {
                let g = ppd::graph::SimplifiedGraph::build(session.rp(), session.analyses(), body);
                println!("// {}", session.rp().body_name(body));
                println!("{}", dot::simplified_to_dot(&g));
            }
        }
        What::Pdg => {
            let graph = StaticGraph::build(session.rp(), session.analyses());
            for body in session.rp().bodies() {
                println!("{}", dot::static_to_dot(&graph, session.rp(), body));
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_debug(session: &PpdSession, opts: &Options, views: &mut Views) -> ExitCode {
    let Some((execution, _)) = cmd_run(session, opts, true) else { return ExitCode::FAILURE };
    let mut controller = Controller::new(session, &execution);
    controller.set_jobs(opts.jobs);
    // Attach the journal before the first query so every Controller
    // query of the session lands in it (start() below is query #1).
    if let Some(j) = &views.journal {
        controller.set_journal(j.clone());
    }
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
    views.keep_session(opts, &controller, &execution);
    ExitCode::SUCCESS
}

/// `--stats` rendering: the human table, or the raw metrics-registry
/// snapshot as single-line JSON under `--format json`.
fn render_stats(controller: &Controller<'_>, opts: &Options) -> String {
    if opts.format == Format::Json {
        controller.metrics_json()
    } else {
        controller.stats().render()
    }
}

// ---------------------------------------------------------------------
// `ppd log` — segmented-store tooling
// ---------------------------------------------------------------------

/// `ppd log pack`: runs the program into a segmented store at `dir`.
fn cmd_log_pack(session: &PpdSession, dir: &str, opts: &Options) -> ExitCode {
    let dir = std::path::Path::new(dir);
    let config = run_config(session, opts);
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
                describe_outcome(session, &execution.outcome)
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
fn cmd_log_inspect(dir: &str, format: Format) -> ExitCode {
    let Some(seg) = open_store(dir) else { return ExitCode::FAILURE };
    if format == Format::Json {
        return cmd_log_inspect_json(dir, &seg);
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
    let Some(seg) = open_store(dir) else { return ExitCode::FAILURE };
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

/// The sum of `values`, saturating: a hostile journal cannot wrap it.
fn total(values: impl Iterator<Item = u64>) -> u64 {
    values.fold(0, u64::saturating_add)
}

/// The cache hit rate in percent, 0 without lookups.
fn hit_rate_pct(hits: u64, misses: u64) -> f64 {
    match hits.saturating_add(misses) {
        0 => 0.0,
        lookups => 100.0 * hits as f64 / lookups as f64,
    }
}

/// Aggregates a query journal: per-kind latency percentiles, aggregate
/// totals (printed in the exact `--stats` line formats so a journal of
/// a deterministic session reproduces `ppd debug --stats` bit-for-bit),
/// bytes per query, and the cache hit-rate trend across the session.
fn cmd_obs_report(path: &str, format: Format) -> ExitCode {
    let Some(text) = read(path) else { return ExitCode::FAILURE };
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
    let sum = |f: fn(&JournalLine) -> u64| total(records.iter().map(f));
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
    let rate = |rs: &[JournalLine]| {
        let cost = |name| total(rs.iter().map(|r| r.cost(name)));
        hit_rate_pct(cost("cache_hits"), cost("cache_misses"))
    };
    let (early, late) = (rate(&records[..half]), rate(&records[half..]));
    // Per-kind rollup, by first appearance so the table is stable.
    let mut kinds: Vec<(String, Vec<u64>, u64)> = Vec::new();
    for r in &records {
        match kinds.iter_mut().find(|(k, _, _)| *k == r.kind) {
            Some((_, lats, bytes)) => {
                lats.push(r.latency_ns);
                *bytes = bytes.saturating_add(r.cost("bytes_read"));
            }
            None => kinds.push((r.kind.clone(), vec![r.latency_ns], r.cost("bytes_read"))),
        }
    }
    for (_, lats, _) in &mut kinds {
        lats.sort_unstable();
    }
    if format == Format::Json {
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
                    total(lats.iter().copied()),
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
            hit_rate_pct(hits, misses),
            by_kind.join(","),
        );
        return ExitCode::SUCCESS;
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
    let hr = hit_rate_pct(hits, misses);
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
    let Some(text) = read(path) else { return ExitCode::FAILURE };
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
