//! An interactive PPD debugger — the "easy-to-use interface" the paper's
//! §7 names as the long-range goal.
//!
//! Reads commands from stdin, so it works both interactively and piped:
//!
//! ```text
//! cargo run --example debugger                       # demo program
//! echo 'run
//! root
//! back 0
//! races
//! quit' | cargo run --example debugger
//! ```
//!
//! Commands: `help`, `source`, `break <line>`, `run [seed]`, `root`,
//! `graph`, `back <node>`, `slice <node>`, `expand <node>`, `races`,
//! `deadlock`, `state`, `intervals`, `dot`, `quit`.

use ppd::analysis::EBlockStrategy;
use ppd::core::{shared_state_at, Controller, Execution, PpdSession, RunConfig};
use ppd::graph::{dot, DynNodeId, DynNodeKind};
use ppd::lang::ProcId;
use ppd::runtime::SchedulerSpec;
use std::io::{self, BufRead, Write};

const DEMO: &str = "\
shared int balance = 100;
sem guard = 1;

int fee(int amount) {
    int pct = amount / 10;
    return pct + 1;
}

process Teller {
    p(guard);
    int amount = input();
    int charge = fee(amount);
    balance = balance - amount - charge;
    int result = balance;
    v(guard);
    assert(result >= 0);
    print(result);
}

process Auditor {
    p(guard);
    balance = balance + 0;
    v(guard);
}
";

struct Debugger {
    session: PpdSession,
    execution: Option<Execution>,
    breakpoints: Vec<ppd::lang::StmtId>,
}

fn main() -> io::Result<()> {
    println!("PPD interactive debugger — type `help` for commands.\n");
    let session =
        PpdSession::prepare(DEMO, EBlockStrategy::per_subroutine()).expect("demo compiles");
    let mut dbg = Debugger { session, execution: None, breakpoints: Vec::new() };
    println!("loaded demo program ({} processes). `source` to view.", dbg.session.rp().procs.len());

    let stdin = io::stdin();
    print!("ppd> ");
    io::stdout().flush()?;
    for line in stdin.lock().lines() {
        let line = line?;
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        let arg = parts.next();
        match cmd {
            "" => {}
            "help" => help(),
            "quit" | "exit" => break,
            "source" => println!("{DEMO}"),
            "break" => dbg.cmd_break(arg),
            "run" => dbg.cmd_run(arg),
            "root" | "graph" | "back" | "slice" | "expand" | "races" | "deadlock" | "state"
            | "intervals" | "dot" => dbg.with_execution(cmd, arg),
            other => println!("unknown command `{other}`; try `help`"),
        }
        print!("ppd> ");
        io::stdout().flush()?;
    }
    println!("bye");
    Ok(())
}

fn help() {
    println!(
        "\
  source          show the program
  break <line>    set a breakpoint on a source line
  run [seed]      execute (round-robin, or Random{{seed}})
  root            show the halt node and its immediate causes
  graph           list the dynamic-graph fragment built so far
  back <node>     one flowback step from node #n
  slice <node>    full backward slice from node #n
  expand <node>   expand an unexpanded sub-graph/loop node
  races           race report for this execution instance
  deadlock        deadlock report, if deadlocked
  state           restored shared state at the halt
  intervals       log intervals of the halted process
  dot             Graphviz DOT of the dynamic graph
  quit            exit"
    );
}

impl Debugger {
    fn cmd_break(&mut self, arg: Option<&str>) {
        let Some(line) = arg.and_then(|a| a.parse::<u32>().ok()) else {
            println!("usage: break <line>");
            return;
        };
        let stmts = self.session.analyses().database.stmts_at_line(line);
        if stmts.is_empty() {
            println!("no statement starts on line {line}");
            return;
        }
        self.breakpoints.extend(&stmts);
        println!("breakpoint at line {line} ({} statement(s))", stmts.len());
    }

    fn cmd_run(&mut self, arg: Option<&str>) {
        let scheduler = match arg.and_then(|a| a.parse::<u64>().ok()) {
            Some(seed) => SchedulerSpec::Random { seed },
            None => SchedulerSpec::RoundRobin,
        };
        let config = RunConfig {
            scheduler,
            inputs: vec![vec![95], vec![]], // Teller withdraws 95: fee makes it overdraw
            breakpoints: self.breakpoints.clone(),
            ..RunConfig::default()
        };
        let execution = self.session.execute(config);
        println!("outcome: {:?}", execution.outcome);
        for &(p, v) in &execution.output {
            println!("  output[{}]: {v}", self.session.rp().proc_name(p));
        }
        println!(
            "logs: {} entries / {} bytes; parallel graph: {} nodes",
            execution.logs.total_entries(),
            execution.logs.total_bytes(),
            execution.pgraph.nodes().len()
        );
        self.execution = Some(execution);
    }

    fn with_execution(&mut self, cmd: &str, arg: Option<&str>) {
        let Some(execution) = self.execution.as_ref() else {
            println!("no execution yet — `run` first");
            return;
        };
        let mut controller = Controller::new(&self.session, execution);
        let root = match controller.start() {
            Ok(r) => r,
            Err(e) => {
                println!("cannot start debugging: {e}");
                return;
            }
        };
        let parse_node = |a: Option<&str>| a.and_then(|s| s.parse::<u32>().ok()).map(DynNodeId);
        match cmd {
            "root" => {
                print_node(&controller, root);
                println!("immediate causes:");
                for (n, k) in controller.flowback(root) {
                    println!("  <-[{k:?}]- #{} {}", n.0, controller.graph().node(n).label);
                }
            }
            "graph" => {
                for n in controller.graph().nodes() {
                    print_node(&controller, n.id);
                }
            }
            "back" => match parse_node(arg) {
                Some(n) if (n.index()) < controller.graph().len() => {
                    for (p, k) in controller.flowback(n) {
                        println!("  <-[{k:?}]- #{} {}", p.0, controller.graph().node(p).label);
                    }
                }
                _ => println!("usage: back <node#>"),
            },
            "slice" => match parse_node(arg) {
                Some(n) if (n.index()) < controller.graph().len() => {
                    for s in controller.backward_slice(n) {
                        print_node(&controller, s);
                    }
                }
                _ => println!("usage: slice <node#>"),
            },
            "expand" => match parse_node(arg) {
                Some(n) if (n.index()) < controller.graph().len() => match controller.expand(n) {
                    Ok(report) => {
                        println!("expanded into {} nodes:", report.nodes.len());
                        for added in report.nodes {
                            print_node(&controller, added);
                        }
                    }
                    Err(e) => println!("{e}"),
                },
                _ => println!("usage: expand <node#> (see unexpanded boxes in `graph`)"),
            },
            "races" => {
                let races = controller.races();
                if races.is_empty() {
                    println!("this execution instance is race-free (Definition 6.4)");
                } else {
                    for r in races {
                        println!("  {}", r.description);
                    }
                }
            }
            "deadlock" => match controller.deadlock_report() {
                Some(report) => {
                    for e in report {
                        println!("  {} is {}", e.proc_name, e.waiting_for);
                    }
                }
                None => println!("not deadlocked"),
            },
            "state" => match shared_state_at(&self.session, execution, u64::MAX) {
                Ok(state) => {
                    for v in self.session.rp().shared_vars() {
                        println!("  {} = {}", self.session.rp().var_name(v), state[v.index()]);
                    }
                    println!("  (last logged values; replay regenerates in-interval updates)");
                }
                Err(e) => println!("{e}"),
            },
            "intervals" => {
                let proc = controller.graph().node(root).proc;
                for iv in execution.logs.intervals(proc) {
                    println!(
                        "  {} instance {} prelog#{} postlog{:?}",
                        iv.eblock, iv.instance, iv.prelog_pos, iv.postlog_pos
                    );
                }
            }
            "dot" => println!("{}", dot::dynamic_to_dot(controller.graph())),
            _ => unreachable!(),
        }
        let _ = ProcId(0);
    }
}

fn print_node(controller: &Controller<'_>, id: DynNodeId) {
    let n = controller.graph().node(id);
    let tag = match &n.kind {
        DynNodeKind::Entry => "entry",
        DynNodeKind::Exit => "exit",
        DynNodeKind::Singular { .. } => "stmt",
        DynNodeKind::SubGraph { expanded: false, .. } => "call*", // expandable
        DynNodeKind::SubGraph { .. } => "call",
        DynNodeKind::Param { .. } => "param",
        DynNodeKind::LoopGraph { expanded: false, .. } => "loop*",
        DynNodeKind::LoopGraph { .. } => "loop",
    };
    let value = n.value.as_ref().map(|v| format!(" = {v}")).unwrap_or_default();
    println!("  #{:<3} [{tag:<5}] {}{value}", id.0, n.label);
}
