//! Quickstart: debug a failure with flowback analysis.
//!
//! A sensor-processing program divides by a "gain" that a planted bug
//! makes always zero. We run it under the instrumented object code,
//! watch it fail, then use the PPD Controller to walk the causal chain
//! backwards from the failure to the bug — without re-executing the
//! whole program.
//!
//! Run with: `cargo run --example quickstart`

#![allow(clippy::field_reassign_with_default)]

use ppd::analysis::EBlockStrategy;
use ppd::core::{Controller, PpdSession, RunConfig};
use ppd::graph::StaticGraph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = ppd::lang::corpus::FLOWBACK_DEMO.source;
    println!("=== Source ===\n{source}");

    // Preparatory phase (§3.2.1): compile + semantic analyses + e-blocks,
    // and the §4.1 static graph built from those analyses.
    let session = PpdSession::prepare(source, EBlockStrategy::per_subroutine())?;
    let static_graph = StaticGraph::build(session.rp(), session.analyses());
    println!(
        "preparatory phase: {} e-blocks, {} static-graph edges\n",
        session.plan().eblocks().len(),
        static_graph.edge_count(),
    );

    // Execution phase (§3.2.2): run as instrumented object code.
    let mut config = RunConfig::default();
    config.inputs = vec![vec![42, 10]];
    let execution = session.execute(config);
    println!("execution phase: outcome = {:?}", execution.outcome);
    println!(
        "logs: {} entries, {} bytes across {} processes\n",
        execution.logs.total_entries(),
        execution.logs.total_bytes(),
        execution.logs.process_count(),
    );

    // Debugging phase (§3.2.3): flowback analysis from the failure.
    let mut controller = Controller::new(&session, &execution);
    let root = controller.start()?;
    println!("=== Flowback from the failure ===");
    println!("root: {}", controller.graph().node(root).label);

    // Walk the full backward slice — the causal history of the failure.
    println!("\ncausal history (oldest first):");
    for node in controller.backward_slice(root) {
        let n = controller.graph().node(node);
        let value = n.value.as_ref().map(|v| format!("  = {v}")).unwrap_or_default();
        println!("  {}{}", n.label, value);
    }

    println!("\nThe slice pins the bug: `calibration = reading - reading` is always 0,");
    println!("so `gain` is 0, so `out = work / gain` divides by zero.");
    Ok(())
}
