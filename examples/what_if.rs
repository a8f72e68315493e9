//! State restoration and what-if replay (§5.7).
//!
//! "Restoration of the program state … can allow the user to experiment
//! by changing the values of variables to see the effect of such changes
//! on program behavior." We restore shared state at several points of a
//! failed run, then replay the failing e-block with a variable
//! overridden and watch the failure disappear.
//!
//! Run with: `cargo run --example what_if`

#![allow(clippy::field_reassign_with_default)]

use ppd::analysis::EBlockStrategy;
use ppd::core::{shared_state_at, what_if_replay, PpdSession, RunConfig};
use ppd::lang::{BodyId, ProcId, Value};

const SOURCE: &str = "
shared int out;
shared int attempts;

int divide(int num, int den) {
    return num / den;
}

process Main {
    int d = input();
    attempts = attempts + 1;
    out = divide(100, d);
    print(out);
}
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Source ===\n{SOURCE}");
    let session = PpdSession::prepare(SOURCE, EBlockStrategy::per_subroutine())?;
    let mut config = RunConfig::default();
    config.inputs = vec![vec![0]]; // d = 0 -> divide fails
    let execution = session.execute(config);
    println!("execution: {:?}\n", execution.outcome);

    // §5.7 restoration: shared state at the start vs at the halt.
    let rp = session.rp();
    println!("restored shared state:");
    for (label, t) in [("t = 0", 0), ("at halt", u64::MAX)] {
        let state = shared_state_at(&session, &execution, t)?;
        let rendered: Vec<String> = rp
            .shared_vars()
            .map(|v| format!("{} = {}", rp.var_name(v), state[v.index()]))
            .collect();
        println!("  {label}: {}", rendered.join(", "));
    }

    // Locate divide's open interval (it was running when the failure hit).
    let divide = rp.func_by_name("divide").unwrap();
    let interval = execution
        .logs
        .open_intervals(ProcId(0))
        .into_iter()
        .find(|iv| session.plan().eblock(iv.eblock).region.body() == BodyId::Func(divide))
        .expect("divide was executing at the halt");
    println!("\nreplaying divide's interval {:?}", interval.eblock);

    // Faithful replay reproduces the failure.
    let faithful = what_if_replay(&session, &execution, interval, &[])?;
    println!("  faithful replay: {:?}", faithful.result.outcome);

    // What-if: override the denominator.
    let den = rp.var_by_name(BodyId::Func(divide), "den").unwrap();
    for try_den in [4, 10, 25] {
        let modified =
            what_if_replay(&session, &execution, interval, &[(den, Value::Int(try_den))])?;
        let ret = modified.events.iter().rev().find_map(|e| match e.kind {
            ppd::runtime::EventKind::Return => e.value,
            _ => None,
        });
        println!("  what-if den = {try_den}: {:?}, returns {:?}", modified.result.outcome, ret);
    }
    println!("\nThe failure is confirmed to be the zero denominator, without");
    println!("ever re-executing the rest of the program.");
    Ok(())
}
