//! Race detection over the parallel dynamic graph (§6).
//!
//! Runs the paper's Figure 6.1 program (two unsynchronized writes and a
//! message-ordered read of a shared variable) plus a racy bank, detects
//! the races from the execution instance's parallel dynamic graph, and
//! shows that a properly locked variant is race-free under many
//! schedules. Finishes with the static side: `ppd lint`'s race-candidate
//! pass flags the same conflict before any execution, and its candidate
//! index prunes the dynamic detector without changing its answer.
//!
//! Run with: `cargo run --example race_detection`

use ppd::analysis::{lint, EBlockStrategy};
use ppd::core::{Controller, PpdSession, RunConfig};
use ppd::graph::{detect_races, detect_races_naive, dot, stage_pairs, VectorClocks};
use ppd::runtime::SchedulerSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ----- Figure 6.1 -----
    let fig61 = ppd::lang::corpus::FIG_6_1;
    println!("=== {} ===\n{}", fig61.description, fig61.source);
    let session = PpdSession::prepare(fig61.source, EBlockStrategy::per_subroutine())?;
    let execution = session.execute(RunConfig::default());
    let controller = Controller::new(&session, &execution);

    println!("parallel dynamic graph:");
    println!(
        "  {} sync nodes, {} internal edges, {} sync edges",
        execution.pgraph.nodes().len(),
        execution.pgraph.internal_edges().len(),
        execution.pgraph.sync_edges().len(),
    );
    println!("\nraces detected:");
    for r in controller.races() {
        println!("  {}", r.description);
    }
    println!(
        "\nNote: P1's write IS ordered against P3's read (through the message\n\
         sync edge), so only the P2 pairs race — exactly the paper's §6.3."
    );

    // DOT export for visual inspection.
    let dot_text = dot::parallel_to_dot(&execution.pgraph, session.rp());
    println!("\nGraphviz (first lines):");
    for line in dot_text.lines().take(8) {
        println!("  {line}");
    }

    // ----- Racy vs locked bank under many schedules -----
    println!("\n=== bank with a missing lock, 10 random schedules ===");
    let racy =
        PpdSession::prepare(ppd::lang::corpus::BANK_RACY.source, EBlockStrategy::per_subroutine())?;
    let mut racy_hits = 0;
    for seed in 0..10 {
        let execution = racy.execute(RunConfig {
            scheduler: SchedulerSpec::Random { seed },
            ..RunConfig::default()
        });
        let controller = Controller::new(&racy, &execution);
        let n = controller.races().len();
        if n > 0 {
            racy_hits += 1;
        }
        println!("  seed {seed}: {n} race pair(s)");
    }
    println!("  -> {racy_hits}/10 schedules exhibited the race");

    println!("\n=== correctly locked bank, 10 random schedules ===");
    let locked =
        PpdSession::prepare(ppd::lang::corpus::BANK.source, EBlockStrategy::per_subroutine())?;
    for seed in 0..10 {
        let execution = locked.execute(RunConfig {
            scheduler: SchedulerSpec::Random { seed },
            ..RunConfig::default()
        });
        let controller = Controller::new(&locked, &execution);
        assert!(controller.is_race_free(), "seed {seed} raced!");
    }
    println!("  all 10 race-free (Definition 6.4)");

    // ----- The static side: lint finds the candidate before running -----
    println!("\n=== static race candidates (ppd lint) on the racy bank ===");
    let file = ppd::lang::SourceFile::new("bank_racy.ppd", ppd::lang::corpus::BANK_RACY.source);
    for d in lint::run_default(racy.rp(), racy.analyses(), 1) {
        if d.code == "PPD001" {
            println!("{}", d.render(&file));
        }
    }

    // The same (variable, process pair) index prunes the dynamic
    // detector: identical races, fewer Definition 6.4 comparisons.
    println!("=== pruning the dynamic detector with the static index ===");
    let execution = racy.execute(RunConfig {
        scheduler: SchedulerSpec::Random { seed: 0 },
        ..RunConfig::default()
    });
    let ord = VectorClocks::compute(&execution.pgraph);
    let cands = &racy.analyses().race_candidates;
    let naive = detect_races_naive(&execution.pgraph, &ord);
    let pruned = detect_races(&execution.pgraph, &ord, Some(cands));
    assert_eq!(naive, pruned, "pruning must not change the race set");
    let pairs = stage_pairs(&execution.pgraph, &[cands]);
    println!(
        "  naive examined {} edge pair(s); pruned examined {}\n  \
         both report {} race pair(s) — the GMOD/GREF index is correctness-preserving",
        pairs.naive,
        pairs.filtered[0],
        naive.len()
    );
    Ok(())
}
