//! Replay-engine cache soundness: memoization must be invisible.
//!
//! Replay of a logged e-block is deterministic, so a Controller with the
//! trace cache enabled must produce node-for-node identical dynamic
//! graphs, slices and race reports as one with the cache disabled — even
//! when a tiny byte budget forces constant LRU eviction. On top of that,
//! repeating a query on a warm Controller must perform zero new
//! replays (the PR's acceptance criterion), observable via `DebugStats`.

mod common;

use common::{expand_all, fingerprint};
use ppd::analysis::EBlockStrategy;
use ppd::core::{Controller, PpdSession, RunConfig};
use ppd::graph::DynNodeId;
use ppd::lang::corpus;
use proptest::prelude::*;

fn flowback_demo() -> (PpdSession, ppd::core::Execution) {
    let session =
        PpdSession::prepare(corpus::FLOWBACK_DEMO.source, EBlockStrategy::per_subroutine())
            .expect("corpus program compiles");
    let config = RunConfig { inputs: vec![vec![42, 10]], ..RunConfig::default() };
    let execution = session.execute(config);
    assert!(execution.outcome.is_failure(), "flowback demo fails by design");
    (session, execution)
}

/// Acceptance criterion: repeating the same flowback/expansion query on
/// a warm Controller performs zero new e-block replays.
#[test]
fn warm_controller_repeats_queries_with_zero_new_replays() {
    let (session, execution) = flowback_demo();
    let mut controller = Controller::new(&session, &execution);

    let root = controller.start().expect("debugging starts");
    let first_flowback = controller.flowback(root);
    expand_all(&mut controller);
    let warm = controller.stats();
    assert!(warm.replays > 0, "warming performed replays");
    let warm_print = fingerprint(&controller);

    // The same queries again: start at the halt, flow back, re-request
    // the halted interval's materialization.
    let root2 = controller.start().expect("warm start");
    let second_flowback = controller.flowback(root2);
    let after = controller.stats();

    assert_eq!(
        after.replays, warm.replays,
        "a warm Controller must answer repeated queries from the cache"
    );
    assert!(after.cache_hits > warm.cache_hits, "the repeat was served by the cache");
    // Same query, same answer (node ids differ — the graph grew — but
    // the dependence structure the user sees is the same shape).
    assert_eq!(first_flowback.len(), second_flowback.len());
    assert!(fingerprint(&controller).starts_with(&warm_print), "repeat queries only append");
}

#[test]
fn stats_counters_are_coherent() {
    let (session, execution) = flowback_demo();
    let mut controller = Controller::new(&session, &execution);
    controller.start().expect("starts");
    expand_all(&mut controller);
    let s = controller.stats();
    assert_eq!(s.replays, s.cache_misses, "every miss is a replay and vice versa");
    assert!(s.trace_events > 0);
    assert!(s.log_entries_scanned > 0);
    assert!(s.queries > 0);
    assert!(s.cached_traces > 0 && s.cached_bytes > 0);
    assert!(s.hit_rate() >= 0.0 && s.hit_rate() <= 1.0);
    let rendered = s.render();
    assert!(rendered.contains("replays performed"));
    assert!(rendered.contains("hit rate"));
}

#[test]
fn tiny_budget_forces_evictions_but_not_wrong_answers() {
    // Recursive quicksort: many intervals with similar-sized traces, so
    // a fractional budget must keep evicting as expansion proceeds.
    let session = PpdSession::prepare(corpus::QUICKSORT.source, EBlockStrategy::per_subroutine())
        .expect("corpus program compiles");
    let execution = session.execute(RunConfig::default());

    // Reference: unbounded cache, fully expanded.
    let mut reference = Controller::new(&session, &execution);
    reference.start().expect("starts");
    expand_all(&mut reference);
    let total_bytes = reference.stats().cached_bytes;
    let traces = reference.stats().cached_traces;
    assert!(traces >= 3, "workload must span several intervals, got {traces}");

    // A budget that fits any single trace but not all of them together.
    let budget = (total_bytes * 2 / 3).max(1);
    let mut tiny = Controller::new(&session, &execution);
    tiny.set_cache_budget(budget);
    tiny.start().expect("starts");
    expand_all(&mut tiny);
    // Replay again from the halt so evicted entries get re-requested.
    tiny.start().expect("warm start under pressure");

    let s = tiny.stats();
    assert!(s.evictions > 0, "budget {budget} of {total_bytes} must evict");
    assert!(s.cached_bytes <= budget, "cache respects its budget");

    // And the graph the user saw is identical to the unbounded one.
    let mut unbounded = Controller::new(&session, &execution);
    unbounded.start().expect("starts");
    expand_all(&mut unbounded);
    unbounded.start().expect("warm");
    assert_eq!(fingerprint(&tiny), fingerprint(&unbounded));
}

#[test]
fn disabling_the_cache_changes_cost_not_results() {
    let (session, execution) = flowback_demo();

    let mut cached = Controller::new(&session, &execution);
    cached.start().expect("starts");
    expand_all(&mut cached);
    cached.start().expect("warm");

    let mut uncached = Controller::new(&session, &execution);
    uncached.set_cache_budget(0);
    uncached.start().expect("starts");
    expand_all(&mut uncached);
    uncached.start().expect("cold again");

    assert_eq!(fingerprint(&cached), fingerprint(&uncached));
    let s = uncached.stats();
    assert_eq!(s.cache_hits, 0, "a disabled cache never hits");
    assert_eq!(s.cached_traces, 0);
    assert!(s.replays > cached.stats().replays, "disabling the cache costs extra replays");
}

// ---------------------------------------------------------------------
// Randomized query sequences (the property-test satellite)
// ---------------------------------------------------------------------

fn workload(choice: u8) -> (PpdSession, ppd::core::Execution) {
    let (source, inputs): (&str, Vec<Vec<i64>>) = match choice % 5 {
        0 => (corpus::FLOWBACK_DEMO.source, vec![vec![42, 10]]),
        1 => (corpus::PRODUCER_CONSUMER.source, vec![]),
        2 => (corpus::FIG_4_1.source, vec![vec![5, 3, 2]]),
        3 => (corpus::FIG_6_1.source, vec![]),
        _ => (corpus::QUICKSORT.source, vec![]),
    };
    let session = PpdSession::prepare(source, EBlockStrategy::per_subroutine())
        .expect("corpus program compiles");
    let execution = session.execute(RunConfig { inputs, ..RunConfig::default() });
    (session, execution)
}

/// Runs a deterministic query sequence derived from `ops` and returns a
/// transcript of everything the user would have seen.
fn drive(controller: &mut Controller<'_>, ops: &[u8]) -> Vec<String> {
    let mut transcript = Vec::new();
    let root = match controller.start() {
        Ok(r) => r,
        Err(e) => return vec![format!("start failed: {e}")],
    };
    transcript.push(fingerprint(controller));
    for &op in ops {
        let len = controller.graph().len() as u32;
        let node = DynNodeId(op as u32 * 7 % len.max(1));
        match op % 6 {
            0 => {
                if let Some(n) = controller.unexpanded().first().copied() {
                    match controller.expand(n) {
                        Ok(report) => {
                            transcript.push(format!("expand {}: {:?}", n.0, report.nodes))
                        }
                        Err(e) => transcript.push(format!("expand {}: {e}", n.0)),
                    }
                }
            }
            1 => transcript.push(format!("slice: {:?}", controller.backward_slice(node))),
            2 => transcript.push(format!("back: {:?}", controller.flowback(root))),
            3 => transcript.push(format!("extend: {:?}", controller.auto_extend(node))),
            4 => transcript.push(format!("fwd: {:?}", controller.forward_slice(node))),
            _ => {
                let races: Vec<String> =
                    controller.races().into_iter().map(|r| r.description).collect();
                transcript.push(format!("races: {races:?}"));
            }
        }
        transcript.push(fingerprint(controller));
    }
    transcript
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The cache-soundness property: over a randomized query sequence,
    /// a cached Controller, an uncached one, and one under a tiny LRU
    /// budget see exactly the same graphs, slices, and race reports.
    #[test]
    fn cache_is_invisible_to_randomized_query_sequences(
        choice in any::<u8>(),
        ops in proptest::collection::vec(any::<u8>(), 0..12),
    ) {
        let (session, execution) = workload(choice);

        let mut cached = Controller::new(&session, &execution);
        let with_cache = drive(&mut cached, &ops);

        let mut uncached = Controller::new(&session, &execution);
        uncached.set_cache_budget(0);
        let without_cache = drive(&mut uncached, &ops);

        let mut squeezed = Controller::new(&session, &execution);
        squeezed.set_cache_budget(1500); // a trace or two, then evict
        let with_tiny_cache = drive(&mut squeezed, &ops);

        prop_assert_eq!(&with_cache, &without_cache);
        prop_assert_eq!(&with_cache, &with_tiny_cache);
        prop_assert_eq!(uncached.stats().cache_hits, 0);
    }
}
