//! Determinism suite for the parallel debugging backend.
//!
//! Every parallel path — the e-block replay batch and the chunked
//! race scan — must be bit-identical to its sequential twin: same race
//! sets, same flowback slices, same dynamic-graph fingerprints, at
//! jobs ∈ {1, 2, 8}, over the corpus, the `programs/` directory, and
//! randomized schedules.
//! Plus a thread-stress test of the trace cache's byte budget (never
//! exceeded, no lost insertions, coherent counters) and of its exact
//! LRU eviction order.

mod common;

use common::{expand_all, fingerprint, workloads};
use ppd::analysis::EBlockStrategy;
use ppd::core::{Controller, PpdSession, RunConfig, TraceCache};
use ppd::graph::{detect_races, detect_races_naive, detect_races_par, VectorClocks};
use ppd::lang::{corpus, ProcId};
use ppd::obs::Registry;
use ppd::runtime::SchedulerSpec;
use proptest::prelude::*;
use std::sync::Arc;

const JOB_COUNTS: [usize; 3] = [1, 2, 8];

/// Full debug transcript at a given thread count: parallel prefetch of
/// every interval, then start + expand everything + flowback + slices
/// + races — all the answers a user could compare across jobs values.
fn transcript(session: &PpdSession, execution: &ppd::core::Execution, jobs: usize) -> Vec<String> {
    let mut c = Controller::new(session, execution);
    c.set_jobs(jobs);
    let prefetched = c.prefetch_all().expect("prefetch succeeds");
    assert!(prefetched > 0, "every workload logs at least one interval");
    let mut out = Vec::new();
    match c.start() {
        Ok(root) => {
            expand_all(&mut c);
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

#[test]
fn parallel_backend_is_bit_identical_across_corpus_and_programs() {
    for (name, session, config) in workloads() {
        let execution = session.execute(config);
        let baseline = transcript(&session, &execution, 1);
        for jobs in [2, 8] {
            let par = transcript(&session, &execution, jobs);
            assert_eq!(baseline, par, "{name}: jobs=1 vs jobs={jobs} diverged");
        }
    }
}

#[test]
fn parallel_race_scan_matches_every_sequential_detector() {
    // The corpus scans are too small to split across workers; this bank
    // run's ~10,000 conflicting pairs on `accounts[1]` split into
    // several chunks, so the workers and the in-order merge run too.
    let big = PpdSession::prepare(&corpus::gen_bank(100), EBlockStrategy::per_subroutine())
        .expect("generated program compiles");
    let big = ("bank_100".to_owned(), big, RunConfig::default());
    for (name, session, config) in workloads().into_iter().chain([big]) {
        let execution = session.execute(config);
        let g = &execution.pgraph;
        let ord = VectorClocks::compute(g);
        let naive = {
            let mut r = detect_races_naive(g, &ord);
            r.sort();
            r.dedup();
            r
        };
        let indexed = detect_races(g, &ord, None);
        let mhp = detect_races(g, &ord, Some(&session.analyses().mhp_candidates));
        assert_eq!(indexed, mhp, "{name}: MHP pruning changed the race set");
        for jobs in JOB_COUNTS {
            let par = detect_races_par(g, &ord, None, jobs);
            assert_eq!(par, indexed, "{name}: unpruned par scan diverged at jobs={jobs}");
            assert_eq!(par, naive, "{name}: par scan disagrees with naive at jobs={jobs}");
            let par_pruned =
                detect_races_par(g, &ord, Some(&session.analyses().mhp_candidates), jobs);
            assert_eq!(par_pruned, mhp, "{name}: pruned par scan diverged at jobs={jobs}");
        }
    }
}

// ---------------------------------------------------------------------
// Randomized schedules (proptest)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Under proptest-randomized schedules, every answer the debugger
    /// gives is independent of the worker-thread count.
    #[test]
    fn randomized_schedules_are_jobs_invariant(
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
        let baseline = transcript(&session, &execution, 1);
        for jobs in [2usize, 8] {
            let par = transcript(&session, &execution, jobs);
            prop_assert_eq!(&baseline, &par, "jobs={} diverged under seed {}", jobs, seed);
        }
    }
}

// ---------------------------------------------------------------------
// Trace-cache stress and eviction order
// ---------------------------------------------------------------------

/// Hammers one cache from many threads while a sampler thread checks
/// the budget invariant *concurrently* — every insert evicts down
/// under the cache's one lock before it adds its bytes, so
/// `bytes() <= budget()` must hold at every instant, not just at
/// quiescence.
#[test]
fn trace_cache_stress_budget_and_counters() {
    use ppd::analysis::EBlockId;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const THREADS: usize = 8;
    const KEYS_PER_THREAD: u64 = 200;
    const ENTRY_BYTES: usize = 64;
    // Room for ~24 entries: far fewer than the 1600 inserted, so the
    // budget is under constant eviction pressure.
    const BUDGET: usize = ENTRY_BYTES * 24;

    let registry = Registry::new();
    let cache = Arc::new(TraceCache::new(BUDGET, &registry));
    let events: Arc<Vec<ppd::runtime::TraceEvent>> = Arc::new(Vec::new());
    let done = Arc::new(AtomicUsize::new(0));
    let violations = Arc::new(AtomicUsize::new(0));
    let lost = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        // The concurrent invariant sampler: runs until every writer is
        // finished, checking the gauge between their operations.
        {
            let cache = Arc::clone(&cache);
            let done = Arc::clone(&done);
            let violations = Arc::clone(&violations);
            scope.spawn(move || {
                while done.load(Ordering::Relaxed) < THREADS {
                    if cache.bytes() > cache.budget() {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::yield_now();
                }
            });
        }
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            let events = Arc::clone(&events);
            let done = Arc::clone(&done);
            let violations = Arc::clone(&violations);
            let lost = Arc::clone(&lost);
            scope.spawn(move || {
                for i in 0..KEYS_PER_THREAD {
                    // Half the key space is shared across threads, so
                    // racing duplicate inserts happen; half is private.
                    let key = if i % 2 == 0 {
                        (ProcId(0), EBlockId((i % 16) as u32), i % 8)
                    } else {
                        (ProcId(t as u32 + 1), EBlockId(i as u32), i)
                    };
                    let _ = cache.get(&key);
                    if !cache.insert(key, Arc::clone(&events), ENTRY_BYTES) {
                        // Within-budget inserts on an enabled cache
                        // must never be dropped.
                        lost.fetch_add(1, Ordering::Relaxed);
                    }
                    if cache.bytes() > cache.budget() {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                    // The just-inserted key may already be evicted by a
                    // sibling — but a get must never error or wedge.
                    let _ = cache.get(&key);
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
    });

    assert_eq!(violations.load(Ordering::SeqCst), 0, "budget exceeded mid-run");
    assert_eq!(lost.load(Ordering::SeqCst), 0, "a within-budget insert was dropped");

    // Gauge coherence at quiescence: the byte gauge equals the sum of
    // what the cache actually holds, and the entry count implied by the
    // uniform entry size matches.
    assert_eq!(cache.bytes(), cache.len() * ENTRY_BYTES, "byte gauge out of sync with entries");
    assert!(cache.bytes() <= BUDGET);
    assert!(cache.len() <= BUDGET / ENTRY_BYTES);
    let evictions = registry.counter("cache.evictions").get();
    assert!(evictions > 0, "budget pressure must evict");
    // Every insert beyond capacity evicted exactly one entry.
    let inserted_new = evictions as usize + cache.len();
    assert!(
        inserted_new <= (THREADS as u64 * KEYS_PER_THREAD) as usize,
        "more evictions+residents than inserts"
    );
    // Every probe counted exactly once, as a hit or a miss.
    let probes = registry.counter("cache.hits").get() + registry.counter("cache.misses").get();
    assert_eq!(probes, 2 * THREADS as u64 * KEYS_PER_THREAD);
}

/// Budget shrink under load: `set_budget` must evict down and the new
/// ceiling must hold for subsequent inserts.
#[test]
fn trace_cache_budget_shrink_holds() {
    use ppd::analysis::EBlockId;
    let cache = TraceCache::new(4096, &Registry::new());
    let events: Arc<Vec<ppd::runtime::TraceEvent>> = Arc::new(Vec::new());
    for i in 0..40u64 {
        assert!(cache.insert((ProcId(0), EBlockId(i as u32), i), Arc::clone(&events), 100));
    }
    assert!(cache.bytes() <= 4096);
    cache.set_budget(500);
    assert!(cache.bytes() <= 500, "shrink evicts down to the new budget");
    assert!(cache.insert((ProcId(9), EBlockId(0), 0), Arc::clone(&events), 100));
    assert!(cache.bytes() <= 500);
    // An entry larger than the whole budget is refused, like the
    // sequential LRU it replaced.
    assert!(!cache.insert((ProcId(9), EBlockId(1), 0), Arc::clone(&events), 501));
}

/// Eviction follows exact LRU order across the whole cache: with room
/// for two entries, touching A after inserting B and then inserting C
/// evicts B and keeps A. A and C share one of eight SipHash shards, so
/// a cache that evicts from the inserting key's shard first drops A,
/// the most recently used entry.
#[test]
fn trace_cache_evicts_in_exact_lru_order() {
    use ppd::analysis::EBlockId;
    let registry = Registry::new();
    let cache = TraceCache::new(2 * 64, &registry);
    let events: Arc<Vec<ppd::runtime::TraceEvent>> = Arc::new(Vec::new());
    let a = (ProcId(0), EBlockId(3), 0);
    let b = (ProcId(0), EBlockId(0), 0);
    let c = (ProcId(1), EBlockId(2), 0);
    assert!(cache.insert(a, Arc::clone(&events), 64));
    assert!(cache.insert(b, Arc::clone(&events), 64));
    assert!(cache.get(&a).is_some());
    assert!(cache.insert(c, Arc::clone(&events), 64));
    assert_eq!(registry.counter("cache.evictions").get(), 1);
    assert!(cache.get(&b).is_none(), "B, the least recently used entry, is evicted");
    assert!(cache.get(&a).is_some(), "A, touched after B was inserted, survives");
    assert!(cache.get(&c).is_some());
}
