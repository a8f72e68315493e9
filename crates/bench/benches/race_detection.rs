//! Criterion version of experiment E4: happened-before construction
//! (transitive closure vs vector clocks) and all-pairs race detection
//! (naive vs the staged scan unfiltered and statically pruned) — the §7 cost
//! concern, with `ppd lint`'s GMOD/GREF candidate index as the pruner.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppd_analysis::EBlockStrategy;
use ppd_bench::workloads;
use ppd_graph::{detect_races, detect_races_naive, TransitiveClosure, VectorClocks};

fn bench_race_detection(c: &mut Criterion) {
    let mut ordering = c.benchmark_group("E4_ordering");
    for n in [2u32, 4, 8] {
        let w = workloads::racy_workers(n, 8);
        let session = w.prepare(EBlockStrategy::per_subroutine());
        let exec = session.execute(w.config());
        let g = exec.pgraph;
        ordering.bench_with_input(BenchmarkId::new("closure", n), &g, |b, g| {
            b.iter(|| TransitiveClosure::compute(g))
        });
        ordering.bench_with_input(BenchmarkId::new("vector_clocks", n), &g, |b, g| {
            b.iter(|| VectorClocks::compute(g))
        });
    }
    ordering.finish();

    let mut detect = c.benchmark_group("E4_detection");
    for n in [2u32, 4, 8] {
        let w = workloads::racy_workers(n, 8);
        let session = w.prepare(EBlockStrategy::per_subroutine());
        let cands = session.analyses().race_candidates.clone();
        let exec = session.execute(w.config());
        let g = exec.pgraph;
        let ord = VectorClocks::compute(&g);
        detect.bench_with_input(BenchmarkId::new("naive", n), &g, |b, g| {
            b.iter(|| detect_races_naive(g, &ord))
        });
        detect.bench_with_input(BenchmarkId::new("indexed", n), &g, |b, g| {
            b.iter(|| detect_races(g, &ord, None))
        });
        detect.bench_with_input(BenchmarkId::new("pruned", n), &g, |b, g| {
            b.iter(|| detect_races(g, &ord, Some(&cands)))
        });
    }
    detect.finish();
}

criterion_group!(benches, bench_race_detection);
criterion_main!(benches);
