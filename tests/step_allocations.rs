//! Pins the interpreter's allocation rate: an uninstrumented run of a
//! call-free program makes no heap allocation per scheduler step.
//!
//! The step loop reuses its runnable-process buffer and each frame's
//! read-set buffer, keeps locals in per-body slots and resolves names
//! through dense id tables, so once its buffers have grown a step
//! allocates nothing. A change that puts an allocation back on the
//! per-step path (collecting a `Vec` per step, a map insert per write)
//! lifts the rate to about one per step and fails here.
//!
//! A counting global allocator counts the allocations made on the
//! test's own thread only, so tests running beside it in this binary do
//! not disturb the count.

use ppd::analysis::Analyses;
use ppd::lang::corpus;
use ppd::runtime::{ExecConfig, Machine, NullTracer, SchedulerSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: a thread being torn down may still free or allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the count
// is a const-initialized thread-local `Cell`, which neither allocates
// nor needs a destructor.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for `layout`, and a valid `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block `System` returned for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations per scheduler step of an uninstrumented run of `src`
/// under the seed-7 random schedule, counting the run alone (not the
/// machine's construction).
fn allocations_per_step(src: &str) -> f64 {
    let rp = ppd::lang::compile(src).expect("corpus program compiles");
    let analyses = Analyses::run(&rp);
    let config = ExecConfig {
        scheduler: SchedulerSpec::Random { seed: 7 },
        build_parallel_graph: false,
        ..ExecConfig::default()
    };
    let machine = Machine::new(&rp, &analyses, None, config);
    let before = allocations();
    let result = machine.run(&mut NullTracer);
    let made = allocations() - before;
    assert!(result.outcome.is_success(), "{:?}", result.outcome);
    assert!(result.steps > 10_000, "too short to measure a rate: {} steps", result.steps);
    made as f64 / result.steps as f64
}

#[test]
fn an_uninstrumented_step_does_not_allocate() {
    for (name, src) in
        [("prodcons", corpus::gen_prodcons(400)), ("token_ring", corpus::gen_token_ring(600))]
    {
        let rate = allocations_per_step(&src);
        assert!(rate < 0.01, "{name}: {rate:.4} allocations per step");
    }
}
