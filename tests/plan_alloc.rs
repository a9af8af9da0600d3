//! Dispatch allocates nothing. A warmed `Executor::auto()` SpMV over a
//! small operand, and a warmed `Executor::serial()` SpMV or dense SpMM,
//! must make zero heap allocations per call: the plan keeps the inputs
//! of its rationale rather than rendering text, and fixed modes explain
//! themselves with a static reason.
//!
//! A counting global allocator tallies allocations per thread, and only
//! while that thread counts, so concurrent tests and idle pool workers
//! do not count.

use smash::kernels::planner::Planner;
use smash::matrix::{generators, Csr, Dense};
use smash::Executor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// This thread's allocation count while it counts; `None` otherwise.
    static ALLOCS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn tally() {
    let _ = ALLOCS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread, per call, after one
/// warm-up call.
fn allocs_per_call(mut f: impl FnMut()) -> usize {
    const CALLS: usize = 16;
    f();
    ALLOCS.with(|n| n.set(Some(0)));
    for _ in 0..CALLS {
        f();
    }
    ALLOCS
        .with(|n| n.replace(None))
        .unwrap_or(0)
        .div_ceil(CALLS)
}

/// The small operands of a serving loop, shaped like the calibration
/// zoo's tiny-uniform and small-uniform matrices.
fn small_operands() -> [Csr<f64>; 2] {
    [
        generators::uniform(64, 64, 500, 1),
        generators::uniform(256, 256, 3_000, 2),
    ]
}

#[test]
fn warmed_dispatch_makes_no_heap_allocation() {
    let auto = Executor::auto();
    let serial = Executor::serial();
    for a in small_operands() {
        let (rows, cols) = (a.rows(), a.cols());
        // The built-in table measured serial CSR fastest on these shapes
        // at every thread count, so no pool dispatch is involved.
        let plan = auto.plan_spmv(&a);
        assert!(!plan.choice.parallel(), "{plan}");
        let x = vec![0.5f64; cols];
        let mut y = vec![0.0f64; rows];
        let shape = format!("{rows}x{cols}");

        assert_eq!(
            allocs_per_call(|| drop(auto.plan_spmv(&a))),
            0,
            "Auto plan {shape}"
        );
        assert_eq!(
            allocs_per_call(|| auto.spmv(&a, &x, &mut y)),
            0,
            "Auto spmv {shape}"
        );
        assert_eq!(
            allocs_per_call(|| serial.spmv(&a, &x, &mut y)),
            0,
            "Serial spmv {shape}"
        );

        let b = generators::dense_batch(cols, 8, 3);
        let mut c = Dense::zeros(rows, 8);
        assert_eq!(
            allocs_per_call(|| serial.spmm_dense(&a, &b, &mut c)),
            0,
            "Serial spmm_dense {shape}"
        );
    }
}

#[test]
fn the_threshold_tier_allocates_nothing_either() {
    let auto = Executor::auto_with(Planner::empty());
    let a = generators::uniform(64, 64, 500, 1);
    let (x, mut y) = (vec![0.5f64; 64], vec![0.0f64; 64]);
    assert!(!auto.plan_spmv(&a).choice.parallel());
    assert_eq!(allocs_per_call(|| auto.spmv(&a, &x, &mut y)), 0);
}

#[test]
fn rendering_a_rationale_is_what_allocates() {
    // The counter is live: rendering text on request does allocate.
    let plan = Executor::auto().plan_spmv(&small_operands()[0]);
    assert!(allocs_per_call(|| drop(plan.rationale())) > 0);
}
